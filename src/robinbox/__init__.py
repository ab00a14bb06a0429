"""Robin Laplacian spectra of intervals and rectangular boxes.

Eigenvalues come from the transcendental characterizations of the
one-dimensional problem (x tan x, -x cot x, x tanh x, x coth x and their
inverses) combined across axes by separation of variables.  On top of the
closed forms sit shape-optimization scans over normalized rectangle
families, a two-eigenvalue inverse solver, an independent finite-difference
oracle, and property suites that witness each structural claim numerically.
"""

from .basisfn import (BasisFunction, alpha_minus, alpha_plus, eval_basis,
                      eval_inverse, f_aux, scaled_inverse, threshold_y)
from .box import (BoxGeometry, BoxMode, gap_box, lambda1_box, lambda2_box,
                  ratio_box, scaled_quantity, spectrum_box, steklov_sigma1)
from .errors import (AlphaZero, BracketNotFound, DimensionError, DomainError,
                     Inconsistent, MaxIterExceeded, NoSignChange,
                     NumericalFailure, RobinboxError)
from .figures import FigureId, figure_table
from .interval import (IntervalGeometry, ModeDescriptor, Parity, SignClass,
                       Spectrum, gap_interval, lambda1_interval,
                       lambda2_interval, spectrum_interval)
from .oracle import DiscreteOperator, discretize, eigenvalues_sturm, oracle_eigs
from .rootfind import (RootBracket, RootConfig, default_config,
                       expand_bracket, solve_bracketed)
from .shapes import (FAMILY_KINDS, OBJECTIVES, RectangleFamily, ScanResult,
                     gap_vs_segment, hear_rectangle, scan_family)
from .verify import CheckResult, SUITES, run_suite

__version__ = "0.1.0"

__all__ = [
    "AlphaZero",
    "BasisFunction",
    "BoxGeometry",
    "BoxMode",
    "BracketNotFound",
    "CheckResult",
    "DimensionError",
    "DiscreteOperator",
    "DomainError",
    "FAMILY_KINDS",
    "FigureId",
    "Inconsistent",
    "IntervalGeometry",
    "MaxIterExceeded",
    "ModeDescriptor",
    "NoSignChange",
    "NumericalFailure",
    "OBJECTIVES",
    "Parity",
    "RectangleFamily",
    "RobinboxError",
    "RootBracket",
    "RootConfig",
    "SUITES",
    "ScanResult",
    "SignClass",
    "Spectrum",
    "alpha_minus",
    "alpha_plus",
    "default_config",
    "discretize",
    "eigenvalues_sturm",
    "eval_basis",
    "eval_inverse",
    "expand_bracket",
    "f_aux",
    "figure_table",
    "gap_box",
    "gap_interval",
    "gap_vs_segment",
    "hear_rectangle",
    "lambda1_box",
    "lambda1_interval",
    "lambda2_box",
    "lambda2_interval",
    "oracle_eigs",
    "ratio_box",
    "run_suite",
    "scaled_inverse",
    "scaled_quantity",
    "scan_family",
    "solve_bracketed",
    "spectrum_box",
    "spectrum_interval",
    "steklov_sigma1",
    "threshold_y",
]
