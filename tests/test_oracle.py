"""Finite-difference route: discretization, Sturm bisection, extrapolation."""

import math

import numpy as np
import pytest

from robinbox import (
    DomainError,
    IntervalGeometry,
    discretize,
    eigenvalues_sturm,
    lambda1_interval,
    oracle_eigs,
    spectrum_interval,
)
from robinbox.oracle import _sturm_count


def dense_matrix(op):
    n = len(op.diag)
    m = np.diag(op.diag)
    m += np.diag(op.offdiag, 1) + np.diag(op.offdiag, -1)
    return m


def test_operator_shape_and_symmetry():
    op = discretize(IntervalGeometry(1.0), 0.7, 41)
    assert len(op.diag) == 41
    assert len(op.offdiag) == 40
    assert np.all(op.diag == op.diag[::-1])
    assert np.all(op.offdiag == op.offdiag[::-1])


def test_sturm_against_dense_solver():
    """The bisection counter must reproduce a dense eigensolver's answers."""
    op = discretize(IntervalGeometry(1.0), 0.7, 60)
    ours = eigenvalues_sturm(op, 5)
    dense = np.linalg.eigvalsh(dense_matrix(op))[:5]
    assert np.max(np.abs(ours - dense)) < 1e-8


def test_sturm_negative_coupling_against_dense():
    op = discretize(IntervalGeometry(2.0), -3.0, 80)
    ours = eigenvalues_sturm(op, 4)
    dense = np.linalg.eigvalsh(dense_matrix(op))[:4]
    assert np.max(np.abs(ours - dense)) < 1e-8


def test_neumann_zero_mode():
    vals, _ = oracle_eigs(IntervalGeometry(1.0), 0.0, 2)
    assert abs(vals[0]) < 1e-9


def test_second_order_convergence():
    exact = lambda1_interval(IntervalGeometry(1.0), 1.3)
    errs = []
    for n in (101, 201, 401):
        op = discretize(IntervalGeometry(1.0), 1.3, n)
        errs.append(abs(float(eigenvalues_sturm(op, 1)[0]) - exact))
    order = math.log2(errs[0] / errs[1])
    assert abs(order - 2.0) < 0.1
    order = math.log2(errs[1] / errs[2])
    assert abs(order - 2.0) < 0.15


def test_extrapolated_values_match_closed_form():
    for t, a in ((1.0, 1.0), (0.5, -2.0), (2.0, 0.3)):
        geom = IntervalGeometry(t)
        approx, est = oracle_eigs(geom, a, 4)
        exact = np.array(spectrum_interval(geom, a, 4).values)
        diff = np.abs(approx - exact)
        allowed = np.maximum(1e-6 * np.abs(exact), 1e-8)
        assert np.all(diff <= allowed)
        # the reported estimate must not understate the true error
        assert float(np.max(diff)) <= est + 1e-10


def test_negative_eigenvalues_reached():
    # alpha*t = -4 puts two modes below zero; the oracle must find both
    vals, _ = oracle_eigs(IntervalGeometry(1.0), -4.0, 3)
    assert vals[0] < vals[1] < 0.0 < vals[2]


def test_oracle_count_bounds():
    with pytest.raises(DomainError):
        oracle_eigs(IntervalGeometry(1.0), 0.0, 0)
    with pytest.raises(DomainError):
        oracle_eigs(IntervalGeometry(1.0), 0.0, 11)


def test_discretize_rejects_tiny_grid():
    with pytest.raises(DomainError):
        discretize(IntervalGeometry(1.0), 0.0, 5)


# float.hex of eigenvalues_sturm(discretize(IntervalGeometry(t), a, n), 6),
# recorded from the numpy-scalar Sturm loop that preceded the Python-float
# one; the two must agree bit for bit
PINNED_STURM = {
    (1.0, 1.0, 401): (
        "0x1.7af823e150f2ap-1", "0x1.076a05fec9fb6p+2", "0x1.778252871b0f0p+3",
        "0x1.82368893fc7c2p+4", "0x1.4b7c06d8653bep+5", "0x1.fd359d231a440p+5"),
    (0.5, -5.0, 801): (
        "-0x1.9a3dd256b88fcp+4", "-0x1.8493e44f07b14p+4", "0x1.580b14c267a12p+4",
        "0x1.1690b70d6e2d8p+6", "0x1.14b4cc456b154p+7", "0x1.c60586b93ee9fp+7"),
    (2.0, 0.0, 1601): (
        "-0x1.fd7c37b247213p-36", "0x1.3bd3c5f5bfcdep-1", "0x1.3bd3b2028fdbep+1",
        "0x1.634e02db28014p+2", "0x1.3bd3623663fdap+3", "0x1.ed79ebf1dbf86p+3"),
    (5.0, -5.0, 4001): (
        "-0x1.8ffc001479feap+4", "-0x1.8ffc001479feap+4", "0x1.b698d555fea8ap-4",
        "0x1.b671464d81572p-2", "0x1.ecf6db633fb50p-1", "0x1.b5d9481a20477p+0"),
}


@pytest.mark.parametrize("cell", sorted(PINNED_STURM))
def test_sturm_bisection_pinned_bit_for_bit(cell):
    t, a, n = cell
    got = eigenvalues_sturm(discretize(IntervalGeometry(t), a, n), 6)
    assert tuple(float(v).hex() for v in got) == PINNED_STURM[cell]


def test_sturm_count_zero_pivot_tie_break():
    """A pivot that is exactly 0 counts as negative and does not overflow."""
    op = discretize(IntervalGeometry(1.0), 0.7, 12)
    diag = op.diag.tolist()
    off2 = (op.offdiag * op.offdiag).tolist()
    rows = list(zip(diag[1:], off2))
    pivmin = float(np.finfo(np.float64).tiny * max(off2))
    eigs = np.linalg.eigvalsh(dense_matrix(op))
    shifts = [diag[0], diag[0] - 1.0, diag[0] + 1.0, diag[1]]
    assert diag[0] - shifts[0] == 0.0  # the first pivot is exactly zero
    counts = _sturm_count(diag[0], rows, shifts, pivmin)
    assert counts == [int(np.sum(eigs < x)) for x in shifts]

    # interior zero pivots: ones on all three diagonals and shift 0 give
    # q0 = 1, q1 = 1 - 1/1 = 0.  The n x n matrix has the eigenvalues
    # 1 + 2cos(j*pi/(n+1)): for n = 4 none is 0 and one lies below it; for
    # n = 5, 1 + 2cos(4*pi/6) = 0 exactly, and the negative tie-break counts
    # it with the one below, as dstebz does
    tiny = float(np.finfo(np.float64).tiny)
    assert _sturm_count(1.0, [(1.0, 1.0)] * 3, [0.0], tiny) == [1]
    assert _sturm_count(1.0, [(1.0, 1.0)] * 4, [0.0], tiny) == [2]
