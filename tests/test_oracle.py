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
