"""Bracketed solver behavior, checked against a dumb bisection reference."""

import math

import pytest

from robinbox import (
    BracketNotFound,
    DomainError,
    MaxIterExceeded,
    NoSignChange,
    RootBracket,
    RootConfig,
    default_config,
    expand_bracket,
    solve_bracketed,
)


def pure_bisection(f, lo, hi, steps=200):
    flo = f(lo)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bracket(f, lo, hi):
    return RootBracket(lo, hi, f(lo), f(hi))


def test_cubic_root():
    f = lambda x: x * x * x - 2.0
    root = solve_bracketed(f, bracket(f, 0.0, 2.0))
    assert abs(root - 2.0 ** (1.0 / 3.0)) < 1e-13


def test_matches_pure_bisection_on_transcendental():
    # same equation both ways; the two routes must land on the same root
    f = lambda x: x * math.tan(x) - 1.0
    ref = pure_bisection(f, 0.1, 1.5)
    assert abs(ref - 0.8603335890193797) < 1e-15  # frozen bisection value
    root = solve_bracketed(f, bracket(f, 0.1, 1.5))
    assert abs(root - ref) < 1e-12


def test_root_at_endpoint_value_zero():
    f = lambda x: x - 1.0
    # endpoint values must strictly straddle zero, so f(lo) == 0 is rejected
    with pytest.raises(NoSignChange):
        bracket(f, 1.0, 2.0)


def test_bracket_rejects_same_sign():
    with pytest.raises(NoSignChange):
        bracket(lambda x: x * x + 1.0, -1.0, 1.0)


def test_bracket_rejects_bad_ordering():
    with pytest.raises(NoSignChange):
        RootBracket(2.0, 1.0, -1.0, 1.0)
    with pytest.raises(NoSignChange):
        RootBracket(math.nan, 1.0, -1.0, 1.0)


def test_config_validation():
    with pytest.raises(DomainError):
        RootConfig(abs_tol=0.0)
    with pytest.raises(DomainError):
        RootConfig(rel_tol=-1e-3)
    with pytest.raises(DomainError):
        RootConfig(max_iter=0)


def test_default_config_is_the_field_defaults(monkeypatch):
    # tolerances have one source; the environment plays no part
    monkeypatch.setenv("ROBINBOX_TOL_ABS", "1e-3")
    assert default_config() == RootConfig()


def test_max_iter_exceeded():
    f = lambda x: x * x * x - 2.0
    cfg = RootConfig(abs_tol=1e-300, rel_tol=0.0, max_iter=2)
    with pytest.raises(MaxIterExceeded):
        solve_bracketed(f, bracket(f, 0.0, 2.0), cfg)


def test_loose_tolerance_still_near_root():
    f = lambda x: math.cos(x)
    cfg = RootConfig(abs_tol=1e-3, rel_tol=0.0)
    root = solve_bracketed(f, bracket(f, 1.0, 2.0), cfg)
    assert abs(root - 0.5 * math.pi) < 1e-3


def test_expand_bracket_up_and_down():
    f = lambda x: x - 10.0
    br = expand_bracket(f, 0.0, direction="up")
    assert br.lo <= 10.0 <= br.hi
    assert abs(solve_bracketed(f, br) - 10.0) < 1e-12

    g = lambda x: x + 7.0
    br = expand_bracket(g, 0.0, direction="down")
    assert br.lo <= -7.0 <= br.hi


def test_expand_bracket_seed_on_root():
    """A seed that lands exactly on the root still yields a usable bracket."""
    f = lambda x: x - 1.0
    br = expand_bracket(f, 1.0, direction="up")
    assert abs(solve_bracketed(f, br) - 1.0) < 1e-9


def test_expand_bracket_gives_up():
    with pytest.raises(BracketNotFound):
        expand_bracket(lambda x: 1.0 + x * x, 0.0, direction="up", max_expansions=40)


def test_expand_bracket_bad_arguments():
    with pytest.raises(DomainError):
        expand_bracket(lambda x: x, 0.0, direction="sideways")
    with pytest.raises(DomainError):
        expand_bracket(lambda x: x, 0.0, growth=1.0)
    with pytest.raises(DomainError):
        expand_bracket(lambda x: x, 0.0, initial_step=0.0)


def test_dottie_fixed_point():
    f = lambda x: math.cos(x) - x
    root = solve_bracketed(f, bracket(f, 0.0, 1.0))
    assert abs(root - 0.7390851332151607) < 1e-13
