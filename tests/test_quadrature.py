import math
import re

import numpy as np
import pytest

from elastowave import quadrature
from elastowave.errors import QuadratureError
from elastowave.quadrature import (
    adaptive_gauss_legendre,
    gauss_kronrod_rule,
    gauss_legendre_rule,
    integrate_intervals,
)


def test_rule_weights_sum_to_two():
    for n in (4, 8, 16):
        _, w = gauss_legendre_rule(n)
        assert w.sum() == pytest.approx(2.0, rel=1e-14)


def test_kronrod_rule_matches_scipy():
    # scipy's private copy of QUADPACK's qk21, read through its integrand
    # (the nodes, from descending order) and its error norm (K21 - G10).
    from scipy.integrate._quad_vec import _quadrature_gk21

    x, w = gauss_kronrod_rule()
    nodes, diffs = [], []

    def f(xs):
        nodes.append(xs)
        return np.eye(21)[len(nodes) - 1]

    def norm(v):
        diffs.append(v)
        return float(np.max(np.abs(v)))

    k21, _, _ = _quadrature_gk21(-1.0, 1.0, f, norm)
    assert np.array_equal(x, np.array(nodes)[::-1])
    assert np.array_equal(w[0], k21[::-1])
    np.testing.assert_allclose(w[1], (k21 - diffs[0])[::-1], rtol=1e-15, atol=1e-18)
    assert np.all(w[1, ::2] == 0.0) and np.all(w[1, 1::2] > 0.0)


def test_kronrod_rule_exactness():
    # On [0, 1]: K21 is exact to degree 31, its embedded G10 to degree 19.
    x, w = gauss_kronrod_rule()
    t, w = 0.5 * (x + 1.0), 0.5 * w
    for row, degree in ((0, 31), (1, 19)):
        for d in range(degree + 1):
            assert w[row] @ t ** d == pytest.approx(1.0 / (d + 1), rel=1e-15, abs=0.0)
    # One degree more is not exact.
    assert abs(w[1] @ t ** 20 - 1.0 / 21) > 1e-12


def test_polynomial_exactness():
    # The first panel, K21, integrates degree-31 polynomials exactly, on
    # each of 3 intervals
    a, b = np.array([-1.0, 0.0, 1.0]), np.array([0.0, 1.0, 2.0])
    val, failed = integrate_intervals(lambda xs, owner: xs[:, None] ** 17, a, b)
    assert not failed.any()
    np.testing.assert_allclose(val[:, 0], (b ** 18 - a ** 18) / 18.0, rtol=1e-14)
    assert val[:, 0].sum() == pytest.approx((2.0 ** 18 - 1.0) / 18.0, rel=1e-14)


def test_adaptive_smooth():
    val = adaptive_gauss_legendre(
        lambda xs: np.exp(-xs * xs)[:, None], -4.0, 4.0, rel_tol=1e-12
    )
    assert val[0] == pytest.approx(math.sqrt(math.pi) * math.erf(4.0), rel=1e-12)


def test_adaptive_vector_components():
    val = adaptive_gauss_legendre(
        lambda xs: np.column_stack([np.sin(10 * xs), xs, np.ones_like(xs)]), 0.0, math.pi,
        rel_tol=1e-11,
    )
    assert val[0] == pytest.approx((1 - math.cos(10 * math.pi)) / 10.0, abs=1e-11)
    assert val[1] == pytest.approx(math.pi ** 2 / 2.0, rel=1e-12)
    assert val[2] == pytest.approx(math.pi, rel=1e-13)


def test_adaptive_peak_refines():
    # a peak wide enough to touch the initial node cascade gets resolved
    val = adaptive_gauss_legendre(
        lambda xs: np.exp(-(((xs - 0.37) / 0.05) ** 2))[:, None], -10.0, 10.0,
        rel_tol=1e-9,
    )
    assert val[0] == pytest.approx(0.05 * math.sqrt(math.pi), rel=1e-8)


def test_narrow_peak_needs_break_points():
    # features far narrower than the panel cascade must be exposed by the
    # caller via interval splitting (as the mollified oracle does)
    f = lambda xs: np.exp(-(((xs - 0.37) / 1e-3) ** 2))[:, None]
    edges = [-10.0, 0.37 - 5e-3, 0.37 + 5e-3, 10.0]
    split = sum(
        adaptive_gauss_legendre(f, a, b, rel_tol=1e-9)
        for a, b in zip(edges[:-1], edges[1:])
    )
    assert split[0] == pytest.approx(1e-3 * math.sqrt(math.pi), rel=1e-8)


def test_collect_nodes_and_weights():
    # Accepted nodes are strictly interior, the weights sum to the interval
    # and the collected panels reproduce the value: one Kronrod panel for a
    # smooth integrand, Gauss-Legendre halves for ones it rejects.
    for f, count in ((lambda xs: np.column_stack([xs * xs, np.exp(-xs)]), 21),
                     (lambda xs: np.column_stack([xs * xs, 1.0 / (1.0 + xs)]), 32),
                     (lambda xs: np.abs(xs - 1.3)[:, None], None)):
        panels = []
        val = adaptive_gauss_legendre(f, 0.0, 3.0, rel_tol=1e-10, collect=panels)
        nodes = np.concatenate([p[0] for p in panels])
        weights = np.concatenate([p[1] for p in panels])
        assert (nodes.size == count) if count else (nodes.size % 32 == 0 and nodes.size > 48)
        assert np.all((nodes > 0.0) & (nodes < 3.0)) and np.all(np.diff(nodes) > 0.0)
        assert weights.sum() == pytest.approx(3.0, rel=1e-14)
        np.testing.assert_allclose(weights @ f(nodes), val, rtol=1e-14)


def test_non_convergence_raises_with_estimate(monkeypatch):
    # A step function can never satisfy 1e-14 relative accuracy panelwise.
    def step(xs):
        return (xs > 1 / 3).astype(float)[:, None]

    monkeypatch.setattr(quadrature, "MAX_DEPTH", 8)
    with pytest.raises(QuadratureError) as err:
        adaptive_gauss_legendre(step, 0.0, 1.0, rel_tol=1e-14)
    assert err.value.estimate is not None


def test_empty_interval():
    val = adaptive_gauss_legendre(lambda xs: xs[:, None], 1.0, 1.0)
    assert val.shape == (1,)
    assert val[0] == 0.0


def test_all_empty_intervals_keep_their_columns():
    # One node probe sizes the zero rows, as in a call with live intervals.
    f = lambda xs, owner: np.column_stack([xs, np.ones_like(xs)])
    val, failed = integrate_intervals(f, [1.0, 2.0], [1.0, 2.0])
    assert val.shape == (2, 2) and np.all(val == 0.0) and not failed.any()
    val, _ = integrate_intervals(f, [1.0, 2.0], [1.0, 3.0])
    assert val.shape == (2, 2) and np.all(val[0] == 0.0)


def test_many_intervals_match_one_interval_calls(monkeypatch):
    # Each interval of one engine call gets the panels and the value of
    # its own one-interval call, bitwise, however the nodes are batched.
    # An interval whose integrand is not finite is flagged and leaves the
    # others untouched.
    a = np.array([0.0, -1.0, 0.5, 2.0, 0.0])
    b = np.array([2.0, 3.0, 0.5, 2.7, 1.0])
    freq = np.array([3.0, 7.0, 1.0, 40.0, 1.0])

    def f(xs, owner):
        vals = np.column_stack(
            [np.sin(freq[owner] * xs), np.exp(-xs * xs), np.where(xs > 0.3, 1.0, 0.0)]
        )
        vals[(owner == 4) & (xs > 0.9)] = np.nan
        return vals

    ref, failed = integrate_intervals(f, a, b, rel_tol=1e-11)
    assert failed.tolist() == [False, False, False, False, True]
    assert np.all(np.isnan(ref[4])) and np.all(ref[2] == 0.0)
    for i in range(4):
        if a[i] < b[i]:
            one = adaptive_gauss_legendre(
                lambda xs, i=i: f(xs, np.full(xs.size, i)), a[i], b[i], rel_tol=1e-11
            )
            assert np.array_equal(one, ref[i])
    # Smooth intervals, which the Kronrod panel accepts, mixed with ones it
    # rejects (a step inside), which bisect.
    a2 = np.array([0.0, 0.5, -2.0, 1.0, 0.29, 2.0])
    b2 = np.array([0.25, 1.5, 2.0, 1.2, 0.31, 3.0])

    def g(xs):
        return np.column_stack([np.cos(xs), np.where(xs > 0.3, 1.0, 0.0)])

    sizes = []

    def counted(xs, owner):
        sizes.append(xs.size)
        return g(xs)

    ones = []
    for i in range(a2.size):
        panels = []
        ones.append(adaptive_gauss_legendre(g, a2[i], b2[i], rel_tol=1e-11, collect=panels))
        assert (len(panels) == 1) == (i not in (2, 4))
    # A budget below one panel's 16 nodes hands every panel over alone; one
    # of 50 splits the Kronrod round of six panels over three calls.
    monkeypatch.setattr(quadrature, "NODE_BUDGET", 7)
    again, failed_again = integrate_intervals(f, a, b, rel_tol=1e-11)
    assert np.array_equal(again, ref, equal_nan=True)
    assert np.array_equal(failed_again, failed)
    monkeypatch.setattr(quadrature, "NODE_BUDGET", 50)
    mixed, failed_mixed = integrate_intervals(counted, a2, b2, rel_tol=1e-11)
    assert sizes[:3] == [42, 42, 42] and not failed_mixed.any()
    assert np.array_equal(mixed, np.array(ones))


def test_never_converging_integrand_raises_quickly():
    # Noise never meets the tolerance, so every round doubles the live
    # panels of its interval. The engine stops once one interval would hold
    # more than MAX_LIVE_ROWS of them, long before max_depth, and at the
    # same depth however many such intervals share the call.
    rng = np.random.default_rng(0)
    nodes = []

    def noise(xs, owner):
        nodes.append(xs.size)
        return rng.random((xs.size, 1))

    depths = []
    for n in (1, 8):
        nodes.clear()
        with pytest.raises(QuadratureError, match="unconverged") as err:
            integrate_intervals(noise, np.zeros(n), np.ones(n), rel_tol=1e-10)
        assert err.value.estimate is not None
        depths.append(int(re.search(r"after (\d+) subdivisions", str(err.value)).group(1)))
        assert sum(nodes) <= n * 16 * (4 * quadrature.MAX_LIVE_ROWS + 3)
    assert depths[0] == depths[1] < 44


def test_non_finite_integrand_raises():
    with pytest.raises(QuadratureError, match="not finite"):
        adaptive_gauss_legendre(lambda xs: np.where(xs < 0.5, np.nan, 1.0)[:, None], 0.0, 1.0)


@pytest.mark.xfail(strict=True, reason="a jump between a panel edge and its first node is "
                   "invisible to the panel test; breakpoint-aware quadrature removes it")
def test_hidden_jump_near_panel_edge():
    # The outer Kronrod node sits 0.0022 of the width from the edge, right
    # of the jump, so K21 and G10 agree on the value 1.0 and the first
    # panel is accepted.
    val = adaptive_gauss_legendre(lambda xs: (xs > 0.002).astype(float)[:, None], 0.0, 1.0,
                                  rel_tol=1e-10)
    assert val[0] == pytest.approx(0.998, rel=1e-9)
