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


def _check_against_scipy(order, scipy_rule):
    # scipy's private copy of a QUADPACK rule, read through its integrand
    # (the nodes, from descending order) and its error norm (K - G).
    x, w = gauss_kronrod_rule(order)
    nodes, diffs = [], []

    def f(xs):
        nodes.append(xs)
        return np.eye(order)[len(nodes) - 1]

    def norm(v):
        diffs.append(v)
        return float(np.max(np.abs(v)))

    k, _, _ = scipy_rule(-1.0, 1.0, f, norm)
    assert np.array_equal(x, np.array(nodes)[::-1])
    assert np.array_equal(w[0], k[::-1])
    np.testing.assert_allclose(w[1], (k - diffs[0])[::-1], rtol=1e-15, atol=1e-18)
    assert np.all(w[1, ::2] == 0.0) and np.all(w[1, 1::2] > 0.0)


def _check_exactness(order, degrees):
    # On [0, 1], each row exact to its degree, and the Gauss row not one
    # degree more.
    x, w = gauss_kronrod_rule(order)
    t, w = 0.5 * (x + 1.0), 0.5 * w
    for row, degree in enumerate(degrees):
        for d in range(degree + 1):
            assert w[row] @ t ** d == pytest.approx(1.0 / (d + 1), rel=1e-15, abs=0.0)
    assert abs(w[1] @ t ** (degrees[1] + 1) - 1.0 / (degrees[1] + 2)) > 1e-12


def test_kronrod_rule_matches_scipy():
    from scipy.integrate._quad_vec import _quadrature_gk21

    _check_against_scipy(21, _quadrature_gk21)


def test_kronrod15_rule_matches_scipy():
    from scipy.integrate._quad_vec import _quadrature_gk15

    _check_against_scipy(15, _quadrature_gk15)


def test_kronrod_rule_exactness():
    # K21 is exact to degree 31, its embedded G10 to degree 19.
    _check_exactness(21, (31, 19))


def test_kronrod15_rule_exactness():
    # K15 is exact to degree 22, its embedded G7 to degree 13.
    _check_exactness(15, (22, 13))


def test_probe_order_sets_the_first_panel():
    # A degree-13 polynomial, which G7 and G10 integrate exactly, passes
    # either probe: 15 or 21 nodes per interval in one engine call.
    a, b = np.array([-1.0, 0.0, 1.0]), np.array([0.0, 1.0, 2.0])
    for order in (15, 21):
        calls = []

        def f(xs, owner):
            calls.append(xs.size)
            return xs[:, None] ** 13

        values, failed = integrate_intervals(f, a, b, order=order)
        assert calls == [3 * order] and not failed.any()
        np.testing.assert_allclose(values[:, 0], (b ** 14 - a ** 14) / 14.0, rtol=1e-14)


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
    # caller via interval splitting
    f = lambda xs: np.exp(-(((xs - 0.37) / 1e-3) ** 2))[:, None]
    edges = [-10.0, 0.37 - 5e-3, 0.37 + 5e-3, 10.0]
    split = sum(
        adaptive_gauss_legendre(f, a, b, rel_tol=1e-9)
        for a, b in zip(edges[:-1], edges[1:])
    )
    assert split[0] == pytest.approx(1e-3 * math.sqrt(math.pi), rel=1e-8)


def test_collect_nodes_and_weights(monkeypatch):
    # Nodes collected through the integrand, rules and weights through
    # ``_panels``: every node is strictly interior, a smooth integrand is
    # done after the one 21-node Kronrod probe, and one the probe rejects
    # keeps the Kronrod sum as its depth-0 estimate and bisects into
    # 16-node Gauss-Legendre halves, both halves (32 nodes) in its first
    # round.
    rules = []
    panels = quadrature._panels

    def spy(f, lo, hi, owner, x, w):
        rules.append((lo.size, x.size, float(np.atleast_2d(w)[0].sum())))
        return panels(f, lo, hi, owner, x, w)

    monkeypatch.setattr(quadrature, "_panels", spy)
    cases = (
        (lambda xs: np.column_stack([xs * xs, np.exp(-xs)]), [9.0, 1.0 - math.exp(-3.0)], 1),
        (lambda xs: np.column_stack([xs * xs, 1.0 / (1.0 + xs)]), [9.0, math.log(4.0)], 2),
        (lambda xs: np.abs(xs - 1.3)[:, None], [0.5 * (1.3 ** 2 + 1.7 ** 2)], None),
    )
    for f, exact, calls in cases:
        rules.clear()
        nodes = []

        def g(xs):
            nodes.append(xs)
            return f(xs)

        val = adaptive_gauss_legendre(g, 0.0, 3.0, rel_tol=1e-10)
        nodes = np.concatenate(nodes)
        assert np.all((nodes > 0.0) & (nodes < 3.0))
        assert nodes.size == sum(rows * k for rows, k, _ in rules)
        assert all(weight == pytest.approx(2.0, rel=1e-14) for _, _, weight in rules)
        # One 21-node probe of the whole interval, then 16-node panels: the
        # interval's two halves in the first round.
        assert [k for _, k, _ in rules] == [21] + [16] * (len(rules) - 1)
        assert [rows for rows, _, _ in rules[:2]] == [1, 2][:len(rules)]
        assert len(rules) == calls if calls else len(rules) > 2
        np.testing.assert_allclose(val, exact, rtol=1e-10)


def test_probe_is_the_only_whole_width_panel(monkeypatch):
    # The Kronrod probe is depth 0 of the bisection: every nonempty
    # interval's whole width is evaluated once, whether the probe accepts
    # it (smooth), rejects it (a kink) or finds a non-finite value at its
    # centre node, which fails the interval without bisecting it.
    panels = quadrature._panels
    seen = []

    def spy(f, lo, hi, owner, x, w):
        seen.append((lo.copy(), hi.copy(), owner.copy()))
        return panels(f, lo, hi, owner, x, w)

    def f(xs, owner):
        vals = np.column_stack([np.exp(-xs), np.where(owner == 0, 0.0, np.abs(xs - 1.3))])
        vals[(owner == 3) & (xs == 0.0)] = np.nan
        return vals

    monkeypatch.setattr(quadrature, "_panels", spy)
    a, b = np.array([0.0, 0.0, 2.0, -1.0]), np.array([3.0, 3.0, 2.0, 1.0])
    vals, failed = integrate_intervals(f, a, b, rel_tol=1e-10)
    lo, hi, owner = (np.concatenate(parts) for parts in zip(*seen))
    whole = (lo == a[owner]) & (hi == b[owner])
    assert np.bincount(owner[whole], minlength=4).tolist() == [1, 1, 0, 1]
    # Only the kinked interval is bisected.
    counts = np.bincount(owner, minlength=4)
    assert counts[[0, 2, 3]].tolist() == [1, 0, 1] and counts[1] > 1
    assert failed.tolist() == [False, False, False, True]
    assert np.all(np.isnan(vals[3])) and np.all(vals[2] == 0.0)
    np.testing.assert_allclose(vals[1], [1.0 - math.exp(-3.0), 0.5 * (1.3 ** 2 + 1.7 ** 2)],
                               rtol=1e-10)


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
        nodes = []

        def probed(xs):
            nodes.append(xs.size)
            return g(xs)

        ones.append(adaptive_gauss_legendre(probed, a2[i], b2[i], rel_tol=1e-11))
        assert (nodes == [21]) == (i not in (2, 4))
    # A budget below one panel's 16 nodes hands every panel over alone; one
    # of 100 splits the Kronrod round of six panels, whose nodes count once
    # per rule (252), over three calls.
    monkeypatch.setattr(quadrature, "NODE_BUDGET", 7)
    again, failed_again = integrate_intervals(f, a, b, rel_tol=1e-11)
    assert np.array_equal(again, ref, equal_nan=True)
    assert np.array_equal(failed_again, failed)
    monkeypatch.setattr(quadrature, "NODE_BUDGET", 100)
    mixed, failed_mixed = integrate_intervals(counted, a2, b2, rel_tol=1e-11)
    assert sizes[:3] == [42, 42, 42] and not failed_mixed.any()
    assert np.array_equal(mixed, np.array(ones))


def test_engine_never_writes_the_integrands_values(monkeypatch):
    # The engine folds |values| into the L1 sums a run of panels at a time
    # and writes nothing back, so an integrand may return a read-only
    # array, or one it keeps: each integrates to the bits of a fresh
    # array, and a kept array is unchanged. Nor does the run length move
    # the bits. 40 intervals put 840 nodes in the Kronrod round, so the
    # fold takes more than one run; the kinks at 1.3 make them bisect.
    a = np.linspace(-1.0, 2.0, 40)
    b = a + np.linspace(0.5, 2.0, 40)

    def fresh(xs, owner):
        # Component-major, as the 3D kernel returns its block.
        return np.array([np.sin(3.0 * xs) - 0.2, np.abs(xs - 1.3), owner * np.cos(xs)]).T

    kept = []

    def shared(xs, owner):
        vals = fresh(xs, owner)
        kept.append((vals, vals.copy()))
        return vals

    def read_only(xs, owner):
        vals = fresh(xs, owner)
        vals.flags.writeable = False
        return vals

    ref, failed = integrate_intervals(fresh, a, b, rel_tol=1e-11)
    assert not failed.any()
    for f in (shared, read_only):
        got, failed = integrate_intervals(f, a, b, rel_tol=1e-11)
        assert np.array_equal(got, ref) and not failed.any()
    assert len(kept) > 1 and all(np.array_equal(vals, copy) for vals, copy in kept)
    for run in (1, 10 ** 6):
        monkeypatch.setattr(quadrature, "ABS_RUN", run)
        assert np.array_equal(integrate_intervals(fresh, a, b, rel_tol=1e-11)[0], ref)


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
