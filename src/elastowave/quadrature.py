"""Adaptive quadrature for vector-valued integrands.

Every integrand maps a node array xs (n,) to values (n, m). One
breadth-first engine, ``integrate_intervals``, integrates many intervals
at once. It first integrates each interval with one Gauss-Kronrod panel
of the caller's order: (10, 21), QUADPACK's ``qk21``, by default, or
(7, 15), its ``qk15``. The Kronrod sum is the value and the embedded
Gauss sum gives the error, |K21 - G10| or |K15 - G7|. An interval whose
error passes the test of the first bisection round is done; a smooth
interval so takes 21 or 15 nodes; qk21's outer nodes sit closer to the
interval's edges, where qk15 cannot see a jump.

The probe is depth 0 of the bisection: every other interval keeps its
Kronrod sum as its coarse estimate and the probe's error budget, so its
whole width is evaluated once. Every unconverged (interval, panel) pair
is a row, and each round evaluates both 16-point Gauss-Legendre halves of
every row in as few integrand calls as possible, none holding more than
NODE_BUDGET nodes. A row is accepted once its halves agree with its
coarse estimate within a width-proportional share of its interval's
budget; otherwise each half becomes a row with its own sum as the coarse
estimate, and an interval that would hold more than MAX_LIVE_ROWS rows
raises. This Gauss-Legendre bisection stays, rather than Gauss-Kronrod
bisection, because it keeps the panel trees, and so the values, of the
events that refine (the switch-on inside the P-S shell, the kinks of a
spline worldline) while their stored benchmark rows still carry those
values; ROADMAP items 2 and 3 regenerate the rows and then replace it.

The error test is relative: each component of an interval's integral
against rel_tol times its own magnitude, with a floor for tiny
components at 1e-3 of the floor scale, the larger of the interval's
largest component and an optional caller-supplied ``scale``. The
caller's scale is an absolute floor in the manner of QUADPACK's epsabs
(Piessens et al., 1983), taken from the source rather than from a knob:
without it, a window that holds only the far tail of a pulse chases the
rounding noise of values 1e-77 of the pulse's peak and never converges.

The engine returns values only; code that watches it (the tests, work
counters) wraps the integrand or ``_panels``, through which every
evaluation passes. ``adaptive_gauss_legendre`` is the one-interval call
of the same engine.
All evaluations happen at strictly interior nodes, so integrable endpoint
behavior that has been substituted away (see lineforce2d) never divides
by zero.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import QuadratureError

__all__ = [
    "gauss_legendre_rule",
    "gauss_kronrod_rule",
    "adaptive_gauss_legendre",
    "integrate_intervals",
]

_TINY = 1e-300

# The working-set rule of the 3D sampling path: no step may allocate and
# free more than 1 MiB at once. glibc hands the free top of its heap back
# to the kernel past its trim threshold, 1.19 MB once its dynamic mmap
# threshold has settled at 596 KB (as in a process that compiles this
# package from source), and a larger burst is then faulted in again by the
# next step. NODE_BUDGET bounds an engine round; cli.EVENT_CHUNK and
# cli._CSV_BLOCK_ROWS bound a 3D batch and a CSV block, and
# tests/test_working_set.py measures all three on the benchmark's grids.
#
# NODE_BUDGET is the most nodes handed to the integrand in one call, each
# counted once per rule whose sums the round keeps. A call of the 3D
# kernel has a fixed cost of some 150 numpy operations and holds 540-690
# bytes per node (its 39-wide block, the retarded states and its
# temporaries). So the two 1,536-node calls of a seed-0 `shell3d`
# bisection round peak at 871 KiB. The Kronrod probe, which keeps two
# rules' sums for every interval of the engine call, hands over half as
# many nodes: a 256-event `smooth3d` batch peaks at 922 KiB in four calls
# of 960 nodes, against 1,568 KiB in two calls of 1,920.
NODE_BUDGET = 2048

# Most nodes whose absolute values one step of the L1 fold holds (156 KiB
# at 39 columns): the integrand's values are only read, never copied whole.
ABS_RUN = 512

# Nodes of the Gauss-Legendre rule on every bisected panel.
NODES = 16

# Most live rows one interval may hold in a refinement round. An integrand
# that cannot meet the tolerance doubles its rows every round; this stops
# it long before the rows exhaust memory (the tests, the validate suite and
# the benchmark grids need at most 64). Counted per interval, so whether
# an integral fails does not depend on the intervals it is batched with.
MAX_LIVE_ROWS = 4096

# Most bisections of one panel. Read at call time, so a test can lower it.
MAX_DEPTH = 44


# QUADPACK's qk21 and qk15 tables (Piessens et al., 1983), by Kronrod
# order: the non-negative nodes of the Kronrod rule on [-1, 1],
# descending, with the Gauss nodes at odd positions; the Kronrod weights
# at them, and the Gauss weights at the Gauss nodes.
_GK = {
    21: (
        (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
         0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
         0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
         0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
         0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
         0.0),
        (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
         0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
         0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
         0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
         0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
         0.149445554002916905664936468389821),
        (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
         0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
         0.295524224714752870173892994651338),
    ),
    15: (
        (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
         0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
         0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
         0.207784955007898467600689403773245, 0.0),
        (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
         0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
         0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
         0.204432940075298892414161999234649, 0.209482141084727828012999174891714),
        (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
         0.381830050505118944950369775488975, 0.417959183673469387755102040816327),
    ),
}


@lru_cache(maxsize=32)
def gauss_legendre_rule(n: int):
    """Nodes and weights of the n-point rule on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


@lru_cache(maxsize=2)
def gauss_kronrod_rule(order: int = 21):
    """The ``order`` = 2n + 1 Kronrod nodes on [-1, 1], ascending, and weights (2, order).

    ``order`` is 21 (qk21, n = 10) or 15 (qk15, n = 7). Row 0 of the
    weights is the Kronrod rule (exact to degree 3n + 1: 31 or 22), row 1
    the embedded n-point Gauss rule (exact to degree 2n - 1: 19 or 13),
    zero at the nodes it does not use.
    """
    xgk, wgk, wg_half = _GK[order]
    half = np.array(xgk)
    x = np.concatenate([-half[:-1], half[::-1]])
    wg = np.zeros(half.size)
    wg[1::2] = wg_half
    w = np.array([wgk, wg])
    return x, np.concatenate([w[:, :-1], w[:, ::-1]], axis=1)


def _panels(f, lo, hi, owner, x, w):
    """Rule sums and first-rule L1 sums of panels [lo, hi] of intervals ``owner``.

    ``w`` holds the weights of one rule at nodes ``x`` (sums (n, m)), or
    one rule per row (sums (n, rules, m)); the L1 sums, of |f| under the
    first rule, are (n, m). The panels go to ``f`` in ceil(nodes x rules
    / NODE_BUDGET) near-equal runs of whole panels (one panel per call if
    a panel alone exceeds the budget): the Kronrod probe, which keeps two
    rules' sums, hands over half the nodes per call. Each panel is reduced
    on its own, so the sums do not depend on how the panels were split.
    The integrand's values are only read: the L1 sums fold |values| a run
    of at most ABS_RUN nodes at a time, and each call's values are freed
    before the next call.
    """
    k = x.size
    rules = len(w) if w.ndim == 2 else 1
    half = 0.5 * (hi - lo)
    xs = (0.5 * (lo + hi))[:, None] + half[:, None] * x
    n = len(xs)
    calls = min(n, -(-xs.size * rules // NODE_BUDGET))
    run = max(1, ABS_RUN // k)
    for i in range(calls):
        start, stop = i * n // calls, (i + 1) * n // calls
        block = np.asarray(f(xs[start:stop].reshape(-1), owner[start:stop].repeat(k)),
                           dtype=float).reshape(stop - start, k, -1)
        if not i:
            sums = np.empty((n,) + w.shape[:-1] + block.shape[-1:])
            l1s = np.empty((n, block.shape[-1]))
        np.matmul(w, block, out=sums[start:stop])
        for j in range(start, stop, run):
            l1 = np.matmul(w, np.abs(block[j - start:j - start + run]))
            l1s[j:j + len(l1)] = l1 if rules == 1 else l1[:, 0]
        del block
    sums *= half.reshape((-1,) + (1,) * w.ndim)
    l1s *= half[:, None]
    return sums, l1s


def _budget(estimate, rel_tol, scale):
    """Error budget of whole-interval estimates (n, m), per component.

    rel_tol times each component's magnitude; tiny components are measured
    against 1e-3 of the larger of the largest component and the
    interval's ``scale`` (n,), so the loop never chases exact zeros, nor
    the rounding noise of a window that holds only a far tail of its source.
    """
    peak = np.maximum(np.maximum(np.abs(estimate).max(axis=1), scale), _TINY)
    return rel_tol * np.maximum(np.abs(estimate), 1e-3 * peak[:, None])


def integrate_intervals(f, a, b, rel_tol=1e-10, order=21, scale=None):
    """Integrate ``f`` over every interval [a[i], b[i]] in one refinement loop.

    Each interval first takes one Gauss-Kronrod panel over its whole
    width: (10, 21), or (7, 15) for ``order`` 15. It is done when |K - G|
    passes the test of the first bisection round at span = width: per
    component at most rel_tol times max(|K|, 1e-3 of the floor scale), or
    max(1e-13, 1e-2 rel_tol) times its L1 sum.
    Every interval the panel rejects is refined by ``_bisect``, with the
    Kronrod sum as its depth-0 estimate and the same error budget, so its
    whole width is evaluated once. An interval with a non-finite value at
    a panel node fails without being refined.

    Args:
        f: ``f(xs, owner)`` maps nodes xs (n,) to values (n, ...); node j
            belongs to interval ``owner[j]``.
        rel_tol: target relative error of each interval's integral against
            a per-component scale taken from its whole-interval estimate;
            tiny components are measured against 1e-3 of the floor scale,
            the larger of its largest component and ``scale``, so the loop
            never chases exact zeros.
        order: nodes of the first panel, 21 or 15. The 15-node panel is
            cheaper where it passes, but its outer node sits 0.43 % of the
            width from each edge (0.22 % for 21), and a jump closer to an
            edge than that is invisible to it.
        scale: None, or the size (n,) an integral of each interval would
            have if its source were not reduced to a far tail. It sets an
            absolute error floor, as QUADPACK's epsabs does: a window
            whose integrand is only a pulse's tail, 1e-77 of its peak,
            stops at rel_tol 1e-3 scale instead of chasing the rounding
            noise of its tiny values.

    Returns:
        (values, failed): ``values`` has one row per interval: its Kronrod
        sum, or the running sum of its accepted panels, added round by
        round in the interval's own row order; so it does not depend on
        the intervals it is batched with. An interval whose integrand is
        not finite somewhere leaves the refinement at once; it is flagged
        in ``failed`` and its value is NaN. Empty intervals (b <= a)
        integrate to zero; when every interval is empty, one node probe of
        ``f`` gives the number of components.

    Raises:
        QuadratureError: a panel still fails the error test at MAX_DEPTH,
            or an interval would hold more than MAX_LIVE_ROWS rows in one
            round; carries that panel's estimate.
    """
    a = np.asarray(a, dtype=float).reshape(-1)
    b = np.asarray(b, dtype=float).reshape(-1)
    failed = np.zeros(a.size, dtype=bool)
    own = (b - a > 0.0).nonzero()[0]
    if own.size == 0:
        probe = np.asarray(f(a[:1], np.zeros(min(a.size, 1), dtype=int)), dtype=float)
        return np.zeros((a.size, probe.shape[-1])), failed
    scale = np.zeros(a.size) if scale is None else np.asarray(scale, dtype=float)
    xk, wk = gauss_kronrod_rule(order)
    sums, l1 = _panels(f, a[own], b[own], own, xk, wk)
    kronrod = sums[:, 0]
    budget = _budget(kronrod, rel_tol, scale[own])
    l1_floor = max(1e-13, 1e-2 * rel_tol)
    allowance = np.maximum(budget, l1_floor * l1)
    finite = np.isfinite(kronrod).all(axis=1)
    done = finite & (np.abs(kronrod - sums[:, 1]) <= allowance).all(axis=1)
    values = np.zeros((a.size, kronrod.shape[1]))
    values[own[done]] = kronrod[done]
    if not done.all():
        # A non-finite probe fails its interval; only the others bisect.
        failed[own[~finite]] = True
        split = ~done & finite
        if split.any():
            _bisect(f, a, b, own[split], kronrod[split], budget[split], l1_floor, values, failed)
    values[failed] = np.nan
    return values, failed


def _bisect(f, a, b, own, coarse, budget, l1_floor, values, failed):
    """Refine intervals ``own`` of [a, b] by Gauss-Legendre bisection.

    Each row starts from its interval's Kronrod sum ``coarse``, the depth-0
    estimate, and carries its interval's error budget ``budget`` per
    component; ``l1_floor`` times a row's L1 sum floors its allowance.
    Adds each interval's accepted panels to ``values``, and flags
    intervals whose integrand is not finite in ``failed``.
    """
    x, w = gauss_legendre_rule(NODES)
    width = b - a
    lo, hi = a[own], b[own]

    for depth in range(MAX_DEPTH + 1):
        # Each round evaluates both halves of every row: rows [0, r) of
        # ``halves`` are the left ones, [r, 2r) the right ones.
        r = own.size
        mid = 0.5 * (lo + hi)
        halves, l1 = _panels(f, np.concatenate([lo, mid]), np.concatenate([mid, hi]),
                             np.concatenate([own, own]), x, w)
        left, right = halves[:r], halves[r:]
        better = left + right
        failed[own[~np.isfinite(better).all(axis=1)]] = True
        err = np.abs(better - coarse)
        span = hi - lo
        # A row gets its width's share of its interval's budget, floored at
        # a small multiple of the local L1 mass: cancellation-dominated
        # components and integrands whose scale was invisible at the top
        # level cannot trigger endless refinement.
        allowance = np.maximum(budget * (span / width[own])[:, None],
                               l1_floor * (l1[:r] + l1[r:]))
        # Genuine discontinuities bisect down to a min_width of 1e-12 of
        # the interval, bounding their error by ~1e-12 of the local mass.
        done = (err <= allowance).all(axis=1) | (span <= 1e-12 * width[own])
        live = ~failed[own]
        acc = (done & live).nonzero()[0]
        np.add.at(values, own[acc], better[acc])
        split = (~done & live).nonzero()[0]
        if not split.size:
            break
        # Rows are bisected in rounds, so every row here is at this depth.
        unconverged = np.bincount(own[split])
        if depth == MAX_DEPTH or 2 * unconverged.max() > MAX_LIVE_ROWS:
            i = split[own[split] == unconverged.argmax()][0]
            raise QuadratureError(
                f"no convergence after {depth} subdivisions on [{lo[i]:g}, {hi[i]:g}]; "
                f"{unconverged[own[i]]} panels of its interval unconverged",
                estimate=better[i],
                error=float(np.max(err[i])),
            )
        twice = np.concatenate([split, split])
        own, budget = own[twice], budget[twice]
        lo, hi = np.concatenate([lo[split], mid[split]]), np.concatenate([mid[split], hi[split]])
        coarse = np.concatenate([left[split], right[split]])
        # This round's sums go before the next round's integrand calls.
        del halves, l1, left, right, better, err, allowance


def adaptive_gauss_legendre(f, a: float, b: float, rel_tol: float = 1e-10, scale=None):
    """Integrate ``f`` over [a, b] to the requested relative tolerance.

    The one-interval call of ``integrate_intervals``: one Gauss-Kronrod
    panel over [a, b], and Gauss-Legendre bisection if it is rejected. The
    name predates the Kronrod panel; it stays because callers, and the
    benchmark tracer, use it.

    Args:
        f: maps a node array xs (n,) to a value array (n, m).
        rel_tol: target relative error against a per-component scale.
        scale: None, or the absolute error floor's size scale, as in
            ``integrate_intervals``.

    Raises:
        QuadratureError: MAX_DEPTH exceeded (carries the achieved estimate),
            or the integrand is not finite somewhere on [a, b].
    """
    values, failed = integrate_intervals(lambda xs, owner: f(xs), [a], [b], rel_tol,
                                         scale=None if scale is None else [scale])
    if failed[0]:
        raise QuadratureError(f"integrand is not finite on [{a:g}, {b:g}]")
    return values[0]
