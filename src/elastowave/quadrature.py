"""Adaptive Gauss-Legendre quadrature for vector-valued integrands.

Every integrand maps a node array xs (n,) to values (n, m). One
breadth-first engine, ``integrate_intervals``, integrates many intervals
at once: every unconverged (interval, panel) pair is a row, and each
round evaluates both halves of every row in as few integrand calls as
possible, none holding more than NODE_BUDGET nodes. A row is accepted once
its error fits within a width-proportional share of its interval's
relative tolerance; otherwise it is bisected, and an interval that would
hold more than MAX_LIVE_ROWS rows raises. ``adaptive_gauss_legendre``
is the one-interval call of the same engine. All evaluations happen at
strictly interior nodes, so integrable endpoint behavior that has been
substituted away (see lineforce2d) never divides by zero.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import QuadratureError

__all__ = [
    "gauss_legendre_rule",
    "adaptive_gauss_legendre",
    "integrate_intervals",
]

_TINY = 1e-300

# Largest number of nodes handed to the integrand in one call. Past about
# a thousand nodes the per-call cost of the 3D solver and kernel is paid
# off; larger calls only add temporaries (2,048 cost 1.7 MB more peak RSS
# on a 1,000-event grid at the same speed).
NODE_BUDGET = 1024

# Most live rows one interval may hold in a refinement round. An integrand
# that cannot meet the tolerance doubles its rows every round; this stops
# it long before the rows exhaust memory (the tests, the validate suite and
# the benchmark grids need at most 64). Counted per interval, so whether
# an integral fails does not depend on the intervals it is batched with.
MAX_LIVE_ROWS = 4096


@lru_cache(maxsize=32)
def gauss_legendre_rule(n: int):
    """Nodes and weights of the n-point rule on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _panels(f, lo, hi, owner, x, w):
    """Gauss-Legendre sums and L1 sums of panels [lo, hi] of intervals ``owner``.

    The nodes of all panels go to ``f`` in calls of at most NODE_BUDGET
    nodes; a panel may straddle two calls. Each panel is reduced on its
    own, so the sums do not depend on how the nodes were split.
    """
    k = x.size
    half = (0.5 * (hi - lo))[:, None]
    xs = ((0.5 * (lo + hi))[:, None] + half * x).reshape(-1)
    own = owner.repeat(k)
    sums, l1s = [], []
    pending = None
    for start in range(0, xs.size, NODE_BUDGET):
        stop = start + NODE_BUDGET
        vals = np.asarray(f(xs[start:stop], own[start:stop]), dtype=float)
        vals = vals.reshape(vals.shape[0], -1)
        if pending is not None:
            vals = np.concatenate([pending, vals])
        full = vals.shape[0] // k * k
        block = vals[:full].reshape(full // k, k, vals.shape[1])
        sums.append(w @ block)
        l1s.append(w @ np.abs(block))
        pending = vals[full:]
    return half * np.concatenate(sums), half * np.concatenate(l1s)


def _tree_sum(levels, failed, m):
    """Interval totals from accepted rows, summed as the recursive rule sums them.

    ``levels[d]`` holds (interval, path, value) of the rows accepted at
    depth d; path is the row's position among the 2^d rows of that depth.
    Siblings are added left + right, bottom-up, so a total does not depend
    on the order in which rows were accepted. Failed intervals are NaN.
    """
    total = np.zeros((failed.size, m))
    total[failed] = np.nan
    if failed.any():
        keep = [~failed[o] for o, _, _ in levels]
        levels = [(o[k], p[k], v[k]) for (o, p, v), k in zip(levels, keep)]
    if not levels:
        return total
    own, path, val = levels[-1]
    for o, p, v in reversed(levels[:-1]):
        order = np.lexsort((path, own))
        val = val[order]
        own = np.concatenate([own[order][0::2], o])
        path = np.concatenate([path[order][0::2] // 2, p])
        val = np.concatenate([val[0::2] + val[1::2], v])
    total[own] = val
    return total


def integrate_intervals(f, a, b, rel_tol=1e-10, nodes=16, max_depth=44, collect=None):
    """Integrate ``f`` over every interval [a[i], b[i]] in one refinement loop.

    Args:
        f: ``f(xs, owner)`` maps nodes xs (n,) to values (n, ...); node j
            belongs to interval ``owner[j]``.
        rel_tol: target relative error of each interval's integral against
            a per-component scale taken from its whole-interval estimate;
            tiny components are measured against 1e-3 of the largest one so
            the loop never chases exact zeros.
        collect: if a list is given, the nodes and weights of every accepted
            panel are appended as (nodes, weights) pairs, interval by
            interval and left to right.

    Returns:
        (values, failed): ``values`` has one row per interval. An interval
        whose integrand is not finite somewhere leaves the refinement at
        once; it is flagged in ``failed`` and its value is NaN. Empty
        intervals (b <= a) integrate to zero.

    Raises:
        QuadratureError: a panel still fails the error test at max_depth,
            or an interval would hold more than MAX_LIVE_ROWS rows in one
            round; carries that panel's estimate.
    """
    a = np.asarray(a, dtype=float).reshape(-1)
    b = np.asarray(b, dtype=float).reshape(-1)
    x, w = gauss_legendre_rule(nodes)
    width = b - a
    failed = np.zeros(a.size, dtype=bool)
    own = (width > 0.0).nonzero()[0]
    if own.size == 0:
        return np.zeros((a.size, 0)), failed
    # The first call evaluates the whole interval and both of its halves.
    # Every call after it holds both halves of each row to refine: rows
    # [0, r) of ``halves`` are the left ones, [r, 2r) the right ones.
    lo, hi = a[own], b[own]
    mid = 0.5 * (lo + hi)
    r = own.size
    panels, l1 = _panels(
        f, np.concatenate([lo, lo, mid]), np.concatenate([hi, mid, hi]),
        np.concatenate([own, own, own]), x, w,
    )
    coarse, halves, l1 = panels[:r], panels[r:], l1[r:]
    m = coarse.shape[1]
    # Error budget per interval and component: rel_tol times the scale of
    # the whole-interval estimate; a row gets its width's share of it.
    # Genuine discontinuities bisect down to min_width, bounding their
    # error by ~1e-12 of the local mass.
    peak = np.maximum(np.abs(coarse).max(axis=1), _TINY)
    budget = np.zeros((a.size, m))
    budget[own] = rel_tol * np.maximum(np.abs(coarse), 1e-3 * peak[:, None])
    min_width = 1e-12 * width
    l1_floor = max(1e-13, 1e-2 * rel_tol)
    failed[own[~np.isfinite(coarse).all(axis=1)]] = True

    path = np.zeros(r, dtype=np.int64)
    levels = []
    accepted = []  # (interval, lo, hi) of accepted rows, for ``collect``
    for depth in range(max_depth + 1):
        left, right = halves[:r], halves[r:]
        better = left + right
        failed[own[~np.isfinite(better).all(axis=1)]] = True
        err = np.abs(better - coarse)
        span = hi - lo
        # The width share is floored at a small multiple of the local L1
        # mass: cancellation-dominated components and integrands whose
        # scale was invisible at the top level cannot trigger endless
        # refinement.
        allowance = np.maximum(
            budget[own] * (span / width[own])[:, None], l1_floor * (l1[:r] + l1[r:])
        )
        done = (err <= allowance).all(axis=1) | (span <= min_width[own])
        live = ~failed[own]
        acc = (done & live).nonzero()[0]
        levels.append((own[acc], path[acc], better[acc]))
        if collect is not None:
            accepted.append((own[acc], lo[acc], hi[acc]))
        split = (~done & live).nonzero()[0]
        if not split.size:
            break
        # Rows are bisected in rounds, so every row here is at this depth.
        unconverged = np.bincount(own[split])
        if depth == max_depth or 2 * unconverged.max() > MAX_LIVE_ROWS:
            i = split[own[split] == unconverged.argmax()][0]
            raise QuadratureError(
                f"no convergence after {depth} subdivisions on [{lo[i]:g}, {hi[i]:g}]; "
                f"{unconverged[own[i]]} panels of its interval unconverged",
                estimate=better[i],
                error=float(np.max(err[i])),
            )
        own, path, mid = own[split], 2 * path[split], mid[split]
        own = np.concatenate([own, own])
        path = np.concatenate([path, path + 1])
        lo, hi = np.concatenate([lo[split], mid]), np.concatenate([mid, hi[split]])
        coarse = np.concatenate([left[split], right[split]])
        r = own.size
        mid = 0.5 * (lo + hi)
        halves, l1 = _panels(
            f, np.concatenate([lo, mid]), np.concatenate([mid, hi]), np.concatenate([own, own]),
            x, w,
        )

    values = _tree_sum(levels, failed, m)
    if collect is not None and accepted:
        o, lo, hi = (np.concatenate(c) for c in zip(*accepted))
        for i in np.lexsort((lo, o)):
            if not failed[o[i]]:
                mid = 0.5 * (lo[i] + hi[i])
                for p_lo, p_hi in ((lo[i], mid), (mid, hi[i])):
                    half = 0.5 * (p_hi - p_lo)
                    collect.append((0.5 * (p_lo + p_hi) + half * x, half * w))
    return values, failed


def adaptive_gauss_legendre(
    f,
    a: float,
    b: float,
    rel_tol: float = 1e-10,
    nodes: int = 16,
    max_depth: int = 44,
    collect: list | None = None,
):
    """Integrate ``f`` over [a, b] to the requested relative tolerance.

    The one-interval call of ``integrate_intervals``.

    Args:
        f: maps a node array xs (n,) to a value array (n, m).
        rel_tol: target relative error against a per-component scale.
        collect: if a list is given, accepted panel nodes and weights are
            appended as (nodes, weights) pairs, left to right.

    Raises:
        QuadratureError: max_depth exceeded (carries the achieved estimate),
            or the integrand is not finite somewhere on [a, b].
    """
    if b <= a:
        probe = np.asarray(f(np.array([0.5 * (a + b) if b == a else a])), dtype=float)
        return np.zeros(probe.shape[-1])
    values, failed = integrate_intervals(
        lambda xs, owner: f(xs), [a], [b], rel_tol, nodes, max_depth, collect
    )
    if failed[0]:
        raise QuadratureError(f"integrand is not finite on [{a:g}, {b:g}]")
    return values[0]
