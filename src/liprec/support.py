"""Stationary support geometry for atomic parameter laws.

The support of the stationary law is the closure of the fixed points of
contracting finite compositions. Words of atoms are enumerated
breadth-first, one depth level at a time: a level is an integer matrix
of atom indices with the running Lipschitz products beside it, the word
guard is checked once per level, and the fixed points of all its
contracting words are solved together by Banach iteration, each word
stopping at its own certificate. Dissolving duplicates gives a point
cloud that is exact up to the certificate tolerances.

Neighbour searches (dedupe pairs, coverage and frontier distances) sort
a 1-d cloud and find each point's neighbours with `searchsorted`, which
gives the kd-tree's answers without scipy. A cloud in d >= 2 uses
scipy's kd-tree, imported on first use, so only those runs load
scipy.spatial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import models
from .errors import CapacityError, ConvergenceError, PreconditionError

WORD_GUARD = 10**6
PRUNE_PRODUCT = 1e6
FIXPOINT_TOL = 1e-10
DEDUPE_TOL = 1e-8
_MAX_BANACH_ITER = 10000


@dataclass(frozen=True)
class SupportCloud:
    points: np.ndarray
    depths: np.ndarray
    dedupe_tol: float


@dataclass(frozen=True)
class CoverageReport:
    fraction_covered: float
    max_distance: float
    epsilon: float
    count: int


def enumerate_fixed_points(spec, max_depth, word_guard=WORD_GUARD):
    """Breadth-first word enumeration -> deduplicated fixed-point cloud.

    Expansive prefixes are kept (their extensions may contract) until the
    Lipschitz product exceeds PRUNE_PRODUCT; fixed points are only
    solved for words with product < 1. Each depth is one word matrix,
    and the guard counts every word examined up to and including it.
    """
    atoms = [th for th, _ in models.theta_atoms(spec)]
    if not atoms:
        raise PreconditionError("no atoms to enumerate")
    lips = np.array([float(models.lipschitz_bound(spec, th)) for th in atoms])
    tables = {name: np.array([th[name] for th in atoms], dtype=float) for name in atoms[0]}
    k = len(atoms)

    # row w of `words` holds the atom indices of word w, outermost first;
    # rows stay in breadth-first order (parent order, then atom order)
    words = np.zeros((1, 0), dtype=np.min_scalar_type(k - 1))
    prods = np.ones(1)
    points, depths = [], []
    examined = 0
    for depth in range(1, max_depth + 1):
        examined += len(words) * k
        if examined > word_guard:
            raise CapacityError(
                f"word enumeration exceeded the {word_guard} guard at depth {depth}"
            )
        last = np.tile(np.arange(k, dtype=words.dtype), len(words))
        words = np.column_stack([np.repeat(words, k, axis=0), last])
        prods = np.repeat(prods, k) * lips[last]
        contracting = prods < 1.0
        if contracting.any():
            points.append(
                _fixed_points(
                    spec, tables, words[contracting], prods[contracting], FIXPOINT_TOL
                )
            )
            depths.append(np.full(len(points[-1]), depth))
        keep = prods <= PRUNE_PRODUCT
        words, prods = words[keep], prods[keep]
        if not len(words):
            break

    if not points:
        raise ConvergenceError(
            f"no contracting word found up to depth {max_depth}"
        )
    pts = np.concatenate(points)
    kept = _dedupe(pts, DEDUPE_TOL)
    return SupportCloud(
        points=pts[kept],
        depths=np.concatenate(depths)[kept],
        dedupe_tol=DEDUPE_TOL,
    )


def _fixed_points(spec, tables, words, lips, tol):
    """Fixed points of the compositions in the rows of a word matrix.

    Banach iteration from 0 for every row at once, in row order: a word
    stops once its step shrinks below tol * (1 - L) / L, the a posteriori
    bound for its Lipschitz product L, and then leaves the active set.
    """
    d = spec.dimension
    x = np.zeros(len(words) if d == 1 else (len(words), d))
    threshold = np.full(len(words), math.inf)
    positive = lips > 0
    threshold[positive] = tol * (1.0 - lips[positive]) / lips[positive]
    active = np.arange(len(words))
    for _ in range(_MAX_BANACH_ITER):
        cur = x[active]
        nxt = cur
        for col in reversed(range(words.shape[1])):
            idx = words[active, col]
            theta = {name: tab[idx] for name, tab in tables.items()}
            nxt = models.apply(spec, theta, nxt)
        x[active] = nxt
        step = models.radius(spec, nxt - cur)
        active = active[~(step <= threshold[active])]
        if not len(active):
            return x
    raise ConvergenceError(
        f"fixed-point iteration did not certify within {_MAX_BANACH_ITER} steps "
        f"(L = {lips[active[0]]:.6g})"
    )


def _dedupe(points, tol):
    """Indices of the points the greedy rule keeps, in order.

    A point is kept when it lies farther than `tol` (euclidean) from every
    point kept before it.
    """
    p = _as_2d(points)
    idx = np.arange(len(p))
    if tol >= 0:
        # a repeat of an earlier point is within tol of that point, or of
        # the kept point that removed it, so only first occurrences count
        _, idx = np.unique(p, axis=0, return_index=True)
        idx.sort()
    # the search only proposes pairs (with a margin for its own rounding);
    # the norm below decides them exactly as the greedy rule does
    pairs = _pairs_within(p[idx], max(tol * (1.0 + 1e-6), 1e-150))
    close = np.array(
        [not np.linalg.norm(p[idx[i]] - p[idx[j]]) > tol for i, j in pairs], dtype=bool
    )
    earlier, later = pairs[close].T
    # settle points in passes: an open point with an earlier kept neighbour
    # is dropped, one whose earlier neighbours are all dropped is kept; the
    # first open point always settles, so every pass makes progress
    n = len(idx)
    pending = np.bincount(later, minlength=n) > 0
    kept = ~pending
    while pending.any():
        pending &= np.bincount(later, weights=kept[earlier], minlength=n) == 0
        waiting = np.bincount(later, weights=pending[earlier], minlength=n) > 0
        kept |= pending & ~waiting
        pending &= waiting
    return idx[kept]


def _as_2d(points):
    p = np.asarray(points, dtype=float)
    return p[:, None] if p.ndim == 1 else p


def _pairs_within(points, r):
    """Index pairs (i, j), i < j, of the points at most r apart.

    In 1-d each point pairs with its later sorted neighbours up to x + r.
    That finds every pair whose exact difference is at most r; a rounded
    difference can undershoot the exact one by half an ulp, which is why
    _dedupe searches with a margin.
    """
    p = _as_2d(points)
    if p.shape[1] > 1:
        from scipy.spatial import cKDTree

        return cKDTree(p).query_pairs(r, output_type="ndarray")
    order = np.argsort(p[:, 0])
    s = p[order, 0]
    n = len(s)
    # sorted position a pairs with the count[a] positions after it
    count = np.searchsorted(s, s + r, side="right") - np.arange(1, n + 1)
    a = np.repeat(np.arange(n), count)
    b = a + 1 + np.arange(len(a)) - np.repeat(np.cumsum(count) - count, count)
    i, j = order[a], order[b]
    return np.column_stack([np.minimum(i, j), np.maximum(i, j)])


def _nearest_distance(points, samples):
    """Euclidean distance from each sample to its nearest point.

    In 1-d the nearest point is a sorted neighbour on either side and the
    distance is |x - p|, as the kd-tree gives it except below about
    1.5e-154, where the tree's squared distance underflows.
    """
    p, x = _as_2d(points), _as_2d(samples)
    if p.shape[1] > 1:
        from scipy.spatial import cKDTree

        return cKDTree(p).query(x, k=1)[0]
    s = np.sort(p[:, 0])
    x = x[:, 0]
    pos = np.searchsorted(s, x)
    left = s[np.maximum(pos - 1, 0)]
    right = s[np.minimum(pos, len(s) - 1)]
    return np.minimum(np.abs(x - left), np.abs(right - x))


def coverage_check(cloud, samples, epsilon):
    """Fraction of samples within epsilon of the cloud, and the worst gap."""
    if not epsilon > 0:
        raise PreconditionError("epsilon must be positive")
    dist = _nearest_distance(cloud.points, samples)
    return CoverageReport(
        fraction_covered=float(np.mean(dist <= epsilon)),
        max_distance=float(dist.max()),
        epsilon=float(epsilon),
        count=int(len(dist)),
    )


def closure_frontier(spec, cloud):
    """Fraction of (atom, point) images that escape the cloud.

    The support is closed under every atom map, so a deep-enough cloud
    drives this fraction to zero; it is the convergence diagnostic for
    enumerate_fixed_points.
    """
    images = [
        _as_2d(models.apply(spec, theta, cloud.points))
        for theta, _ in models.theta_atoms(spec)
    ]
    if not images:
        return 0.0
    dist = _nearest_distance(cloud.points, np.concatenate(images))
    return int(np.sum(dist > cloud.dedupe_tol)) / len(dist)
