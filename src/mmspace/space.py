"""Finite metric measure spaces and Frechet k-means over them.

A space is a finite point set with a symmetric distance matrix and a
probability weight vector.  The clustering cost of a center set S is the
weighted p-th power of the distance from each point to its nearest center;
k-means solutions collect every center set minimizing that cost, because
minimizers are generally not unique and downstream stability statements
quantify over the whole family.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import BudgetExceededError, InvalidArgumentError

DEFAULT_TIE_TOL = 1e-9
DEFAULT_ENUM_BUDGET = 2_000_000

# ----------------------------------------------------------------------------
# metric validation
# ----------------------------------------------------------------------------


@dataclass
class MetricReport:
    """Worst violation of each metric axiom on a square matrix.

    Witnesses are index tuples: (i, j) for symmetry and negativity, (i,) for
    the diagonal, (i, j, l) for the triangle inequality d(i,j) <= d(i,l)+d(l,j).
    A witness of None means no violation at all.
    """

    tol: float
    asymmetry: float
    asymmetry_witness: tuple | None
    diagonal: float
    diagonal_witness: tuple | None
    negativity: float
    negativity_witness: tuple | None
    triangle: float
    triangle_witness: tuple | None
    passes: bool

    def worst(self) -> float:
        return max(self.asymmetry, self.diagonal, self.negativity, self.triangle)


def metric_validate(matrix: np.ndarray, tol: float | None = None) -> MetricReport:
    """Check the metric axioms on a matrix; O(n^3) for the triangle pass.

    With tol=None the tolerance is 1e-9 scaled by the largest entry, which is
    the right yardstick for learned matrices carrying accumulated rounding.
    """
    d = np.asarray(matrix, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise InvalidArgumentError("matrix must be square")
    if not np.all(np.isfinite(d)):
        raise InvalidArgumentError("matrix must be finite")
    n = d.shape[0]
    if tol is None:
        tol = 1e-9 * (float(d.max()) if n > 0 else 0.0)

    asym = np.abs(d - d.T)
    a_flat = int(np.argmax(asym))
    a_w = np.unravel_index(a_flat, asym.shape)
    a_mag = float(asym[a_w])

    diag = np.abs(np.diagonal(d))
    d_i = int(np.argmax(diag))
    d_mag = float(diag[d_i])

    neg_flat = int(np.argmin(d))
    n_w = np.unravel_index(neg_flat, d.shape)
    n_mag = float(max(0.0, -d[n_w]))

    t_mag = -math.inf
    t_w = (0, 0, 0)
    for l in range(n):
        viol = d - d[:, l][:, None] - d[l, :][None, :]
        flat = int(np.argmax(viol))
        if viol.flat[flat] > t_mag:
            i, j = np.unravel_index(flat, viol.shape)
            t_mag = float(viol.flat[flat])
            t_w = (int(i), int(j), l)
    t_mag = max(t_mag, 0.0) if n > 0 else 0.0

    return MetricReport(
        tol=tol,
        asymmetry=a_mag,
        asymmetry_witness=(int(a_w[0]), int(a_w[1])) if a_mag > 0 else None,
        diagonal=d_mag,
        diagonal_witness=(d_i,) if d_mag > 0 else None,
        negativity=n_mag,
        negativity_witness=(int(n_w[0]), int(n_w[1])) if n_mag > 0 else None,
        triangle=t_mag,
        triangle_witness=t_w if t_mag > 0 else None,
        passes=bool(max(a_mag, d_mag, n_mag, t_mag) <= tol),
    )


# ----------------------------------------------------------------------------
# the space type
# ----------------------------------------------------------------------------


@dataclass
class FiniteMetricMeasureSpace:
    """Finite point set, symmetric distance matrix, probability weights.

    Construction checks the cheap invariants (shape, exact symmetry, zero
    diagonal, nonnegative entries, weights summing to one within 1e-12).
    The O(n^3) triangle pass is deliberately left to validate(), since large
    shortest-path matrices satisfy it by construction.
    """

    labels: list
    dist: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        d = np.array(self.dist, dtype=np.float64)
        w = np.array(self.weights, dtype=np.float64)
        labels = list(self.labels)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise InvalidArgumentError("dist must be a square matrix")
        n = d.shape[0]
        if n < 1:
            raise InvalidArgumentError("space needs at least one point")
        if len(labels) != n:
            raise InvalidArgumentError(f"{len(labels)} labels for {n} points")
        if not np.all(np.isfinite(d)):
            raise InvalidArgumentError("dist must be finite")
        if not np.array_equal(d, d.T):
            raise InvalidArgumentError("dist must be exactly symmetric")
        if np.any(np.diagonal(d) != 0.0):
            raise InvalidArgumentError("dist diagonal must be exactly zero")
        if d.min() < 0.0:
            raise InvalidArgumentError("dist entries must be nonnegative")
        if w.shape != (n,):
            raise InvalidArgumentError("weights must be a length-n vector")
        if w.min() < 0.0:
            raise InvalidArgumentError("weights must be nonnegative")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise InvalidArgumentError(
                f"weights must sum to 1 within 1e-12, got {float(w.sum())!r}"
            )
        self.labels = labels
        self.dist = d
        self.weights = w

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    def diameter(self) -> float:
        return float(self.dist.max())

    def validate(self, tol: float | None = None) -> MetricReport:
        return metric_validate(self.dist, tol)

    @classmethod
    def uniform(cls, labels, dist) -> "FiniteMetricMeasureSpace":
        n = len(labels)
        return cls(labels, dist, np.full(n, 1.0 / n))


@dataclass(frozen=True)
class CenterSet:
    """A nonempty set of point indices, stored sorted for determinism."""

    indices: tuple

    @classmethod
    def of(cls, indices) -> "CenterSet":
        idx = tuple(sorted(set(int(i) for i in indices)))
        if not idx:
            raise InvalidArgumentError("center set must be nonempty")
        return cls(idx)

    def __len__(self):
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)


@dataclass
class KMeansSolution:
    """All minimizing center sets plus the shared objective value.

    method is "exact" when the family is provably complete at the stated tie
    tolerance and "heuristic" when it only collects what a local search found.
    """

    minimizers: list
    objective: float
    method: str
    tie_tolerance: float

    @property
    def best(self) -> CenterSet:
        return self.minimizers[0]


def _center_indices(space: FiniteMetricMeasureSpace, centers) -> np.ndarray:
    if isinstance(centers, CenterSet):
        idx = np.asarray(centers.indices, dtype=np.intp)
    else:
        idx = np.asarray(sorted(set(int(i) for i in centers)), dtype=np.intp)
    if idx.size == 0:
        raise InvalidArgumentError("center set must be nonempty")
    if idx.min() < 0 or idx.max() >= space.n:
        raise InvalidArgumentError("center index out of range")
    return idx


def _check_p(p: float) -> float:
    p = float(p)
    if not (p >= 1.0 and math.isfinite(p)):
        raise InvalidArgumentError(f"p must be a real number >= 1, got {p!r}")
    return p


def clustering_cost(space: FiniteMetricMeasureSpace, centers, p: float = 2.0) -> float:
    """Weighted p-th power cost of serving every point from its nearest center."""
    p = _check_p(p)
    idx = _center_indices(space, centers)
    dmin = space.dist[:, idx].min(axis=1)
    return float(np.dot(space.weights, dmin**p))


def _enum_count(n: int, k: int) -> int:
    return sum(math.comb(n, j) for j in range(1, min(k, n) + 1))


def k_means_exact(
    space: FiniteMetricMeasureSpace,
    k: int,
    p: float = 2.0,
    tie_tol: float = DEFAULT_TIE_TOL,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> KMeansSolution:
    """Enumerate every center set of cardinality <= k and collect all minimizers.

    Ties are collected at relative tolerance tie_tol, so center sets whose
    costs differ only by accumulated rounding are reported together.  Raises
    BudgetExceededError when the candidate count exceeds the budget; use
    k_means_pam then.
    """
    p = _check_p(p)
    if k < 1:
        raise InvalidArgumentError("k must be >= 1")
    if tie_tol < 0:
        raise InvalidArgumentError("tie_tol must be >= 0")
    n = space.n
    count = _enum_count(n, k)
    if count > budget:
        raise BudgetExceededError(
            f"exact enumeration needs {count} candidates (budget {budget}); "
            "use k_means_pam"
        )
    d = space.dist
    w = space.weights

    best = math.inf
    kept: list[tuple[float, tuple]] = []
    chunk = 8192
    for j in range(1, min(k, n) + 1):
        it = itertools.combinations(range(n), j)
        while True:
            block = list(itertools.islice(it, chunk))
            if not block:
                break
            combos = np.asarray(block, dtype=np.intp)
            dmin = d[:, combos[:, 0]]
            for t in range(1, j):
                dmin = np.minimum(dmin, d[:, combos[:, t]])
            costs = w @ (dmin**p)
            best = min(best, float(costs.min()))
            for i in np.flatnonzero(costs <= best * (1.0 + tie_tol)):
                kept.append((float(costs[i]), block[i]))

    final_thresh = best * (1.0 + tie_tol)
    minimizers = sorted(combo for c, combo in kept if c <= final_thresh)
    return KMeansSolution(
        minimizers=[CenterSet.of(m) for m in minimizers],
        objective=best,
        method="exact",
        tie_tolerance=tie_tol,
    )


def _greedy_build(d: np.ndarray, w: np.ndarray, k: int, p: float) -> list:
    """Classic greedy build: repeatedly add the point lowering cost the most."""
    n = d.shape[0]
    centers: list[int] = []
    dmin = np.full(n, np.inf)
    for _ in range(k):
        best_c = math.inf
        best_x = -1
        for x in range(n):
            if x in centers:
                continue
            cost = float(w @ np.minimum(dmin, d[:, x]) ** p)
            if cost < best_c:
                best_c = cost
                best_x = x
        centers.append(best_x)
        dmin = np.minimum(dmin, d[:, best_x])
    return centers


def _swap_descent(d: np.ndarray, w: np.ndarray, centers: list, p: float) -> tuple:
    """Swap medoids until no single swap improves the cost.

    The acceptance baseline is carried over from the last accepted swap, not
    recomputed: the per-candidate route (matrix product) and the recomputed
    route (gathered vector) can disagree by an ulp, and rebuilding the
    baseline every pass lets exactly tied center sets oscillate forever.
    """
    n = d.shape[0]
    centers = list(centers)
    carried = None
    while True:
        idx = np.asarray(centers, dtype=np.intp)
        sub = d[:, idx]
        order = np.argsort(sub, axis=1, kind="stable")
        rows = np.arange(n)
        d1 = sub[rows, order[:, 0]]
        near = idx[order[:, 0]]
        d2 = sub[rows, order[:, 1]] if len(centers) > 1 else np.full(n, np.inf)
        cost = float(w @ d1**p)
        if carried is None:
            carried = cost

        out_mask = np.ones(n, dtype=bool)
        out_mask[idx] = False
        outside = np.flatnonzero(out_mask)
        if outside.size == 0:
            return centers, cost

        best_cost = carried
        best_swap = None
        for ci, c in enumerate(centers):
            base = np.where(near == c, d2, d1)
            cand = np.minimum(base[:, None], d[:, outside])
            costs = w @ cand**p
            j = int(np.argmin(costs))
            if costs[j] < best_cost:
                best_cost = float(costs[j])
                best_swap = (ci, int(outside[j]))
        if best_swap is None:
            return centers, cost
        centers[best_swap[0]] = best_swap[1]
        carried = best_cost


def k_means_pam(
    space: FiniteMetricMeasureSpace,
    k: int,
    p: float = 2.0,
    restarts: int = 10,
    seed: int = 0,
    tie_tol: float = DEFAULT_TIE_TOL,
) -> KMeansSolution:
    """Greedy build plus swap descent, restarted; deterministic given seed.

    Restart 0 starts from the deterministic greedy build; later restarts start
    from random k-subsets drawn from a per-restart stream.  The returned
    objective can only be >= the exact one.
    """
    p = _check_p(p)
    n = space.n
    if not 1 <= k <= n:
        raise InvalidArgumentError(f"k must be in [1, {n}], got {k}")
    if restarts < 1:
        raise InvalidArgumentError("restarts must be >= 1")
    d = space.dist
    w = space.weights

    results = []
    for r in range(restarts):
        if r == 0:
            init = _greedy_build(d, w, k, p)
        else:
            rng = np.random.default_rng([seed & 0xFFFFFFFF, r])
            init = list(rng.choice(n, size=k, replace=False))
        centers, cost = _swap_descent(d, w, init, p)
        results.append((cost, tuple(sorted(centers))))

    best = min(c for c, _ in results)
    thresh = best * (1.0 + tie_tol)
    families = sorted(set(m for c, m in results if c <= thresh))
    return KMeansSolution(
        minimizers=[CenterSet.of(m) for m in families],
        objective=best,
        method="heuristic",
        tie_tolerance=tie_tol,
    )


# ----------------------------------------------------------------------------
# set distances
# ----------------------------------------------------------------------------


def _pairwise(a_points, b_points) -> np.ndarray:
    """Euclidean distance matrix between two nonempty point sets in R^D.

    Each set becomes an (m, D) array; a 1-D set is m points on a line.
    """
    a, b = (np.asarray(s, dtype=np.float64) for s in (a_points, b_points))
    a, b = (x[:, None] if x.ndim == 1 else x for x in (a, b))
    if a.ndim != 2 or b.ndim != 2 or 0 in a.shape or 0 in b.shape:
        raise InvalidArgumentError("set distances need nonempty (m, D) point sets")
    if a.shape[1] != b.shape[1]:
        raise InvalidArgumentError(f"point sets differ in dimension: D={a.shape[1]} vs D={b.shape[1]}")
    return cdist(a, b)


def hausdorff_distance(a_points, b_points) -> float:
    """Euclidean Hausdorff distance between two nonempty finite point sets."""
    d = _pairwise(a_points, b_points)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def one_sided_center_deviation(family_n, family_lim) -> float:
    """Worst Euclidean Hausdorff distance from a member of family_n to family_lim.

    Each family is a list of center sets given as coordinate arrays.  This is
    the one-sided deviation used to compare an empirical family of center
    sets against a limit family: every empirical set must be near SOME limit
    set, but not conversely.
    """
    fn = list(family_n)
    fl = list(family_lim)
    if not fn or not fl:
        raise InvalidArgumentError("deviation needs nonempty families")
    return max(min(hausdorff_distance(sn, s) for s in fl) for sn in fn)
