"""First-passage percolation on the integer lattice with hashed edge weights.

Edge weights are never stored: the weight of the edge from u to u + e_axis is
a pure function of (instance seed, u, axis), obtained by hashing those
integers into (0, 1) and applying the law's inverse CDF.  That makes weight
queries deterministic across processes and thread counts, and lets balls grow
lazily with Dijkstra instead of materializing a box of the lattice.  One
growth to t(1 + shell) gives B(t), its shell and every weight between their
vertices, each edge hashed once, and the CSR graph on them.  The all-pairs
matrix (scaled_space, shape_defect) is Dijkstra from every vertex of B(t) on
that graph.  The barycenter track needs only the exact 1-mean, so it runs
Dijkstra from a few farthest-point landmarks, bounds every candidate's cost
from below with the landmark (ALT) triangle inequality (Goldberg & Harrelson,
SODA 2005), and runs full rows only for candidates the bounds cannot rule out.

The scaled ball B(t)/t with metric T/t and uniform weights is the finite
metric measure space whose limit is the time-constant norm ball; barycenter
tracking and shape defects quantify that convergence.
"""
from __future__ import annotations

import hashlib
import heapq
import math
import struct
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist, pdist, squareform

from .errors import (
    BudgetExceededError,
    InvalidArgumentError,
    SolverError,
    UnsupportedReferenceError,
)
from .space import FiniteMetricMeasureSpace, _check_p

DEFAULT_BALL_BUDGET = 4000
DEFAULT_SHELL = 0.2
TRACK_TIE_TOL = 1e-12
LANDMARKS = 16
# Dijkstra sources per call of the track's search; costs are reduced over
# full batches only (see _row_costs)
_BATCH = 8
# candidates whose strong bound is taken in one vectorised pass
_BOUND_CHUNK = 64
# A computed passage time is a sum of edge weights taken in path order, so
# the same distance computed from the other end, or a landmark difference
# |T(L, i) - T(L, j)|, can disagree with it in the last few ulps.  Both lower
# bounds are shrunk by this factor, far above any such rounding, so a bound
# never exceeds the cost computed for the same candidate and every minimizer
# tied at TRACK_TIE_TOL is still evaluated.
_BOUND_SLACK = 1.0 - 1e-9


@dataclass(frozen=True)
class EdgeWeightLaw:
    """Distribution of a single edge weight; strictly positive almost surely."""

    kind: str
    params: tuple

    @classmethod
    def deterministic(cls, c: float) -> "EdgeWeightLaw":
        if not (c > 0 and math.isfinite(c)):
            raise InvalidArgumentError(f"deterministic weight must be positive, got {c!r}")
        return cls("deterministic", (float(c),))

    @classmethod
    def exponential(cls, rate: float) -> "EdgeWeightLaw":
        if not (rate > 0 and math.isfinite(rate)):
            raise InvalidArgumentError(f"rate must be positive, got {rate!r}")
        return cls("exponential", (float(rate),))

    @classmethod
    def uniform(cls, a: float, b: float) -> "EdgeWeightLaw":
        if not (0 <= a < b and math.isfinite(b)):
            raise InvalidArgumentError(f"uniform law needs 0 <= a < b, got ({a!r}, {b!r})")
        return cls("uniform", (float(a), float(b)))

    @classmethod
    def parse(cls, text: str) -> "EdgeWeightLaw":
        """Parse 'det:c', 'exp:rate', or 'unif:a,b' (long names accepted)."""
        name, _, arg = text.partition(":")
        name = name.strip().lower()
        try:
            vals = [float(v) for v in arg.split(",")] if arg else []
        except ValueError:
            raise InvalidArgumentError(f"bad law parameters in {text!r}")
        if name in ("det", "deterministic") and len(vals) == 1:
            return cls.deterministic(vals[0])
        if name in ("exp", "exponential") and len(vals) == 1:
            return cls.exponential(vals[0])
        if name in ("unif", "uniform") and len(vals) == 2:
            return cls.uniform(vals[0], vals[1])
        raise InvalidArgumentError(
            f"cannot parse law {text!r}; expected det:c, exp:rate, or unif:a,b"
        )

    def quantile(self, u: float) -> float:
        if self.kind == "deterministic":
            return self.params[0]
        if self.kind == "exponential":
            return -math.log1p(-u) / self.params[0]
        a, b = self.params
        return a + (b - a) * u

    def describe(self) -> str:
        return f"{self.kind}({', '.join(repr(v) for v in self.params)})"


@dataclass(frozen=True)
class FppInstance:
    """Lattice dimension, edge-weight law, hash seed, and queryable horizon."""

    dim: int
    law: EdgeWeightLaw
    seed: int
    horizon: float

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise InvalidArgumentError(f"dim must be 1, 2, or 3, got {self.dim}")
        if not (self.horizon > 0 and math.isfinite(self.horizon)):
            raise InvalidArgumentError(f"horizon must be positive, got {self.horizon!r}")

    def edge_weight(self, base, axis: int) -> float:
        """Weight of the edge from base to base + e_axis (base is the lower end)."""
        if not 0 <= axis < self.dim:
            raise InvalidArgumentError(f"axis must be in [0, {self.dim}), got {axis}")
        payload = struct.pack(
            f"<qq{self.dim}q", int(self.seed), int(axis), *(int(c) for c in base)
        )
        digest = hashlib.blake2b(payload, digest_size=8).digest()
        u = (int.from_bytes(digest, "little") + 0.5) / 2.0**64
        return self.law.quantile(u)


def _grow(instance: FppInstance, t: float, shell: float = 0.0, budget: float = math.inf) -> tuple:
    """Dijkstra from the origin until every frontier value is >= t * (1 + shell).

    Returns (settled, weights): settled maps each vertex of B(t * (1 + shell))
    to its passage time, in settle order; weights maps (lower end, axis) to
    the weight of every edge with a settled end, hashed once, when its first
    end settles.  A NaN shell means no shell.  Vertices settle in increasing
    time, so the growth stops with BudgetExceededError as soon as budget + 1
    vertices of B(t) have settled, before the ball is grown any further.
    """
    if not (0 < t <= instance.horizon):
        raise InvalidArgumentError(
            f"t must lie in (0, horizon={instance.horizon}], got {t!r}"
        )
    stop = t * (1.0 + shell) if shell > 0 else t
    origin = (0,) * instance.dim
    settled: dict = {}
    weights: dict = {}
    best = {origin: 0.0}
    heap = [(0.0, origin)]
    while heap:
        d, u = heapq.heappop(heap)
        if u in settled:
            continue
        if d >= stop:
            break
        settled[u] = d
        if d < t and len(settled) > budget:
            raise BudgetExceededError(f"|B(t)| exceeds the all-pairs budget {budget}")
        for axis in range(instance.dim):
            for sign in (1, -1):
                v = u[:axis] + (u[axis] + sign,) + u[axis + 1:]
                if v in settled:
                    continue
                key = (u, axis) if sign == 1 else (v, axis)
                w = weights[key] = instance.edge_weight(*key)
                nd = d + w
                if nd < best.get(v, math.inf):
                    best[v] = nd
                    heapq.heappush(heap, (nd, v))
    return settled, weights


def passage_time_ball(instance: FppInstance, t: float) -> dict:
    """Vertices with passage time from the origin strictly below t, with times.

    Grows Dijkstra from the origin until every frontier value is >= t, so the
    returned dict is exactly B(t) = {y : T(0, y) < t}.
    """
    return _grow(instance, t)[0]


def _ball_graph(instance: FppInstance, t: float, shell: float, budget: int):
    """(lattice vertices of B(t), CSR graph of B(t * (1 + shell)) with B(t) first).

    shell = s routes paths through B(t * (1 + s)); s = 0 keeps them inside
    B(t).  One growth to t * (1 + s) yields both balls and every edge weight
    between their vertices.  The core lists the origin first, then the rest of
    B(t) sorted; graph node i is core vertex i for i < len(core), and the
    shell vertices follow, sorted.
    """
    if shell < 0:
        raise InvalidArgumentError("shell must be >= 0")
    if t * (1.0 + shell) > instance.horizon:
        raise InvalidArgumentError(
            f"t*(1+shell) = {t * (1.0 + shell)} exceeds horizon {instance.horizon}"
        )
    outer, weights = _grow(instance, t, shell, budget)
    inner = [v for v, d in outer.items() if d < t]
    core = inner[:1] + sorted(inner[1:])
    nodes = core + sorted(v for v, d in outer.items() if d >= t)
    index = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)

    rows, cols, data = [], [], []
    for iu, u in enumerate(nodes):
        for axis in range(instance.dim):
            iv = index.get(u[:axis] + (u[axis] + 1,) + u[axis + 1:])
            if iv is not None:
                rows.append(iu)
                cols.append(iv)
                data.append(weights[u, axis])
    return core, coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()


def _core_rows(graph, sources, m: int) -> np.ndarray:
    """Passage times from each source to the m core vertices, (sources, m)."""
    rows = np.array(dijkstra(graph, directed=False, indices=sources)[:, :m])
    if not np.all(np.isfinite(rows)):
        raise SolverError("ball subgraph unexpectedly disconnected")
    return rows


def _ball_distance_matrix(instance: FppInstance, t: float, shell: float, budget: int):
    """(lattice vertices of B(t), scaled all-pairs T restricted to the shell graph).

    Dijkstra runs from every core vertex.  The matrix is mirrored from
    per-source rows so it is exactly symmetric, with the origin's row computed
    from the origin itself.
    """
    core, graph = _ball_graph(instance, t, shell, budget)
    tmat = _core_rows(graph, np.arange(len(core)), len(core))
    upper = np.triu(tmat, 1)
    tmat = upper + upper.T
    return core, tmat / t


def _row_costs(rows: np.ndarray, w: np.ndarray, p: float) -> np.ndarray:
    """Cost w @ row**p of serving the whole ball from each row's source.

    Rows are reduced as one C-ordered block, padded to whole batches: BLAS
    then sums every row with the same kernel, in the order k_means_exact's
    product sums a column of the all-pairs matrix, so the costs agree with
    it bit for bit wherever the two matrices agree.  Left unpadded, the last
    rows of a partial batch go through another kernel, which can round
    differently.
    """
    k = rows.shape[0]
    rows = np.concatenate([rows, np.repeat(rows[:1], -k % _BATCH, axis=0)])
    return (w @ (rows.T ** p))[:k]


def _mean_abs_gaps(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_j w_j |a_i - a_j| for every i, from prefix sums over sorted a."""
    order = np.argsort(a, kind="stable")
    s, ws = a[order], w[order]
    below_w = np.cumsum(ws)
    below = np.cumsum(ws * s)
    gaps = np.empty_like(a)
    gaps[order] = (s * below_w - below) + ((below[-1] - below) - s * (below_w[-1] - below_w))
    return gaps


def _strong_bounds(anchors: np.ndarray, chunk: np.ndarray, w: np.ndarray, p: float) -> np.ndarray:
    """sum_j w_j max_L |A_L(i) - A_L(j)|^p for each candidate i in chunk."""
    gap = np.empty((chunk.size, anchors.shape[1]))
    lb = np.abs(np.subtract(anchors[0], anchors[0, chunk, None]))
    for a in anchors[1:]:
        np.abs(np.subtract(a, a[chunk, None], out=gap), out=gap)
        np.maximum(lb, gap, out=lb)
    return (lb**p) @ w


def _ball_one_mean(graph, m: int, t: float, p: float) -> tuple:
    """(objective, sorted minimizers) of the exact 1-mean of the scaled core.

    Landmarks L are picked farthest-point from the origin.  For candidate i
    and every j, T(i, j) >= max_L |T(L, i) - T(L, j)|, so with A_L = T(L, .)

        s_i = sum_j w_j max_L |A_L(i) - A_L(j)|^p         (strong bound)
        c_i = max_L (sum_j w_j |A_L(i) - A_L(j)|)^p      (cheap bound)

    are lower bounds on the cost of i (c_i <= s_i by Jensen, p >= 1).  The
    landmarks are evaluated first; then candidates are visited in ascending
    c, the O(L m) strong bound is taken only for those the cheap one cannot
    exclude, and full Dijkstra rows run only for those the strong one cannot.
    The scan stops at the first c above the tie threshold.  Every candidate
    never evaluated thus costs more than best * (1 + TRACK_TIE_TOL), and all
    tied minimizers are returned, as k_means_exact would return them.
    """
    w = np.full(m, 1.0 / m)
    origin = _core_rows(graph, [0], m)[0] / t
    marks, anchors = [0], [origin]
    near = origin.copy()
    while len(marks) < min(LANDMARKS, m):
        nxt = int(np.argmax(near))
        if near[nxt] == 0.0:
            break
        row = _core_rows(graph, [nxt], m)[0] / t
        marks.append(nxt)
        anchors.append(row)
        np.minimum(near, row, out=near)
    anchors = np.array(anchors)

    candidates, costs = [], []

    def evaluate(sources, rows):
        candidates.extend(sources)
        costs.extend(_row_costs(rows, w, p).tolist())
        return min(costs) * (1.0 + TRACK_TIE_TOL)

    thresh = evaluate(marks, anchors)

    # rounding can leave a gap of a coincident pair a hair below zero
    gaps = np.maximum(np.max([_mean_abs_gaps(a, w) for a in anchors], axis=0), 0.0)
    cheap = gaps**p * _BOUND_SLACK
    cheap[marks] = math.inf
    order = np.argsort(cheap, kind="stable")
    pending = []
    for start in range(0, m, _BOUND_CHUNK):
        chunk = order[start:start + _BOUND_CHUNK]
        chunk = chunk[cheap[chunk] <= thresh]
        if not chunk.size:
            break
        strong = _strong_bounds(anchors, chunk, w, p) * _BOUND_SLACK
        for i, bound in zip(chunk.tolist(), strong.tolist()):
            if bound <= thresh:
                pending.append(i)
                if len(pending) == _BATCH:
                    thresh = evaluate(pending, _core_rows(graph, pending, m) / t)
                    pending = []
    if pending:
        thresh = evaluate(pending, _core_rows(graph, pending, m) / t)
    best = min(costs)
    return best, sorted(i for i, c in zip(candidates, costs) if c <= thresh)


def scaled_space(
    instance: FppInstance,
    t: float,
    shell: float = 0.0,
    budget: int = DEFAULT_BALL_BUDGET,
) -> FiniteMetricMeasureSpace:
    """B(t)/t as a uniform finite metric measure space with metric T/t.

    By default paths are restricted to edges inside B(t), which can only
    overestimate the unrestricted passage time; pass shell > 0 to allow
    detours through B(t * (1 + shell)).  Labels are the unscaled lattice
    coordinates, so point positions are recoverable from the space alone.
    """
    core, dmat = _ball_distance_matrix(instance, t, shell, budget)
    labels = [",".join(map(str, v)) for v in core]
    return FiniteMetricMeasureSpace.uniform(labels, dmat)


@dataclass
class TrackPoint:
    """Barycenter of one scaled ball: minimizing vertices in scaled coordinates."""

    t: float
    barycenters: list
    objective: float
    tied: bool
    ball_size: int


def fpp_barycenter_track(
    instance: FppInstance,
    t_list,
    p: float = 2.0,
    shell: float = DEFAULT_SHELL,
    budget: int = DEFAULT_BALL_BUDGET,
) -> list:
    """Exact 1-mean of the scaled ball for each t in an ascending list.

    Ties at relative tolerance TRACK_TIE_TOL = 1e-12 are kept (all minimizers
    returned) and flagged, since a tied barycenter usually means the ball is
    still too symmetric or too small to localize the mean.  The minimizers are
    those k_means_exact finds on scaled_space, but the all-pairs matrix is
    never built: landmark lower bounds (see _ball_one_mean) rule out most
    candidates before their Dijkstra row is run.  Each objective is computed
    from the minimizer's own Dijkstra row, while scaled_space mirrors half its
    entries from the other end's row, so for random weights the two can
    differ in the last few ulps.
    """
    ts = [float(t) for t in t_list]
    if not ts or any(b <= a for a, b in zip(ts, ts[1:])):
        raise InvalidArgumentError("t_list must be nonempty and strictly ascending")
    p = _check_p(p)
    out = []
    for t in ts:
        core, graph = _ball_graph(instance, t, shell, budget)
        objective, minimizers = _ball_one_mean(graph, len(core), t, p)
        centers = [np.asarray(core[i], dtype=np.float64) / t for i in minimizers]
        out.append(
            TrackPoint(
                t=t,
                barycenters=centers,
                objective=objective,
                tied=len(centers) > 1,
                ball_size=len(core),
            )
        )
    return out


def _dist_to_l1_ball(z: np.ndarray, radius: float) -> float:
    """Euclidean distance from z to the closed l1 ball of the given radius."""
    a = np.abs(np.asarray(z, dtype=np.float64))
    if a.sum() <= radius:
        return 0.0
    u = np.sort(a)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, u.size + 1)
    valid = u - (css - radius) / ks > 0
    k = int(ks[valid][-1])
    theta = (css[k - 1] - radius) / k
    return float(np.linalg.norm(np.minimum(a, theta)))


def shape_defect(
    instance: FppInstance,
    t: float,
    reference_norm=None,
    budget: int = DEFAULT_BALL_BUDGET,
    grid_factor: int = 4,
):
    """(metric defect, covering defect) of B(t)/t against the limit norm ball.

    Only deterministic weights have a closed-form limit: T(x, y) = c |x - y|_1,
    so the reference norm is c times the l1 norm and the limit ball has l1
    radius 1/c.  Other laws raise UnsupportedReferenceError unless a callable
    norm is supplied, in which case its unit ball is used via a grid.

    The metric defect is the sup over pairs of |T/t - norm difference|; the
    covering defect is the Hausdorff distance between the scaled vertex set
    and the reference ball, measured in the ambient Euclidean metric on a grid
    finer than the scaled lattice.
    """
    if reference_norm is None:
        if instance.law.kind != "deterministic":
            raise UnsupportedReferenceError(
                f"no closed-form limit shape for {instance.law.describe()}; "
                "pass reference_norm explicitly"
            )
        c = instance.law.params[0]
        norm = lambda v: c * float(np.abs(v).sum())
        l1_radius = 1.0 / c
    else:
        norm = reference_norm
        l1_radius = None

    core, dmat = _ball_distance_matrix(instance, t, 0.0, budget)
    coords = np.asarray(core, dtype=np.float64) / t
    m = coords.shape[0]
    if l1_radius is not None:
        ref = instance.law.params[0] * cdist(coords, coords, "cityblock")
    else:
        ref = squareform(pdist(coords, lambda u, v: norm(u - v)))
    metric_defect = float(np.abs(dmat - ref).max())

    # reference ball discretized finer than the 1/t lattice spacing
    h = 1.0 / (grid_factor * t)
    radius_box = max(float(np.abs(coords).max()) if m else 0.0, 1.0 if l1_radius is None else l1_radius)
    axes = [np.arange(-radius_box - h, radius_box + h, h)] * instance.dim
    mesh = np.meshgrid(*axes, indexing="ij")
    grid = np.stack([g.ravel() for g in mesh], axis=1)
    inside = np.array([norm(z) <= 1.0 for z in grid])
    grid = grid[inside]
    tree = cKDTree(coords)
    ball_to_set = float(tree.query(grid)[0].max()) if grid.size else 0.0
    if l1_radius is not None:
        set_to_ball = max(_dist_to_l1_ball(z, l1_radius) for z in coords)
    else:
        gtree = cKDTree(grid)
        set_to_ball = 0.0
        for z in coords:
            if float(norm(z)) > 1.0:
                set_to_ball = max(set_to_ball, float(gtree.query(z)[0]))
    covering_defect = max(ball_to_set, set_to_ball)
    return metric_defect, covering_defect
