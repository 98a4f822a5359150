"""First-passage percolation on the integer lattice with hashed edge weights.

Edge weights are never stored: the weight of the edge from u to u + e_axis is
a pure function of (instance seed, u, axis), obtained by hashing those
integers into (0, 1) and applying the law's inverse CDF.  That makes weight
queries deterministic across processes and thread counts.  For random laws a
ball grows with Dijkstra instead of materializing a box of the lattice.  The
growth numbers each vertex in settle order, hashes each edge once through one
hash function built for the growth, and builds one symmetric CSR graph of the
edges between settled vertices, each edge stored in both directions, so
Dijkstra runs on it directed.  Vertices settle in increasing time, so every
ball B(s) up to the growth's radius is a prefix of that order, and its graph
is the leading square block: one growth to t(1 + shell) gives B(t), its
shell and the graph on them.  A barycenter track grows once, to its largest
t.  One permutation per ball lists its vertices the origin first, then
sorted, as every output reports them; Dijkstra runs on settle numbers and its
rows are gathered back through the permutation.  A Dijkstra distance is the
minimum over paths of the path's sum in path order, which neither the
renumbering nor the adjacency layout changes.  scaled_space alone builds the
all-pairs matrix, from a growth for every law, by Dijkstra from every vertex
of B(t).

Deterministic weights need no growth and no hashing.  With S_0 = 0 and
S_h = fl(S_{h-1} + c), T(x, y) = S_{|x - y|_1} bit for bit inside the ball,
so B(t) is the l1 lattice ball of radius H, the largest h with S_h < t.  The
track and shape_defect enumerate it with numpy and take every row from S;
the budget is checked on its closed-form size first.  _balls is the one
place that picks between this closed form and a growth.

shape_defect takes its metric sup as a running max over row blocks.  Against
the closed-form l1 reference every entry keeps its bits under a change of
sign of any axis, and in 2-D under the swap of the two axes, so the rows are
only those of one representative per orbit, against every column; with a
callable norm they are the upper-triangle blocks, from S or, for random
laws, from Dijkstra one block of sources at a time.  Its covering sup builds
the reference grid a slab at a time, keeping only the points inside the
reference ball, and queries the nearest vertex only at the grid points that
do not round to a vertex, whenever their max certifies the whole grid's; a
box past a fixed point budget raises BudgetExceededError before any pass.

The barycenter track needs only the exact 1-mean, so it takes rows from a
few farthest-point landmarks, bounds every candidate's cost from below with
the landmark (ALT) triangle inequality (Goldberg & Harrelson, SODA 2005), and
takes full rows only for candidates the bounds cannot rule out.  The bounds
form a cascade (see _ball_one_mean): a cheap bound from each landmark row's
mean absolute gaps, or for p >= 2 the tighter second-moment bound from its
mean and variance, both O(L) per candidate once the rows are summarized;
then, for the candidates that survive, the strong bound, O(L m) each.

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
from functools import partial

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from . import geodesic
from .errors import (
    BudgetExceededError,
    InvalidArgumentError,
    SolverError,
    UnsupportedReferenceError,
)
from .space import FiniteMetricMeasureSpace, _check_p, _tie_family, _weighted_row_sums

DEFAULT_BALL_BUDGET = 4000
DEFAULT_SHELL = 0.2
TRACK_TIE_TOL = 1e-12
LANDMARKS = 16
# Dijkstra sources per call of the track's search
_BATCH = 8
# candidates whose strong bound, or for deterministic laws whose rows, are
# taken in one vectorised pass
_BOUND_CHUNK = 64
# entries per row block of shape_defect, and box points per slab of its
# covering grid; each holds a handful of temporaries, so 1 << 17 keeps them to
# a few MB
_BLOCK_ENTRIES = 1 << 17
# points in the box of shape_defect's covering grid: a 2-D box of 2^21 points
# (det:0.25, t = 8, grid_factor 22.6) peaked at 36 MB traced, so one at the
# budget holds about 145 MB
_GRID_BUDGET = 1 << 23
# A computed passage time is a sum of edge weights taken in path order, so
# the same distance computed from the other end, or a landmark difference
# |T(L, i) - T(L, j)|, can disagree with it in the last few ulps.  Both lower
# bounds are shrunk by this factor, far above any such rounding, so a bound
# never exceeds the cost computed for the same candidate and every minimizer
# tied at TRACK_TIE_TOL is still evaluated.
#
# The second-moment bound adds rounding of its own.  mu_L and var_L are dot
# products of nonnegative-weighted terms (times, then squares), so each is
# within about m * 2**-53 of its exact value, relatively.  A slip d in mu_L
# moves (A_L(i) - mu_L)**2 + var_L by at most 2 |A_L(i) - mu_L| d; every
# landmark row holds its own 0 at weight 1/m, so var_L >= mu_L**2 / m, and
# that slip is at most 2 m**1.5 * 2**-53 of the sum.  The power p/2 scales
# the relative error by p/2, to about p * m**1.5 * 2**-53 in all.  The bound
# is used only where that is at most half the slack (at p = 3, balls of up
# to about 13,000 vertices); elsewhere the cheap bound serves alone.
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
        if _int64(self.seed) is None:
            raise InvalidArgumentError(f"seed must be an integer in the int64 range, got {self.seed!r}")

    def edge_weight(self, base, axis: int) -> float:
        """Weight of the edge from base to base + e_axis (base is the lower end).

        base must hold dim integral coordinates in the int64 range, and axis
        must be an integer in [0, dim); anything else raises
        InvalidArgumentError.
        """
        index = _int64(axis)
        if index is None or not 0 <= index < self.dim:
            raise InvalidArgumentError(f"axis must be an integer in [0, {self.dim}), got {axis!r}")
        try:
            point = tuple(map(_int64, base))
        except TypeError:
            point = ()
        if len(point) != self.dim or None in point:
            raise InvalidArgumentError(
                f"base must be {self.dim} integer coordinates in the int64 range, got {base!r}"
            )
        return _edge_hash(self)(point, index)


def _int64(value):
    """value as an int when it is integral and inside the int64 range, else None;
    the hash packs the seed, the axis and each coordinate as int64."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return n if n == value and -(1 << 63) <= n < 1 << 63 else None


def _edge_hash(instance: FppInstance):
    """weight(base, axis) for a tuple base of dim ints and an int axis.

    The packer of (seed, axis, *base), the seed and the law's quantile are
    bound once, so a growth builds this once and calls it per edge; the
    weight hashes the packed integers with blake2b into (0, 1) and applies
    the quantile.  FppInstance.edge_weight checks its arguments and calls it.
    """
    pack = struct.Struct(f"<qq{instance.dim}q").pack
    seed = int(instance.seed)
    quantile = instance.law.quantile
    blake2b = hashlib.blake2b

    def weight(base, axis):
        digest = blake2b(pack(seed, axis, *base), digest_size=8).digest()
        return quantile((int.from_bytes(digest, "little") + 0.5) / 2.0**64)

    return weight


def _check_t(instance: FppInstance, t: float) -> None:
    if not (0 < t <= instance.horizon):
        raise InvalidArgumentError(
            f"t must lie in (0, horizon={instance.horizon}], got {t!r}"
        )


def _check_ball(instance: FppInstance, t: float, shell: float) -> None:
    """The argument checks of a ball B(t) with its shell, in the order they apply."""
    if not shell >= 0:
        raise InvalidArgumentError("shell must be >= 0")
    if t * (1.0 + shell) > instance.horizon:
        raise InvalidArgumentError(
            f"t*(1+shell) = {t * (1.0 + shell)} exceeds horizon {instance.horizon}"
        )
    _check_t(instance, t)


def _settle(instance: FppInstance, t: float, shell: float, budget: float) -> tuple:
    """The Dijkstra growth of _grow, before any array is built.

    Returns (index, times, (data, cols, indptr)): index maps each settled
    lattice point to its settle number, times lists the passage times in
    that order, and the lists hold, in CSR form, each edge between settled
    vertices once, in the row of its later end.
    """
    _check_t(instance, t)
    stop = t * (1.0 + shell)
    edge_weight = _edge_hash(instance)
    origin = (0,) * instance.dim
    index: dict = {}
    times: list = []
    weights: dict = {}
    indptr, cols, data = [0], [], []
    best = {origin: 0.0}
    heap = [(0.0, origin)]
    while heap:
        d, u = heapq.heappop(heap)
        if u in index:
            continue
        if d >= stop:
            break
        index[u] = len(times)
        times.append(d)
        if d < t and len(times) > budget:
            raise BudgetExceededError(f"|B(t)| exceeds the all-pairs budget {budget}")
        for axis in range(instance.dim):
            for sign in (1, -1):
                v = u[:axis] + (u[axis] + sign,) + u[axis + 1:]
                key = (u, axis) if sign == 1 else (v, axis)
                j = index.get(v)
                if j is not None:
                    cols.append(j)
                    data.append(weights.pop(key))
                    continue
                w = weights[key] = edge_weight(*key)
                nd = d + w
                if nd < best.get(v, math.inf):
                    best[v] = nd
                    heapq.heappush(heap, (nd, v))
        indptr.append(len(cols))
    return index, times, (data, cols, indptr)


def _grow(instance: FppInstance, t: float, shell: float = 0.0, budget: float = math.inf) -> tuple:
    """Dijkstra from the origin until every frontier value is >= t * (1 + shell).

    Returns (vertices, times, graph) for B(t * (1 + shell)), each vertex
    numbered in settle order: vertices (n, dim) lattice points, times their
    passage times, and graph the n x n CSR graph of the lattice edges between
    them.  An edge's weight is hashed once, when its first end settles, and
    the edge is listed when its second end settles.  The graph stores each
    edge in both directions, built in one call from both directions of that
    list, so it is symmetric and Dijkstra runs on it directed, with no
    transpose built per call.  Vertices settle in increasing time, so for
    any s up to t * (1 + shell), B(s) is the first N vertices, N the count
    of times below s, and its graph is graph[:N, :N].  The growth stops
    with BudgetExceededError as soon as budget + 1 vertices of B(t) have
    settled, before the ball is grown any further.
    """
    index, times, (data, cols, indptr) = _settle(instance, t, shell, budget)
    n = len(times)
    vertices = np.array(list(index), dtype=np.int64).reshape(n, instance.dim)
    later = np.repeat(np.arange(n), np.diff(indptr))
    earlier = np.array(cols, dtype=later.dtype)
    ends = (np.concatenate([later, earlier]), np.concatenate([earlier, later]))
    graph = csr_matrix((np.tile(data, 2), ends), shape=(n, n))
    return vertices, np.array(times), graph


def passage_time_ball(instance: FppInstance, t: float) -> dict:
    """Vertices with passage time from the origin strictly below t, with times.

    Grows Dijkstra from the origin until every frontier value is >= t, so the
    returned dict is exactly B(t) = {y : T(0, y) < t}.
    """
    index, times, _ = _settle(instance, t, 0.0, math.inf)
    return dict(zip(index, times))


def _prefix_ball(growth: tuple, t: float, shell: float) -> tuple:
    """(core, rows) of B(t), paths inside B(t * (1 + shell)), from a growth
    at least that far.

    core lists the lattice vertices of B(t), the origin first, then the rest
    sorted; rows(sources, start=0) returns T/t from each core index in
    sources to core vertices start, start + 1, ...  Both balls are prefixes
    of the growth, and one permutation maps core indices to settle indices:
    sources go through it and each row's columns are gathered through it.
    """
    vertices, times, graph = growth
    m = int(np.searchsorted(times, t))
    n = int(np.searchsorted(times, t * (1.0 + shell)))
    graph = graph[:n, :n]
    perm = np.concatenate([[0], 1 + np.lexsort(vertices[1:m].T[::-1])])

    def rows(sources, start=0):
        out = dijkstra(graph, directed=True, indices=perm[sources])[:, perm[start:]]
        if not np.all(np.isfinite(out)):
            raise SolverError("ball subgraph unexpectedly disconnected")
        out /= t
        return out

    return vertices[perm], rows


def _l1_ball_size(dim: int, radius: int) -> int:
    """|{x in Z^dim : |x|_1 <= radius}| = sum_k 2^k C(dim, k) C(radius, k)."""
    return sum(2**k * math.comb(dim, k) * math.comb(radius, k) for k in range(dim + 1))


def _l1_ball(dim: int, radius: int) -> np.ndarray:
    """The lattice points with |x|_1 <= radius, (m, dim): the origin first, then
    the rest in tuple order, the order of _prefix_ball's core.

    Each pass appends one coordinate: a prefix with slack r (radius minus the
    l1 norm of the prefix) takes every value in [-r, r], in ascending order.
    """
    points = np.zeros((1, 0), dtype=np.int64)
    slack = np.array([radius])
    for _ in range(dim):
        counts = 2 * slack + 1
        parent = np.repeat(np.arange(len(points)), counts)
        offset = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        coord = offset - slack[parent]
        points = np.column_stack([points[parent], coord])
        slack = slack[parent] - np.abs(coord)
    # x -> -x reverses tuple order and fixes only the origin, so it sits in the middle
    mid = len(points) // 2
    return np.concatenate([points[mid:mid + 1], points[:mid], points[mid + 1:]])


def _det_ball(instance: FppInstance, t: float, shell: float, budget: int) -> tuple:
    """(core, steps) of B(t) for a deterministic weight c, without a growth.

    With S_0 = 0 and S_h = fl(S_{h-1} + c), every h-edge path sums to S_h in
    path order, and S is nondecreasing, so the fewest edges win: Dijkstra
    settles x at S_{|x|_1}, and B(t) is the l1 lattice ball of radius H, the
    largest h with S_h < t.  Any two of its points are joined inside it by a
    path of |x - y|_1 edges (take the |.|-decreasing steps first), so
    T(x, y) = S_{|x - y|_1} bit for bit, for every c and every shell.  core
    is that ball in _prefix_ball's order, and steps[h] = S_h / t for
    h <= 2H.  The checks are those of a growth; the budget is checked on the
    closed-form size of each ball before the next S_h, so nothing is
    allocated past budget + 1 vertices.
    """
    _check_ball(instance, t, shell)
    c = instance.law.params[0]
    sums = [0.0]
    while True:
        if _l1_ball_size(instance.dim, len(sums) - 1) > budget:
            raise BudgetExceededError(f"|B(t)| exceeds the all-pairs budget {budget}")
        nxt = sums[-1] + c
        if nxt >= t:
            break
        sums.append(nxt)
    radius = len(sums) - 1
    for _ in range(radius):
        sums.append(sums[-1] + c)
    return _l1_ball(instance.dim, radius), np.array(sums) / t


def _l1_rows(steps: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """steps[|a_i - b_j|_1] for every pair of lattice points of a and b."""
    return steps[cdist(a, b, "cityblock").astype(np.intp)]


def _det_rows(core: np.ndarray, steps: np.ndarray, sources, start=0) -> np.ndarray:
    """rows(sources, start) of a _det_ball (core, steps), as _prefix_ball's rows
    gives them; bound with partial, so each ball's rows keep their own core."""
    return _l1_rows(steps, core[sources], core[start:])


def _mean_abs_gaps(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_j w_j |a_i - a_j| for every i, from prefix sums over sorted a."""
    order = np.argsort(a, kind="stable")
    s, ws = a[order], w[order]
    below_w = np.cumsum(ws)
    below = np.cumsum(ws * s)
    gaps = np.empty_like(a)
    gaps[order] = (s * below_w - below) + ((below[-1] - below) - s * (below_w[-1] - below_w))
    return gaps


def _second_moment_bounds(anchors: np.ndarray, w: np.ndarray, p: float) -> np.ndarray:
    """max_L ((A_L(i) - mu_L)^2 + var_L)^(p/2) for every i, mu_L and var_L the
    w-weighted mean and variance of row A_L.

    (A_L(i) - mu_L)^2 + var_L = sum_j w_j (A_L(i) - A_L(j))^2, and for p >= 2
    Jensen lifts it to the power p/2 below sum_j w_j |A_L(i) - A_L(j)|^p.
    """
    mu = anchors @ w
    spread = anchors - mu[:, None]
    np.square(spread, out=spread)
    spread += (spread @ w)[:, None]
    return spread.max(axis=0) ** (p / 2)


def _strong_bounds(anchors: np.ndarray, chunk: np.ndarray, w: np.ndarray, p: float) -> np.ndarray:
    """sum_j w_j max_L |A_L(i) - A_L(j)|^p for each candidate i in chunk."""
    gap = np.empty((chunk.size, anchors.shape[1]))
    lb = np.abs(np.subtract(anchors[0], anchors[0, chunk, None]))
    for a in anchors[1:]:
        np.abs(np.subtract(a, a[chunk, None], out=gap), out=gap)
        np.maximum(lb, gap, out=lb)
    # BLAS may sum in any order, so the bound can move by a few ulps with the
    # library or its threads; _BOUND_SLACK absorbs that, and no reported
    # objective passes through here, only the choice of rows to take
    return (lb**p) @ w


def _ball_one_mean(rows, m: int, p: float, strong: bool = True) -> tuple:
    """(objective, sorted minimizers) of the exact 1-mean of the scaled core.

    rows(sources) returns the scaled passage times T/t from each source to
    the m core vertices, (len(sources), m).  Landmarks L are picked
    farthest-point from the origin.  For candidate i and every j,
    T(i, j) >= max_L |T(L, i) - T(L, j)|, so with A_L = T(L, .), mu_L and
    var_L the w-weighted mean and variance of A_L,

        c_i = max_L (sum_j w_j |A_L(i) - A_L(j)|)^p          (cheap bound)
        v_i = max_L ((A_L(i) - mu_L)^2 + var_L)^(p/2)     (second moment)
        s_i = sum_j w_j max_L |A_L(i) - A_L(j)|^p          (strong bound)

    are lower bounds on the cost of i.  By Jensen c_i <= s_i for p >= 1, and
    c_i <= v_i <= s_i for p >= 2, since (A_L(i) - mu_L)^2 + var_L is
    sum_j w_j (A_L(i) - A_L(j))^2.  c and v cost O(L m) for all candidates
    together, s O(L m) for each.  The landmarks are evaluated first; then
    candidates are visited in ascending first bound (v for p >= 2, c
    below), the strong bound is taken only for those the first cannot
    exclude, and full rows are taken only for those the strong one cannot.
    The scan stops at the first bound above the tie threshold.  Every
    candidate never evaluated thus costs more than best * (1 +
    TRACK_TIE_TOL), and all tied minimizers are returned, as k_means_exact
    would return them.  With strong=False, for rows that cost no more than
    the strong bound (the closed form of deterministic laws), the
    candidates the first bound keeps are costed directly, a chunk at a
    time; the result is the same.
    """
    w = np.full(m, 1.0 / m)
    origin = rows([0])[0]
    marks, anchors = [0], [origin]
    near = origin.copy()
    while len(marks) < min(LANDMARKS, m):
        nxt = int(np.argmax(near))
        if near[nxt] == 0.0:
            break
        row = rows([nxt])[0]
        marks.append(nxt)
        anchors.append(row)
        np.minimum(near, row, out=near)
    anchors = np.array(anchors)

    candidates, costs = [], []

    def evaluate(sources, taken):
        candidates.extend(sources)
        # k_means_exact costs the singleton {c} as row c of dist**p through
        # this kernel, so the two agree bit for bit wherever the rows agree
        costs.extend(_weighted_row_sums(taken**p, w).tolist())
        return min(costs) * (1.0 + TRACK_TIE_TOL)

    thresh = evaluate(marks, anchors)

    if p >= 2 and p * m**1.5 * 2.0**-53 <= (1.0 - _BOUND_SLACK) / 2:
        first = _second_moment_bounds(anchors, w, p) * _BOUND_SLACK
    else:
        # rounding can leave a gap of a coincident pair a hair below zero
        gaps = np.maximum(np.max([_mean_abs_gaps(a, w) for a in anchors], axis=0), 0.0)
        first = gaps**p * _BOUND_SLACK
    first[marks] = math.inf
    order = np.argsort(first, kind="stable")
    pending = []
    for start in range(0, m, _BOUND_CHUNK):
        chunk = order[start:start + _BOUND_CHUNK]
        chunk = chunk[first[chunk] <= thresh]
        if not chunk.size:
            break
        if not strong:
            thresh = evaluate(chunk.tolist(), rows(chunk))
            continue
        bounds = _strong_bounds(anchors, chunk, w, p) * _BOUND_SLACK
        for i, bound in zip(chunk.tolist(), bounds.tolist()):
            if bound <= thresh:
                pending.append(i)
                if len(pending) == _BATCH:
                    thresh = evaluate(pending, rows(pending))
                    pending = []
    if pending:
        evaluate(pending, rows(pending))
    best = min(costs)
    return best, _tie_family(zip(costs, candidates), best, TRACK_TIE_TOL)


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

    Dijkstra runs from every vertex of B(t); past geodesic.MAX_GRAPH_POINTS
    vertices this raises BudgetExceededError before the rows are allocated.
    The matrix is mirrored from its upper triangle, so it is exactly
    symmetric, with the origin's row computed from the origin itself.
    """
    _check_ball(instance, t, shell)
    core, rows = _prefix_ball(_grow(instance, t, shell, budget), t, shell)
    m = len(core)
    if m > geodesic.MAX_GRAPH_POINTS:
        raise BudgetExceededError(
            f"scaled space on {m} points exceeds the limit of {geodesic.MAX_GRAPH_POINTS}"
        )
    tmat = geodesic._mirror_upper(rows(np.arange(m)))
    labels = [",".join(map(str, v)) for v in core.tolist()]
    return FiniteMetricMeasureSpace.uniform(labels, tmat)


@dataclass
class TrackPoint:
    """Barycenter of one scaled ball: minimizing vertices in scaled coordinates."""

    t: float
    barycenters: list
    objective: float
    tied: bool
    ball_size: int


def _balls(instance: FppInstance, ts: list, shell: float, budget: int):
    """Yields (t, core, rows) for each t: B(t) and its rows, as _prefix_ball
    gives them, paths inside B(t * (1 + shell)).

    Deterministic laws take each ball and every row from the closed form of
    _det_ball.  Other laws grow once, to the largest t: Dijkstra settles the
    same vertices at the same times in the same order until it passes a
    smaller stop, so every ball is a prefix of that one growth.  Every t is
    checked, in order, before the growth, and the first bad one is raised
    after the good ones before it have grown, so a budget error among those
    still comes first, as it does when each ball grows on its own.
    """
    if instance.law.kind == "deterministic":
        for t in ts:
            core, steps = _det_ball(instance, t, shell, budget)
            yield t, core, partial(_det_rows, core, steps)
        return
    valid, error = [], None
    for t in ts:
        try:
            _check_ball(instance, t, shell)
        except InvalidArgumentError as exc:
            error = exc
            break
        valid.append(t)
    if valid:
        growth = _grow(instance, max(valid), shell, budget)
    if error is not None:
        raise error
    for t in ts:
        yield (t, *_prefix_ball(growth, t, shell))


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
    candidates before their row is taken.  Deterministic laws take their
    balls and rows from a closed form (see _det_ball); other laws grow one
    ball, to the largest t, and run Dijkstra rows.  Costs go through the same
    fixed-order reduction as k_means_exact, so the objectives are the same
    bits wherever the rows are: always for deterministic laws.  For random
    weights each objective comes from the minimizer's own Dijkstra row,
    while scaled_space mirrors half its entries from the other end's row,
    so the two can differ in the last few ulps.
    """
    ts = [float(t) for t in t_list]
    if not ts or any(b <= a for a, b in zip(ts, ts[1:])):
        raise InvalidArgumentError("t_list must be nonempty and strictly ascending")
    p = _check_p(p)
    out = []
    # closed-form rows cost less than the strong bound that would spare them
    strong = instance.law.kind != "deterministic"
    for t, core, rows in _balls(instance, ts, shell, budget):
        objective, minimizers = _ball_one_mean(rows, len(core), p, strong)
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


def _orbit_representatives(core: np.ndarray) -> np.ndarray:
    """Indices of the core points with every coordinate >= 0 and, in 2-D, also
    x0 >= x1: one point of each orbit of the axis sign changes and, in 2-D, of
    the axis swap."""
    keep = np.all(core >= 0, axis=1)
    if core.shape[1] == 2:
        keep &= core[:, 0] >= core[:, 1]
    return np.flatnonzero(keep)


def _covering_grid(axis: np.ndarray, core: np.ndarray, t: float, inside) -> tuple:
    """(grid, near): the points g of the box axis^dim, in C order, inside the
    reference ball, and whether rint(g t) is a lattice point of core.

    inside(parts) takes the sparse ij meshgrid of a part of the box and
    returns the mask of its points inside the ball.  The box is taken one
    slab of the first axis at a time, at most _BLOCK_ENTRIES points (at
    least one value of the first axis) each, and only the inside points of a
    slab are kept, so the whole box is never held; C-order slabs list the
    same points in the same order as the whole box.  Every coordinate of a
    grid point is an axis value, so rint(g t) is looked up per axis value,
    in one boolean box over core's bounding box, padded by one empty cell
    on each side to take every cell outside it.
    """
    dim = core.shape[1]
    low = core.min(axis=0)
    shape = core.max(axis=0) - low + 1
    box = np.zeros(shape + 2, dtype=bool)
    box[tuple((core - low + 1).T)] = True
    rounded = np.rint(axis * t)
    cells = [np.clip(rounded - lo + 1, 0, n + 1).astype(np.intp) for lo, n in zip(low, shape)]
    rows = max(1, _BLOCK_ENTRIES // axis.size ** (dim - 1))
    grids, nears = [], []
    for start in range(0, axis.size, rows):
        part = slice(start, start + rows)
        axes = [axis[part]] + [axis] * (dim - 1)
        index = np.nonzero(inside(np.meshgrid(*axes, indexing="ij", sparse=True)))
        grids.append(np.column_stack([a[i] for a, i in zip(axes, index)]))
        near_cells = [cells[0][part]] + cells[1:]
        nears.append(box[tuple(c[i] for c, i in zip(near_cells, index))])
    return np.concatenate(grids), np.concatenate(nears)


def _ball_to_set(tree: cKDTree, grid: np.ndarray, near: np.ndarray, t: float, extent: float) -> float:
    """max over the grid of the distance to the nearest point of tree, scaled
    lattice points of spacing 1/t.

    A grid point g is near when k = rint(fl(g t)) is a lattice point of the
    set; then g lies within bound = sqrt(dim) / (2t) of k / t, so the tree is
    queried at the other points first.  With u = 2**-53 and G >= |g| t (G =
    extent * t, extent bounding every grid coordinate), per coordinate
    |fl(g t) - k| <= 1/2 and |fl(g t) - g t| <= u G give
    |g - k/t| <= (1 + 2uG) / (2t), and the stored vertex fl(k/t) is within
    u (G + 1) / t of k / t, so g is within (1 + u (4G + 2)) / (2t) of it.
    The tree's distance (a difference, a square and a sum per coordinate,
    then a square root) and the threshold's own arithmetic round a dozen
    times more at most, so the slack 1 + (4G + 16) 2**-52, twice all of
    that, bounds every near point's computed distance.  When the other
    points' max exceeds bound times the slack it is the whole grid's max bit
    for bit, since each query's answer does not depend on the rest of the
    batch; otherwise the whole grid is queried.
    """
    if not grid.size:
        return 0.0
    bound = math.sqrt(grid.shape[1]) / (2.0 * t) * (1.0 + (4.0 * extent * t + 16.0) * 2.0**-52)
    if not near.all():
        far = float(tree.query(grid[~near])[0].max())
        if far > bound:
            return far
    return float(tree.query(grid)[0].max())


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
    grid_factor must be positive and finite, else InvalidArgumentError.

    The metric defect is the sup over pairs of |T/t - norm difference|, with
    paths kept inside B(t), taken as a running max over row blocks of _balls'
    rows, so no m x m array is made.  Against the closed-form l1 reference
    every entry keeps its bits when an axis changes sign, since
    fl(-x/t) = -fl(x/t) and |(-a) - (-b)| = |a - b|, and in 2-D also when
    the two axes swap, since a two-term sum commutes (a three-term sum is not
    associative, so 3-D keeps its axis order); the l1 ball is invariant under
    the same maps.  So rows are taken only from one representative per orbit
    (every coordinate >= 0, and in 2-D x0 >= x1) against all m columns.  With
    a callable norm the rows are the upper-triangle blocks, from Dijkstra one
    block of sources at a time for random laws.

    The covering defect is the Hausdorff distance between the scaled vertex set
    and the reference ball, measured in the ambient Euclidean metric on a grid
    finer than the scaled lattice, of spacing 1/(grid_factor t).  The grid
    is built one slab of its first axis at a time and keeps only the points
    inside the reference ball, so the box around it is never held.  The
    nearest-vertex query skips the grid points that round to a vertex, each
    within sqrt(dim) / (2t) of it, whenever the max over the rest exceeds
    that bound times a rounding slack, and otherwise queries the whole grid
    (see _ball_to_set); either way the max is the same bits.  A box of more
    than _GRID_BUDGET points, counted on the axis length before the axis is
    built, raises BudgetExceededError before either pass runs.
    """
    if not (grid_factor > 0 and math.isfinite(grid_factor)):
        raise InvalidArgumentError(f"grid_factor must be positive and finite, got {grid_factor!r}")
    if reference_norm is None:
        if instance.law.kind != "deterministic":
            raise UnsupportedReferenceError(
                f"no closed-form limit shape for {instance.law.describe()}; "
                "pass reference_norm explicitly"
            )
        c = instance.law.params[0]
        l1_radius = 1.0 / c
    else:
        l1_radius = None

    ((_, core, rows),) = _balls(instance, [t], 0.0, budget)
    coords = np.asarray(core, dtype=np.float64) / t
    m = len(core)
    # reference ball discretized finer than the 1/t lattice spacing; the box
    # is checked against the budget, at the axis length np.arange would give,
    # before anything is built
    h = 1.0 / (grid_factor * t)
    radius_box = max(float(np.abs(coords).max()), 1.0 if l1_radius is None else l1_radius)
    low, high = -radius_box - h, radius_box + h
    count = (high - low) / h if h > 0.0 else math.inf
    count = math.ceil(count) if math.isfinite(count) else math.inf
    if count ** instance.dim > _GRID_BUDGET:
        raise BudgetExceededError(
            f"covering grid of {count:.6g} points per axis in {instance.dim}-D "
            f"exceeds the budget of {_GRID_BUDGET} points"
        )
    step = max(1, _BLOCK_ENTRIES // m)
    if l1_radius is not None:
        reps = _orbit_representatives(core)
        blocks = [(reps[s:s + step], 0) for s in range(0, len(reps), step)]
    else:
        blocks = [(np.arange(s, min(s + step, m)), s) for s in range(0, m, step)]
    metric_defect = 0.0
    for sources, start in blocks:
        # row k of a block is T/t from sources[k] to every j >= start
        block = rows(sources, start)
        if l1_radius is not None:
            ref = cdist(coords[sources], coords, "cityblock")
            ref *= c
        else:
            ref = np.zeros_like(block)
            for k, i in enumerate(sources.tolist()):
                ref[k, k + 1:] = list(map(reference_norm, coords[i] - coords[i + 1:]))
        block -= ref
        np.abs(block, out=block)
        if l1_radius is None:
            # upper-triangle rows count only for the columns j > i
            block = np.triu(block, 1)
        metric_defect = max(metric_defect, float(block.max()))

    axis = np.arange(low, high, h)
    if l1_radius is not None:

        def inside(parts):
            # |x_0| + |x_1| + ... added left to right, the order of a sum
            # over one point's coordinates, so boundary points keep their side
            total = np.abs(parts[0])
            for part in parts[1:]:
                total = total + np.abs(part)
            return c * total <= 1.0

    else:

        def inside(parts):
            points = np.stack(np.broadcast_arrays(*parts), axis=-1)
            keep = [reference_norm(z) <= 1.0 for z in points.reshape(-1, instance.dim)]
            return np.array(keep, dtype=bool).reshape(points.shape[:-1])

    grid, near = _covering_grid(axis, core, t, inside)
    tree = cKDTree(coords)
    ball_to_set = _ball_to_set(tree, grid, near, t, radius_box + h)
    if l1_radius is not None:
        # _dist_to_l1_ball is exactly 0.0 inside the ball
        outside = coords[np.abs(coords).sum(axis=1) > l1_radius]
        set_to_ball = max((_dist_to_l1_ball(z, l1_radius) for z in outside), default=0.0)
    else:
        gtree = cKDTree(grid)
        set_to_ball = 0.0
        for z in coords:
            if float(reference_norm(z)) > 1.0:
                set_to_ball = max(set_to_ball, float(gtree.query(z)[0]))
    covering_defect = max(ball_to_set, set_to_ball)
    return metric_defect, covering_defect
