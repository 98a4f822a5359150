"""Graph-geodesic metric estimators on point clouds.

Two estimators share one graph core: each lists the edges of its graph G,
and the core takes all-pairs shortest paths over them.  Every listed edge is
kept, including zero and tiny weights (a dense weight matrix would let scipy
read weights within about 1e-8 of zero as missing edges).  Fermat distances
weight the complete graph by Euclidean length to the power alpha >= 1; the
isomap variant connects points within radius eps at plain Euclidean length.

The core first tries a sparse candidate subgraph H of G, where the builder
knows one that carries every shortest path, and certifies it (the lemma: if
D_H(i, j) <= W(i, j) for every edge of G, every G-path is dominated by an
H-path, so D_H = D_G).  The one candidate is the sorted-neighbour chain of a
1-D cloud, which carries every path of isomap and of Fermat at any alpha,
since the points are collinear.  On that path each source's distances are
running sums of the chain weights, rightward and leftward from its place,
the sums Dijkstra's would form on H; a certified matrix has its upper
triangle mirrored, so it is exactly symmetric by construction.
Without a candidate, or when the check fails, G runs Floyd-Warshall in
reversed breadth-first vertex order, the bandwidth-reducing numbering of
reverse Cuthill-McKee without its sort by degree: scipy's kernel skips row
i at step k while D[i, k] is still inf, and in a banded order it stays inf
for longer.  The BFS starts from a pseudo-peripheral vertex, the last one a
BFS from vertex 0 reaches; that first BFS is also the connectivity check.
The relaxations are symmetric expressions of symmetric inputs, so that
matrix is exactly symmetric too, and the numbering is undone in the
expansion from vertices to points.

Also here: the closed-form population Fermat distance for a one-dimensional
Gaussian, a Monte Carlo moment probe built on it, and a pointwise check of
the curvature inequality that guarantees unique two-point clusterings on a
conformally deformed base.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components, floyd_warshall

from .cloud import PointCloud, _as_points, euclidean_matrix
from .errors import DisconnectedGraphError, InvalidArgumentError
from .space import _check_count, _check_graph_size, _check_positive, _check_tol, _powered


def _check_alpha(alpha: float) -> None:
    """The one Fermat-exponent rule: alpha is a finite number >= 1."""
    if not (alpha >= 1.0 and math.isfinite(alpha)):
        raise InvalidArgumentError(f"alpha must be >= 1, got {alpha!r}")


@dataclass(frozen=True)
class FermatParams:
    """Density-sensitivity exponent alpha and intrinsic dimension."""

    alpha: float
    intrinsic_dim: int

    def __post_init__(self):
        _check_alpha(self.alpha)
        _check_count(self.intrinsic_dim, "intrinsic_dim")

    @property
    def kappa(self) -> float:
        """(1 - alpha) / intrinsic_dim; nonpositive by construction."""
        return (1.0 - self.alpha) / self.intrinsic_dim


def _dedupe(pts: np.ndarray):
    """Unique rows plus the inverse map; keeps first occurrences in order."""
    uniq, first, inv = np.unique(pts, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return pts[np.sort(first)], rank[inv]


def _graph_distances(
    n: int, edges, knob: str, members: np.ndarray | None = None, candidate=None
) -> np.ndarray:
    """All-pairs shortest paths over an undirected graph G given by an edge list.

    edges is called with no arguments and returns (rows, cols, weights), one
    entry per edge between vertices in [0, m); it runs only after the size
    check, so it may build m x m arrays.  Weights are finite: isomap and
    eps-net edges are at most eps, and Fermat's come from space._powered.
    Each edge is stored explicitly, so zero and tiny weights stay edges;
    where both (i, j) and (j, i) are listed the smaller weight counts.
    members maps the n points onto the m vertices (duplicates share a
    vertex); None means one vertex per point.  The result is n x n over the
    points.

    candidate, when given, is called after edges with no arguments and
    returns None or the vertex order of a path H through all m vertices to
    try first; edges must then list each edge once, with i < j, in row-major
    order.  H takes G's weights, and a step of the path that is not an edge
    of G means no H.  D_H, each source's running sums of H's weights in path
    order with the upper triangle mirrored, is returned when one pass over
    G's edges, in blocks of m, shows D_H(i, j) <= W(i, j) (1 + 4 (m + 3)
    2^-53) on every edge of G.
    Then every G-path is dominated by an H-path, so D_H = D_G up to that
    factor, which covers the rounding of m summed weights, the order of
    Floyd-Warshall's own.  Otherwise, or with no candidate, G's CSR is built
    and G runs Floyd-Warshall with its vertices numbered in the reverse of
    the order of a BFS from the last vertex a BFS from vertex 0 reaches (the
    reversal leaves the kernel fewer rows to relax than the BFS order on the
    circle, torus and Gaussian eps-graphs, as Cuthill-McKee's reversal
    leaves Gaussian elimination less fill).  A BFS visits each
    vertex's neighbours in CSR index order and sorts nothing, so the
    numbering is the same whatever sort numpy dispatches to (an order that
    breaks degree ties with np.argsort, as reverse_cuthill_mckee does, is
    not).  The first BFS doubles as the connectivity check: only a graph it
    does not span runs connected_components, to name the components.  The
    result is read back through the inverse numbering in the one gather
    that expands vertices to points; Floyd-Warshall's matrix is exactly
    symmetric in any numbering, and so is the gathered one.

    Raises BudgetExceededError when n exceeds space.MAX_GRAPH_POINTS, and
    DisconnectedGraphError, carrying the point index sets of the components
    and naming knob, when the graph does not connect.
    """
    _check_graph_size(n, "graph metric")
    m = n if members is None else int(members.max()) + 1
    if m == 1:
        return np.zeros((n, n))
    # the edge list dies with _vertex_distances, before the expansion
    dist, rank = _vertex_distances(m, edges, knob, members, candidate)
    if rank is not None:
        # undo the numbering in the same gather as the expansion
        members = rank if members is None else rank[members]
    if members is None:
        return dist
    # rows, then columns: dist[np.ix_(members, members)] without the index
    # buffer (128 KB) that fancy indexing holds beside the two matrices
    dist = dist.take(members, axis=0)
    return dist.take(members, axis=1)


def _vertex_distances(m: int, edges, knob: str, members, candidate) -> tuple:
    """(dist, rank): the shortest paths of _graph_distances between the m
    vertices, vertex v at row rank[v] of dist, or at row v when rank is
    None."""
    rows, cols, weights = edges()
    order = None if candidate is None else candidate()
    dist = None if order is None else _certified(m, rows, cols, weights, order)
    if dist is not None:
        return dist, None
    graph = csr_matrix((weights, (rows, cols)), shape=(m, m))
    del rows, cols, weights
    order = breadth_first_order(graph, 0, directed=False, return_predecessors=False)
    if order.size < m:
        ncomp, labels = connected_components(graph, directed=False)
        point_labels = labels if members is None else labels[members]
        comps = [np.flatnonzero(point_labels == c).tolist() for c in range(ncomp)]
        raise DisconnectedGraphError(
            f"{knob} graph has {ncomp} components; raise {knob.partition('=')[0]}", comps
        )
    # a BFS from the last vertex the first one reached, a pseudo-peripheral
    # vertex, orders the vertices in bands of equal hop distance; they are
    # numbered from the far end, the reversal of Cuthill-McKee's order
    order = breadth_first_order(graph, int(order[-1]), directed=False, return_predecessors=False)[::-1]
    rank = np.empty(m, dtype=graph.indices.dtype)
    rank[order] = np.arange(m)
    # vertex order[r] becomes r: renumber the columns, then take the rows
    graph = csr_matrix((graph.data, rank[graph.indices], graph.indptr), shape=(m, m))[order]
    return floyd_warshall(graph, directed=False), rank


def _certified(m: int, rows, cols, weights, order) -> np.ndarray | None:
    """D_H for the path H through the vertices in order, or None when a step
    of H is not in G's row-major edge list or H fails the check of
    _graph_distances.  Beside G's edge list it holds one key per edge while
    it looks H up, and then only the m x m result."""
    if not rows.size:
        return None
    keys = rows * m
    keys += cols
    a, b = order[:-1], order[1:]
    want = np.minimum(a, b) * m + np.maximum(a, b)
    pos = np.minimum(np.searchsorted(keys, want), keys.size - 1)
    found = np.all(keys[pos] == want)
    del keys
    if not found:
        return None
    steps = weights[pos]
    dist = np.empty((m, m))
    for at, source in enumerate(order.tolist()):
        row = dist[source]
        row[source] = 0.0
        row[order[at + 1 :]] = np.cumsum(steps[at:])
        row[order[:at][::-1]] = np.cumsum(steps[:at][::-1])
    _mirror_upper(dist)
    slack = 1.0 + 4.0 * (m + 3) * 2.0**-53
    for s in range(0, rows.size, m):
        block = slice(s, s + m)
        if not np.all(dist[rows[block], cols[block]] <= weights[block] * slack):
            return None
    return dist


def _mirror_upper(dist: np.ndarray) -> np.ndarray:
    """dist with its strict upper triangle copied onto the lower one, in
    place, so it is exactly symmetric; the diagonal is kept."""
    for i in range(1, dist.shape[0]):
        dist[i, :i] = dist[:i, i]
    return dist


def _chain(uniq: np.ndarray) -> np.ndarray:
    """The vertices of a 1-D cloud in sorted order, the path of its neighbours."""
    return np.argsort(uniq[:, 0], kind="stable")


def fermat_distance_matrix(cloud: PointCloud, alpha: float, knn: int | None = None) -> np.ndarray:
    """Empirical Fermat distances: cheapest path cost with hop cost |step|^alpha.

    The graph is complete by default.  knn keeps only the edges from each
    point to its knn nearest neighbors (either endpoint may pick the edge).
    Sparser than the complete graph, it can only lengthen paths, so it matches
    the complete-graph matrix only when knn is large enough; check that on a
    moderate instance before relying on it at scale.  Raises
    DisconnectedGraphError if the restriction disconnects the cloud, and
    space._powered's InvalidArgumentError when fl(4 max |step|^alpha) overflows.
    Duplicate points are collapsed before the shortest-path pass and
    re-expanded, so exact duplicates sit at distance zero as they should.
    The complete graph of a 1-D cloud tries its sorted-neighbour chain as
    the graph core's candidate.
    """
    _check_alpha(alpha)
    pts = cloud.points
    if pts.shape[0] < 2:
        raise InvalidArgumentError("need at least 2 points")
    uniq, inv = _dedupe(pts)
    m, dim = uniq.shape
    if knn is not None and m > 1:
        knn = _check_count(knn, "knn", 1, m - 1)

    def edges():
        e = euclidean_matrix(uniq)
        if knn is None:
            rows, cols = np.triu_indices(m, 1)
        else:
            rows = np.repeat(np.arange(m), knn)
            cols = np.argsort(e, axis=1, kind="stable")[:, 1 : knn + 1].ravel()
        return rows, cols, _powered(e[rows, cols], alpha, "Fermat edge lengths")

    candidate = partial(_chain, uniq) if knn is None and dim == 1 else None
    return _graph_distances(pts.shape[0], edges, f"knn={knn}", inv, candidate)


def fermat_scaled(matrix: np.ndarray, n: int, alpha: float, intrinsic_dim: int) -> np.ndarray:
    """Rescale an empirical Fermat matrix by n^((alpha-1)/intrinsic_dim).

    This is the normalization under which the empirical distances converge;
    alpha = 1 leaves the matrix unchanged.
    """
    FermatParams(alpha, intrinsic_dim)
    n = _check_count(n, "n")
    # 0 exponent gives factor exactly 1.0, so alpha=1 is bitwise a no-op
    factor = float(n) ** ((alpha - 1.0) / intrinsic_dim)
    # an overflow reads inf, which the metric's finiteness check rejects
    with np.errstate(over="ignore"):
        return np.asarray(matrix, dtype=np.float64) * factor


def isomap_distance_matrix(cloud: PointCloud, eps: float) -> np.ndarray:
    """Shortest paths over the eps-neighborhood graph at Euclidean edge length.

    Points are adjacent iff their Euclidean distance is <= eps.  Raises
    DisconnectedGraphError (carrying the component index sets) when the graph
    does not connect the cloud, and InvalidArgumentError when a distance
    overflows float64.  A 1-D cloud tries its sorted-neighbour chain as the
    graph core's candidate.
    """
    _check_positive(eps, "eps")
    pts = cloud.points
    if pts.shape[0] < 2:
        raise InvalidArgumentError("need at least 2 points")
    uniq, inv = _dedupe(pts)

    def edges():
        e = euclidean_matrix(uniq)
        rows, cols = np.nonzero(np.triu(e <= eps, 1))
        return rows, cols, e[rows, cols]

    candidate = partial(_chain, uniq) if uniq.shape[1] == 1 else None
    return _graph_distances(pts.shape[0], edges, f"eps={eps}", inv, candidate)


# ----------------------------------------------------------------------------
# 1-D Gaussian closed form
# ----------------------------------------------------------------------------


def gaussian_fermat_distance_1d(x: float, y: float, alpha: float) -> float:
    """Population Fermat distance between reals under the standard Gaussian.

    Equals (2*pi)^(-kappa/4) * |y - x| * F(x, y) with kappa = 1 - alpha and
    F the line integral of exp(-(kappa/4) * s^2) along the segment, evaluated
    by adaptive quadrature at absolute tolerance 1e-10.  alpha = 1 forces the
    integrand to one and the distance degenerates to |y - x|.
    """
    _check_alpha(alpha)
    x = float(x)
    y = float(y)
    kappa = 1.0 - alpha
    if x == y:
        return 0.0
    if kappa == 0.0:
        return abs(y - x)
    # imported here, not at module level, so that only a caller of this
    # function loads scipy.integrate (and the scipy.optimize it imports)
    from scipy.integrate import quad

    val, _ = quad(
        lambda t: math.exp(-(kappa / 4.0) * ((1.0 - t) * x + t * y) ** 2),
        0.0,
        1.0,
        epsabs=1e-10,
        limit=200,
    )
    return (2.0 * math.pi) ** (-kappa / 4.0) * abs(y - x) * val


def gaussian_fermat_moment_estimate(alpha: float, n_samples: int, seed: int) -> float:
    """Monte Carlo mean of the Gaussian Fermat distance from 0 to a Gaussian draw.

    The population moment is finite iff alpha is in [1, 3); outside that range
    the estimates grow without bound in n_samples, and this probe is how that
    divergence is observed.
    """
    n_samples = _check_count(n_samples, "n_samples")
    z = np.random.default_rng(seed).standard_normal(n_samples)
    total = 0.0
    for y in z:
        total += gaussian_fermat_distance_1d(0.0, float(y), alpha)
    return total / n_samples


# ----------------------------------------------------------------------------
# curvature condition
# ----------------------------------------------------------------------------


@dataclass
class CurvatureReport:
    """Pointwise margins of the uniqueness inequality.

    margins[i] = LHS - K at sample i; the condition holds where the margin is
    >= 0.  conformal_curvatures[i] is the sectional curvature of the deformed
    metric in the sampled plane, nonpositive exactly when the margin is.
    """

    margins: np.ndarray
    conformal_curvatures: np.ndarray
    min_margin: float
    worst_index: int
    passes: bool


def curvature_condition_check(
    density,
    gradient,
    hessian,
    alpha: float,
    intrinsic_dim: int,
    base_curvature: float,
    points: np.ndarray,
    frames: np.ndarray,
    tol: float = 1e-9,
) -> CurvatureReport:
    """Evaluate the two-point uniqueness inequality at sampled points and frames.

    density, gradient, hessian are callables returning f > 0, grad f, and the
    Hessian at a point.  frames[i] is an orthonormal pair (u, v) spanning the
    plane tested at points[i]; base_curvature is the constant sectional
    curvature K of the undeformed base (0 for Euclidean).  The inequality is

        (kappa/2f)(H(u,u) + H(v,v)) + (kappa^2/4f^2)|grad f|^2
          - (kappa/2f^2)((grad f . u)^2 + (grad f . v)^2)(1 + kappa/2) >= K

    with kappa = (1 - alpha)/intrinsic_dim; it holds everywhere iff the
    conformally deformed metric has nonpositive sectional curvature, which is
    what rules out tied two-point minimizers.
    """
    params = FermatParams(alpha, intrinsic_dim)
    kappa = params.kappa
    tol = _check_tol(tol, "tol")
    pts = _as_points(points, "points")
    frm = np.asarray(frames, dtype=np.float64)
    if frm.shape != (pts.shape[0], 2, pts.shape[1]):
        raise InvalidArgumentError(
            f"frames must have shape (n, 2, dim) matching points, got {frm.shape}"
        )
    gram_tol = 1e-8
    margins = np.empty(pts.shape[0])
    conformal = np.empty(pts.shape[0])
    for i, x in enumerate(pts):
        u, v = frm[i]
        if (
            abs(u @ u - 1.0) > gram_tol
            or abs(v @ v - 1.0) > gram_tol
            or abs(u @ v) > gram_tol
        ):
            raise InvalidArgumentError(f"frame {i} is not orthonormal")
        f = _check_positive(float(density(x)), f"density at sample {i}")
        g = np.asarray(gradient(x), dtype=np.float64).reshape(-1)
        h = np.asarray(hessian(x), dtype=np.float64)
        lhs = (
            kappa / (2.0 * f) * (u @ h @ u + v @ h @ v)
            + kappa**2 / (4.0 * f * f) * float(g @ g)
            - kappa / (2.0 * f * f) * (1.0 + kappa / 2.0) * (float(g @ u) ** 2 + float(g @ v) ** 2)
        )
        margins[i] = lhs - base_curvature
        conformal[i] = f ** (-kappa) * (base_curvature - lhs)
    worst = int(np.argmin(margins))
    return CurvatureReport(
        margins=margins,
        conformal_curvatures=conformal,
        min_margin=float(margins[worst]),
        worst_index=worst,
        passes=bool(margins[worst] >= -tol),
    )
