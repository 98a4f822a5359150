"""Graph-geodesic metric estimators on point clouds.

Two estimators share one graph core: each lists its edges, and the core
builds an explicit sparse graph from that list, checks that it connects the
cloud, and takes all-pairs shortest paths.  Every listed edge is kept,
including zero and tiny weights (a dense weight matrix would let scipy read
weights within about 1e-8 of zero as missing edges).  Fermat distances weight
the complete graph by Euclidean length to the power alpha >= 1; the isomap
variant connects points within radius eps at plain Euclidean length.  Both
return exactly symmetric matrices because the Floyd-Warshall relaxations are
symmetric expressions of symmetric inputs.

Also here: the closed-form population Fermat distance for a one-dimensional
Gaussian, a Monte Carlo moment probe built on it, and a pointwise check of
the curvature inequality that guarantees unique two-point clusterings on a
conformally deformed base.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, floyd_warshall
from scipy.spatial.distance import cdist

from .cloud import PointCloud
from .errors import BudgetExceededError, DisconnectedGraphError, InvalidArgumentError

# Largest point count the graph core and the metric dispatch accept.  Every
# learned metric holds dense n x n float64 arrays (8 n^2 bytes each) and
# Floyd-Warshall costs n^3, so past this a run would end in MemoryError or
# take hours.
MAX_GRAPH_POINTS = 10_000


@dataclass(frozen=True)
class FermatParams:
    """Density-sensitivity exponent alpha and intrinsic dimension."""

    alpha: float
    intrinsic_dim: int

    def __post_init__(self):
        if not (self.alpha >= 1.0 and math.isfinite(self.alpha)):
            raise InvalidArgumentError(f"alpha must be >= 1, got {self.alpha!r}")
        if self.intrinsic_dim < 1:
            raise InvalidArgumentError("intrinsic_dim must be >= 1")

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


def _graph_distances(n: int, edges, knob: str, members: np.ndarray | None = None) -> np.ndarray:
    """All-pairs shortest paths over an undirected graph given by an edge list.

    edges is called with no arguments and returns (rows, cols, weights), one
    entry per edge between vertices in [0, m); it runs only after the size
    check, so it may build m x m arrays.  Each edge is stored explicitly, so
    zero and tiny weights stay edges; where both (i, j) and (j, i) are listed
    the smaller weight counts.  members maps the n points onto the m vertices
    (duplicates share a vertex); None means one vertex per point.  The result
    is n x n over the points.  Raises BudgetExceededError when n exceeds
    MAX_GRAPH_POINTS, and DisconnectedGraphError, carrying the point index
    sets of the components and naming knob, when the graph does not connect.
    """
    if n > MAX_GRAPH_POINTS:
        raise BudgetExceededError(
            f"graph metric on {n} points exceeds the limit of {MAX_GRAPH_POINTS}"
        )
    m = n if members is None else int(members.max()) + 1
    if m == 1:
        return np.zeros((n, n))
    rows, cols, weights = edges()
    graph = csr_matrix((weights, (rows, cols)), shape=(m, m))
    ncomp, labels = connected_components(graph, directed=False)
    if ncomp > 1:
        point_labels = labels if members is None else labels[members]
        comps = [np.flatnonzero(point_labels == c).tolist() for c in range(ncomp)]
        raise DisconnectedGraphError(
            f"{knob} graph has {ncomp} components; raise {knob.partition('=')[0]}", comps
        )
    dist = floyd_warshall(graph, directed=False)
    return dist if members is None else dist[np.ix_(members, members)]


def fermat_distance_matrix(cloud: PointCloud, alpha: float, knn: int | None = None) -> np.ndarray:
    """Empirical Fermat distances: cheapest path cost with hop cost |step|^alpha.

    The graph is complete by default.  knn keeps only the edges from each
    point to its knn nearest neighbors (either endpoint may pick the edge).
    Sparser than the complete graph, it can only lengthen paths, so it matches
    the complete-graph matrix only when knn is large enough; check that on a
    moderate instance before relying on it at scale.  Raises
    DisconnectedGraphError if the restriction disconnects the cloud.
    Duplicate points are collapsed before the shortest-path pass and
    re-expanded, so exact duplicates sit at distance zero as they should.
    """
    if not (alpha >= 1.0 and math.isfinite(alpha)):
        raise InvalidArgumentError(f"alpha must be >= 1, got {alpha!r}")
    pts = cloud.points
    if pts.shape[0] < 2:
        raise InvalidArgumentError("need at least 2 points")
    uniq, inv = _dedupe(pts)
    m = uniq.shape[0]
    if knn is not None and m > 1 and not 1 <= knn < m:
        raise InvalidArgumentError(f"knn must be in [1, {m - 1}], got {knn}")

    def edges():
        e = cdist(uniq, uniq)
        if knn is None:
            rows, cols = np.triu_indices(m, 1)
        else:
            rows = np.repeat(np.arange(m), knn)
            cols = np.argsort(e, axis=1, kind="stable")[:, 1 : knn + 1].ravel()
        return rows, cols, e[rows, cols] ** alpha

    return _graph_distances(pts.shape[0], edges, f"knn={knn}", inv)


def fermat_scaled(matrix: np.ndarray, n: int, alpha: float, intrinsic_dim: int) -> np.ndarray:
    """Rescale an empirical Fermat matrix by n^((alpha-1)/intrinsic_dim).

    This is the normalization under which the empirical distances converge;
    alpha = 1 leaves the matrix unchanged.
    """
    FermatParams(alpha, intrinsic_dim)
    if n < 1:
        raise InvalidArgumentError("n must be >= 1")
    # 0 exponent gives factor exactly 1.0, so alpha=1 is bitwise a no-op
    factor = float(n) ** ((alpha - 1.0) / intrinsic_dim)
    return np.asarray(matrix, dtype=np.float64) * factor


def isomap_distance_matrix(cloud: PointCloud, eps: float) -> np.ndarray:
    """Shortest paths over the eps-neighborhood graph at Euclidean edge length.

    Points are adjacent iff their Euclidean distance is <= eps.  Raises
    DisconnectedGraphError (carrying the component index sets) when the graph
    does not connect the cloud.
    """
    if not (eps > 0 and math.isfinite(eps)):
        raise InvalidArgumentError(f"eps must be positive, got {eps!r}")
    pts = cloud.points
    if pts.shape[0] < 2:
        raise InvalidArgumentError("need at least 2 points")
    uniq, inv = _dedupe(pts)

    def edges():
        e = cdist(uniq, uniq)
        rows, cols = np.nonzero(np.triu(e <= eps, 1))
        return rows, cols, e[rows, cols]

    return _graph_distances(pts.shape[0], edges, f"eps={eps}", inv)


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
    if not (alpha >= 1.0 and math.isfinite(alpha)):
        raise InvalidArgumentError(f"alpha must be >= 1, got {alpha!r}")
    x = float(x)
    y = float(y)
    kappa = 1.0 - alpha
    if x == y:
        return 0.0
    if kappa == 0.0:
        return abs(y - x)
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
    if n_samples < 1:
        raise InvalidArgumentError("n_samples must be >= 1")
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
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
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
        f = float(density(x))
        if not (f > 0.0 and math.isfinite(f)):
            raise InvalidArgumentError(f"density must be positive at sample {i}, got {f!r}")
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
