"""Vector quantization of empirical measures and epsilon-net graph metrics.

quantize runs weighted Lloyd iterations with restarts: assign each sample to
its nearest center, recenter each cell to minimize the cell's p-power cost,
repeat until the centers stop moving.  The reported objective is the
p-Wasserstein cost of collapsing the sample measure onto the centers.

epsilon_net_graph builds the shortest-path metric on an eps-net of a space
and reports whether the net is fine enough (measured net radius below
eps^2 / (4 diam)) for the graph metric to track the underlying geodesics.

density_compensation turns sampled density values into the reweighting that
undoes the density dependence of quantizer placement.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.spatial.distance import cdist

from .cloud import _as_points, euclidean_matrix
from .errors import InvalidArgumentError
from .geodesic import _graph_distances
from .samplers import _arc_gaps, _circle_angles, _circle_covering_radius, circle_arc_metric
from .space import _as_metric_matrix, _as_weights, _check_p, _weighted_row_sums


@dataclass
class QuantizeResult:
    """Centers (sorted lexicographically), their absorbed mass, and the cost.

    histories[r] is the per-iteration objective trace of restart r; each trace
    is nonincreasing, which is the Lloyd invariant worth asserting.
    """

    centers: np.ndarray
    masses: np.ndarray
    objective: float
    histories: list


def _cell_center(points: np.ndarray, w: np.ndarray, p: float, start: np.ndarray) -> np.ndarray:
    """Minimize sum w |x - c|^p over c for one cell; exact mean when p = 2."""
    if p == 2.0:
        return (w[:, None] * points).sum(axis=0) / w.sum()
    # imported here, not at module level, so that only a quantization at
    # p != 2 loads scipy.optimize
    from scipy.optimize import minimize

    def cost(c):
        return float(np.dot(w, np.linalg.norm(points - c[None, :], axis=1) ** p))

    # a cost that overflows reads inf; its warnings would reach the CLI's stderr
    with np.errstate(over="ignore", invalid="ignore"):
        res = minimize(cost, start, method="Nelder-Mead", options={"xatol": 1e-10, "fatol": 1e-12})
        # keep the update only if it actually improves, preserving monotonicity
        return res.x if res.fun <= cost(start) else start


def quantize(
    samples,
    n_centers: int,
    p: float = 2.0,
    restarts: int = 10,
    seed: int = 0,
    weights=None,
    max_iter: int = 200,
) -> QuantizeResult:
    """Weighted Lloyd quantization with restarts; deterministic per seed.

    weights are sample masses (normalized internally; uniform by default).
    When n_centers >= the sample count, the samples themselves are the optimal
    centers at objective zero.
    """
    pts = _as_points(samples, "samples")
    n, dim = pts.shape
    p = _check_p(p)
    if n_centers < 1:
        raise InvalidArgumentError("n_centers must be >= 1")
    if restarts < 1:
        raise InvalidArgumentError("restarts must be >= 1")
    if max_iter < 1:
        raise InvalidArgumentError("max_iter must be >= 1")
    if weights is None:
        w = np.full(n, 1.0 / n)
    else:
        w = _as_weights(weights, n, "weights")
        w = w / w.sum()

    if n_centers >= n:
        return QuantizeResult(centers=pts.copy(), masses=w.copy(), objective=0.0, histories=[])

    best_cost = math.inf
    best_centers = None
    histories = []
    for r in range(restarts):
        rng = np.random.default_rng([seed & 0xFFFFFFFF, r])
        centers = pts[rng.choice(n, size=n_centers, replace=False)].copy()
        trace = []
        moved = math.inf
        # every pass assigns and costs the current centers; the last pass,
        # after max_iter updates or one that moved no center by over 1e-12,
        # only evaluates them
        for it in itertools.count():
            dist = cdist(pts, centers)
            assign = np.argmin(dist, axis=1)
            powcost = float(_weighted_row_sums((dist[np.arange(n), assign] ** p)[None, :], w)[0])
            trace.append(powcost ** (1.0 / p))
            if it >= max_iter or moved <= 1e-12:
                break
            moved = 0.0
            for c in range(n_centers):
                mask = assign == c
                if not np.any(mask):
                    continue
                new = _cell_center(pts[mask], w[mask], p, centers[c])
                # a move too large to square reads inf, which is not <= 1e-12
                with np.errstate(over="ignore"):
                    moved = max(moved, float(np.linalg.norm(new - centers[c])))
                centers[c] = new
        histories.append(trace)
        if powcost < best_cost:
            best_cost = powcost
            best_centers = centers.copy()
    if best_centers is None:
        raise InvalidArgumentError(
            "the quantization cost is not finite on any restart; the samples are too large to quantize"
        )

    order = np.lexsort(best_centers.T[::-1])
    centers = best_centers[order]
    dist = cdist(pts, centers)
    assign = np.argmin(dist, axis=1)
    masses = np.zeros(n_centers)
    np.add.at(masses, assign, w)
    return QuantizeResult(
        centers=centers,
        masses=masses,
        objective=best_cost ** (1.0 / p),
        histories=histories,
    )


def grid_measure_1d(rho, a: float, b: float, grid_size: int = 4001):
    """Discretize a 1-D density on [a, b] into grid points and masses."""
    if not (a < b):
        raise InvalidArgumentError("need a < b")
    if grid_size < 2:
        raise InvalidArgumentError("grid_size must be >= 2")
    x = np.linspace(a, b, grid_size)
    dens = _as_weights([rho(v) for v in x], grid_size, "density values")
    return x, dens / dens.sum()


def quantize_density_1d(
    rho,
    a: float,
    b: float,
    n_centers: int,
    p: float = 2.0,
    restarts: int = 10,
    seed: int = 0,
    grid_size: int = 4001,
) -> QuantizeResult:
    """Quantize a 1-D density by quantizing its grid discretization."""
    x, w = grid_measure_1d(rho, a, b, grid_size)
    return quantize(x, n_centers, p=p, restarts=restarts, seed=seed, weights=w)


# ----------------------------------------------------------------------------
# eps-net graphs
# ----------------------------------------------------------------------------


@dataclass
class NetGraphResult:
    """Graph metric on the net plus the admissibility verdict.

    admissible is None when the net radius cannot be measured (no closed-form
    ambient geometry and no net_radius supplied); the graph metric is still
    valid, only the fineness guarantee is unknown.
    """

    dist: np.ndarray
    admissible: bool | None
    net_radius: float | None
    threshold: float


def epsilon_net_graph(
    net_points,
    ambient_metric,
    eps: float,
    diam: float,
    net_radius: float | None = None,
) -> NetGraphResult:
    """Shortest-path metric over edges strictly shorter than eps.

    ambient_metric is "euclidean", "circle" (points as angles or unit-circle
    coordinates, geodesic arc distances), or an explicit distance matrix, which
    must be finite, nonnegative and exactly symmetric.  The
    admissibility condition is net_radius < eps^2 / (4 diam); the radius is
    measured exactly for the circle and must be supplied otherwise.  Raises
    DisconnectedGraphError when eps fails to connect the net.
    """
    if not (eps > 0 and math.isfinite(eps)):
        raise InvalidArgumentError(f"eps must be positive, got {eps!r}")
    if not (diam > 0 and math.isfinite(diam)):
        raise InvalidArgumentError(f"diam must be positive, got {diam!r}")
    if isinstance(ambient_metric, str):
        if ambient_metric == "euclidean":
            pts = _as_points(net_points, "net_points")
            ambient = partial(euclidean_matrix, pts)
        elif ambient_metric == "circle":
            pts = _circle_angles(net_points, "net_points")
            ambient = partial(_arc_gaps, pts)
            if net_radius is None:
                net_radius = _circle_covering_radius(pts)
        else:
            raise InvalidArgumentError(
                f"ambient_metric must be 'euclidean', 'circle', or a matrix, got {ambient_metric!r}"
            )
        n = len(pts)
    else:
        matrix = _as_metric_matrix(ambient_metric, "ambient metric matrix")
        ambient = partial(np.asarray, matrix)
        n = len(matrix)

    def edges():
        amb = ambient()
        adj = amb < eps
        np.fill_diagonal(adj, False)
        rows, cols = np.nonzero(adj)
        return rows, cols, amb[rows, cols]

    dist = _graph_distances(n, edges, f"eps={eps}")

    threshold = eps * eps / (4.0 * diam)
    admissible = None if net_radius is None else bool(net_radius < threshold)
    return NetGraphResult(dist=dist, admissible=admissible, net_radius=net_radius, threshold=threshold)


def equispaced_circle_net(m: int) -> np.ndarray:
    """m equispaced points on the unit circle, as (m, 2) coordinates."""
    if m < 1:
        raise InvalidArgumentError("m must be >= 1")
    theta = 2.0 * math.pi * np.arange(m) / m
    return np.stack([np.cos(theta), np.sin(theta)], axis=1)


def density_compensation(rho_values, p: float, intrinsic_dim: int) -> np.ndarray:
    """Weights proportional to rho^(-(p + dim)/dim), normalized to sum to one.

    This is the reweighting under which quantizer centers of a density-biased
    sample behave like centers of the uniform measure.  Scale-invariant in rho
    up to roundoff.
    """
    rho = np.asarray(rho_values, dtype=np.float64)
    if rho.ndim != 1 or rho.size == 0:
        raise InvalidArgumentError("rho_values must be a nonempty vector")
    if rho.min() <= 0 or not np.all(np.isfinite(rho)):
        raise InvalidArgumentError("density values must be positive and finite")
    p = _check_p(p)
    if intrinsic_dim < 1:
        raise InvalidArgumentError("intrinsic_dim must be >= 1")
    w = rho ** (-(p + intrinsic_dim) / intrinsic_dim)
    return w / w.sum()
