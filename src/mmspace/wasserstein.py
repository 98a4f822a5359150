"""Exact Wasserstein distances between discrete measures on a finite ground space.

The transportation problem is solved as an explicit linear program with the
HiGHS simplex backend, which lands on an exact vertex solution; no entropic
smoothing anywhere, because downstream tolerances are 1e-9 on objectives.
On top of that sit the space of measures with pairwise Wasserstein distances,
and the learned-metric pipeline: pool sample groups, estimate a ground metric,
and cluster the groups as measures over it.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

from .cloud import PointCloud, euclidean_matrix
from .diffusion import (
    diffusion_distance_matrix,
    embedding_from_decomposition,
    normalized_laplacian,
    similarity_matrix,
    spectral_decomposition,
)
from . import geodesic
from .errors import BudgetExceededError, InvalidArgumentError, SolverError
from .geodesic import fermat_distance_matrix, fermat_scaled, isomap_distance_matrix
from .space import FiniteMetricMeasureSpace, KMeansSolution, k_means_exact, k_means_pam

MASS_TOL = 1e-12


def worker_count() -> int:
    """Thread cap: MM_THREADS when set, else the CPU count."""
    env = os.environ.get("MM_THREADS")
    if env is not None:
        try:
            cap = int(env)
        except ValueError:
            raise InvalidArgumentError(f"MM_THREADS must be an integer, got {env!r}")
        if cap < 1:
            raise InvalidArgumentError("MM_THREADS must be >= 1")
        return cap
    return os.cpu_count() or 1


@dataclass
class DiscreteMeasure:
    """Masses on distinct indices of a ground space, summing to one."""

    ground_indices: tuple
    masses: np.ndarray

    def __post_init__(self):
        idx = tuple(int(i) for i in self.ground_indices)
        m = np.asarray(self.masses, dtype=np.float64)
        if len(idx) == 0:
            raise InvalidArgumentError("measure needs at least one support point")
        if len(set(idx)) != len(idx):
            raise InvalidArgumentError("duplicate support index; aggregate masses first")
        if m.shape != (len(idx),):
            raise InvalidArgumentError("masses must match support size")
        if m.min() < 0.0:
            raise InvalidArgumentError("masses must be nonnegative")
        if abs(float(m.sum()) - 1.0) > MASS_TOL:
            raise InvalidArgumentError(
                f"masses must sum to 1 within {MASS_TOL}, got {float(m.sum())!r}"
            )
        self.ground_indices = idx
        self.masses = m

    @classmethod
    def from_points(cls, indices, masses=None) -> "DiscreteMeasure":
        """Aggregate duplicate indices; default masses are uniform over the list."""
        idx = np.asarray(list(indices), dtype=np.intp)
        if idx.size == 0:
            raise InvalidArgumentError("measure needs at least one support point")
        if masses is None:
            m = np.full(idx.size, 1.0 / idx.size)
        else:
            m = np.asarray(masses, dtype=np.float64)
        uniq, inv = np.unique(idx, return_inverse=True)
        agg = np.zeros(uniq.size)
        np.add.at(agg, inv, m)
        agg /= agg.sum()
        return cls(tuple(int(i) for i in uniq), agg)

    @classmethod
    def dirac(cls, index: int) -> "DiscreteMeasure":
        return cls((int(index),), np.array([1.0]))

    def __len__(self):
        return len(self.ground_indices)


def _check_ground(ground: np.ndarray) -> np.ndarray:
    g = np.asarray(ground, dtype=np.float64)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise InvalidArgumentError("ground metric must be a square matrix")
    return g


def wasserstein_distance(ground: np.ndarray, a: DiscreteMeasure, b: DiscreteMeasure, p: float = 2.0) -> float:
    """p-Wasserstein distance between two measures over a shared ground metric.

    Always runs the transportation LP, even in closed-form cases; the closed
    forms live in the tests as an independent route.
    """
    g = _check_ground(ground)
    p = float(p)
    if not (p >= 1.0 and math.isfinite(p)):
        raise InvalidArgumentError(f"p must be >= 1, got {p!r}")
    n = g.shape[0]
    for meas in (a, b):
        if min(meas.ground_indices) < 0 or max(meas.ground_indices) >= n:
            raise InvalidArgumentError("measure support outside the ground space")
    if abs(float(a.masses.sum()) - float(b.masses.sum())) > 1e-9:
        raise InvalidArgumentError("measures must carry equal total mass")

    ai = np.asarray(a.ground_indices, dtype=np.intp)
    bj = np.asarray(b.ground_indices, dtype=np.intp)
    na, nb = ai.size, bj.size
    cost = g[np.ix_(ai, bj)] ** p

    var = np.arange(na * nb)
    rows = np.concatenate([np.repeat(np.arange(na), nb), na + np.tile(np.arange(nb), na)])
    cols = np.concatenate([var, var])
    data = np.ones(2 * na * nb)
    a_eq = coo_matrix((data, (rows, cols)), shape=(na + nb, na * nb)).tocsr()
    b_eq = np.concatenate([a.masses, b.masses])

    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, method="highs")
    if res.status != 0:
        raise SolverError(
            f"transport LP failed (status {res.status}): {res.message}"
        )
    obj = max(float(res.fun), 0.0)
    return obj ** (1.0 / p)


def wasserstein_space(
    measures, ground: np.ndarray, p: float = 2.0
) -> FiniteMetricMeasureSpace:
    """Uniformly weighted space of measures under pairwise Wasserstein distances.

    Pairs are solved independently (thread pool capped by MM_THREADS) and both
    triangle halves are filled from the same solve, so the matrix is exactly
    symmetric regardless of scheduling.
    """
    measures = list(measures)
    m = len(measures)
    if m < 1:
        raise InvalidArgumentError("need at least one measure")
    g = _check_ground(ground)
    d = np.zeros((m, m))
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]

    def solve(pair):
        i, j = pair
        return wasserstein_distance(g, measures[i], measures[j], p)

    workers = min(worker_count(), max(1, len(pairs)))
    if workers > 1 and len(pairs) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            vals = list(pool.map(solve, pairs))
    else:
        vals = [solve(pr) for pr in pairs]
    for (i, j), v in zip(pairs, vals):
        d[i, j] = v
        d[j, i] = v
    labels = [f"measure_{i}" for i in range(m)]
    return FiniteMetricMeasureSpace(labels, d, np.full(m, 1.0 / m))


def isometry_defect_bound(eps: float, diam: float) -> float:
    """Upper bound 8 (eps + sqrt(eps * diam)) on the Wasserstein defect.

    If two ground metrics differ by at most eps entrywise, every pairwise
    Wasserstein distance moves by at most this much.
    """
    if eps < 0 or diam < 0:
        raise InvalidArgumentError("eps and diam must be >= 0")
    return 8.0 * (eps + math.sqrt(eps * diam))


GROUND_METHODS = ("euclid", "fermat", "isomap", "diffusion")


def _learn_metric(cloud: PointCloud, method: str, params: dict | None = None, scaled: bool = True):
    """The ground metric of build_ground_metric plus the builder's diagnostics.

    Returns (matrix, diagnostics).  diagnostics is empty except for diffusion,
    where it holds the retained "eigenvalues", the spectral "gap_warnings" and
    the quotient "classes" of points the diffusion cannot separate.
    scaled=False leaves the Fermat matrix without its n^((alpha-1)/dim) factor.
    Past geodesic.MAX_GRAPH_POINTS points it raises BudgetExceededError before
    any n x n array is built.
    """
    if cloud.n > geodesic.MAX_GRAPH_POINTS:
        raise BudgetExceededError(
            f"{method} metric on {cloud.n} points exceeds the limit of {geodesic.MAX_GRAPH_POINTS}"
        )
    params = dict(params or {})
    if method == "euclid":
        return euclidean_matrix(cloud), {}
    if method == "fermat":
        alpha = float(params.get("alpha", 2.0))
        d = fermat_distance_matrix(cloud, alpha, knn=params.get("knn"))
        if scaled:
            d = fermat_scaled(d, cloud.n, alpha, cloud.intrinsic_dim)
        return d, {}
    if method == "isomap":
        if "eps" not in params:
            raise InvalidArgumentError("isomap ground metric needs eps")
        return isomap_distance_matrix(cloud, float(params["eps"])), {}
    if method == "diffusion":
        sigma = float(params.get("sigma", 1.0))
        k = int(params.get("embed_k", min(cloud.n, 10)))
        t = float(params.get("t", 1.0))
        dec = spectral_decomposition(normalized_laplacian(similarity_matrix(cloud, sigma)), k)
        d, classes = diffusion_distance_matrix(embedding_from_decomposition(dec, t))
        return d, {"eigenvalues": dec.eigenvalues, "gap_warnings": dec.gap_warnings, "classes": classes}
    raise InvalidArgumentError(
        f"unknown ground method {method!r}; expected one of {GROUND_METHODS}"
    )


def build_ground_metric(cloud: PointCloud, method: str, params: dict | None = None) -> np.ndarray:
    """Estimate a ground metric on a pooled cloud by the named method.

    params may hold alpha (default 2) and knn for fermat, whose matrix is
    rescaled by fermat_scaled; eps for isomap; sigma (default 1), embed_k
    (default min(n, 10)) and t (default 1) for diffusion.
    """
    return _learn_metric(cloud, method, params)[0]


def learned_wasserstein_space(
    sample_groups, method: str = "euclid", params: dict | None = None, p: float = 2.0,
    intrinsic_dim: int | None = None,
):
    """Pool groups, learn a ground metric, and return the Wasserstein space.

    Each group becomes the uniform empirical measure on its own points inside
    the pooled cloud.  Returns (space, measures, pooled cloud, ground matrix).
    """
    groups = [np.asarray(grp, dtype=np.float64) for grp in sample_groups]
    if not groups:
        raise InvalidArgumentError("need at least one sample group")
    groups = [g[:, None] if g.ndim == 1 else g for g in groups]
    dims = {g.shape[1] for g in groups}
    if len(dims) != 1:
        raise InvalidArgumentError("sample groups must share an ambient dimension")
    if any(g.shape[0] == 0 for g in groups):
        raise InvalidArgumentError("sample groups must be nonempty")
    pooled = np.vstack(groups)
    cloud = PointCloud(pooled, intrinsic_dim or pooled.shape[1])
    ground = build_ground_metric(cloud, method, params)
    measures = []
    start = 0
    for g in groups:
        measures.append(DiscreteMeasure.from_points(range(start, start + g.shape[0])))
        start += g.shape[0]
    space = wasserstein_space(measures, ground, p)
    return space, measures, cloud, ground


def learned_wasserstein_kmeans(
    sample_groups,
    k: int,
    p: float = 2.0,
    method: str = "euclid",
    params: dict | None = None,
    solver: str = "exact",
    restarts: int = 10,
    seed: int = 0,
    intrinsic_dim: int | None = None,
) -> KMeansSolution:
    """k-means over sample groups viewed as measures under a learned ground metric.

    Minimizer indices refer to group positions in the input order.
    """
    space, _, _, _ = learned_wasserstein_space(
        sample_groups, method=method, params=params, p=p, intrinsic_dim=intrinsic_dim
    )
    if solver == "exact":
        return k_means_exact(space, k, p)
    if solver == "pam":
        return k_means_pam(space, k, p, restarts=restarts, seed=seed)
    raise InvalidArgumentError(f"solver must be 'exact' or 'pam', got {solver!r}")
