"""Exact Wasserstein distances between discrete measures on a finite ground space.

Exact solvers only, no entropic smoothing anywhere, because downstream
tolerances are 1e-9 on objectives.  A pair of uniform measures first tries a
certified candidate, the monotone coupling: both supports are sorted by a key
read from the ground alone, and the north-west-corner rule couples them in
that order.  On a line metric with cost |x - y|^p, p >= 1, that coupling is
optimal (Peyre & Cuturi, Computational Optimal Transport, 2019), and its
dual potentials prove it: the candidate is accepted when they are feasible
on the whole cost block up to their own rounding.  A pair that fails the
check, or is not uniform, takes a solver from scipy.optimize, which only
these fallbacks load.  A pair of uniform measures with a and b atoms is an
assignment problem once every atom is split into lcm(a, b) / size equal
copies: some optimal coupling of the split pair is a permutation
(Birkhoff-von Neumann), so linear_sum_assignment solves it exactly.  Every
other pair, and uniform pairs whose lcm is too large for an assignment to
pay, go to the transportation linear program on HiGHS with its feasibility
tolerances tightened to 1e-10; at the defaults its W_2 values were off by up
to 7.6e-7 relative.
On top of that sit the space of measures with pairwise Wasserstein distances,
and the learned-metric pipeline: pool sample groups, estimate a ground metric,
and cluster the groups as measures over it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix

from .cloud import PointCloud, _as_points, euclidean_matrix
from .diffusion import (
    diffusion_distance_matrix,
    embedding_from_decomposition,
    normalized_laplacian,
    similarity_matrix,
    spectral_decomposition,
)
from .errors import InvalidArgumentError, SolverError
from .geodesic import fermat_distance_matrix, fermat_scaled, isomap_distance_matrix
from .space import (
    FiniteMetricMeasureSpace, KMeansSolution, _as_metric_matrix, _as_weights, _check_count, _check_graph_size, _check_p,
    _check_tol, _k_means, _powered,
)

MASS_TOL = 1e-12

# Largest common refinement lcm(a, b) of unequal sizes solved by assignment,
# for the uniform pairs whose monotone coupling fails its check (grounds that
# are not line metrics).  Measured on a 2-vCPU x86 host, one thread, scipy
# 1.17: coprime uniform pairs (a * b = L LP variables, the assignment's worst
# case) break even near L = 240-270 (15 x 16: 3.4-3.9 ms assignment vs
# 4.2-4.5 ms LP; 16 x 17: 2.8-6.8 vs 5.0-6.2 ms; 12 x 25: 9-12 vs 7 ms;
# 24 x 25: 68-72 vs 9 ms).
# Equal sizes need no refinement and always take the assignment, which wins
# at every size (200 x 200: 6 vs 560-740 ms; 241 x 241: 4-5 ms vs 0.89 s;
# 300 x 300: 8 ms vs 3.1 s; 400 x 400: 17 ms vs 11.8 s).
_ASSIGNMENT_MAX_L = 240

# HiGHS feasibility tolerances for the transport LP; the defaults (1e-7) cost
# up to 7.6e-7 relative on W_2, 1e-10 brings it to rounding at the same speed.
_LP_OPTIONS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


@dataclass
class DiscreteMeasure:
    """Masses on distinct indices of a ground space, summing to one."""

    ground_indices: tuple
    masses: np.ndarray

    def __post_init__(self):
        idx = tuple(int(i) for i in self.ground_indices)
        if len(idx) == 0:
            raise InvalidArgumentError("measure needs at least one support point")
        if len(set(idx)) != len(idx):
            raise InvalidArgumentError("duplicate support index; aggregate masses first")
        m = _as_weights(self.masses, len(idx), "masses")
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
            m = _as_weights(masses, idx.size, "masses")
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


def wasserstein_distance(ground: np.ndarray, a: DiscreteMeasure, b: DiscreteMeasure, p: float = 2.0) -> float:
    """p-Wasserstein distance between two measures over a shared ground metric.

    Two uniform measures take the monotone coupling of _monotone when its
    dual check certifies it, which it does on line metrics.  Otherwise two
    uniform measures with equal atom counts, or whose atom counts have
    lcm L <= _ASSIGNMENT_MAX_L, are solved by an L x L assignment; every
    other pair by the transportation LP.  All three are exact, on costs from
    space._powered.  The closed forms live in the tests as another route.
    """
    return _wasserstein(_as_metric_matrix(ground, "ground metric"), a, b, p)


def _wasserstein(g: np.ndarray, a: DiscreteMeasure, b: DiscreteMeasure, p: float) -> float:
    """wasserstein_distance on a ground metric g that space._as_metric_matrix
    has passed, exactly symmetric so that W(a, b) = W(b, a).

    The assignment and the LP solve the pair's cost block scaled by 2^-e,
    e the binary exponent of its largest entry, and scale the result back
    by 2^e.  That is exact in the normal range, so those bits are the
    unscaled block's, and no cost reaches HiGHS's infinite cost of 1e20 or
    overflows the assignment's sum.
    """
    p = _check_p(p)
    n = g.shape[0]
    for meas in (a, b):
        if min(meas.ground_indices) < 0 or max(meas.ground_indices) >= n:
            raise InvalidArgumentError("measure support outside the ground space")
    if abs(float(a.masses.sum()) - float(b.masses.sum())) > 1e-9:
        raise InvalidArgumentError("measures must carry equal total mass")

    ai = np.asarray(a.ground_indices, dtype=np.intp)
    bj = np.asarray(b.ground_indices, dtype=np.intp)
    uniform = np.all(a.masses == a.masses[0]) and np.all(b.masses == b.masses[0])
    if uniform:
        power = _monotone(g, ai, bj, p)
        if power is not None:
            return power ** (1.0 / p)
    # imported here, not at module level, so that only a pair the monotone
    # coupling leaves open loads scipy.optimize
    from scipy.optimize import linear_sum_assignment, linprog

    na, nb = ai.size, bj.size
    cost = _powered(g[np.ix_(ai, bj)], p, "ground metric")
    e = math.frexp(float(cost.max()))[1]
    cost = np.ldexp(cost, -e)
    steps = math.lcm(na, nb)
    if uniform and (steps <= _ASSIGNMENT_MAX_L or na == nb):
        split = np.repeat(np.repeat(cost, steps // na, axis=0), steps // nb, axis=1)
        rows, cols = linear_sum_assignment(split)
        return math.ldexp(float(split[rows, cols].sum() / steps), e) ** (1.0 / p)

    var = np.arange(na * nb)
    rows = np.concatenate([np.repeat(np.arange(na), nb), na + np.tile(np.arange(nb), na)])
    cols = np.concatenate([var, var])
    data = np.ones(2 * na * nb)
    a_eq = coo_matrix((data, (rows, cols)), shape=(na + nb, na * nb)).tocsr()
    b_eq = np.concatenate([a.masses, b.masses])

    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, method="highs", options=_LP_OPTIONS)
    if res.status != 0:
        raise SolverError(
            f"transport LP failed (status {res.status}): {res.message}"
        )
    return math.ldexp(max(float(res.fun), 0.0), e) ** (1.0 / p)


def _monotone(g: np.ndarray, ai: np.ndarray, bj: np.ndarray, p: float) -> float | None:
    """W_p^p of the uniform measures on the ground indices ai and bj by their
    monotone coupling, or None when the check of _northwest rejects it.

    Both supports are sorted by the ground row of the point of their union
    farthest from its smallest index, ties broken by index; on a line metric
    that row is the line order seen from one end.  The pair is oriented by
    size, then by index list, so W(a, b) and W(b, a) run the same arithmetic
    and come out as the same bits.
    """
    if (ai.size, ai.tolist()) > (bj.size, bj.tolist()):
        ai, bj = bj, ai
    union = np.union1d(ai, bj)
    key = g[union[np.argmax(g[union[0], union])]]
    ai = ai[np.lexsort((ai, key[ai]))]
    bj = bj[np.lexsort((bj, key[bj]))]
    return _northwest(_powered(g[np.ix_(ai, bj)], p, "ground metric"))


def _staircase(na: int, nb: int):
    """(rows, cols, flows): the cells of the north-west-corner coupling of na
    and nb equal atoms, in path order, with integer flows.

    An a-atom carries nb units and a b-atom na units, so the flows are exact.
    Where both atoms run out at once, a zero-flow cell in the next row joins
    the two steps, so the na + nb - 1 cells form a path that spans the rows
    and the columns, a basis of the transportation problem.
    """
    ends = np.union1d(nb * np.arange(1, na + 1), na * np.arange(1, nb + 1))
    starts = np.concatenate(([0], ends[:-1]))
    rows, cols, flows = starts // nb, starts // na, ends - starts
    both = np.flatnonzero((starts % na == 0) & (starts % nb == 0))[1:]
    return (
        np.insert(rows, both, rows[both]),
        np.insert(cols, both, cols[both] - 1),
        np.insert(flows, both, 0),
    )


def _northwest(cost: np.ndarray) -> float | None:
    """The transport cost of the north-west-corner coupling of uniform
    marginals on cost's rows and columns, or None when its dual potentials
    fail the optimality check.

    The potentials u, v solve u_i + v_j = c_ij along the staircase, from
    u_0 = 0, one subtraction per cell.  Each of the K = na + nb - 1 cells
    adds one rounding of at most 2^-53 times the largest potential P, so
    every potential is off by at most K 2^-53 P, and forming a reduced cost
    c_ij - u_i - v_j adds two roundings of at most 2^-53 (C + 2P), C the
    largest cost.  The coupling is accepted when every reduced cost is at
    least -4 (K + 3) 2^-53 (C + P), which covers both: an optimal staircase
    is never turned away by rounding, and an accepted one is within twice
    that of the optimum, per unit of mass.  The cost is then sum(flow * c)
    / (na * nb), the sum correctly rounded by math.fsum.  The path costs are
    scaled by 2^-e, e the binary exponent of the largest, before the sum and
    by 2^e after the division, so no flow times a cost near the float64 limit
    overflows the sum; a power of two scales exactly, so elsewhere the bits
    are the unscaled sum's.
    """
    na, nb = cost.shape
    rows, cols, flows = _staircase(na, nb)
    path = cost[rows, cols]
    u, v = [0.0] * na, [0.0] * nb
    row = 0
    for i, j, c in zip(rows.tolist(), cols.tolist(), path.tolist()):
        if i > row:
            u[i] = c - v[j]
            row = i
        else:
            v[j] = c - u[i]
    u, v = np.array(u), np.array(v)
    reduced = cost - u[:, None]
    reduced -= v
    top = max(float(np.abs(u).max()), float(np.abs(v).max()))
    slack = 4.0 * (na + nb + 2) * 2.0**-53 * (float(cost.max()) + top)
    if float(reduced.min()) < -slack:
        return None
    e = math.frexp(float(path.max()))[1]
    return math.ldexp(math.fsum((flows * np.ldexp(path, -e)).tolist()) / (na * nb), e)


def wasserstein_space(
    measures, ground: np.ndarray, p: float = 2.0
) -> FiniteMetricMeasureSpace:
    """Uniformly weighted space of measures under pairwise Wasserstein distances.

    The ground metric is checked once.  Pairs are solved one after another
    in upper-triangle order and both triangle halves are filled from the same
    solve, so the matrix is exactly symmetric.
    """
    p = _check_p(p)
    measures = list(measures)
    m = len(measures)
    if m < 1:
        raise InvalidArgumentError("need at least one measure")
    g = _as_metric_matrix(ground, "ground metric")
    d = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            d[i, j] = d[j, i] = _wasserstein(g, measures[i], measures[j], p)
    labels = [f"measure_{i}" for i in range(m)]
    return FiniteMetricMeasureSpace(labels, d, np.full(m, 1.0 / m))


def isometry_defect_bound(eps: float, diam: float) -> float:
    """Upper bound 8 (eps + sqrt(eps * diam)) on the Wasserstein defect.

    If two ground metrics differ by at most eps entrywise, every pairwise
    Wasserstein distance moves by at most this much.
    """
    eps, diam = _check_tol(eps, "eps"), _check_tol(diam, "diam")
    return 8.0 * (eps + math.sqrt(eps * diam))


GROUND_METHODS = ("euclid", "fermat", "isomap", "diffusion")
# the parameters a ground method reads, each with the type it is parsed as
_METRIC_PARAMS = {"alpha": float, "knn": int, "eps": float, "sigma": float, "embed_k": int, "t": float}


def _learn_metric(cloud: PointCloud, method: str, params: dict | None = None, scaled: bool = True):
    """The ground metric of build_ground_metric plus the builder's diagnostics.

    Returns (matrix, diagnostics).  diagnostics is empty except for diffusion,
    where it holds the retained "eigenvalues", the spectral "gap_warnings" and
    the quotient "classes" of points the diffusion cannot separate.
    scaled=False leaves the Fermat matrix without its n^((alpha-1)/dim) factor.
    Past space.MAX_GRAPH_POINTS points it raises BudgetExceededError before
    any n x n array is built; a matrix with an entry that overflowed to inf
    raises InvalidArgumentError.
    """
    _check_graph_size(cloud.n, f"{method} metric")
    params = dict(params or {})
    diagnostics = {}
    if method == "euclid":
        d = euclidean_matrix(cloud)
    elif method == "fermat":
        alpha = float(params.get("alpha", 2.0))
        d = fermat_distance_matrix(cloud, alpha, knn=params.get("knn"))
        if scaled:
            d = fermat_scaled(d, cloud.n, alpha, cloud.intrinsic_dim)
    elif method == "isomap":
        if "eps" not in params:
            raise InvalidArgumentError("isomap ground metric needs eps")
        d = isomap_distance_matrix(cloud, float(params["eps"]))
    elif method == "diffusion":
        sigma = float(params.get("sigma", 1.0))
        k = _check_count(params.get("embed_k", min(cloud.n, 10)), "embed_k", 1, cloud.n)
        t = float(params.get("t", 1.0))
        dec = spectral_decomposition(normalized_laplacian(similarity_matrix(cloud, sigma)), k)
        d, classes = diffusion_distance_matrix(embedding_from_decomposition(dec, t))
        diagnostics = {"eigenvalues": dec.eigenvalues, "gap_warnings": dec.gap_warnings, "classes": classes}
    else:
        raise InvalidArgumentError(
            f"unknown ground method {method!r}; expected one of {GROUND_METHODS}"
        )
    if not np.all(np.isfinite(d)):
        raise InvalidArgumentError(
            f"the {method} metric overflows float64; rescale the points"
        )
    return d, diagnostics


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
    groups = [_as_points(grp, "sample_groups") for grp in sample_groups]
    if not groups:
        raise InvalidArgumentError("need at least one sample group")
    if len({g.shape[1] for g in groups}) != 1:
        raise InvalidArgumentError("sample groups must share an ambient dimension")
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
    return _k_means(space, solver, k, p, restarts=restarts, seed=seed)
