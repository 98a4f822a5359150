import itertools
import math
import os

import numpy as np
import pytest
import scipy.optimize

from mmspace import wasserstein
from mmspace import (
    DiscreteMeasure,
    InvalidArgumentError,
    PointCloud,
    build_ground_metric,
    isometry_defect_bound,
    k_means_exact,
    learned_wasserstein_kmeans,
    learned_wasserstein_space,
    metric_validate,
    wasserstein_distance,
    wasserstein_space,
    worker_count,
)

from helpers import random_space, wasserstein_1d_uniform, wasserstein_1d_weighted


def line_ground(coords):
    c = np.asarray(coords, dtype=np.float64)
    return np.abs(c[:, None] - c[None, :])


class TestDiscreteMeasure:
    def test_dirac(self):
        m = DiscreteMeasure.dirac(3)
        assert m.ground_indices == (3,)
        assert m.masses.tolist() == [1.0]

    def test_from_points_aggregates(self):
        m = DiscreteMeasure.from_points([0, 1, 1, 4])
        assert m.ground_indices == (0, 1, 4)
        assert np.allclose(m.masses, [0.25, 0.5, 0.25])

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            DiscreteMeasure((0, 0), np.array([0.5, 0.5]))
        with pytest.raises(InvalidArgumentError):
            DiscreteMeasure((0, 1), np.array([0.7, 0.7]))
        with pytest.raises(InvalidArgumentError):
            DiscreteMeasure((0, 1), np.array([1.5, -0.5]))
        with pytest.raises(InvalidArgumentError):
            DiscreteMeasure((), np.array([]))


class TestWassersteinDistance:
    def test_dirac_pair_is_ground_distance(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            space, _ = random_space(rng, 8)
            i, j = rng.choice(8, size=2, replace=False)
            for p in (1.0, 2.0, 3.0):
                got = wasserstein_distance(
                    space.dist, DiscreteMeasure.dirac(i), DiscreteMeasure.dirac(j), p
                )
                assert got == pytest.approx(space.dist[i, j], abs=1e-10)

    def test_dirac_to_spread_closed_form(self):
        # every unit of mass at j must travel d(x, j), so the optimum is the
        # p-mean of the ground distances
        rng = np.random.default_rng(1)
        for _ in range(10):
            space, _ = random_space(rng, 7)
            x = int(rng.integers(7))
            m = rng.dirichlet(np.ones(7))
            b = DiscreteMeasure(tuple(range(7)), m)
            for p in (1.0, 2.0):
                want = float(np.sum(m * space.dist[x] ** p)) ** (1.0 / p)
                got = wasserstein_distance(space.dist, DiscreteMeasure.dirac(x), b, p)
                assert got == pytest.approx(want, abs=1e-10)

    def test_1d_uniform_sorted_matching(self):
        rng = np.random.default_rng(2)
        for p in (1.0, 2.0, 3.0):
            xs = np.sort(rng.uniform(size=6))
            ys = np.sort(rng.uniform(size=6) + 0.3)
            ground = line_ground(np.concatenate([xs, ys]))
            a = DiscreteMeasure.from_points(range(6))
            b = DiscreteMeasure.from_points(range(6, 12))
            got = wasserstein_distance(ground, a, b, p)
            assert got == pytest.approx(wasserstein_1d_uniform(xs, ys, p), abs=1e-10)

    def test_identity(self):
        rng = np.random.default_rng(3)
        space, _ = random_space(rng, 6)
        a = DiscreteMeasure.from_points([0, 2, 4])
        assert wasserstein_distance(space.dist, a, a, 2.0) == pytest.approx(0.0, abs=1e-10)

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(4)
        space, _ = random_space(rng, 9)
        measures = [
            DiscreteMeasure(tuple(range(9)), rng.dirichlet(np.ones(9)))
            for _ in range(3)
        ]
        a, b, c = measures
        dab = wasserstein_distance(space.dist, a, b, 2.0)
        dba = wasserstein_distance(space.dist, b, a, 2.0)
        assert dab == pytest.approx(dba, abs=1e-9)
        dac = wasserstein_distance(space.dist, a, c, 2.0)
        dcb = wasserstein_distance(space.dist, c, b, 2.0)
        assert dab <= dac + dcb + 1e-9

    def test_validation(self):
        ground = line_ground([0.0, 1.0])
        a = DiscreteMeasure.dirac(0)
        with pytest.raises(InvalidArgumentError):
            wasserstein_distance(ground, a, DiscreteMeasure.dirac(5), 2.0)
        with pytest.raises(InvalidArgumentError):
            wasserstein_distance(ground, a, DiscreteMeasure.dirac(1), 0.5)
        with pytest.raises(InvalidArgumentError):
            wasserstein_distance(np.zeros((2, 3)), a, DiscreteMeasure.dirac(1), 2.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_bad_ground_entry_is_typed_on_both_routes(self, bad):
        ground = line_ground(np.arange(6.0))
        ground[1, 4] = ground[4, 1] = bad
        uniform = (DiscreteMeasure.from_points([0, 1, 2]), DiscreteMeasure.from_points([3, 4, 5]))
        weighted = (
            DiscreteMeasure((0, 1, 2), np.array([0.5, 0.25, 0.25])),
            DiscreteMeasure((3, 4, 5), np.array([0.2, 0.3, 0.5])),
        )
        for a, b in (uniform, weighted):
            with pytest.raises(InvalidArgumentError, match="finite and nonnegative"):
                wasserstein_distance(ground, a, b, 2.0)
            with pytest.raises(InvalidArgumentError, match="finite and nonnegative"):
                wasserstein_space([a, b], ground, 2.0)


    def test_space_checks_the_ground_once(self, monkeypatch):
        # the space's matrix is wasserstein_distance pair by pair, bit for
        # bit, with one check of the whole ground instead of one per pair
        rng = np.random.default_rng(6)
        space, _ = random_space(rng, 24)
        measures = [DiscreteMeasure.from_points(range(s, s + m)) for s, m in ((0, 4), (4, 6), (10, 3), (13, 5), (18, 6))]
        measures.append(DiscreteMeasure((0, 5, 9, 20), np.array([0.1, 0.2, 0.3, 0.4])))
        want = [[wasserstein_distance(space.dist, a, b, 2.0) for b in measures] for a in measures]
        check = wasserstein._as_metric_matrix
        calls = []
        monkeypatch.setattr(wasserstein, "_as_metric_matrix", lambda g, name: calls.append(1) or check(g, name))
        got = wasserstein_space(measures, space.dist, 2.0)
        assert len(calls) == 1
        for i in range(len(measures)):
            for j in range(len(measures)):
                if i != j:
                    assert got.dist[i, j].tobytes() == np.float64(want[min(i, j)][max(i, j)]).tobytes()


def _forbidden(*args, **kwargs):
    raise AssertionError("this pair must not reach this solver")


def line_pair(seed, na, nb):
    """Two groups from one law on the line, their pooled ground metric, and index ranges.

    Overlapping groups keep W_p small against the costs, which is where an LP
    stopped at loose feasibility tolerances shows its error.
    """
    rng = np.random.default_rng(seed)
    xs = rng.uniform(size=na)
    ys = rng.uniform(size=nb)
    return xs, ys, line_ground(np.concatenate([xs, ys])), range(na), range(na, na + nb)


def plane_pair(seed, na, nb):
    """Two groups from one law on the unit square and their pooled ground metric.

    A plane ground is no line metric, so the monotone coupling fails its check
    and the pair takes the assignment or the LP.
    """
    rng = np.random.default_rng(seed)
    pts = rng.uniform(size=(na + nb, 2))
    ground = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    return ground, range(na), range(na, na + nb)


class TestSolveRoutes:
    """Uniform pairs on a line take the monotone coupling; other uniform pairs
    take the assignment up to the cap and the LP above it; weighted pairs the LP."""

    @pytest.mark.parametrize("na, nb", [(40, 30), (40, 40), (7, 5), (1, 9), (300, 300), (60, 59)])
    def test_line_pairs_take_the_monotone_coupling(self, monkeypatch, na, nb):
        monkeypatch.setattr(scipy.optimize, "linprog", _forbidden)
        monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", _forbidden)
        xs, ys, ground, ia, ib = line_pair(na * 100 + nb, na, nb)
        a, b = DiscreteMeasure.from_points(ia), DiscreteMeasure.from_points(ib)
        for p in (1.0, 2.0, 3.0):
            want = wasserstein_1d_uniform(xs, ys, p)
            assert wasserstein_distance(ground, a, b, p) == pytest.approx(want, rel=1e-12, abs=0)
            assert wasserstein_distance(ground, b, a, p) == pytest.approx(want, rel=1e-12, abs=0)

    def lp_calls(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return linprog(*args, **kwargs)

        linprog = scipy.optimize.linprog
        monkeypatch.setattr(scipy.optimize, "linprog", counted)
        monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", _forbidden)
        return calls

    def assignment_calls(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return linear_sum_assignment(*args, **kwargs)

        linear_sum_assignment = scipy.optimize.linear_sum_assignment
        monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", counted)
        monkeypatch.setattr(scipy.optimize, "linprog", _forbidden)
        return calls

    def test_coprime_pair_above_the_cap_takes_the_lp(self, monkeypatch):
        # the LP against the lcm-refined assignment on the same plane pairs,
        # the cap lowered so that lcm(7, 5) = 35 lies above it
        na, nb = 7, 5
        solves = []
        for seed in range(4):
            ground, ia, ib = plane_pair(seed, na, nb)
            a, b = DiscreteMeasure.from_points(ia), DiscreteMeasure.from_points(ib)
            solves += [(ground, a, b, p) for p in (1.0, 2.0, 3.0)]
        calls = self.assignment_calls(monkeypatch)
        want = [wasserstein_distance(*solve) for solve in solves]
        assert len(calls) == 12
        monkeypatch.undo()
        monkeypatch.setattr(wasserstein, "_ASSIGNMENT_MAX_L", math.lcm(na, nb) - 1)
        calls = self.lp_calls(monkeypatch)
        got = [wasserstein_distance(*solve) for solve in solves]
        assert len(calls) == 12
        assert got == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("size", [3, 4, 5, 6])
    def test_tiny_equal_sizes_take_the_assignment(self, monkeypatch, size):
        calls = self.assignment_calls(monkeypatch)
        for seed in (5, 6, 7):
            ground, ia, ib = plane_pair(seed, size, size)
            a, b = DiscreteMeasure.from_points(ia), DiscreteMeasure.from_points(ib)
            block = ground[np.ix_(list(ia), list(ib))]
            for p in (1.0, 2.0, 3.0):
                want = min(
                    sum(block[i, j] ** p for i, j in enumerate(perm)) / size
                    for perm in itertools.permutations(range(size))
                ) ** (1.0 / p)
                assert wasserstein_distance(ground, a, b, p) == pytest.approx(want, rel=1e-12, abs=0)
        assert len(calls) == 9

    def test_weighted_pair_takes_the_lp(self, monkeypatch):
        calls = self.lp_calls(monkeypatch)
        rng = np.random.default_rng(12)
        for na, nb in ((9, 7), (6, 6), (1, 8)):
            xs, ys, ground, ia, ib = line_pair(int(rng.integers(1000)), na, nb)
            wa, wb = rng.dirichlet(np.ones(na)), rng.dirichlet(np.ones(nb))
            a, b = DiscreteMeasure(tuple(ia), wa), DiscreteMeasure(tuple(ib), wb)
            for p in (1.0, 2.0, 3.0):
                want = wasserstein_1d_weighted(xs, wa, ys, wb, p)
                assert wasserstein_distance(ground, a, b, p) == pytest.approx(want, rel=1e-12, abs=0)
        assert len(calls) == 9


class TestMonotoneCoupling:
    """The certified candidate: exact on line grounds, turned down elsewhere."""

    @pytest.fixture
    def no_scipy_solver(self, monkeypatch):
        monkeypatch.setattr(scipy.optimize, "linprog", _forbidden)
        monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", _forbidden)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_line_values_with_duplicates_ties_and_single_atoms(self, no_scipy_solver, p):
        rng = np.random.default_rng(int(p * 10))
        cases = [(1, 1), (1, 7), (5, 1), (2, 2), (6, 4), (9, 9), (12, 8), (30, 45)]
        for na, nb in cases:
            for spread in (3, 50):
                # coordinates from a few integers: duplicates inside a group
                # and exact ties across the two
                xs = rng.integers(0, spread, size=na).astype(float)
                ys = rng.integers(0, spread, size=nb).astype(float)
                ground = line_ground(np.concatenate([xs, ys]))
                a = DiscreteMeasure.from_points(range(na))
                b = DiscreteMeasure.from_points(range(na, na + nb))
                want = wasserstein_1d_uniform(xs, ys, p)
                got = wasserstein_distance(ground, a, b, p)
                assert got == pytest.approx(want, rel=1e-12, abs=0)
                assert np.float64(got).tobytes() == np.float64(wasserstein_distance(ground, b, a, p)).tobytes()

    def test_swapped_flows_fail_the_check(self):
        xs, ys, ground, _, _ = line_pair(3, 9, 6)
        cost = ground[np.ix_(np.argsort(xs), 9 + np.argsort(ys))] ** 2.0
        assert wasserstein._northwest(cost) == pytest.approx(wasserstein_1d_uniform(xs, ys, 2.0) ** 2.0, rel=1e-12)
        for j, k in ((0, 1), (2, 4), (0, 5)):
            # b-atoms j and k trade places on the staircase, and their flows with them
            swapped = cost.copy()
            swapped[:, [j, k]] = swapped[:, [k, j]]
            assert wasserstein._northwest(swapped) is None

    def test_plane_groups_fall_back(self, monkeypatch):
        rng = np.random.default_rng(11)
        groups = [rng.normal(loc=rng.normal(size=2), size=(int(rng.integers(5, 15)), 2)) for _ in range(8)]
        real = wasserstein._monotone
        monkeypatch.setattr(wasserstein, "_monotone", lambda *args: None)
        want = learned_wasserstein_space(groups)[0].dist
        verdicts = []
        monkeypatch.setattr(wasserstein, "_monotone", lambda *args: verdicts.append(real(*args)) or verdicts[-1])
        got = learned_wasserstein_space(groups)[0].dist
        assert verdicts == [None] * 28
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("method, params", [("euclid", {}), ("isomap", {"eps": 1.0})])
    @pytest.mark.parametrize("sizes", [(8,) * 8 + (6,) * 4, (40,) * 8 + (30,) * 4])
    def test_pooled_line_groups_certify_every_pair(self, monkeypatch, method, params, sizes):
        # the groups of a CLI session's wkmeans: two clusters on the line
        rng = np.random.default_rng([len(sizes), sizes[0]])
        groups = [((i % 2) + rng.uniform(-0.5, 0.5, size=m))[:, None] for i, m in enumerate(sizes)]
        monkeypatch.setattr(wasserstein, "_monotone", lambda *args: None)
        fallback = learned_wasserstein_space(groups, method, params)[0]
        monkeypatch.undo()
        monkeypatch.setattr(scipy.optimize, "linprog", _forbidden)
        monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", _forbidden)
        space = learned_wasserstein_space(groups, method, params)[0]
        np.testing.assert_allclose(space.dist, fallback.dist, rtol=1e-12, atol=0.0)
        for k in (1, 2, 3):
            assert k_means_exact(space, k).minimizers == k_means_exact(fallback, k).minimizers


class TestPerturbationBound:
    def test_bound_values(self):
        assert isometry_defect_bound(0.01, 1.0) == pytest.approx(0.88)
        assert isometry_defect_bound(0.0, 5.0) == 0.0
        with pytest.raises(InvalidArgumentError):
            isometry_defect_bound(-0.1, 1.0)

    def test_distance_shift_within_bound(self):
        rng = np.random.default_rng(5)
        for eps in (1e-3, 1e-2):
            for _ in range(15):
                space, _ = random_space(rng, 8)
                g = space.dist / max(1.0, space.dist.max())  # diam <= 1
                noise = rng.uniform(-eps, eps, size=g.shape)
                noise = (noise + noise.T) / 2.0
                np.fill_diagonal(noise, 0.0)
                g2 = np.clip(g + noise, 0.0, None)
                a = DiscreteMeasure(tuple(range(8)), rng.dirichlet(np.ones(8)))
                b = DiscreteMeasure(tuple(range(8)), rng.dirichlet(np.ones(8)))
                w1 = wasserstein_distance(g, a, b, 2.0)
                w2 = wasserstein_distance(g2, a, b, 2.0)
                assert abs(w1 - w2) <= isometry_defect_bound(eps, 1.0)


class TestWassersteinSpace:
    def test_matrix_is_exactly_symmetric_and_metric(self):
        rng = np.random.default_rng(6)
        space, _ = random_space(rng, 10)
        measures = [
            DiscreteMeasure(tuple(range(10)), rng.dirichlet(np.ones(10)))
            for _ in range(5)
        ]
        wspace = wasserstein_space(measures, space.dist, 2.0)
        assert np.array_equal(wspace.dist, wspace.dist.T)
        assert metric_validate(wspace.dist, tol=1e-8).passes
        assert np.allclose(wspace.weights, 0.2)

    def test_thread_cap_does_not_change_values(self, monkeypatch):
        rng = np.random.default_rng(7)
        space, _ = random_space(rng, 8)
        weighted = [
            DiscreteMeasure(tuple(range(8)), rng.dirichlet(np.ones(8)))
            for _ in range(4)
        ]
        uniform = [
            DiscreteMeasure.from_points(rng.choice(8, size=size, replace=False))
            for size in (2, 3, 4, 8)
        ]
        for measures in (weighted, uniform):
            monkeypatch.setenv("MM_THREADS", "1")
            d1 = wasserstein_space(measures, space.dist, 2.0).dist
            for threads in ("2", "8"):
                monkeypatch.setenv("MM_THREADS", threads)
                assert np.array_equal(d1, wasserstein_space(measures, space.dist, 2.0).dist)

    def test_worker_count(self, monkeypatch):
        monkeypatch.setenv("MM_THREADS", "3")
        assert worker_count() == 3
        monkeypatch.setenv("MM_THREADS", "0")
        with pytest.raises(InvalidArgumentError):
            worker_count()
        monkeypatch.setenv("MM_THREADS", "two")
        with pytest.raises(InvalidArgumentError):
            worker_count()
        monkeypatch.delenv("MM_THREADS")
        assert worker_count() >= 1
        # unset, the cap is the CPUs this process may run on, not the host's
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 7}, raising=False)
        assert worker_count() == 3
        monkeypatch.setenv("MM_THREADS", "5")
        assert worker_count() == 5
        monkeypatch.delenv("MM_THREADS")
        # where affinity is not offered, the CPU count
        monkeypatch.delattr(os, "sched_getaffinity")
        assert worker_count() == 64
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert worker_count() == 1


class TestGroundMetric:
    def test_euclid(self):
        rng = np.random.default_rng(8)
        cloud = PointCloud(rng.normal(size=(10, 2)))
        g = build_ground_metric(cloud, "euclid")
        assert g[0, 1] == pytest.approx(np.linalg.norm(cloud.points[0] - cloud.points[1]))
        assert np.all(np.diag(g) == 0.0)

    def test_isomap_requires_eps(self):
        cloud = PointCloud(np.zeros((3, 1)) + np.arange(3)[:, None])
        with pytest.raises(InvalidArgumentError):
            build_ground_metric(cloud, "isomap")

    def test_unknown_method(self):
        cloud = PointCloud(np.arange(3, dtype=float)[:, None])
        with pytest.raises(InvalidArgumentError):
            build_ground_metric(cloud, "nope")

    @pytest.mark.parametrize("coords, method, params", [
        ([1e308, -1e308, 0.0], "euclid", {}),
        ([1e308, -1e308, 0.0], "fermat", {"alpha": 2.0}),
        # every entry is finite before the n^((alpha-1)/dim) = 2 rescaling
        ([0.0, 1.3e154], "fermat", {"alpha": 2.0}),
    ])
    def test_overflow_is_an_error_not_an_inf_matrix(self, coords, method, params):
        cloud = PointCloud(np.array(coords)[:, None])
        with pytest.raises(InvalidArgumentError, match="overflow"):
            build_ground_metric(cloud, method, params)


class TestLearnedPipeline:
    def three_groups(self):
        rng = np.random.default_rng(9)
        return [
            rng.normal(loc=c, scale=0.1, size=(15, 2))
            for c in ([0.0, 0.0], [5.0, 0.0], [10.0, 0.0])
        ]

    def test_space_shape(self):
        groups = self.three_groups()
        space, measures, cloud, ground = learned_wasserstein_space(groups)
        assert space.n == 3
        assert cloud.n == 45
        assert ground.shape == (45, 45)
        assert [len(m) for m in measures] == [15, 15, 15]

    def test_central_group_is_the_1_medoid(self):
        sol = learned_wasserstein_kmeans(self.three_groups(), k=1)
        assert sol.best.indices == (1,)

    def test_exact_and_pam_agree(self):
        groups = self.three_groups()
        exact = learned_wasserstein_kmeans(groups, k=2, solver="exact")
        pam = learned_wasserstein_kmeans(groups, k=2, solver="pam", restarts=3)
        assert pam.objective == pytest.approx(exact.objective, abs=1e-12)

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            learned_wasserstein_space([])
        with pytest.raises(InvalidArgumentError):
            learned_wasserstein_space([np.zeros((3, 2)), np.zeros((3, 3))])
        with pytest.raises(InvalidArgumentError):
            learned_wasserstein_kmeans(self.three_groups(), k=1, solver="magic")
