import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra, floyd_warshall, shortest_path
from scipy.spatial.distance import cdist
from scipy.special import erfi

from mmspace import (
    BudgetExceededError,
    DisconnectedGraphError,
    FermatParams,
    InvalidArgumentError,
    PointCloud,
    circle_arc_metric,
    curvature_condition_check,
    epsilon_net_graph,
    equispaced_circle_net,
    euclidean_matrix,
    fermat_distance_matrix,
    fermat_scaled,
    gaussian_fermat_distance_1d,
    gaussian_fermat_moment_estimate,
    isomap_distance_matrix,
    metric_validate,
    sample,
)
from mmspace import geodesic

from helpers import relaxation_geodesics

# closed form for the alpha=2 example: (2 pi)^(1/4) * sqrt(pi) * erfi(1/2),
# since F(0,1) = int_0^1 exp(t^2/4) dt
GAUSS_FERMAT_0_1_ALPHA2 = 1.7256836667472482


def cloud_1d(coords):
    return PointCloud(np.asarray(coords, dtype=np.float64)[:, None])


class TestFermatParams:
    def test_kappa(self):
        assert FermatParams(2.0, 1).kappa == pytest.approx(-1.0)
        assert FermatParams(3.0, 2).kappa == pytest.approx(-1.0)
        assert FermatParams(1.0, 4).kappa == 0.0

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            FermatParams(0.5, 1)
        with pytest.raises(InvalidArgumentError):
            FermatParams(2.0, 0)


class TestFermatMatrix:
    def test_two_points(self):
        d = fermat_distance_matrix(cloud_1d([0.0, 0.5]), 3.0)
        assert d[0, 1] == pytest.approx(0.5**3)

    def test_collinear_shortcut(self):
        d = fermat_distance_matrix(cloud_1d([0.0, 1.0, 2.0]), 2.0)
        assert d[0, 2] == pytest.approx(2.0)
        assert d[0, 1] == pytest.approx(1.0)

    def test_alpha_one_is_euclidean_exactly(self):
        rng = np.random.default_rng(0)
        cloud = PointCloud(rng.uniform(size=(40, 3)))
        assert np.array_equal(fermat_distance_matrix(cloud, 1.0), euclidean_matrix(cloud))

    def test_passes_metric_validate(self):
        rng = np.random.default_rng(1)
        for alpha in (1.0, 2.0, 3.0):
            cloud = PointCloud(rng.uniform(size=(30, 2)))
            report = metric_validate(fermat_distance_matrix(cloud, alpha), tol=1e-9)
            assert report.passes

    def test_adding_a_point_cannot_increase_distances(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(size=(25, 2))
        base = fermat_distance_matrix(PointCloud(pts), 2.0)
        extra = np.vstack([pts, rng.uniform(size=(1, 2))])
        bigger = fermat_distance_matrix(PointCloud(extra), 2.0)
        assert np.all(bigger[:25, :25] <= base + 1e-12)

    def test_duplicate_points_distance_zero(self):
        d = fermat_distance_matrix(cloud_1d([0.0, 1.0, 1.0, 3.0]), 2.0)
        assert d[1, 2] == 0.0
        assert d[0, 1] == d[0, 2]

    def test_single_point_rejected(self):
        with pytest.raises(InvalidArgumentError):
            fermat_distance_matrix(cloud_1d([0.0]), 2.0)
        with pytest.raises(InvalidArgumentError):
            fermat_distance_matrix(cloud_1d([0.0, 1.0]), 0.9)

    def test_knn_matches_complete_graph(self):
        # the sparsified variant must reproduce the complete-graph answer once
        # the neighborhood is rich enough
        rng = np.random.default_rng(3)
        cloud = PointCloud(rng.uniform(size=(60, 2)))
        full = fermat_distance_matrix(cloud, 2.0)
        sparse = fermat_distance_matrix(cloud, 2.0, knn=20)
        assert np.allclose(sparse, full, atol=1e-12)

    def test_knn_disconnected_reports_components(self):
        coords = [0.0, 0.1, 0.2, 10.0, 10.1, 10.2]
        with pytest.raises(DisconnectedGraphError) as err:
            fermat_distance_matrix(cloud_1d(coords), 2.0, knn=2)
        comps = err.value.components
        assert [0, 1, 2] in comps and [3, 4, 5] in comps


class TestFermatScaled:
    def test_factor_four(self):
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = fermat_scaled(m, n=4, alpha=2.0, intrinsic_dim=1)
        assert out[0, 1] == pytest.approx(4.0)

    def test_alpha_one_unchanged(self):
        m = np.array([[0.0, 0.7], [0.7, 0.0]])
        assert np.array_equal(fermat_scaled(m, n=50, alpha=1.0, intrinsic_dim=2), m)

    def test_factor_ten(self):
        m = np.array([[0.0, 2.0], [2.0, 0.0]])
        out = fermat_scaled(m, n=100, alpha=2.0, intrinsic_dim=2)
        assert out[0, 1] == pytest.approx(20.0)


class TestIsomap:
    def test_hop_path(self):
        d = isomap_distance_matrix(cloud_1d([0.0, 0.5, 1.2]), eps=0.8)
        assert d[0, 2] == pytest.approx(1.2)

    def test_eps_at_least_diameter_is_euclidean(self):
        rng = np.random.default_rng(5)
        cloud = PointCloud(rng.uniform(size=(20, 2)))
        diam = euclidean_matrix(cloud).max()
        assert np.allclose(isomap_distance_matrix(cloud, eps=diam * 1.01), euclidean_matrix(cloud))

    def test_disconnected(self):
        with pytest.raises(DisconnectedGraphError) as err:
            isomap_distance_matrix(cloud_1d([0.0, 0.5, 1.2]), eps=0.6)
        assert err.value.components == [[0, 1], [2]]
        # no edge at all: the chain has nothing to look up
        with pytest.raises(DisconnectedGraphError) as err:
            isomap_distance_matrix(cloud_1d([0.0, 1.0, 3.0]), eps=0.5)
        assert err.value.components == [[0], [1], [2]]

    def test_dominates_euclidean(self):
        rng = np.random.default_rng(6)
        cloud = PointCloud(rng.uniform(size=(25, 2)))
        d = isomap_distance_matrix(cloud, eps=0.4)
        assert np.all(d >= euclidean_matrix(cloud) - 1e-12)


def line_fermat_alpha2(x):
    """Exact alpha = 2 Fermat matrix of points on a line, and a float64 bound.

    With hop cost step^2 every shortcut loses to the path through all points
    in between, so d(x_i, x_j) = |C_i - C_j| for C the cumulative sum of
    squared gaps in sorted order.  Each entry is a sum of at most n squared
    gaps, so path sums and cumulative sums each sit within n * eps * C_max of
    the exact value.
    """
    order = np.argsort(x, kind="stable")
    gaps = np.diff(x[order]) ** 2
    c = np.empty(x.size)
    c[order] = np.concatenate([[0.0], np.cumsum(gaps)])
    tol = 2.0 * x.size * np.finfo(np.float64).eps * c.max()
    return np.abs(c[:, None] - c[None, :]), tol


def near_duplicate_cloud(seed):
    """Random planar points, each with copies 1e-9 and 3e-12 away, plus two exact duplicates."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(size=(6, 2))
    shifts = rng.normal(size=(6, 2))
    shifts /= np.linalg.norm(shifts, axis=1, keepdims=True)
    return np.vstack([base, base + 1e-9 * shifts, base + 3e-12 * shifts[::-1], base[:2]])


class TestTinyEdges:
    """Zero and sub-1e-8 edge weights are real edges, not missing ones."""

    def test_fermat_four_points(self):
        x = np.array([0.0, 5e-5, 1e-4, 1.0])
        d = fermat_distance_matrix(cloud_1d(x), 2.0)
        assert d[0, 1] == pytest.approx(2.5e-9, rel=1e-12)
        exact, tol = line_fermat_alpha2(x)
        assert np.abs(d - exact).max() <= tol

    def test_fermat_uniform_interval_closed_form(self):
        # i.i.d. gaps at n = 1000 go down to ~1e-6, so squared gaps reach ~1e-12
        cloud = sample("interval", 1000, seed=0)
        exact, tol = line_fermat_alpha2(cloud.points[:, 0])
        d = fermat_distance_matrix(cloud, 2.0)
        assert np.abs(d - exact).max() <= tol

    def test_isomap_close_pair(self):
        d = isomap_distance_matrix(cloud_1d([0.0, 5e-9, 1.0]), eps=1.5)
        assert d[0, 1] == pytest.approx(5e-9, rel=1e-12)
        assert d[1, 2] == pytest.approx(1.0 - 5e-9, rel=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("alpha", [1.0, 2.0, 3.0])
    def test_fermat_near_duplicates_match_relaxation(self, seed, alpha):
        pts = near_duplicate_cloud(seed)
        d = fermat_distance_matrix(PointCloud(pts), alpha)
        oracle = relaxation_geodesics(pts, lambda length: length**alpha)
        np.testing.assert_allclose(d, oracle, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fermat_knn_near_duplicates_match_relaxation(self, seed):
        pts = near_duplicate_cloud(seed)
        d = fermat_distance_matrix(PointCloud(pts), 2.0, knn=12)
        full = fermat_distance_matrix(PointCloud(pts), 2.0)
        oracle = relaxation_geodesics(pts, lambda length: length**2)
        np.testing.assert_allclose(d, oracle, rtol=1e-12, atol=0.0)
        assert np.all(d >= full)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_isomap_near_duplicates_match_relaxation(self, seed):
        pts = near_duplicate_cloud(seed)
        d = isomap_distance_matrix(PointCloud(pts), eps=0.9)
        oracle = relaxation_geodesics(pts, lambda length: length if length <= 0.9 else None)
        np.testing.assert_allclose(d, oracle, rtol=1e-12, atol=0.0)


class TestSizeGuard:
    def test_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(geodesic, "MAX_GRAPH_POINTS", 4)
        d = fermat_distance_matrix(cloud_1d([0.0, 1.0, 2.0, 3.0]), 2.0)
        assert d[0, 3] == pytest.approx(3.0)

    def test_raises_before_any_dense_allocation(self, monkeypatch):
        def no_distances(*args, **kwargs):
            raise AssertionError("pairwise distances computed past the limit")

        monkeypatch.setattr(geodesic, "MAX_GRAPH_POINTS", 4)
        monkeypatch.setattr(geodesic, "euclidean_matrix", no_distances)
        cloud = cloud_1d([0.0, 1.0, 2.0, 3.0, 4.0])
        with pytest.raises(BudgetExceededError):
            fermat_distance_matrix(cloud, 2.0)
        with pytest.raises(BudgetExceededError):
            fermat_distance_matrix(cloud, 2.0, knn=2)
        with pytest.raises(BudgetExceededError):
            isomap_distance_matrix(cloud, eps=1.5)

    def test_counts_duplicates(self, monkeypatch):
        # the result is n x n over the points, so duplicates count
        monkeypatch.setattr(geodesic, "MAX_GRAPH_POINTS", 4)
        with pytest.raises(BudgetExceededError):
            fermat_distance_matrix(cloud_1d([0.0, 0.0, 0.0, 1.0, 1.0]), 2.0)


class TestGaussianFermat1d:
    def test_coincident_points(self):
        assert gaussian_fermat_distance_1d(0.7, 0.7, 2.0) == 0.0

    def test_alpha_one_is_plain_distance(self):
        assert gaussian_fermat_distance_1d(-0.3, 1.1, 1.0) == pytest.approx(1.4)

    def test_frozen_example(self):
        got = gaussian_fermat_distance_1d(0.0, 1.0, 2.0)
        assert got == pytest.approx(GAUSS_FERMAT_0_1_ALPHA2, abs=1e-9)
        # independent route: F(0,1) in closed form via the imaginary error function
        closed = (2.0 * math.pi) ** 0.25 * math.sqrt(math.pi) * float(erfi(0.5))
        assert got == pytest.approx(closed, abs=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x, y = rng.normal(size=2)
            a = gaussian_fermat_distance_1d(x, y, 2.5)
            b = gaussian_fermat_distance_1d(y, x, 2.5)
            assert a == pytest.approx(b, abs=1e-12)

    def test_triangle_inequality_on_line(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            x, y, z = sorted(rng.normal(size=3))
            dxz = gaussian_fermat_distance_1d(x, z, 2.0)
            dxy = gaussian_fermat_distance_1d(x, y, 2.0)
            dyz = gaussian_fermat_distance_1d(y, z, 2.0)
            # in one dimension the metric is a length integral, so passing
            # through an interior point is exact
            assert dxz == pytest.approx(dxy + dyz, abs=1e-9)


class TestMomentEstimate:
    def test_deterministic(self):
        a = gaussian_fermat_moment_estimate(2.0, 500, seed=4)
        b = gaussian_fermat_moment_estimate(2.0, 500, seed=4)
        assert a == b

    def test_alpha_one_matches_folded_normal_mean(self):
        n = 20000
        est = gaussian_fermat_moment_estimate(1.0, n, seed=0)
        target = math.sqrt(2.0 / math.pi)
        se = math.sqrt(1.0 - 2.0 / math.pi) / math.sqrt(n)
        assert abs(est - target) <= 3.0 * se

    def test_rejects_empty(self):
        with pytest.raises(InvalidArgumentError):
            gaussian_fermat_moment_estimate(2.0, 0, seed=0)


def gaussian_mixture_2d(centers, sigma, weights):
    centers = [np.asarray(c, dtype=float) for c in centers]
    s2 = sigma * sigma

    def density(x):
        return sum(
            w * math.exp(-float((x - c) @ (x - c)) / (2 * s2)) / (2 * math.pi * s2)
            for w, c in zip(weights, centers)
        )

    def gradient(x):
        out = np.zeros(2)
        for w, c in zip(weights, centers):
            phi = w * math.exp(-float((x - c) @ (x - c)) / (2 * s2)) / (2 * math.pi * s2)
            out += phi * (-(x - c) / s2)
        return out

    def hessian(x):
        out = np.zeros((2, 2))
        for w, c in zip(weights, centers):
            phi = w * math.exp(-float((x - c) @ (x - c)) / (2 * s2)) / (2 * math.pi * s2)
            diff = (x - c)[:, None]
            out += phi * (diff @ diff.T / s2**2 - np.eye(2) / s2)
        return out

    return density, gradient, hessian


FULL_FRAME_2D = np.array([[1.0, 0.0], [0.0, 1.0]])


class TestCurvatureCondition:
    def test_constant_density_margin_zero(self):
        pts = np.array([[0.0, 0.0], [1.0, 2.0], [-3.0, 0.5]])
        frames = np.broadcast_to(FULL_FRAME_2D, (3, 2, 2))
        report = curvature_condition_check(
            lambda x: 1.0,
            lambda x: np.zeros(2),
            lambda x: np.zeros((2, 2)),
            alpha=2.0,
            intrinsic_dim=2,
            base_curvature=0.0,
            points=pts,
            frames=frames,
        )
        assert report.passes
        assert report.min_margin == pytest.approx(0.0, abs=1e-15)

    def test_standard_gaussian_margin_is_half(self):
        # for the standard normal on R^2 at alpha=2 the inequality margin is
        # exactly 1/2 at every point: the |x|^2 terms cancel
        density, gradient, hessian = gaussian_mixture_2d([[0.0, 0.0]], 1.0, [1.0])
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(20, 2))
        frames = np.broadcast_to(FULL_FRAME_2D, (20, 2, 2))
        report = curvature_condition_check(
            density, gradient, hessian, 2.0, 2, 0.0, pts, frames
        )
        assert report.passes
        assert np.allclose(report.margins, 0.5, atol=1e-9)
        assert np.all(report.conformal_curvatures <= 1e-9)

    def test_log_concave_passes_random_frames(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            root = rng.normal(size=(3, 3))
            a_mat = root @ root.T  # PSD quadratic form
            b = rng.normal(size=3)

            def g(x):
                return 0.5 * float(x @ a_mat @ x) + float(b @ x)

            def density(x):
                return math.exp(-g(x))

            def gradient(x):
                return -density(x) * (a_mat @ x + b)

            def hessian(x):
                grad_g = a_mat @ x + b
                return density(x) * (np.outer(grad_g, grad_g) - a_mat)

            pts = rng.normal(size=(5, 3)) * 0.5
            frames = []
            for _ in range(5):
                q, _ = np.linalg.qr(rng.normal(size=(3, 2)))
                frames.append(q.T)
            report = curvature_condition_check(
                density, gradient, hessian, 3.0, 3, 0.0, pts, np.asarray(frames)
            )
            assert report.passes

    def test_two_bump_mixture_fails_between_bumps(self):
        density, gradient, hessian = gaussian_mixture_2d(
            [[-3.0, 0.0], [3.0, 0.0]], 0.2, [0.5, 0.5]
        )
        pts = np.array([[-3.0, 0.0], [0.0, 0.0], [3.0, 0.0]])
        frames = np.broadcast_to(FULL_FRAME_2D, (3, 2, 2))
        report = curvature_condition_check(
            density, gradient, hessian, 2.0, 2, 0.0, pts, frames
        )
        assert not report.passes
        assert report.worst_index == 1
        assert report.margins[1] < 0
        assert report.margins[0] > 0 and report.margins[2] > 0
        assert report.conformal_curvatures[1] > 0

    def test_nonpositive_density_rejected(self):
        frames = np.broadcast_to(FULL_FRAME_2D, (1, 2, 2))
        with pytest.raises(InvalidArgumentError):
            curvature_condition_check(
                lambda x: 0.0,
                lambda x: np.zeros(2),
                lambda x: np.zeros((2, 2)),
                2.0, 2, 0.0, np.zeros((1, 2)), frames,
            )

    def test_bad_frame_rejected(self):
        frames = np.array([[[1.0, 0.0], [1.0, 0.0]]])
        with pytest.raises(InvalidArgumentError):
            curvature_condition_check(
                lambda x: 1.0,
                lambda x: np.zeros(2),
                lambda x: np.zeros((2, 2)),
                2.0, 2, 0.0, np.zeros((1, 2)), frames,
            )


def complete_floyd_warshall(points, alpha):
    """Fermat distances by Floyd-Warshall over every pair of points, with
    duplicates joined by explicit zero-weight edges."""
    pts = np.asarray(points, dtype=np.float64).reshape(len(points), -1)
    rows, cols = np.triu_indices(len(pts), 1)
    w = np.linalg.norm(pts[rows] - pts[cols], axis=1) ** alpha
    graph = csr_matrix((w, (rows, cols)), shape=(len(pts), len(pts)))
    return floyd_warshall(graph, directed=False)


def cocircular_cloud():
    """Twelve points on the unit circle, four of them at the quarter turns,
    and the center."""
    theta = np.concatenate([np.arange(4) * math.pi / 2.0, np.linspace(0.3, 5.9, 8)])
    return np.vstack([np.stack([np.cos(theta), np.sin(theta)], axis=1), [[0.0, 0.0]]])


def collinear_cloud(seed):
    """Random points on a tilted line in the plane, one of them doubled."""
    t = np.random.default_rng(seed).uniform(size=15)
    pts = np.stack([t, 0.5 * t + 0.25], axis=1)
    return np.vstack([pts, pts[:1]])


def random_cloud(seed, dim):
    return np.random.default_rng(seed).uniform(size=(25, dim))


class TestCertifiedGraph:
    """The sparse candidate is used only when it reproduces the complete graph."""

    @staticmethod
    def spy(monkeypatch, name, calls):
        real = getattr(geodesic, name)

        def spied(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(geodesic, name, spied)

    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("cloud, certifies", [
        # a 1-D chain carries every path at any alpha; clouds in dims 2-3
        # have no candidate and keep Floyd-Warshall
        pytest.param(lambda: random_cloud(2, 1), True, id="line"),
        pytest.param(
            lambda: np.concatenate([random_cloud(3, 1), [[0.5], [0.5 + 1e-12], [0.5]]]),
            True, id="line-near-duplicates",
        ),
        pytest.param(lambda: random_cloud(4, 2), False, id="square"),
        pytest.param(lambda: random_cloud(5, 3), False, id="cube"),
        pytest.param(cocircular_cloud, False, id="cocircular"),
        pytest.param(lambda: collinear_cloud(1), False, id="collinear"),
        pytest.param(lambda: near_duplicate_cloud(0), False, id="plane-near-duplicates"),
    ])
    def test_matches_complete_floyd_warshall_and_relaxation(self, monkeypatch, cloud, certifies, alpha):
        pts = cloud()
        calls = []
        self.spy(monkeypatch, "floyd_warshall", calls)
        d = fermat_distance_matrix(PointCloud(pts), alpha)
        assert calls == ([] if certifies else ["floyd_warshall"])
        np.testing.assert_allclose(d, complete_floyd_warshall(pts, alpha), rtol=1e-12, atol=0.0)
        oracle = relaxation_geodesics(pts, lambda length: length**alpha)
        np.testing.assert_allclose(d, oracle, rtol=1e-12, atol=0.0)
        assert np.array_equal(d, d.T)

    def test_interval_isomap_matches_relaxation(self, monkeypatch):
        x = np.random.default_rng(6).uniform(size=30)
        calls = []
        self.spy(monkeypatch, "floyd_warshall", calls)
        d = isomap_distance_matrix(cloud_1d(x), eps=0.3)
        assert calls == []
        oracle = relaxation_geodesics(x[:, None], lambda length: length if length <= 0.3 else None)
        np.testing.assert_allclose(d, oracle, rtol=1e-12, atol=0.0)

    def test_pooled_bench_ground_certifies(self, monkeypatch):
        # the shape of the wkmeans ground of a CLI session: 12 groups around
        # 0 and 1 pooled into 440 points, isomap at eps = 1
        rng = np.random.default_rng([1, 3])
        sizes = (40,) * 8 + (30,) * 4
        x = np.concatenate([(i % 2) + rng.uniform(-0.5, 0.5, size=m) for i, m in enumerate(sizes)])
        monkeypatch.setattr(geodesic, "_chain", lambda uniq: None)
        fallback = isomap_distance_matrix(cloud_1d(x), eps=1.0)
        monkeypatch.undo()

        def no_floyd_warshall(*args, **kwargs):
            raise AssertionError("the chain should have certified")

        monkeypatch.setattr(geodesic, "floyd_warshall", no_floyd_warshall)
        d = isomap_distance_matrix(cloud_1d(x), eps=1.0)
        np.testing.assert_allclose(d, fallback, rtol=1e-12, atol=0.0)
        assert np.array_equal(d, d.T)

    @pytest.mark.parametrize("build", [
        lambda c: isomap_distance_matrix(c, eps=0.5),
        lambda c: fermat_distance_matrix(c, 1.0),
        lambda c: fermat_distance_matrix(c, 1.5),
        lambda c: fermat_distance_matrix(c, 2.0),
        lambda c: fermat_distance_matrix(c, 2.0, knn=8),
    ], ids=["isomap", "fermat-alpha-1", "fermat-alpha-1.5", "fermat-alpha-2", "fermat-knn"])
    def test_no_candidate_runs_no_dijkstra(self, monkeypatch, build):
        def no_candidate(*args, **kwargs):
            raise AssertionError("no candidate was expected")

        monkeypatch.setattr(geodesic, "_certified", no_candidate)
        build(PointCloud(random_cloud(7, 2)))

    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0, 3.0])
    def test_chain_rows_are_dijkstra_running_sums(self, monkeypatch, alpha):
        # each source's row sums the chain weights in path order, as Dijkstra
        # on the chain does, so the certified matrix keeps Dijkstra's bits
        def chain_dijkstra(cloud):
            uniq, inv = geodesic._dedupe(cloud.points)
            m = uniq.shape[0]
            order = np.argsort(uniq[:, 0], kind="stable")
            a, b = np.minimum(order[:-1], order[1:]), np.maximum(order[:-1], order[1:])
            weights = euclidean_matrix(uniq)[a, b] ** alpha
            d = geodesic._mirror_upper(dijkstra(csr_matrix((weights, (a, b)), shape=(m, m)), directed=False))
            return d.take(inv, axis=0).take(inv, axis=1)

        calls = []
        self.spy(monkeypatch, "floyd_warshall", calls)
        rng = np.random.default_rng(int(alpha * 10))
        clouds = [[0.0, 1.0], [0.3, 0.3, -0.2, 0.3], [2.0, 2.0, 2.0]]
        for _ in range(19):
            n = int(rng.integers(2, 120))
            # rounded normal samples are full of duplicates
            clouds += [np.round(rng.normal(size=n), 1), rng.uniform(size=n), 10.0 * rng.normal(size=n)]
        for x in clouds:
            cloud = cloud_1d(x)
            assert fermat_distance_matrix(cloud, alpha).tobytes() == chain_dijkstra(cloud).tobytes()
        assert calls == []

    def test_one_needed_edge_removed_fails_and_falls_back(self, monkeypatch):
        x = np.random.default_rng(8).uniform(size=25)
        real = geodesic._chain

        def rerouted(uniq):
            # the path visits the 12th point before the 11th, so H still
            # connects but misses the needed edge from the 10th to the 11th
            order = real(uniq).copy()
            order[[11, 12]] = order[[12, 11]]
            return order

        monkeypatch.setattr(geodesic, "_chain", lambda uniq: None)
        fallback = fermat_distance_matrix(cloud_1d(x), 2.0)
        monkeypatch.setattr(geodesic, "_chain", rerouted)
        calls = []
        self.spy(monkeypatch, "_certified", calls)
        self.spy(monkeypatch, "floyd_warshall", calls)
        d = fermat_distance_matrix(cloud_1d(x), 2.0)
        # the rerouted H connects, so the check itself turned it down
        assert calls == ["_certified", "floyd_warshall"]
        assert np.array_equal(d, fallback)

    def test_chain_rounding_above_the_direct_edge_still_certifies(self, monkeypatch):
        # the chain's rounded sum from -0.751 to 0.726, in Dijkstra's order,
        # is one ulp above the rounded direct distance, so an exact
        # comparison would fall back
        x = np.array([-0.943, -0.751, -0.401, -0.155, 0.083, 0.341, 0.726])
        gaps = np.abs(np.diff(x)).tolist()
        assert sum(gaps[1:]) > abs(x[6] - x[1])
        calls = []
        self.spy(monkeypatch, "floyd_warshall", calls)
        d = fermat_distance_matrix(cloud_1d(x), 1.0)
        assert calls == []
        np.testing.assert_allclose(d, relaxation_geodesics(x[:, None], lambda length: length), rtol=1e-12, atol=0.0)

    def test_a_detour_longer_by_1e12_relative_is_turned_down(self, monkeypatch):
        # B sits just outside the circle on diameter AC: at alpha = 2 the
        # path A-B-C costs 1 + 1e-12 against the direct edge's 1, far above
        # rounding
        pts = np.array([[0.0, 0.0], [0.5, 0.5 + 5e-13], [1.0, 0.0]])
        rows, cols = np.triu_indices(3, 1)
        weights = np.linalg.norm(pts[rows] - pts[cols], axis=1) ** 2
        calls = []
        self.spy(monkeypatch, "_certified", calls)
        self.spy(monkeypatch, "floyd_warshall", calls)
        d = geodesic._graph_distances(
            3, lambda: (rows, cols, weights), "knn=None", candidate=lambda: np.array([0, 1, 2])
        )
        assert calls == ["_certified", "floyd_warshall"]
        assert d[0, 2] == complete_floyd_warshall(pts, 2.0)[0, 2] == 1.0

    def test_certified_peak_is_the_result_and_one_key_per_edge(self, monkeypatch):
        n = 400
        x = np.random.default_rng(9).uniform(size=n)
        rows, cols = np.triu_indices(n, 1)
        weights = np.abs(x[rows] - x[cols]) ** 2
        order = geodesic._chain(x[:, None])
        calls = []
        self.spy(monkeypatch, "floyd_warshall", calls)
        tracemalloc.start()
        try:
            geodesic._graph_distances(n, lambda: (rows, cols, weights), "knn=None", candidate=lambda: order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls == []
        # beside the caller's edge list: the n x n result, or one int64 key
        # per edge (half a matrix) while H is looked up
        assert peak < 1.25 * n * n * 8


def shuffled_circle(n, seed):
    """n points of the unit circle in random order, so the identity numbering
    of a neighbourhood graph has bandwidth close to n."""
    return sample("circle", n, seed).points


def with_duplicates(pts, seed):
    """pts with a few rows repeated at random places, and one row 1e-9 away."""
    rng = np.random.default_rng(seed)
    extra = pts[rng.integers(0, len(pts), size=4)]
    near = pts[:1] + 1e-9
    return rng.permutation(np.vstack([pts, extra, near]))


# builders with no candidate, so every one runs the dense fallback
FALLBACK_BUILDERS = {
    "isomap-circle": lambda: isomap_distance_matrix(PointCloud(shuffled_circle(160, 1)), eps=0.4),
    "isomap-circle-duplicates": lambda: isomap_distance_matrix(
        PointCloud(with_duplicates(shuffled_circle(120, 2), 3)), eps=0.5
    ),
    "isomap-cube": lambda: isomap_distance_matrix(PointCloud(random_cloud(11, 3)), eps=0.5),
    "fermat-complete-duplicates": lambda: fermat_distance_matrix(
        PointCloud(with_duplicates(random_cloud(12, 2), 4)), 1.5
    ),
    "fermat-3d-alpha-2": lambda: fermat_distance_matrix(PointCloud(random_cloud(13, 3)), 2.0),
    "fermat-knn": lambda: fermat_distance_matrix(PointCloud(with_duplicates(shuffled_circle(100, 5), 6)), 3.0, knn=4),
    "net-circle": lambda: epsilon_net_graph(
        np.random.default_rng(7).permutation(equispaced_circle_net(90)), "circle", eps=0.2, diam=math.pi
    ).dist,
    "net-matrix-zeros": lambda: epsilon_net_graph(
        None, circle_arc_metric(with_duplicates(shuffled_circle(80, 8), 9)), eps=0.6, diam=math.pi
    ).dist,
}


def identity_order(monkeypatch):
    """Make the graph core number the vertices as given, the order of a plain
    floyd_warshall on G."""
    monkeypatch.setattr(
        geodesic, "breadth_first_order", lambda graph, start, **kwargs: np.arange(graph.shape[0], dtype=np.int32)
    )


class TestBreadthFirstFallback:
    """The dense fallback runs Floyd-Warshall on G in breadth-first order and
    undoes the numbering in the expansion to the points."""

    @pytest.mark.parametrize("name", list(FALLBACK_BUILDERS))
    def test_matches_identity_order_and_is_exactly_symmetric(self, monkeypatch, name):
        graphs = []
        real = geodesic.floyd_warshall
        monkeypatch.setattr(geodesic, "floyd_warshall", lambda graph, **kw: graphs.append(graph) or real(graph, **kw))
        d = FALLBACK_BUILDERS[name]()
        identity_order(monkeypatch)
        want = FALLBACK_BUILDERS[name]()
        assert len(graphs) == 2
        np.testing.assert_allclose(d, want, rtol=1e-12, atol=0.0)
        assert np.array_equal(d, d.T)
        assert np.array_equal(np.diag(d), np.zeros(len(d)))
        # the relabelled graph is G under a permutation that is not the identity
        relabelled, plain = (g.tocoo() for g in graphs)
        assert sorted(relabelled.data.tolist()) == sorted(plain.data.tolist())
        assert not np.array_equal(relabelled.toarray(), plain.toarray())

    @pytest.mark.parametrize("n,eps", [(200, 0.3), (400, 1.0)])
    def test_numbering_is_reversed_breadth_first_from_a_far_vertex(self, monkeypatch, n, eps):
        pts = shuffled_circle(n, n)
        e = euclidean_matrix(pts)
        rows, cols = np.nonzero(np.triu(e <= eps, 1))
        graphs = []
        real = geodesic.floyd_warshall
        monkeypatch.setattr(geodesic, "floyd_warshall", lambda graph, **kw: graphs.append(graph) or real(graph, **kw))
        dist, rank = geodesic._vertex_distances(n, lambda: (rows, cols, e[rows, cols]), f"eps={eps}", None, None)
        (graph,) = graphs
        # new vertex r is old vertex order[r]: its edges are G's, renumbered
        relabelled = graph.tocoo()
        edges = {(min(a, b), max(a, b)) for a, b in zip(relabelled.row.tolist(), relabelled.col.tolist())}
        assert edges == {(min(a, b), max(a, b)) for a, b in zip(rank[rows].tolist(), rank[cols].tolist())}
        # the BFS start is numbered last, and the hop levels fall toward it
        hops = shortest_path(graph, directed=False, unweighted=True, indices=n - 1)
        assert np.all(np.diff(hops) <= 0)
        # the start is the last vertex a BFS from old vertex 0 reaches
        from_zero = shortest_path(graph, directed=False, unweighted=True, indices=int(rank[0]))
        assert from_zero[n - 1] == from_zero.max()
        # each edge joins two vertices at most one level apart, so the band
        # is under two levels wide, against nearly n for the point order
        band = int(np.abs(relabelled.row - relabelled.col).max())
        widths = np.bincount(hops.astype(int))
        assert band < 2 * widths.max()
        assert band < int(np.abs(rows - cols).max())
        plain = floyd_warshall(csr_matrix((e[rows, cols], (rows, cols)), shape=(n, n)), directed=False)
        np.testing.assert_allclose(dist[np.ix_(rank, rank)], plain, rtol=1e-12, atol=0.0)

    def test_components_are_named_only_when_the_bfs_falls_short(self, monkeypatch):
        calls = []
        real = geodesic.connected_components
        monkeypatch.setattr(geodesic, "connected_components", lambda *a, **k: calls.append(1) or real(*a, **k))
        FALLBACK_BUILDERS["isomap-circle"]()
        assert calls == []
        # three clusters in the plane, one point doubled, in mixed order
        pts = np.array([[0.0, 0.0], [5.0, 0.0], [0.1, 0.0], [0.0, 5.0], [5.1, 0.0], [0.0, 0.0], [0.0, 5.1]])
        with pytest.raises(DisconnectedGraphError, match=r"^eps=0\.3 graph has 3 components; raise eps$") as err:
            isomap_distance_matrix(PointCloud(pts), eps=0.3)
        assert err.value.components == [[0, 2, 5], [1, 4], [3, 6]]
        assert calls == [1]
        with pytest.raises(DisconnectedGraphError, match=r"^knn=1 graph has 3 components; raise knn$") as err:
            fermat_distance_matrix(PointCloud(pts), 2.0, knn=1)
        assert err.value.components == [[0, 2, 5], [1, 4], [3, 6]]
        # a vertex with no edge at all, last in the point order
        with pytest.raises(DisconnectedGraphError) as err:
            isomap_distance_matrix(PointCloud(np.vstack([shuffled_circle(30, 3), [[9.0, 9.0]]])), eps=1.0)
        assert err.value.components == [list(range(30)), [30]]

    def test_a_zero_weight_edge_connects(self):
        # vertex 1 reaches the others only through its explicit zero-weight
        # edge to vertex 0; the BFS must count it as an edge
        amb = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 5.0], [1.0, 5.0, 0.0]])
        want = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        assert np.array_equal(epsilon_net_graph(None, amb, eps=2.0, diam=1.0).dist, want)

    def test_isomap_peak_is_not_above_the_point_order(self):
        # 2,702,699 bytes: the peak of Floyd-Warshall in point order with
        # the expansion dist[np.ix_(members, members)], on this cloud
        cloud = PointCloud(shuffled_circle(400, 1))
        isomap_distance_matrix(cloud, eps=1.0)
        tracemalloc.start()
        try:
            isomap_distance_matrix(cloud, eps=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2_702_699


_FALLBACK_HASHES = """
import hashlib, json
import numpy as np
from mmspace import PointCloud, fermat_distance_matrix, isomap_distance_matrix, sample

cube = np.random.default_rng(5).uniform(size=(160, 3))
runs = {
    "isomap-2d": isomap_distance_matrix(PointCloud(sample("circle", 300, 1).points), eps=0.5),
    "fermat-3d-alpha-2": fermat_distance_matrix(PointCloud(cube), 2.0),
    "fermat-knn": fermat_distance_matrix(PointCloud(sample("circle", 300, 3).points), 2.0, knn=12),
}
print(json.dumps({name: hashlib.sha256(d.tobytes()).hexdigest() for name, d in runs.items()}))
"""


def test_dense_fallback_bytes_do_not_depend_on_simd_or_threads():
    # the breadth-first numbering breaks no ties by sorting, so it is the
    # same whichever sort numpy dispatches to.  Every graph here has many
    # vertices of equal degree (the complete graph all of them); on the two
    # circle graphs, an order that breaks degree ties with np.argsort
    # (reverse_cuthill_mckee's) differs with AVX-512 disabled, and so do the
    # matrices Floyd-Warshall computes in it
    src = str(Path(__file__).resolve().parent.parent / "src")
    runs = []
    for extra in (
        {"MM_THREADS": "1"},
        {"MM_THREADS": "2"},
        {"MM_THREADS": "1", "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
    ):
        env = dict(os.environ, **extra)
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
        done = subprocess.run(
            [sys.executable, "-c", _FALLBACK_HASHES], env=env, capture_output=True, text=True, timeout=600
        )
        assert done.returncode == 0, done.stderr
        runs.append(json.loads(done.stdout))
    assert runs[0] == runs[1] == runs[2]


class TestOverflow:
    def test_euclidean_matrix_scales_past_the_square_overflow(self):
        # cdist squares the gaps: 2^1200 overflows and 2^-1200 underflows,
        # though every distance is a finite float
        big, small = 2.0**600, 2.0**-600
        pts = np.array([[0.0, 0.0], [3 * big, 4 * big], [3 * small, 4 * small]])
        want = np.array([[0.0, 5 * big, 5 * small], [5 * big, 0.0, 5 * big], [5 * small, 5 * big, 0.0]])
        assert np.array_equal(euclidean_matrix(pts), want)
        assert np.array_equal(euclidean_matrix(PointCloud(pts)), want)

    def test_euclidean_matrix_keeps_gaps_whose_square_underflows(self):
        # no overflow here: 2^-600 and the 1.4e-173 gap found by the mm dist
        # fuzz square to 0 in cdist, which read both as duplicates
        small = 2.0**-600
        pts = np.array([[1.0, 0.0], [1.0, 1.40722286e-173], [3 * small, 4 * small], [0.0, 0.0], [1.0, 0.0]])
        d = euclidean_matrix(pts)
        assert d[0, 1] == d[1, 0] == 1.40722286e-173
        assert d[2, 3] == d[3, 2] == 5 * small
        assert d[0, 4] == d[4, 0] == 0.0
        # every entry at or above 2^-500 keeps cdist's bits
        ref = cdist(pts, pts)
        big = ref >= 2.0**-500
        assert big.sum() == 12 and np.array_equal(d[big], ref[big])
        assert np.array_equal(isomap_distance_matrix(PointCloud(pts[:2]), eps=1.0), d[:2, :2])

    def test_euclidean_matrix_recomputes_duplicates_in_bounded_memory(self):
        # every off-diagonal pair of equal points is below 2^-500 and is
        # recomputed; the fold holds row blocks, not one row per pair
        n = 1500
        pts = np.repeat(np.array([[0.5, -1.0], [0.5, 2.0], [3.0, 1e-170]]), n // 3, axis=0)
        tracemalloc.start()
        try:
            d = euclidean_matrix(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * n * n * 8
        same = np.equal.outer(np.arange(n) // 500, np.arange(n) // 500)
        assert not d[same].any()
        ref = cdist(pts, pts)
        assert np.array_equal(d[~same], ref[~same])

    @pytest.mark.parametrize("alpha, k", [(1.5, 678), (2.0, 509), (3.0, 339)])
    def test_fermat_weights_under_the_power_bound_keep_their_bits(self, alpha, k):
        # the line 0, 1, 3 scaled by 2^k, k alpha an integer: the largest
        # weight (3 2^k)^alpha is under 2^1022, so 4 times it is finite, and
        # every weight and path sum is the unscaled one times 2^(k alpha)
        x = np.array([0.0, 1.0, 3.0])
        assert 2.0**1019 < (3 * 2.0**k) ** alpha < 2.0**1022
        want = fermat_distance_matrix(cloud_1d(x), alpha) * 2.0 ** (k * alpha)
        assert np.array_equal(fermat_distance_matrix(cloud_1d(x * 2.0**k), alpha), want)

    def test_fermat_weights_in_the_plane_under_the_power_bound_keep_their_bits(self):
        # no chain candidate in 2-D: Floyd-Warshall sums the scaled weights
        pts = np.random.default_rng(4).uniform(size=(12, 2))
        want = fermat_distance_matrix(PointCloud(pts), 2.0) * 2.0**1020
        assert np.array_equal(fermat_distance_matrix(PointCloud(pts * 2.0**510), 2.0), want)

    @pytest.mark.filterwarnings("error")
    def test_fermat_weights_from_2_to_the_1022_are_refused(self):
        # each weight is a finite float, but 4 times the largest is not
        message = "^Fermat edge lengths to the power p = 2.0 is too large: 4 x its largest entry overflows float64$"
        for top in (2.0**511, 3 * 2.0**510):
            with pytest.raises(InvalidArgumentError, match=message):
                fermat_distance_matrix(cloud_1d([0.0, top]), 2.0)
        below = math.nextafter(2.0**511, 0.0)
        assert fermat_distance_matrix(cloud_1d([0.0, below]), 2.0)[0, 1] == below * below < 2.0**1022

    def test_fermat_weight_overflow_is_named(self):
        with pytest.raises(InvalidArgumentError, match="overflow"):
            fermat_distance_matrix(cloud_1d([1e308, -1e308, 0.0]), 2.0)
        # every distance is finite, one cube is not; an inf weight would pass
        # the chain's check without checking anything
        with pytest.raises(InvalidArgumentError, match="overflow"):
            fermat_distance_matrix(cloud_1d([0.0, 5e102, 1e103]), 3.0)
