import math
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import floyd_warshall
from scipy.special import erfi

from mmspace import (
    BudgetExceededError,
    DisconnectedGraphError,
    FermatParams,
    InvalidArgumentError,
    PointCloud,
    curvature_condition_check,
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
        def no_dijkstra(*args, **kwargs):
            raise AssertionError("no candidate was expected")

        monkeypatch.setattr(geodesic, "dijkstra", no_dijkstra)
        build(PointCloud(random_cloud(7, 2)))

    def test_one_needed_edge_removed_fails_and_falls_back(self, monkeypatch):
        x = np.random.default_rng(8).uniform(size=25)
        real = geodesic._chain

        def rerouted(uniq):
            # the chain edge between the 10th and 11th points goes to the
            # 12th instead, so H still connects but misses a needed edge
            hr, hc = real(uniq)
            order = np.argsort(uniq[:, 0], kind="stable")
            a, c = order[10], order[12]
            hr, hc = hr.copy(), hc.copy()
            hr[10], hc[10] = min(a, c), max(a, c)
            return hr, hc

        monkeypatch.setattr(geodesic, "_chain", lambda uniq: None)
        fallback = fermat_distance_matrix(cloud_1d(x), 2.0)
        monkeypatch.setattr(geodesic, "_chain", rerouted)
        calls = []
        self.spy(monkeypatch, "dijkstra", calls)
        self.spy(monkeypatch, "floyd_warshall", calls)
        d = fermat_distance_matrix(cloud_1d(x), 2.0)
        # the rerouted H connects, so the check itself turned it down
        assert calls == ["dijkstra", "floyd_warshall"]
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
        self.spy(monkeypatch, "dijkstra", calls)
        self.spy(monkeypatch, "floyd_warshall", calls)
        d = geodesic._graph_distances(
            3, lambda: (rows, cols, weights), "knn=None",
            candidate=lambda: (np.array([0, 1]), np.array([1, 2])),
        )
        assert calls == ["dijkstra", "floyd_warshall"]
        assert d[0, 2] == complete_floyd_warshall(pts, 2.0)[0, 2] == 1.0

    def test_certified_peak_is_the_result_and_one_key_per_edge(self, monkeypatch):
        n = 400
        x = np.random.default_rng(9).uniform(size=n)
        rows, cols = np.triu_indices(n, 1)
        weights = np.abs(x[rows] - x[cols]) ** 2
        pairs = geodesic._chain(x[:, None])
        calls = []
        self.spy(monkeypatch, "floyd_warshall", calls)
        tracemalloc.start()
        try:
            geodesic._graph_distances(n, lambda: (rows, cols, weights), "knn=None", candidate=lambda: pairs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls == []
        # beside the caller's edge list: the n x n result, or one int64 key
        # per edge (half a matrix) while H is looked up
        assert peak < 1.25 * n * n * 8

class TestOverflow:
    def test_euclidean_matrix_scales_past_the_square_overflow(self):
        # cdist squares the gaps: 2^1200 overflows and 2^-1200 underflows,
        # though every distance is a finite float
        big, small = 2.0**600, 2.0**-600
        pts = np.array([[0.0, 0.0], [3 * big, 4 * big], [3 * small, 4 * small]])
        want = np.array([[0.0, 5 * big, 5 * small], [5 * big, 0.0, 5 * big], [5 * small, 5 * big, 0.0]])
        assert np.array_equal(euclidean_matrix(pts), want)
        assert np.array_equal(euclidean_matrix(PointCloud(pts)), want)

    def test_fermat_weight_overflow_is_named(self):
        with pytest.raises(InvalidArgumentError, match="overflow"):
            fermat_distance_matrix(cloud_1d([1e308, -1e308, 0.0]), 2.0)
        # every distance is finite, one cube is not; an inf weight would pass
        # the chain's check without checking anything
        with pytest.raises(InvalidArgumentError, match="overflow"):
            fermat_distance_matrix(cloud_1d([0.0, 5e102, 1e103]), 3.0)
