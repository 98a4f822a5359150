import math

import numpy as np
import pytest
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
        def no_cdist(*args, **kwargs):
            raise AssertionError("pairwise distances computed past the limit")

        monkeypatch.setattr(geodesic, "MAX_GRAPH_POINTS", 4)
        monkeypatch.setattr(geodesic, "cdist", no_cdist)
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
