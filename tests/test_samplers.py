import math

import numpy as np
import pytest

from mmspace import (
    InvalidArgumentError,
    circle_arc_metric,
    covering_radius,
    derived_seed,
    epsilon_net_graph,
    isometry_defect,
    sample,
    stream,
    true_distance_matrix,
)


class TestStreams:
    def test_stream_deterministic_and_tag_sensitive(self):
        a = stream(0, "x").random(5)
        b = stream(0, "x").random(5)
        c = stream(0, "y").random(5)
        d = stream(1, "x").random(5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)

    def test_stream_order_independent(self):
        first = stream(3, "a").random(4)
        stream(3, "b").random(100)
        assert np.array_equal(stream(3, "a").random(4), first)

    def test_derived_seed_stable(self):
        s = derived_seed(5, "trial", 2, "n", 100)
        assert s == derived_seed(5, "trial", 2, "n", 100)
        assert s != derived_seed(5, "trial", 3, "n", 100)
        assert 0 <= s < 2**64


class TestSample:
    def test_interval(self):
        cloud = sample("interval", 50, 0)
        assert cloud.points.shape == (50, 1)
        assert cloud.intrinsic_dim == 1
        assert cloud.points.min() >= 0.0 and cloud.points.max() <= 1.0

    def test_circle(self):
        cloud = sample("circle", 40, 1)
        assert cloud.points.shape == (40, 2)
        assert np.allclose(np.linalg.norm(cloud.points, axis=1), 1.0, atol=1e-12)
        assert cloud.intrinsic_dim == 1

    def test_torus(self):
        cloud = sample("torus", 30, 2)
        assert cloud.points.shape == (30, 4)
        assert np.allclose(np.linalg.norm(cloud.points[:, :2], axis=1), 1.0, atol=1e-12)
        assert np.allclose(np.linalg.norm(cloud.points[:, 2:], axis=1), 1.0, atol=1e-12)
        assert cloud.intrinsic_dim == 2

    def test_gaussian_dims(self):
        assert sample("gaussian", 10, 0).points.shape == (10, 1)
        assert sample("gaussian", 10, 0, dim=3).points.shape == (10, 3)
        with pytest.raises(InvalidArgumentError):
            sample("gaussian", 10, 0, dim=0)

    def test_single_component_mixture_is_gaussian(self):
        g = sample("gaussian", 25, 7).points
        m = sample("mixture", 25, 7, centers=[0.0], scales=1.0).points
        assert np.array_equal(g, m)

    def test_mixture_components_separate(self):
        cloud = sample("mixture", 200, 0, centers=[[-3.0, 0.0], [3.0, 0.0]], scales=0.2)
        assert cloud.points.shape == (200, 2)
        sides = np.sign(cloud.points[:, 0])
        assert (sides < 0).sum() > 50 and (sides > 0).sum() > 50
        assert np.all(np.abs(np.abs(cloud.points[:, 0]) - 3.0) < 2.0)

    def test_mixture_validation(self):
        with pytest.raises(InvalidArgumentError):
            sample("mixture", 10, 0, centers=[])
        with pytest.raises(InvalidArgumentError):
            sample("mixture", 10, 0, centers=[0.0, 1.0], scales=[1.0, -1.0])

    def test_unknown_generator_and_bad_n(self):
        with pytest.raises(InvalidArgumentError):
            sample("moon", 10, 0)
        with pytest.raises(InvalidArgumentError):
            sample("interval", 0, 0)

    def test_reproducible(self):
        a = sample("torus", 20, 9).points
        b = sample("torus", 20, 9).points
        assert np.array_equal(a, b)


class TestTrueDistances:
    def test_interval_is_euclidean(self):
        cloud = sample("interval", 20, 0)
        d = true_distance_matrix("interval", cloud)
        x = cloud.points[:, 0]
        assert np.allclose(d, np.abs(x[:, None] - x[None, :]), atol=1e-12)

    def test_circle_arcs(self):
        angles = np.array([0.0, math.pi / 2.0, math.pi])
        from mmspace import PointCloud

        cloud = PointCloud(np.stack([np.cos(angles), np.sin(angles)], axis=1), 1)
        d = true_distance_matrix("circle", cloud)
        assert d[0, 2] == pytest.approx(math.pi)
        assert d[0, 1] == pytest.approx(math.pi / 2.0)

    def test_circle_is_the_arc_metric(self):
        cloud = sample("circle", 50, 3)
        assert np.array_equal(true_distance_matrix("circle", cloud), circle_arc_metric(cloud.points))

    def test_torus_product_metric(self):
        from mmspace import PointCloud

        ang = np.array([[0.0, 0.0], [math.pi, math.pi]])
        pts = np.stack(
            [np.cos(ang[:, 0]), np.sin(ang[:, 0]), np.cos(ang[:, 1]), np.sin(ang[:, 1])],
            axis=1,
        )
        d = true_distance_matrix("torus", PointCloud(pts, 2))
        assert d[0, 1] == pytest.approx(math.pi * math.sqrt(2.0))

    def test_no_closed_form(self):
        cloud = sample("gaussian", 5, 0)
        with pytest.raises(InvalidArgumentError):
            true_distance_matrix("moons", cloud)


class TestCoveringRadius:
    def test_interval_two_points(self):
        from mmspace import PointCloud

        cloud = PointCloud(np.array([[0.25], [0.75]]), 1)
        assert covering_radius("interval", cloud) == pytest.approx(0.25, abs=1e-3)

    def test_circle_equispaced(self):
        from mmspace import PointCloud

        angles = 2.0 * math.pi * np.arange(8) / 8
        cloud = PointCloud(np.stack([np.cos(angles), np.sin(angles)], axis=1), 1)
        assert covering_radius("circle", cloud) == pytest.approx(math.pi / 8.0, abs=1e-12)

    def test_circle_matches_net_radius(self):
        cloud = sample("circle", 50, 3)
        net = epsilon_net_graph(cloud.points, "circle", eps=2.0, diam=math.pi)
        assert covering_radius("circle", cloud) == net.net_radius

    def test_torus_single_point(self):
        from mmspace import PointCloud

        cloud = PointCloud(np.array([[1.0, 0.0, 1.0, 0.0]]), 2)
        # farthest grid point sits at the antipode in both angles
        assert covering_radius("torus", cloud) == pytest.approx(
            math.pi * math.sqrt(2.0), rel=0.05
        )

    def test_unbounded_rejected(self):
        cloud = sample("gaussian", 5, 0)
        with pytest.raises(InvalidArgumentError):
            covering_radius("gaussian", cloud)


class TestIsometryDefect:
    def test_sup_difference(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        b = np.array([[0.0, 1.3], [0.9, 0.0]])
        defect, radius = isometry_defect(a, b)
        assert defect == pytest.approx(0.3)
        assert radius is None

    def test_covering_eval_forms(self):
        a = np.zeros((2, 2))
        assert isometry_defect(a, a, covering_eval=0.5)[1] == 0.5
        assert isometry_defect(a, a, covering_eval=lambda: 0.25)[1] == 0.25

    def test_shape_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            isometry_defect(np.zeros((2, 2)), np.zeros((3, 3)))
