import math

import numpy as np
import pytest

from mmspace import (
    BudgetExceededError,
    DisconnectedGraphError,
    InvalidArgumentError,
    circle_arc_metric,
    density_compensation,
    epsilon_net_graph,
    equispaced_circle_net,
    grid_measure_1d,
    quantize,
    quantize_density_1d,
)
from mmspace import geodesic


class TestQuantize:
    def test_single_center_is_weighted_mean(self):
        res = quantize(np.array([0.0, 1.0, 3.0]), 1)
        assert res.centers[0, 0] == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert res.objective == pytest.approx(math.sqrt(14.0 / 9.0), abs=1e-12)
        assert res.masses.tolist() == [1.0]

    def test_uniform_density_one_center(self):
        res = quantize_density_1d(lambda x: 1.0, 0.0, 1.0, 1)
        assert res.centers[0, 0] == pytest.approx(0.5, abs=1e-3)
        assert res.objective == pytest.approx(math.sqrt(1.0 / 12.0), abs=1e-3)

    def test_uniform_density_two_centers(self):
        res = quantize_density_1d(lambda x: 1.0, 0.0, 1.0, 2, restarts=5)
        assert res.centers[:, 0] == pytest.approx([0.25, 0.75], abs=1e-2)
        assert res.objective == pytest.approx(math.sqrt(1.0 / 48.0), abs=1e-3)
        assert res.masses == pytest.approx([0.5, 0.5], abs=1e-2)

    def test_centers_cover_all_samples_when_k_large(self):
        pts = np.array([[0.0, 0.0], [1.0, 2.0]])
        res = quantize(pts, 5)
        assert np.array_equal(res.centers, pts)
        assert res.objective == 0.0
        assert res.histories == []

    def test_histories_nonincreasing(self):
        rng = np.random.default_rng(0)
        res = quantize(rng.normal(size=(60, 2)), 3, restarts=4)
        assert len(res.histories) == 4
        for trace in res.histories:
            assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(40, 2))
        a = quantize(pts, 3, seed=5)
        b = quantize(pts, 3, seed=5)
        assert np.array_equal(a.centers, b.centers)
        assert a.objective == b.objective

    def test_weights_pull_the_center(self):
        res = quantize(np.array([0.0, 10.0]), 1, weights=np.array([1.0, 0.0]))
        assert res.centers[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert res.objective == pytest.approx(0.0, abs=1e-12)

    def test_p_one_center_is_the_median(self):
        res = quantize(np.array([0.0, 1.0, 10.0]), 1, p=1.0, restarts=3)
        assert res.centers[0, 0] == pytest.approx(1.0, abs=1e-3)
        assert res.objective == pytest.approx(10.0 / 3.0, abs=1e-3)

    def test_two_clusters_masses_and_order(self):
        pts = np.array([0.0, 0.1, -0.1, 10.0, 10.1])
        res = quantize(pts, 2, restarts=5)
        # centers sort lexicographically, so the cluster near zero comes first
        assert res.centers[0, 0] == pytest.approx(0.0, abs=1e-6)
        assert res.centers[1, 0] == pytest.approx(10.05, abs=1e-6)
        assert res.masses == pytest.approx([0.6, 0.4], abs=1e-12)

    def test_validation(self):
        pts = np.array([0.0, 1.0])
        with pytest.raises(InvalidArgumentError):
            quantize(pts, 0)
        with pytest.raises(InvalidArgumentError):
            quantize(pts, 1, restarts=0)
        # checked before the n_centers >= n shortcut
        for bad in (0, -1):
            with pytest.raises(InvalidArgumentError, match="max_iter"):
                quantize(pts, 2, max_iter=bad)
        with pytest.raises(InvalidArgumentError):
            quantize(pts, 1, p=0.5)
        with pytest.raises(InvalidArgumentError):
            quantize(pts, 1, weights=np.array([-1.0, 2.0]))
        with pytest.raises(InvalidArgumentError):
            quantize(np.array([np.nan, 0.0]), 1)


class TestGridMeasure:
    def test_masses_normalize(self):
        x, w = grid_measure_1d(lambda v: 2.0, 0.0, 1.0, grid_size=11)
        assert x[0] == 0.0 and x[-1] == 1.0
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(w, 1.0 / 11.0)

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            grid_measure_1d(lambda v: 1.0, 1.0, 0.0)
        with pytest.raises(InvalidArgumentError):
            grid_measure_1d(lambda v: -1.0, 0.0, 1.0)
        with pytest.raises(InvalidArgumentError):
            grid_measure_1d(lambda v: 0.0, 0.0, 1.0)


class TestDensityCompensation:
    def test_closed_form(self):
        # exponent -(p + dim)/dim = -3 at p = 2, dim = 1
        w = density_compensation([1.0, 2.0], 2.0, 1)
        assert w == pytest.approx([8.0 / 9.0, 1.0 / 9.0], abs=1e-12)

    def test_scale_invariant(self):
        rng = np.random.default_rng(2)
        rho = rng.uniform(0.5, 2.0, size=20)
        a = density_compensation(rho, 2.0, 2)
        b = density_compensation(7.3 * rho, 2.0, 2)
        assert np.allclose(a, b, atol=1e-12)

    def test_uniform_density_gives_uniform_weights(self):
        w = density_compensation(np.full(5, 0.37), 3.0, 2)
        assert np.allclose(w, 0.2, atol=1e-12)

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            density_compensation([1.0, 0.0], 2.0, 1)
        with pytest.raises(InvalidArgumentError):
            density_compensation([1.0], 0.5, 1)
        with pytest.raises(InvalidArgumentError):
            density_compensation([1.0], 2.0, 0)


class TestCircleArcMetric:
    def test_angles(self):
        d = circle_arc_metric(np.array([0.0, math.pi / 2.0, math.pi]))
        assert d[0, 1] == pytest.approx(math.pi / 2.0)
        assert d[0, 2] == pytest.approx(math.pi)

    def test_wraparound(self):
        d = circle_arc_metric(np.array([0.1, 2.0 * math.pi - 0.1]))
        assert d[0, 1] == pytest.approx(0.2, abs=1e-12)

    def test_angles_reduced_mod_two_pi(self):
        d = circle_arc_metric(np.array([7.0, -1.0, 0.5]))
        assert d[0, 1] == pytest.approx(8.0 - 2.0 * math.pi, abs=1e-12)
        assert d[1, 2] == pytest.approx(1.5, abs=1e-12)

    def test_coordinates_match_angles(self):
        angles = np.array([0.0, 1.0, 2.5, 4.0])
        coords = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        assert np.allclose(circle_arc_metric(angles), circle_arc_metric(coords), atol=1e-12)


class TestEquispacedNet:
    def test_layout(self):
        net = equispaced_circle_net(8)
        assert net.shape == (8, 2)
        assert np.allclose(np.linalg.norm(net, axis=1), 1.0, atol=1e-12)
        with pytest.raises(InvalidArgumentError):
            equispaced_circle_net(0)


class TestEpsilonNetGraph:
    def test_circle_graph_metric_matches_arcs(self):
        net = equispaced_circle_net(200)
        res = epsilon_net_graph(net, "circle", eps=0.3, diam=math.pi)
        assert np.abs(res.dist - circle_arc_metric(net)).max() < 1e-12

    def test_admissibility_threshold(self):
        # net radius of 200 equispaced points is pi/200; the verdict flips
        # between eps = 0.3 and eps = 0.5 because the threshold is
        # eps^2 / (4 diam)
        net = equispaced_circle_net(200)
        tight = epsilon_net_graph(net, "circle", eps=0.3, diam=math.pi)
        assert tight.net_radius == pytest.approx(math.pi / 200.0, abs=1e-12)
        assert tight.threshold == pytest.approx(0.09 / (4.0 * math.pi), abs=1e-12)
        assert tight.admissible is False
        loose = epsilon_net_graph(net, "circle", eps=0.5, diam=math.pi)
        assert loose.admissible is True
        coarse = epsilon_net_graph(equispaced_circle_net(100), "circle", eps=0.5, diam=math.pi)
        assert coarse.admissible is False

    def test_disconnection(self):
        net = equispaced_circle_net(10)
        with pytest.raises(DisconnectedGraphError) as err:
            epsilon_net_graph(net, "circle", eps=0.5, diam=math.pi)
        assert len(err.value.components) == 10

    def test_edges_are_strict(self):
        with pytest.raises(DisconnectedGraphError):
            epsilon_net_graph(np.array([0.0, 0.5]), "euclidean", eps=0.5, diam=1.0)

    def test_euclidean_path_metric(self):
        res = epsilon_net_graph(np.array([0.0, 0.4, 1.0]), "euclidean", eps=0.7, diam=1.0)
        assert res.dist[0, 2] == pytest.approx(1.0)
        assert res.admissible is None

    def test_explicit_net_radius(self):
        res = epsilon_net_graph(
            np.array([0.0, 0.4, 1.0]), "euclidean", eps=0.7, diam=1.0, net_radius=0.01
        )
        assert res.admissible is True
        res2 = epsilon_net_graph(
            np.array([0.0, 0.4, 1.0]), "euclidean", eps=0.7, diam=1.0, net_radius=0.5
        )
        assert res2.admissible is False

    def test_matrix_ambient(self):
        amb = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        res = epsilon_net_graph(None, amb, eps=1.5, diam=2.0)
        assert res.dist[0, 2] == pytest.approx(2.0)

    def test_matrix_ambient_keeps_zero_and_tiny_entries(self):
        # a pseudometric: points 0 and 1 coincide, point 2 sits 5e-9 from both;
        # every entry is an edge and the matrix is already its own path metric
        amb = np.array(
            [[0.0, 0.0, 5e-9, 1.0], [0.0, 0.0, 5e-9, 1.0], [5e-9, 5e-9, 0.0, 1.0], [1.0, 1.0, 1.0, 0.0]]
        )
        res = epsilon_net_graph(None, amb, eps=1.5, diam=1.0)
        assert np.array_equal(res.dist, amb)

    def test_size_guard(self, monkeypatch):
        monkeypatch.setattr(geodesic, "MAX_GRAPH_POINTS", 8)
        assert epsilon_net_graph(equispaced_circle_net(8), "circle", eps=1.0, diam=math.pi).admissible is False
        with pytest.raises(BudgetExceededError):
            epsilon_net_graph(equispaced_circle_net(9), "circle", eps=1.0, diam=math.pi)
        with pytest.raises(BudgetExceededError):
            epsilon_net_graph(np.arange(9.0), "euclidean", eps=1.5, diam=8.0)

    def test_validation(self):
        net = equispaced_circle_net(5)
        with pytest.raises(InvalidArgumentError):
            epsilon_net_graph(net, "circle", eps=0.0, diam=math.pi)
        with pytest.raises(InvalidArgumentError):
            epsilon_net_graph(net, "circle", eps=1.0, diam=-1.0)
        with pytest.raises(InvalidArgumentError):
            epsilon_net_graph(net, "sphere", eps=1.0, diam=1.0)
        with pytest.raises(InvalidArgumentError):
            epsilon_net_graph(np.zeros((0, 2)), "euclidean", eps=1.0, diam=1.0)
