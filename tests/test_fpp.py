import json
import math
import re
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist, pdist, squareform

from mmspace import (
    BudgetExceededError,
    EdgeWeightLaw,
    FiniteMetricMeasureSpace,
    FppInstance,
    InvalidArgumentError,
    UnsupportedReferenceError,
    fpp_barycenter_track,
    k_means_exact,
    metric_validate,
    passage_time_ball,
    scaled_space,
    shape_defect,
)
from mmspace import fpp, geodesic
from mmspace.cli import main
from mmspace.fpp import _dist_to_l1_ball

from helpers import networkx_ball_rows, relaxation_passage_times


def count_dijkstra_sources(monkeypatch):
    """Source count of every fpp.dijkstra call, in call order."""
    sources = []
    real = fpp.dijkstra

    def counting(*args, **kwargs):
        sources.append(np.size(kwargs["indices"]))
        return real(*args, **kwargs)

    monkeypatch.setattr(fpp, "dijkstra", counting)
    return sources


def det_instance(c=1.0, dim=2, seed=0, horizon=10.0):
    return FppInstance(dim, EdgeWeightLaw.deterministic(c), seed, horizon)


class TestLaw:
    def test_quantiles(self):
        assert EdgeWeightLaw.deterministic(2.5).quantile(0.123) == 2.5
        assert EdgeWeightLaw.exponential(2.0).quantile(0.5) == pytest.approx(
            math.log(2.0) / 2.0
        )
        assert EdgeWeightLaw.uniform(1.0, 3.0).quantile(0.25) == pytest.approx(1.5)

    def test_parse(self):
        assert EdgeWeightLaw.parse("det:2") == EdgeWeightLaw.deterministic(2.0)
        assert EdgeWeightLaw.parse("exponential:1.5") == EdgeWeightLaw.exponential(1.5)
        assert EdgeWeightLaw.parse("unif:0.5,1.5") == EdgeWeightLaw.uniform(0.5, 1.5)
        for bad in ("det", "exp:a", "unif:1", "gamma:2", "det:0"):
            with pytest.raises(InvalidArgumentError):
                EdgeWeightLaw.parse(bad)

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            EdgeWeightLaw.deterministic(-1.0)
        with pytest.raises(InvalidArgumentError):
            EdgeWeightLaw.exponential(0.0)
        with pytest.raises(InvalidArgumentError):
            EdgeWeightLaw.uniform(2.0, 1.0)
        with pytest.raises(InvalidArgumentError):
            EdgeWeightLaw.uniform(-0.5, 1.0)


class TestInstance:
    def test_edge_weight_is_pure(self):
        inst = FppInstance(2, EdgeWeightLaw.exponential(1.0), 7, 10.0)
        w = inst.edge_weight((3, -2), 1)
        assert inst.edge_weight((3, -2), 1) == w
        again = FppInstance(2, EdgeWeightLaw.exponential(1.0), 7, 99.0)
        assert again.edge_weight((3, -2), 1) == w

    def test_weights_vary_with_seed_base_axis(self):
        inst = FppInstance(2, EdgeWeightLaw.exponential(1.0), 0, 10.0)
        other = FppInstance(2, EdgeWeightLaw.exponential(1.0), 1, 10.0)
        assert inst.edge_weight((0, 0), 0) != other.edge_weight((0, 0), 0)
        assert inst.edge_weight((0, 0), 0) != inst.edge_weight((0, 0), 1)
        assert inst.edge_weight((0, 0), 0) != inst.edge_weight((1, 0), 0)

    def test_uniform_law_range(self):
        inst = FppInstance(2, EdgeWeightLaw.uniform(0.5, 1.5), 3, 10.0)
        ws = [inst.edge_weight((i, j), a) for i in range(5) for j in range(5) for a in (0, 1)]
        assert min(ws) > 0.5 and max(ws) < 1.5

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            FppInstance(4, EdgeWeightLaw.deterministic(1.0), 0, 1.0)
        with pytest.raises(InvalidArgumentError):
            FppInstance(2, EdgeWeightLaw.deterministic(1.0), 0, 0.0)
        # the hash packs the seed as int64
        for seed in (1.5, 1 << 63, -(1 << 63) - 1, "1"):
            with pytest.raises(InvalidArgumentError):
                FppInstance(2, EdgeWeightLaw.deterministic(1.0), seed, 1.0)
        inst = det_instance()
        with pytest.raises(InvalidArgumentError):
            inst.edge_weight((0, 0), 2)
        # a base of the wrong length, with a non-integral or out-of-range
        # coordinate, or not a sequence; a non-integral axis
        for base, axis in [
            ((0, 0, 0), 0), ((1,), 0), ((1.5, 2), 0), ((0, math.nan), 1), ((0, 1 << 63), 0), (0, 0),
            ((0, 0), 0.5), ((0, 0), "1"),
        ]:
            with pytest.raises(InvalidArgumentError):
                inst.edge_weight(base, axis)
        # integral coordinates of any type give the weight of the integer point
        exp = FppInstance(2, EdgeWeightLaw.exponential(1.0), 7, 10.0)
        assert exp.edge_weight((1.0, np.int64(2)), np.int64(1)) == exp.edge_weight((1, 2), 1)


class TestBall:
    def test_deterministic_ball_is_l1(self):
        # unit weights make T(0, v) = |v|_1, so B(3) is the l1 ball of radius 2
        ball = passage_time_ball(det_instance(), 3.0)
        assert len(ball) == 13
        for v, time in ball.items():
            assert time == pytest.approx(abs(v[0]) + abs(v[1]))
        assert all(abs(v[0]) + abs(v[1]) <= 2 for v in ball)

    def test_strict_inequality_at_boundary(self):
        ball = passage_time_ball(det_instance(), 2.0)
        # T = 2 is excluded: only the origin and the four unit neighbors
        assert sorted(ball) == [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)]

    def test_times_match_relaxation_oracle(self):
        inst = FppInstance(2, EdgeWeightLaw.exponential(1.0), 5, 10.0)
        ball = passage_time_ball(inst, 2.5)
        # every geodesic to a ball vertex stays inside the ball, so restricted
        # relaxation must reproduce the unrestricted times
        oracle = relaxation_passage_times(inst, set(ball))
        for v, time in ball.items():
            assert time == pytest.approx(oracle[v], abs=1e-12)

    def test_monotone_in_t(self):
        inst = FppInstance(2, EdgeWeightLaw.uniform(0.5, 1.5), 1, 10.0)
        small = passage_time_ball(inst, 2.0)
        big = passage_time_ball(inst, 4.0)
        assert set(small) <= set(big)
        for v, time in small.items():
            assert big[v] == time

    @pytest.mark.parametrize("dim, law", [(1, "exp:1"), (2, "exp:1"), (2, "unif:0.5,1.5"), (3, "det:1")])
    def test_is_the_growth_and_builds_no_graph(self, monkeypatch, dim, law):
        inst = FppInstance(dim, EdgeWeightLaw.parse(law), 3, 10.0)
        vertices, times, _ = fpp._grow(inst, 4.0)

        def no_csr(*args, **kwargs):
            raise AssertionError("a ball read no graph")

        monkeypatch.setattr(fpp, "csr_matrix", no_csr)
        ball = passage_time_ball(inst, 4.0)
        # the same vertices and times, in the same (settle) order
        assert list(ball.items()) == list(zip(map(tuple, vertices.tolist()), times.tolist()))

    def test_t_validation(self):
        inst = det_instance(horizon=5.0)
        with pytest.raises(InvalidArgumentError):
            passage_time_ball(inst, 0.0)
        with pytest.raises(InvalidArgumentError):
            passage_time_ball(inst, 6.0)


class TestScaledSpace:
    def test_deterministic_is_scaled_l1(self):
        space = scaled_space(det_instance(), 3.0)
        assert space.n == 13
        coords = np.array([[int(c) for c in lab.split(",")] for lab in space.labels])
        ref = np.abs(coords[:, None, :] - coords[None, :, :]).sum(axis=2) / 3.0
        assert np.allclose(space.dist, ref, atol=1e-12)
        assert np.allclose(space.weights, 1.0 / 13.0)
        assert metric_validate(space.dist).passes

    def test_origin_is_first(self):
        space = scaled_space(det_instance(), 3.0)
        assert space.labels[0] == "0,0"

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            scaled_space(det_instance(), 3.0, budget=5)

    def test_shell_cannot_increase_distances(self):
        inst = FppInstance(2, EdgeWeightLaw.exponential(1.0), 2, 10.0)
        tight = scaled_space(inst, 3.0, shell=0.0)
        loose = scaled_space(inst, 3.0, shell=0.3)
        assert loose.n == tight.n
        assert np.all(loose.dist <= tight.dist + 1e-12)

    def test_size_limit_raises_before_dijkstra(self, monkeypatch):
        sources = count_dijkstra_sources(monkeypatch)
        monkeypatch.setattr(geodesic, "MAX_GRAPH_POINTS", 13)
        assert scaled_space(det_instance(), 3.0).n == 13
        assert sources == [13]
        monkeypatch.setattr(geodesic, "MAX_GRAPH_POINTS", 12)
        with pytest.raises(BudgetExceededError, match="^scaled space on 13 points exceeds the limit of 12$") as err:
            scaled_space(det_instance(), 3.0)
        assert err.value.exit_code == 3
        assert sources == [13]

    def test_horizon_guard(self):
        inst = det_instance(horizon=3.0)
        with pytest.raises(InvalidArgumentError):
            scaled_space(inst, 3.0, shell=0.2)
        with pytest.raises(InvalidArgumentError):
            scaled_space(inst, 3.0, shell=-0.1)


class TestEdgeHashing:
    @staticmethod
    def count_hashes(monkeypatch):
        """Counts every edge hashed, by growths and edge_weight alike: both
        hash through the function fpp._edge_hash builds."""
        counts = Counter()
        real = fpp._edge_hash

        def build(instance):
            weight = real(instance)

            def counting(base, axis):
                counts[tuple(base), axis] += 1
                return weight(base, axis)

            return counting

        monkeypatch.setattr(fpp, "_edge_hash", build)
        return counts

    def test_scaled_space_hashes_each_edge_once(self, monkeypatch):
        counts = self.count_hashes(monkeypatch)
        scaled_space(FppInstance(2, EdgeWeightLaw.exponential(1.0), 3, 10.0), 4.0, shell=0.2)
        assert counts and set(counts.values()) == {1}

    def test_track_hashes_each_edge_once_per_track(self, monkeypatch):
        counts = self.count_hashes(monkeypatch)
        inst = FppInstance(2, EdgeWeightLaw.exponential(1.0), 3, 12.0)
        fpp_barycenter_track(inst, [3.0, 5.0, 8.0], shell=0.2)
        assert counts and set(counts.values()) == {1}
        # the edges of the one growth to the largest t, and no others
        track = set(counts)
        counts.clear()
        fpp._grow(inst, 8.0, 0.2)
        assert set(counts) == track


class TestBudgetStopsGrowth:
    @pytest.mark.parametrize("build", [
        lambda inst, t: scaled_space(inst, t, shell=0.2, budget=100),
        lambda inst, t: fpp_barycenter_track(inst, [t], budget=100),
    ])
    def test_hashes_bounded_by_budget_not_t(self, monkeypatch, build):
        counts = TestEdgeHashing.count_hashes(monkeypatch)
        inst = FppInstance(2, EdgeWeightLaw.exponential(1.0), 0, 120.0)
        calls = []
        for t in (50.0, 100.0):
            counts.clear()
            with pytest.raises(BudgetExceededError, match=r"^\|B\(t\)\| exceeds the all-pairs budget 100$"):
                build(inst, t)
            calls.append(sum(counts.values()))
        # the growth stops at the 101st vertex of B(t); each settled vertex
        # hashes at most its 2 * dim edges
        assert calls[0] == calls[1] <= 4 * 101


def grown_core(inst, t, budget=10_000):
    """B(t) in core order, and its vertex times, from a growth to t."""
    growth = fpp._grow(inst, t, 0.0, budget)
    times = dict(zip(map(tuple, growth[0].tolist()), growth[1].tolist()))
    return [tuple(v) for v in fpp._prefix_ball(growth, t, 0.0)[0].tolist()], times


def steps_to(c, h):
    """S_h = fl(S_{h-1} + c) with S_0 = 0, the time Dijkstra gives h det edges."""
    s = 0.0
    for _ in range(h):
        s += c
    return s


class TestDeterministicBall:
    """_det_ball enumerates B(t) and its steps with no growth; Dijkstra is the
    oracle, through the growth that scaled_space runs for every law."""

    @pytest.mark.parametrize("c", [0.1, 0.25, 0.3, 1.0, 2.0])
    @pytest.mark.parametrize("dim,radius", [(1, 30), (2, 8), (3, 4)])
    @pytest.mark.parametrize("exact", [False, True])
    def test_core_and_steps_are_the_grown_ones(self, c, dim, radius, exact):
        # exact: t is S_radius itself, which the strict cut must leave out
        t = steps_to(c, radius) if exact else c * (radius + 0.5)
        inst = det_instance(c=c, dim=dim, horizon=t)
        core, steps = fpp._det_ball(inst, t, 0.0, 10_000)
        grown, times = grown_core(inst, t)
        assert [tuple(v) for v in core.tolist()] == grown
        norms = np.abs(core).sum(axis=1)
        assert norms.max() == (radius - 1 if exact else radius)
        assert steps.size == 2 * norms.max() + 1
        assert steps.tolist() == [steps_to(c, h) / t for h in range(steps.size)]
        assert all(times[v] / t == steps[n] for v, n in zip(grown, norms.tolist()))

    def test_time_equal_to_a_step_is_left_out(self):
        inst = det_instance(c=0.25, horizon=1.0)
        assert steps_to(0.25, 4) == 1.0
        core, steps = fpp._det_ball(inst, 1.0, 0.0, 100)
        assert len(core) == 25 and steps.size == 7
        assert core[0].tolist() == [0, 0]
        assert [tuple(v) for v in core.tolist()] == grown_core(inst, 1.0, 100)[0]

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_size_closed_form(self, dim):
        closed = {
            1: lambda h: 2 * h + 1,
            2: lambda h: 2 * h * h + 2 * h + 1,
            3: lambda h: (2 * h + 1) * (2 * h * h + 2 * h + 3) // 3,
        }[dim]
        for h in range(12):
            ball = fpp._l1_ball(dim, h)
            assert fpp._l1_ball_size(dim, h) == closed(h) == len(ball)
            assert len({tuple(v) for v in ball.tolist()}) == len(ball)
            assert np.abs(ball).sum(axis=1).max() == h

    @pytest.mark.parametrize("dim,t", [(1, 5.5), (2, 3.5), (3, 2.5)])
    def test_budget_boundary_is_the_growth_one(self, dim, t):
        inst = det_instance(dim=dim, horizon=t)
        m = len(grown_core(inst, t)[0])
        assert len(fpp._det_ball(inst, t, 0.0, m)[0]) == m
        for build in (fpp._det_ball, scaled_space):
            with pytest.raises(BudgetExceededError, match=rf"^\|B\(t\)\| exceeds the all-pairs budget {m - 1}$"):
                build(inst, t, 0.0, m - 1)

    def test_budget_raises_before_any_allocation(self):
        # B(1e6) at c = 0.001 has about 2e18 vertices; the closed-form size
        # passes 4000 at radius 45
        inst = FppInstance(2, EdgeWeightLaw.deterministic(0.001), 0, 1e6)
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(BudgetExceededError, match=r"^\|B\(t\)\| exceeds the all-pairs budget 4000$"):
                fpp._det_ball(inst, 1e6, 0.0, 4000)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0
        assert peak < 4 << 20

    @pytest.mark.parametrize("t,shell", [(3.0, -0.1), (3.0, 0.2), (0.0, 0.0), (-1.0, 0.0), (math.nan, 0.0), (4.0, 0.0)])
    def test_checks_are_the_grown_ones(self, t, shell):
        inst = det_instance(horizon=3.0)
        with pytest.raises(InvalidArgumentError) as grown:
            scaled_space(inst, t, shell, 100)
        with pytest.raises(InvalidArgumentError, match=f"^{re.escape(str(grown.value))}$"):
            fpp._det_ball(inst, t, shell, 100)


class TestDetTrackUsesNoGrowth:
    def test_mm_fpp_det_hashes_no_edge_and_runs_no_dijkstra(self, monkeypatch, capsys):
        counts = TestEdgeHashing.count_hashes(monkeypatch)
        sources = count_dijkstra_sources(monkeypatch)
        assert main(["fpp", "--dim", "2", "--law", "det:0.25", "--t", "2,4"]) == 0
        assert json.loads(capsys.readouterr().out)["track"][1]["ball_size"] == 481
        assert not counts
        assert sources == []


class TestRandomTrackGrowsOnce:
    @pytest.mark.parametrize("dim,law,ts", [
        (1, "exp:1", [5.0, 10.0, 20.0]), (2, "exp:1", [2.0, 3.0, 5.0]), (3, "unif:0.5,1.5", [1.5, 2.0, 3.0]),
    ])
    @pytest.mark.parametrize("shell", [0.0, 0.2])
    def test_track_is_each_t_alone_bit_for_bit(self, dim, law, ts, shell):
        inst = FppInstance(dim, EdgeWeightLaw.parse(law), 5, ts[-1] * (1.0 + shell))
        track = fpp_barycenter_track(inst, ts, shell=shell)
        for t, pt in zip(ts, track):
            (alone,) = fpp_barycenter_track(inst, [t], shell=shell)
            assert (pt.t, pt.ball_size, pt.tied, pt.objective) == (alone.t, alone.ball_size, alone.tied, alone.objective)
            assert [b.tolist() for b in pt.barycenters] == [b.tolist() for b in alone.barycenters]

    @pytest.mark.parametrize("shell", [0.0, 0.2])
    def test_each_graph_is_the_one_of_its_own_growth(self, monkeypatch, shell):
        balls, graphs, built = [], [], []
        real_prefix, real_dijkstra, real_csr = fpp._prefix_ball, fpp.dijkstra, fpp.csr_matrix

        def prefix(growth, t, shell):
            balls.append((t, growth, real_prefix(growth, t, shell)))
            return balls[-1][2]

        def dijkstra(graph, **kwargs):
            if not any(graph is g for g in graphs):
                graphs.append(graph)
            return real_dijkstra(graph, **kwargs)

        def csr_matrix(*args, **kwargs):
            built.append(args)
            return real_csr(*args, **kwargs)

        monkeypatch.setattr(fpp, "_prefix_ball", prefix)
        monkeypatch.setattr(fpp, "dijkstra", dijkstra)
        monkeypatch.setattr(fpp, "csr_matrix", csr_matrix)
        inst = FppInstance(2, EdgeWeightLaw.exponential(1.0), 2, 6.0)
        fpp_barycenter_track(inst, [2.0, 3.5, 5.0], shell=shell)
        monkeypatch.undo()
        # one growth and one CSR for the whole track
        assert len(built) == 1
        assert [t for t, _, _ in balls] == [2.0, 3.5, 5.0]
        vertices, times, whole = balls[0][1]
        assert all(growth is balls[0][1] for _, growth, _ in balls)
        assert len(graphs) == 3
        for (t, _, (core, _)), graph in zip(balls, graphs):
            alone = fpp._grow(inst, t, shell, 10_000)
            n = len(alone[1])
            # B(t * (1 + shell)) grown alone is the prefix below its stop
            assert n == np.searchsorted(times, t * (1.0 + shell))
            assert np.array_equal(vertices[:n], alone[0]) and np.array_equal(times[:n], alone[1])
            assert np.array_equal(core, fpp._prefix_ball(alone, t, shell)[0])
            # the graph Dijkstra ran on is the prefix slice and that growth's own graph
            for other in (whole[:n, :n], alone[2]):
                assert graph.shape == other.shape and (graph != other).nnz == 0

    def test_growth_is_to_the_largest_t(self, monkeypatch):
        stops = []
        real = fpp._grow

        def grow(instance, t, shell=0.0, budget=math.inf):
            stops.append((t, shell))
            return real(instance, t, shell, budget)

        monkeypatch.setattr(fpp, "_grow", grow)
        inst = FppInstance(2, EdgeWeightLaw.exponential(1.0), 1, 6.0)
        fpp_barycenter_track(inst, [2.0, 3.0, 5.0], shell=0.2)
        assert stops == [(5.0, 0.2)]

    def test_budget_error_of_an_early_t_comes_before_a_bad_later_t(self):
        inst = FppInstance(2, EdgeWeightLaw.exponential(1.0), 1, 6.0)
        # 6 * 1.2 > 6: the second t is past the horizon
        with pytest.raises(InvalidArgumentError, match=r"^t\*\(1\+shell\) = 7.199999999999999 exceeds horizon 6.0$"):
            fpp_barycenter_track(inst, [3.0, 6.0], shell=0.2)
        with pytest.raises(BudgetExceededError, match=r"^\|B\(t\)\| exceeds the all-pairs budget 10$"):
            fpp_barycenter_track(inst, [3.0, 6.0], shell=0.2, budget=10)
        with pytest.raises(InvalidArgumentError, match=r"^t must lie in \(0, horizon=6.0\], got nan$"):
            fpp_barycenter_track(inst, [math.nan], shell=0.2)


class TestBallRowsNetworkxOracle:
    @pytest.mark.parametrize("dim,law,ts", [
        (1, "exp:1", [8.0, 16.0]), (2, "exp:1", [2.5, 4.0]), (3, "exp:1", [1.2, 1.8]),
        (1, "unif:0.5,1.5", [10.0, 20.0]), (2, "unif:0,1", [2.0, 3.5]), (3, "unif:0.5,1.5", [2.0, 3.0]),
    ])
    @pytest.mark.parametrize("shell", [0.0, 0.2])
    def test_rows_are_networkx_dijkstra_bit_for_bit(self, dim, law, ts, shell):
        # the library numbers vertices in settle order; the oracle builds the
        # graph in core order, so the two share no node numbering
        pytest.importorskip("networkx")
        inst = FppInstance(dim, EdgeWeightLaw.parse(law), 7, ts[-1] * (1.0 + shell))
        for t, core, rows in fpp._balls(inst, ts, shell, 10_000):
            want_core, want = networkx_ball_rows(inst, t, shell)
            assert [tuple(v) for v in core.tolist()] == want_core
            m = len(want_core)
            assert np.array_equal(rows(np.arange(m)), want)
            assert np.array_equal(rows(np.arange(1, m, 2), m // 2), want[1::2, m // 2:])


class TestBarycenterTrack:
    def test_deterministic_barycenter_is_origin(self):
        track = fpp_barycenter_track(det_instance(), [3.0], shell=0.0)
        assert len(track) == 1
        pt = track[0]
        assert pt.ball_size == 13
        assert not pt.tied
        assert np.allclose(pt.barycenters[0], [0.0, 0.0])
        assert pt.objective > 0.0

    def test_track_orders_and_validates(self):
        inst = det_instance()
        with pytest.raises(InvalidArgumentError):
            fpp_barycenter_track(inst, [])
        with pytest.raises(InvalidArgumentError):
            fpp_barycenter_track(inst, [3.0, 2.0])

    def test_random_law_track_runs(self):
        inst = FppInstance(2, EdgeWeightLaw.exponential(1.0), 0, 10.0)
        track = fpp_barycenter_track(inst, [2.0, 4.0], budget=2000)
        assert [pt.t for pt in track] == [2.0, 4.0]
        for pt in track:
            assert pt.ball_size >= 1
            assert pt.tied == (len(pt.barycenters) > 1)


def l1_segment_oracle_2d(z, radius):
    """Distance from z to the l1 ball via its four boundary segments."""
    z = np.asarray(z, dtype=np.float64)
    if abs(z[0]) + abs(z[1]) <= radius:
        return 0.0
    corners = radius * np.array([[1, 0], [0, 1], [-1, 0], [0, -1], [1, 0]], dtype=float)
    best = math.inf
    for a, b in zip(corners[:-1], corners[1:]):
        seg = b - a
        s = float(np.clip(np.dot(z - a, seg) / np.dot(seg, seg), 0.0, 1.0))
        best = min(best, float(np.linalg.norm(z - (a + s * seg))))
    return best


class TestL1Projection:
    def test_examples(self):
        assert _dist_to_l1_ball(np.array([0.3, -0.2]), 1.0) == 0.0
        assert _dist_to_l1_ball(np.array([2.0, 0.0]), 1.0) == pytest.approx(1.0)
        assert _dist_to_l1_ball(np.array([1.0, 1.0]), 1.0) == pytest.approx(
            math.sqrt(0.5)
        )

    def test_against_segment_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            z = rng.uniform(-2.0, 2.0, size=2)
            r = rng.uniform(0.2, 1.5)
            assert _dist_to_l1_ball(z, r) == pytest.approx(
                l1_segment_oracle_2d(z, r), abs=1e-10
            )


class TestShapeDefect:
    def test_deterministic_metric_defect_zero(self):
        md, cd = shape_defect(det_instance(), 3.0)
        assert md == pytest.approx(0.0, abs=1e-12)
        # worst covering gap is the l1 corner (1, 0) against scaled lattice
        # point (2/3, 0)
        assert cd == pytest.approx(1.0 / 3.0, abs=0.02)

    def test_deterministic_scaling(self):
        md, cd = shape_defect(det_instance(c=2.0, horizon=6.0), 4.0)
        assert md == pytest.approx(0.0, abs=1e-12)
        assert 0.0 < cd < 0.5

    def test_covering_defect_shrinks_with_t(self):
        inst = det_instance(horizon=20.0)
        _, cd_small = shape_defect(inst, 3.0)
        _, cd_big = shape_defect(inst, 9.0, budget=10000)
        assert cd_big < cd_small

    def test_random_law_needs_explicit_norm(self):
        inst = FppInstance(2, EdgeWeightLaw.exponential(1.0), 0, 10.0)
        with pytest.raises(UnsupportedReferenceError):
            shape_defect(inst, 3.0)
        md, cd = shape_defect(inst, 3.0, reference_norm=lambda v: float(np.abs(v).sum()))
        assert md >= 0.0 and cd >= 0.0
        assert math.isfinite(md) and math.isfinite(cd)


def l1_norm(v):
    return float(np.abs(v).sum())


def l2_norm(v):
    return float(np.linalg.norm(v))


def dense_shape_defect(inst, t, norm=None, grid_factor=4):
    """shape_defect from the full Dijkstra matrix and per-point norm calls."""
    space = scaled_space(inst, t)
    coords = np.array([[int(v) for v in lab.split(",")] for lab in space.labels], dtype=np.float64) / t
    if norm is None:
        c = inst.law.params[0]
        ref = c * cdist(coords, coords, "cityblock")
        member = lambda z: c * float(np.abs(z).sum()) <= 1.0
        radius = 1.0 / c
    else:
        ref = squareform(pdist(coords, lambda u, v: norm(u - v)))
        member = lambda z: norm(z) <= 1.0
        radius = 1.0
    metric = float(np.abs(space.dist - ref).max())
    h = 1.0 / (grid_factor * t)
    radius = max(float(np.abs(coords).max()), radius)
    axes = [np.arange(-radius - h, radius + h, h)] * inst.dim
    grid = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    grid = grid[np.array([member(z) for z in grid])]
    ball_to_set = float(cKDTree(coords).query(grid)[0].max())
    if norm is None:
        set_to_ball = max(_dist_to_l1_ball(z, 1.0 / c) for z in coords)
    else:
        gtree = cKDTree(grid)
        set_to_ball = max([float(gtree.query(z)[0]) for z in coords if norm(z) > 1.0], default=0.0)
    return metric, max(ball_to_set, set_to_ball)


def ball_blocks(inst, t, step):
    """(core, blocks) of B(t) from the ball source, step sources per block."""
    ((_, core, rows),) = fpp._balls(inst, [t], 0.0, 10_000)
    m = len(core)
    return core, [(s, rows(np.arange(s, min(s + step, m)), s)) for s in range(0, m, step)]


def assembled_upper(m, blocks):
    """Upper triangle of T/t from the row blocks, which must tile 0..m-1."""
    out = np.zeros((m, m))
    stop = 0
    for start, rows in blocks:
        assert start == stop and rows.shape == (rows.shape[0], m - start)
        out[start:start + rows.shape[0], start:] = rows
        stop = start + rows.shape[0]
    assert stop == m
    return np.triu(out, 1)


class TestScaledTimeBlocks:
    """Row blocks of T/t from the ball source, as shape_defect takes them."""

    @pytest.mark.parametrize("c", [0.1, 0.25, 0.3, 1.0, 2.0])
    @pytest.mark.parametrize("dim,radius", [(1, 40), (2, 9), (3, 5)])
    def test_deterministic_rows_are_dijkstra_bit_for_bit(self, c, dim, radius):
        # T(x, y) = S_{|x - y|_1} with S_h = fl(S_{h-1} + c); at c = 0.1 S_h
        # is not c * h for most h, so the running sum is what Dijkstra finds
        t = c * (radius + 0.5)
        inst = det_instance(c=c, dim=dim, horizon=t)
        space = scaled_space(inst, t)
        core, blocks = ball_blocks(inst, t, max(1, 1000 // space.n))
        assert [",".join(map(str, v)) for v in core.tolist()] == space.labels
        upper = assembled_upper(space.n, blocks)
        assert np.array_equal(upper, np.triu(space.dist, 1))

    @pytest.mark.parametrize("dim,law,t", [(1, "exp:1", 20.0), (2, "unif:0.5,1.5", 6.0), (3, "exp:1", 2.0)])
    def test_random_rows_are_the_scaled_space_rows(self, dim, law, t):
        inst = FppInstance(dim, EdgeWeightLaw.parse(law), 2, t)
        space = scaled_space(inst, t)
        core, blocks = ball_blocks(inst, t, max(1, 1000 // space.n))
        assert [",".join(map(str, v)) for v in core.tolist()] == space.labels
        assert np.array_equal(assembled_upper(space.n, blocks), np.triu(space.dist, 1))


class TestStreamedShapeDefect:
    @pytest.mark.parametrize("dim,c,t", [
        (1, 0.1, 4.5), (1, 0.7, 12.0), (2, 0.1, 1.5), (2, 0.3, 2.0),
        (2, 0.25, 3.5), (3, 0.3, 1.5), (3, 2.0, 9.0),
    ])
    @pytest.mark.parametrize("block", [1 << 17, 50])
    def test_deterministic_matches_dense_oracle(self, monkeypatch, dim, c, t, block):
        monkeypatch.setattr(fpp, "_BLOCK_ENTRIES", block)
        inst = det_instance(c=c, dim=dim, horizon=t)
        assert shape_defect(inst, t) == dense_shape_defect(inst, t)

    @pytest.mark.parametrize("dim,law,t,norm", [
        (1, "exp:1", 8.0, l1_norm), (2, "exp:1", 3.0, l2_norm),
        (2, "unif:0.5,1.5", 4.0, l1_norm), (2, "det:0.3", 1.5, l2_norm),
    ])
    def test_callable_norm_matches_dense_oracle(self, monkeypatch, dim, law, t, norm):
        monkeypatch.setattr(fpp, "_BLOCK_ENTRIES", 200)
        inst = FppInstance(dim, EdgeWeightLaw.parse(law), 3, t)
        assert shape_defect(inst, t, reference_norm=norm) == dense_shape_defect(inst, t, norm)

    def test_deterministic_allocates_no_square_matrix(self):
        inst = det_instance(c=0.25, horizon=8.0)
        tracemalloc.start()
        try:
            shape_defect(inst, 8.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        m = len(passage_time_ball(inst, 8.0))
        assert m == 1985
        assert peak < m * m * 8 / 4

    def test_random_law_runs_dijkstra_once_per_source_in_blocks(self, monkeypatch):
        sources = count_dijkstra_sources(monkeypatch)
        monkeypatch.setattr(fpp, "_BLOCK_ENTRIES", 2000)
        inst = FppInstance(2, EdgeWeightLaw.exponential(1.0), 0, 4.0)
        shape_defect(inst, 4.0, reference_norm=l1_norm)
        m = len(passage_time_ball(inst, 4.0))
        assert sum(sources) == m
        assert max(sources) == 2000 // m < m


# (dim, law, t): balls of a few dozen to a few hundred vertices
ORACLE_BALLS = [
    (1, "det:1", 30.0), (1, "exp:1", 30.0), (1, "unif:0.5,1.5", 30.0),
    (2, "det:0.5", 5.0), (2, "exp:1", 6.0), (2, "unif:0.5,1.5", 8.0),
    (3, "det:1", 5.0), (3, "exp:1", 2.0), (3, "unif:0.5,1.5", 4.0),
]


def path_graph(m):
    """Unit-weight path 0 - 1 - ... - (m - 1); for even m its middle pair ties.

    The farthest-point landmarks from 0 take one of the pair, so the other is
    reached only through the bounds.
    """
    return csr_matrix((np.ones(m - 1), (np.arange(m - 1), np.arange(1, m))), shape=(m, m))


def double_star(leaves):
    """Hubs 1 and 2 joined by a unit edge, each with the same number of leaves.

    Node 0 is a leaf of hub 1.  The hubs tie, and every landmark is a leaf,
    so both hubs are reached only through the bounds.
    """
    leaf_nodes = [0] + list(range(3, 2 + 2 * leaves))
    rows = [1] + [1, 2] * leaves
    cols = [2] + leaf_nodes
    m = 2 + 2 * leaves
    return csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(m, m))


class TestPrunedTrackOracle:
    @pytest.mark.parametrize("dim,law,t", ORACLE_BALLS)
    @pytest.mark.parametrize("shell", [0.0, 0.2])
    @pytest.mark.parametrize("p", [1.0, 2.0, 2.5, 3.0])
    @pytest.mark.parametrize("seed", [0, 4])
    def test_matches_k_means_exact(self, dim, law, t, shell, p, seed):
        inst = FppInstance(dim, EdgeWeightLaw.parse(law), seed, t * (1.0 + shell))
        (pt,) = fpp_barycenter_track(inst, [t], p=p, shell=shell)
        space = scaled_space(inst, t, shell=shell)
        sol = k_means_exact(space, 1, p, tie_tol=1e-12)
        family = [
            np.array([int(c) for c in space.labels[s.indices[0]].split(",")], dtype=np.float64) / t
            for s in sol.minimizers
        ]
        assert pt.ball_size == space.n
        assert len(pt.barycenters) == len(family)
        assert all(np.array_equal(a, b) for a, b in zip(pt.barycenters, family))
        assert pt.tied == (len(family) > 1)
        if law.startswith("det"):
            assert pt.objective == sol.objective
        else:
            assert abs(pt.objective - sol.objective) <= 4 * np.spacing(sol.objective)

    @pytest.mark.parametrize("graph,tied", [(path_graph(40), [19, 20]), (double_star(20), [1, 2])])
    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_tied_minimizers_are_all_kept(self, graph, tied, p):
        m = graph.shape[0]
        dmat = fpp.dijkstra(graph, directed=False)
        space = FiniteMetricMeasureSpace.uniform([str(i) for i in range(m)], dmat)
        sol = k_means_exact(space, 1, p, tie_tol=1e-12)
        assert [s.indices for s in sol.minimizers] == [(i,) for i in tied]
        rows = lambda sources: fpp.dijkstra(graph, directed=False, indices=sources)
        for strong in (True, False):
            objective, minimizers = fpp._ball_one_mean(rows, m, p, strong)
            assert minimizers == tied
            assert objective == pytest.approx(sol.objective, rel=1e-15)

    @pytest.mark.parametrize("dim,c,t", [(1, 0.1, 4.5), (2, 0.25, 8.0), (2, 0.3, 4.0), (2, 1.0, 9.0), (3, 0.5, 3.0)])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_det_rows_skip_the_strong_bound(self, monkeypatch, dim, c, t, p):
        inst = FppInstance(dim, EdgeWeightLaw.deterministic(c), 0, t)
        core, steps = fpp._det_ball(inst, t, 0.0, fpp.DEFAULT_BALL_BUDGET)
        rows = lambda sources: fpp._l1_rows(steps, core[sources], core)
        want = fpp._ball_one_mean(rows, len(core), p)

        def refuse(*args):
            raise AssertionError("strong bound taken for closed-form rows")

        monkeypatch.setattr(fpp, "_strong_bounds", refuse)
        got = fpp._ball_one_mean(rows, len(core), p, strong=False)
        assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
        assert got[1] == want[1]
        (pt,) = fpp_barycenter_track(inst, [t], p=p, shell=0.0)
        assert np.float64(pt.objective).tobytes() == np.float64(want[0]).tobytes()

    def test_runs_far_fewer_sources_than_ball_vertices(self, monkeypatch):
        sources = count_dijkstra_sources(monkeypatch)
        inst = FppInstance(2, EdgeWeightLaw.exponential(1.0), 0, 12.0)
        (pt,) = fpp_barycenter_track(inst, [10.0])
        assert pt.ball_size > 1000
        assert sum(sources) < pt.ball_size / 10

    def test_bad_p_fails_before_any_growth(self, monkeypatch):
        counts = TestEdgeHashing.count_hashes(monkeypatch)
        with pytest.raises(InvalidArgumentError, match="p must be a real number >= 1"):
            fpp_barycenter_track(det_instance(), [3.0], p=0.5)
        assert not counts


def tiny_and_small_ts(inst, t):
    """t, and times giving balls of 1, 2 and 3 vertices where the law has them."""
    times = np.unique(fpp._grow(inst, t)[1])
    return [t] + [(a + b) / 2 for a, b in zip(times[:3], times[1:4])]


class TestSecondMomentBound:
    @pytest.mark.parametrize("dim,law,t", [
        (1, "exp:1", 20.0), (1, "unif:0.5,1.5", 20.0), (1, "det:0.3", 6.0),
        (2, "exp:1", 4.0), (2, "unif:0.5,1.5", 5.0), (2, "det:0.5", 3.0),
        (3, "exp:1", 1.5), (3, "unif:0.5,1.5", 2.5), (3, "det:1", 3.0),
    ])
    @pytest.mark.parametrize("shell", [0.0, 0.2])
    @pytest.mark.parametrize("p", [2.0, 2.5, 3.0])
    def test_bound_is_valid_and_between_cheap_and_strong(self, dim, law, t, shell, p):
        inst = FppInstance(dim, EdgeWeightLaw.parse(law), 1, t * (1.0 + shell))
        sizes = set()
        for s in tiny_and_small_ts(inst, t):
            ((_, core, rows),) = fpp._balls(inst, [s], shell, 10_000)
            m = len(core)
            sizes.add(m)
            w = np.full(m, 1.0 / m)
            # every vertex a landmark: each row holds its own 0, as a landmark's does
            full = rows(np.arange(m))
            bound = fpp._second_moment_bounds(full, w, p)
            # the cost of every vertex from its full row, through the track's kernel
            cost = fpp._weighted_row_sums(full**p, w)
            assert np.all(bound * fpp._BOUND_SLACK <= cost)
            cheap = np.max([fpp._mean_abs_gaps(a, w) for a in full], axis=0) ** p
            strong = fpp._strong_bounds(full, np.arange(m), w, p)
            assert np.all(cheap * fpp._BOUND_SLACK <= bound)
            assert np.all(bound * fpp._BOUND_SLACK <= strong)
        # det balls jump from 1 vertex to 2 * dim + 1
        assert {1, 2, 3} <= sizes if not law.startswith("det") else {1, 2 * dim + 1} <= sizes
