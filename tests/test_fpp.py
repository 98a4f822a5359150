import math
from collections import Counter

import numpy as np
import pytest

from mmspace import (
    BudgetExceededError,
    EdgeWeightLaw,
    FppInstance,
    InvalidArgumentError,
    UnsupportedReferenceError,
    fpp_barycenter_track,
    metric_validate,
    passage_time_ball,
    scaled_space,
    shape_defect,
)
from mmspace import fpp
from mmspace.fpp import _dist_to_l1_ball

from helpers import relaxation_passage_times


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
        inst = det_instance()
        with pytest.raises(InvalidArgumentError):
            inst.edge_weight((0, 0), 2)


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

    def test_horizon_guard(self):
        inst = det_instance(horizon=3.0)
        with pytest.raises(InvalidArgumentError):
            scaled_space(inst, 3.0, shell=0.2)
        with pytest.raises(InvalidArgumentError):
            scaled_space(inst, 3.0, shell=-0.1)


class TestEdgeHashing:
    @staticmethod
    def count_hashes(monkeypatch):
        counts = Counter()
        real = FppInstance.edge_weight

        def counting(self, base, axis):
            counts[tuple(base), axis] += 1
            return real(self, base, axis)

        monkeypatch.setattr(FppInstance, "edge_weight", counting)
        return counts

    def test_scaled_space_hashes_each_edge_once(self, monkeypatch):
        counts = self.count_hashes(monkeypatch)
        scaled_space(FppInstance(2, EdgeWeightLaw.exponential(1.0), 3, 10.0), 4.0, shell=0.2)
        assert counts and set(counts.values()) == {1}

    def test_track_hashes_each_edge_once_per_ball(self, monkeypatch):
        counts = self.count_hashes(monkeypatch)
        per_ball = []
        real = fpp._ball_distance_matrix

        def build(*args):
            counts.clear()
            out = real(*args)
            per_ball.append(set(counts.values()))
            return out

        monkeypatch.setattr(fpp, "_ball_distance_matrix", build)
        inst = FppInstance(2, EdgeWeightLaw.exponential(1.0), 3, 12.0)
        fpp_barycenter_track(inst, [3.0, 5.0, 8.0], shell=0.2)
        assert per_ball == [{1}, {1}, {1}]


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
