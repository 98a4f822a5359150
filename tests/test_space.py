import numpy as np
import pytest

from mmspace import (
    BudgetExceededError,
    CenterSet,
    FiniteMetricMeasureSpace,
    InvalidArgumentError,
    clustering_cost,
    hausdorff_distance,
    k_means_exact,
    k_means_pam,
    metric_validate,
    one_sided_center_deviation,
)

from helpers import brute_kmeans, random_space


def line_space(coords, weights=None):
    coords = np.asarray(coords, dtype=np.float64)
    d = np.abs(coords[:, None] - coords[None, :])
    labels = [str(c) for c in coords]
    if weights is None:
        return FiniteMetricMeasureSpace.uniform(labels, d)
    return FiniteMetricMeasureSpace(labels, d, np.asarray(weights))


class TestSpaceConstruction:
    def test_valid(self):
        s = line_space([0.0, 1.0, 2.0])
        assert s.n == 3
        assert s.diameter() == 2.0

    def test_rejects_asymmetry(self):
        with pytest.raises(InvalidArgumentError):
            FiniteMetricMeasureSpace(["a", "b"], np.array([[0.0, 1.0], [2.0, 0.0]]), np.array([0.5, 0.5]))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(InvalidArgumentError):
            FiniteMetricMeasureSpace(["a"], np.array([[1e-15]]), np.array([1.0]))

    def test_rejects_negative_entries(self):
        m = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(InvalidArgumentError):
            FiniteMetricMeasureSpace(["a", "b"], m, np.array([0.5, 0.5]))

    def test_rejects_bad_weights(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(InvalidArgumentError):
            FiniteMetricMeasureSpace(["a", "b"], d, np.array([0.5, 0.6]))
        with pytest.raises(InvalidArgumentError):
            FiniteMetricMeasureSpace(["a", "b"], d, np.array([-0.1, 1.1]))

    def test_rejects_label_mismatch(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(InvalidArgumentError):
            FiniteMetricMeasureSpace(["a"], d, np.array([0.5, 0.5]))


class TestMetricValidate:
    def test_asymmetry_witness(self):
        report = metric_validate(np.array([[0.0, 1.0], [2.0, 0.0]]))
        assert not report.passes
        assert report.asymmetry == pytest.approx(1.0)

    def test_triangle_violation(self):
        m = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]])
        report = metric_validate(m)
        assert not report.passes
        assert report.triangle == pytest.approx(1.0)
        i, j, l = report.triangle_witness
        assert m[i, j] - m[i, l] - m[l, j] == pytest.approx(1.0)

    def test_passes_on_true_metric(self):
        s = line_space([0.0, 0.3, 1.1, 2.0])
        assert metric_validate(s.dist).passes

    def test_non_square_rejected(self):
        with pytest.raises(InvalidArgumentError):
            metric_validate(np.zeros((2, 3)))


class TestClusteringCost:
    def test_singleton_zero(self):
        s = line_space([1.5])
        assert clustering_cost(s, CenterSet.of([0]), p=2.0) == 0.0

    def test_three_point_example(self):
        s = line_space([0.0, 1.0, 2.0])
        assert clustering_cost(s, CenterSet.of([1]), p=2.0) == pytest.approx(2.0 / 3.0)

    def test_weighted_example(self):
        s = line_space([0.0, 1.0], weights=[0.9, 0.1])
        assert clustering_cost(s, CenterSet.of([0]), p=1.0) == pytest.approx(0.1)

    def test_monotone_under_growth(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            space, _ = random_space(rng, 8)
            small = sorted(rng.choice(8, size=2, replace=False).tolist())
            big = sorted(set(small) | {int(rng.integers(8))})
            for p in (1.0, 2.0, 3.0):
                assert clustering_cost(space, big, p) <= clustering_cost(space, small, p) + 1e-15

    def test_errors(self):
        s = line_space([0.0, 1.0])
        with pytest.raises(InvalidArgumentError):
            clustering_cost(s, [], p=2.0)
        with pytest.raises(InvalidArgumentError):
            clustering_cost(s, [5], p=2.0)
        with pytest.raises(InvalidArgumentError):
            clustering_cost(s, [0], p=0.5)


class TestKMeansExact:
    def test_three_point_line(self):
        sol = k_means_exact(line_space([0.0, 1.0, 2.0]), k=1, p=2.0)
        assert sol.objective == pytest.approx(2.0 / 3.0)
        assert [m.indices for m in sol.minimizers] == [(1,)]
        assert sol.method == "exact"

    def test_two_cluster_ties(self):
        # both endpoints of each tight pair are equally good centers
        sol = k_means_exact(line_space([0.0, 0.1, 10.0, 10.1]), k=2, p=2.0)
        assert sol.objective == pytest.approx(0.005)
        got = {m.indices for m in sol.minimizers}
        assert got == {(0, 2), (0, 3), (1, 2), (1, 3)}

    def test_k_at_least_n(self):
        space = line_space([0.0, 1.0, 2.0])
        sol = k_means_exact(space, k=5, p=2.0)
        assert sol.objective == 0.0
        assert (0, 1, 2) in {m.indices for m in sol.minimizers}

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for trial in range(40):
            n = int(rng.integers(2, 11))
            space, _ = random_space(rng, n)
            k = int(rng.integers(1, 4))
            p = float(rng.choice([1.0, 2.0]))
            sol = k_means_exact(space, k, p)
            obj, tied = brute_kmeans(space, k, p)
            assert sol.objective == pytest.approx(obj, abs=1e-12)
            assert {m.indices for m in sol.minimizers} == tied

    def test_objective_nonincreasing_in_k(self):
        rng = np.random.default_rng(3)
        space, _ = random_space(rng, 9)
        objs = [k_means_exact(space, k, 2.0).objective for k in (1, 2, 3, 4)]
        assert all(b <= a + 1e-15 for a, b in zip(objs, objs[1:]))

    def test_no_random_subset_beats_minimum(self):
        rng = np.random.default_rng(5)
        space, _ = random_space(rng, 10)
        sol = k_means_exact(space, 3, 2.0)
        for _ in range(1000):
            size = int(rng.integers(1, 4))
            subset = rng.choice(10, size=size, replace=False).tolist()
            assert clustering_cost(space, subset, 2.0) >= sol.objective * (1.0 - 1e-9)

    def test_budget_guard(self):
        rng = np.random.default_rng(1)
        space, _ = random_space(rng, 10)
        with pytest.raises(BudgetExceededError, match="pam"):
            k_means_exact(space, 3, 2.0, budget=10)


class TestKMeansPam:
    def test_k_at_least_n_zero(self):
        rng = np.random.default_rng(2)
        space, _ = random_space(rng, 6)
        sol = k_means_pam(space, 6, 2.0, restarts=2, seed=0)
        assert sol.objective == pytest.approx(0.0, abs=1e-15)
        assert sol.method == "heuristic"

    def test_matches_exact_on_line(self):
        sol = k_means_pam(line_space([0.0, 1.0, 2.0]), k=1, p=2.0, restarts=3, seed=0)
        assert sol.objective == pytest.approx(2.0 / 3.0)

    def test_never_beats_exact(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            n = int(rng.integers(4, 13))
            space, _ = random_space(rng, n)
            k = int(rng.integers(1, 4))
            exact = k_means_exact(space, k, 2.0)
            pam = k_means_pam(space, k, 2.0, restarts=5, seed=int(rng.integers(100)))
            assert pam.objective >= exact.objective - 1e-12 * max(1.0, exact.objective)

    def test_exact_cost_tie_terminates(self):
        # these six points admit two center pairs with bitwise-equal power
        # cost; the matrix-product cost route undershoots the gathered one by
        # an ulp, and a swap descent that rebuilds its acceptance baseline
        # each pass flips between the tied pairs forever
        pts = np.array(
            [[0.9325308535813264, -0.08360030374828975],
             [0.5490546223724171, -0.930211358685348],
             [0.2892132373633618, 0.9606066585632023],
             [-0.905234410136122, 0.8152996427027384],
             [-0.6884432703954853, 0.3504974158113334],
             [-0.9494441575011427, -0.8770688169970182]]
        )
        d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
        np.fill_diagonal(d, 0.0)
        d = np.minimum(d, d.T)
        space = FiniteMetricMeasureSpace.uniform([str(i) for i in range(6)], d)
        pam = k_means_pam(space, 2, 2.0, restarts=3, seed=2)
        exact = k_means_exact(space, 2, 2.0)
        assert pam.objective >= exact.objective - 1e-12
        assert pam.objective == pytest.approx(exact.objective, rel=1e-12)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(23)
        space, _ = random_space(rng, 14)
        a = k_means_pam(space, 3, 2.0, restarts=4, seed=9)
        b = k_means_pam(space, 3, 2.0, restarts=4, seed=9)
        assert a.objective == b.objective
        assert [m.indices for m in a.minimizers] == [m.indices for m in b.minimizers]

    def test_validates_arguments(self):
        space = line_space([0.0, 1.0])
        with pytest.raises(InvalidArgumentError):
            k_means_pam(space, 3, 2.0)
        with pytest.raises(InvalidArgumentError):
            k_means_pam(space, 1, 2.0, restarts=0)


class TestHausdorff:
    def test_identical_sets(self):
        assert hausdorff_distance([[0.0], [2.0]], [[2.0], [0.0]]) == 0.0

    def test_singletons(self):
        assert hausdorff_distance([[0.0]], [[1.0]]) == pytest.approx(1.0)

    def test_asymmetric_cover(self):
        assert hausdorff_distance([[0.0], [2.0]], [[1.0]]) == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgumentError):
            hausdorff_distance([], [[0.0]])


class TestCenterDeviation:
    def test_identical_families(self):
        fam = [[[0.0], [1.0]], [[2.0]]]
        assert one_sided_center_deviation(fam, fam) == 0.0

    def test_min_over_limit_family(self):
        dev = one_sided_center_deviation([[[0.0]]], [[[1.0]], [[0.2]]])
        assert dev == pytest.approx(0.2)

    def test_max_over_empirical_family(self):
        dev = one_sided_center_deviation([[[0.0]], [[5.0]]], [[[0.0]]])
        assert dev == pytest.approx(5.0)

    def test_subset_family_is_zero(self):
        lim = [[[0.0]], [[3.0]], [[7.0]]]
        assert one_sided_center_deviation([lim[1]], lim) == 0.0

    def test_empty_family_rejected(self):
        with pytest.raises(InvalidArgumentError):
            one_sided_center_deviation([], [[[0.0]]])
