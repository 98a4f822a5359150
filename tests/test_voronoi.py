import numpy as np
import pytest

from mmspace import (
    FiniteMetricMeasureSpace,
    InvalidArgumentError,
    cluster_deviation,
    enlarged_cell,
    enlargement_threshold,
    voronoi_cells,
)

from helpers import perturbed_containment_trial, random_space


def line_space(coords):
    coords = np.asarray(coords, dtype=np.float64)
    d = np.abs(coords[:, None] - coords[None, :])
    return FiniteMetricMeasureSpace.uniform([str(c) for c in coords], d)


class TestVoronoiCells:
    def test_tie_produces_overlap(self):
        part = voronoi_cells(line_space([0.0, 1.0, 2.0]), [0, 2])
        assert part.cells[0] == [0, 1]
        assert part.cells[2] == [1, 2]

    def test_all_points_as_centers(self):
        space = line_space([0.0, 1.0, 3.0])
        part = voronoi_cells(space, [0, 1, 2])
        for c in (0, 1, 2):
            assert c in part.cells[c]

    def test_single_center_covers_space(self):
        space = line_space([0.0, 5.0, 9.0])
        part = voronoi_cells(space, [1])
        assert part.cells[1] == [0, 1, 2]

    def test_union_covers_space(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            n = int(rng.integers(3, 15))
            space, _ = random_space(rng, n)
            k = int(rng.integers(1, min(n, 5)))
            centers = rng.choice(n, size=k, replace=False).tolist()
            part = voronoi_cells(space, centers)
            covered = set()
            for members in part.cells.values():
                covered.update(members)
            assert covered == set(range(n))

    def test_empty_centers_rejected(self):
        with pytest.raises(InvalidArgumentError):
            voronoi_cells(line_space([0.0, 1.0]), [])


class TestEnlargedCell:
    def test_delta_zero_is_cell(self):
        space = line_space([0.0, 1.0, 2.0, 3.5])
        part = voronoi_cells(space, [0, 3])
        for c in (0, 3):
            assert enlarged_cell(space, [0, 3], c, 0.0) == part.cells[c]

    def test_three_point_example(self):
        space = line_space([0.0, 1.0, 2.0])
        assert enlarged_cell(space, [0, 2], 0, 2.0) == [0, 1, 2]

    def test_huge_delta_covers_space(self):
        rng = np.random.default_rng(8)
        space, _ = random_space(rng, 9)
        delta = 2.0 * space.diameter()
        assert enlarged_cell(space, [0, 4], 0, delta) == list(range(9))

    def test_monotone_in_delta(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            space, _ = random_space(rng, 10)
            centers = rng.choice(10, size=3, replace=False).tolist()
            c = centers[0]
            prev = set()
            for delta in (0.0, 0.1, 0.3, 0.9, 2.7):
                cur = set(enlarged_cell(space, centers, c, delta))
                assert prev <= cur
                prev = cur

    def test_center_must_belong(self):
        space = line_space([0.0, 1.0, 2.0])
        with pytest.raises(InvalidArgumentError):
            enlarged_cell(space, [0, 2], 1, 0.5)
        with pytest.raises(InvalidArgumentError):
            enlarged_cell(space, [0, 2], 0, -0.1)


class TestEnlargementThreshold:
    def test_equality_below_threshold(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            space, _ = random_space(rng, 11)
            centers = rng.choice(11, size=3, replace=False).tolist()
            c = centers[1]
            thr = enlargement_threshold(space, centers, c)
            base = enlarged_cell(space, centers, c, 0.0)
            if np.isfinite(thr):
                assert enlarged_cell(space, centers, c, thr * 0.999) == base
                grown = enlarged_cell(space, centers, c, thr)
                assert len(grown) > len(base)

    def test_infinite_when_cell_is_space(self):
        space = line_space([0.0, 1.0, 2.0])
        assert enlargement_threshold(space, [1], 1) == np.inf


class TestClusterDeviation:
    def test_identical(self):
        fam = [[[0.0], [1.0]], [[2.0]]]
        assert cluster_deviation(fam, fam) == 0.0

    def test_farthest_point(self):
        assert cluster_deviation([[[0.0], [1.0]]], [[[0.0]]]) == pytest.approx(1.0)

    def test_contained_cells_zero(self):
        assert cluster_deviation([[[0.0]], [[9.0]]], [[[0.0], [9.0]]]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgumentError):
            cluster_deviation([], [[[0.0]]])
        with pytest.raises(InvalidArgumentError):
            cluster_deviation([[]], [[[0.0]]])


class TestContainmentLemma:
    def test_perturbed_centers_contain_cells(self):
        rng = np.random.default_rng(31)
        assert all(perturbed_containment_trial(rng) for _ in range(100))
