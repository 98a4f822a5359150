import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmspace import (
    BudgetExceededError,
    CenterSet,
    FiniteMetricMeasureSpace,
    InvalidArgumentError,
    clustering_cost,
    hausdorff_distance,
    isomap_distance_matrix,
    k_means_exact,
    k_means_pam,
    metric_validate,
    one_sided_center_deviation,
    sample,
)
from mmspace import geodesic
from mmspace import space as space_module
from mmspace.fpp import EdgeWeightLaw, FppInstance, scaled_space
from mmspace.space import _KERNEL_COLUMNS, _enum_count, _weighted_row_sums

from helpers import (
    brute_kmeans,
    k_means_exact_oracle,
    k_means_pam_oracle,
    metric_validate_oracle,
    random_space,
)


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

    def test_labels_that_are_not_a_sequence_are_named(self):
        with pytest.raises(InvalidArgumentError, match="^labels must be a sequence, got int$"):
            FiniteMetricMeasureSpace(5, np.zeros((1, 1)), np.array([1.0]))

    def test_uniform_needs_a_point(self):
        with pytest.raises(InvalidArgumentError, match="^space needs at least one point$"):
            FiniteMetricMeasureSpace.uniform([], np.zeros((0, 0)))
        with pytest.raises(InvalidArgumentError, match="^0 labels for 2 points$"):
            FiniteMetricMeasureSpace.uniform([], np.array([[0.0, 1.0], [1.0, 0.0]]))


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

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgumentError, match="^matrix needs at least one point$"):
            metric_validate(np.zeros((0, 0)))

    def test_non_square_rejected(self):
        with pytest.raises(InvalidArgumentError):
            metric_validate(np.zeros((2, 3)))

    def test_size_limit_raises_before_allocating(self, monkeypatch):
        monkeypatch.setattr(geodesic, "MAX_GRAPH_POINTS", 4)
        assert metric_validate(line_space([0.0, 1.0, 2.0, 3.0]).dist).passes
        with pytest.raises(BudgetExceededError, match="limit of 4"):
            metric_validate(line_space([0.0, 1.0, 2.0, 3.0, 4.0]).dist)
        # the guard reads only the shape: a lazily broadcast 5 x 5 view is
        # rejected before any n x n array is made from it
        with pytest.raises(BudgetExceededError):
            metric_validate(np.broadcast_to(np.nan, (5, 5)))

    def test_report_matches_unbuffered_passes(self):
        rng = np.random.default_rng(8)
        for trial in range(20):
            n = int(rng.integers(1, 12))
            d = rng.uniform(0.0, 2.0, size=(n, n))
            if trial % 2:
                d = np.round(d, 1)  # coarse entries: many tied violations
            assert report_bits(metric_validate(d)) == report_bits(metric_validate_oracle(d))


def report_bits(report):
    """Every field of a MetricReport, floats as their bytes, so -0.0 != 0.0."""
    return [
        np.float64(v).tobytes() if isinstance(v, float) else v
        for v in (getattr(report, f.name) for f in fields(report))
    ]


def validate_inputs(kind, n, rng):
    if kind == "uniform":
        return rng.uniform(0.0, 2.0, size=(n, n))
    if kind == "integer_ties":
        d = rng.integers(0, 4, size=(n, n)).astype(float)
        return np.minimum(d, d.T)
    if kind == "negative":
        return rng.normal(size=(n, n))
    if kind == "asymmetric":
        x = rng.uniform(size=(n, 2))
        d = np.sqrt(((x[:, None] - x[None]) ** 2).sum(-1))
        return d * rng.uniform(0.9, 1.1, size=(n, n))
    if kind == "signed_zeros":
        d = rng.integers(-1, 2, size=(n, n)).astype(float)
        return d * rng.choice([0.0, -0.0, 1.0], size=(n, n))
    if kind == "zeros":
        return rng.choice([0.0, -0.0], size=(n, n))
    if kind == "line":
        x = rng.uniform(size=n)
        d = np.abs(x[:, None] - x[None, :])
        zero = rng.random((n, n)) < 0.2
        d[zero] = np.where(rng.random(int(zero.sum())) < 0.5, 0.0, -0.0)
        return d
    raise ValueError(kind)


class TestMetricValidateBlocks:
    """Row blocks give the whole-matrix report, witnesses and signed zeros included."""

    @pytest.mark.parametrize("kind", ["uniform", "integer_ties", "negative", "asymmetric", "signed_zeros", "zeros", "line"])
    @pytest.mark.parametrize("entries", [1, 7, 150, 1 << 16])
    def test_bits_match_oracle(self, monkeypatch, kind, entries):
        monkeypatch.setattr(space_module, "_VALIDATE_ENTRIES", entries)
        rng = np.random.default_rng(len(kind) * 1000 + entries)
        for n in (1, 2, 3, 17, 40, 150):
            d = validate_inputs(kind, n, rng)
            assert report_bits(metric_validate(d)) == report_bits(metric_validate_oracle(d))

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_all_zero_matrices(self, monkeypatch, zero):
        monkeypatch.setattr(space_module, "_VALIDATE_ENTRIES", 5)
        d = np.full((33, 33), zero)
        got = metric_validate(d)
        assert report_bits(got) == report_bits(metric_validate_oracle(d))
        assert got.passes and got.triangle_witness is None

    def test_holds_no_full_buffer(self):
        n = 600
        x = np.random.default_rng(5).uniform(size=n)
        d = np.abs(x[:, None] - x[None, :])
        tracemalloc.start()
        try:
            report = metric_validate(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passes
        assert peak < 8 * n * n / 2


class TestCostBlocks:
    """_BLOCK_ENTRIES only cuts rows into blocks; costs depend on the row alone."""

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_objectives_and_families_do_not_move(self, monkeypatch, p):
        rng = np.random.default_rng(int(p))
        n = 30
        space, _ = random_space(rng, n)
        space_ties = line_space(np.round(rng.uniform(size=n), 1))

        def solve():
            out = []
            for s in (space, space_ties):
                for k in (1, 2, 3):
                    exact = k_means_exact(s, k, p, tie_tol=1e-6)
                    pam = k_means_pam(s, k, p, restarts=3, seed=k)
                    out.append([
                        (np.float64(sol.objective).tobytes(), [m.indices for m in sol.minimizers])
                        for sol in (exact, pam)
                    ])
                    out.append(np.float64(clustering_cost(s, exact.best, p)).tobytes())
            return out

        want = solve()
        for entries in (1, 7, n - 1, 1 << 16, 1 << 20):
            monkeypatch.setattr(space_module, "_BLOCK_ENTRIES", entries)
            assert solve() == want


class TestWeightedRowSums:
    """The one cost reduction: each row's sum does not depend on its context."""

    @pytest.mark.parametrize("n", [1, 7, 300, _KERNEL_COLUMNS + 1, 2 * _KERNEL_COLUMNS + 3])
    def test_row_alone_at_every_position_and_offset(self, n):
        rng = np.random.default_rng(n)
        rows = rng.uniform(0.0, 3.0, size=(9, n)) ** 2.0
        w = rng.uniform(0.1, 1.0, size=n)
        w /= w.sum()
        block = _weighted_row_sums(rows, w)
        assert np.array_equal(_weighted_row_sums(np.asfortranarray(rows), w), block)
        for r in range(rows.shape[0]):
            alone = _weighted_row_sums(rows[r:r + 1], w)
            assert alone[0] == block[r]
            for pos in range(4):
                others = rng.uniform(size=(pos + 2, n))
                mixed = np.concatenate([others[:pos], rows[r:r + 1], others[pos:]])
                assert _weighted_row_sums(mixed, w)[pos] == block[r]
            for shift in (1, 3, 8, 24):
                # the row copied to a byte offset of its own buffer, aligned or not
                raw = np.zeros(n * 8 + shift, dtype=np.uint8)
                moved = np.frombuffer(raw, dtype=np.float64, count=n, offset=shift)
                moved[:] = rows[r]
                assert _weighted_row_sums(moved[None, :], w)[0] == block[r]
            exact = math.fsum(float(a) * float(b) for a, b in zip(w, rows[r]))
            assert abs(block[r] - exact) <= 1e-13 * exact

    def test_solvers_share_the_reduction(self):
        # k_means_exact reduces its candidates in blocks; clustering_cost and
        # PAM one row at a time: the same set must cost the same bits
        rng = np.random.default_rng(4)
        for trial in range(12):
            n = int(rng.integers(5, 16))
            space, _ = random_space(rng, n)
            p = (1.0, 1.5, 2.0, 3.0)[trial % 4]
            k = 1 + trial % 3
            sol = k_means_exact(space, k, p)
            assert sol.objective == min(clustering_cost(space, m, p) for m in sol.minimizers)
            pam = k_means_pam(space, k, p, restarts=3, seed=trial)
            assert pam.objective == min(clustering_cost(space, m, p) for m in pam.minimizers)


_HOST_SCRIPT = """
import hashlib, json, sys
import numpy as np
from mmspace import FiniteMetricMeasureSpace, k_means_exact
from mmspace.space import _weighted_row_sums

d = np.load(sys.argv[1])
space = FiniteMetricMeasureSpace.uniform(list(range(len(d))), d)
out = {}
for p in (2.0, 3.0):
    sol = k_means_exact(space, 1, p)
    costs = hashlib.sha256(_weighted_row_sums(d**p, space.weights).tobytes()).hexdigest()
    out[repr(p)] = [repr(sol.objective), [m.indices for m in sol.minimizers], costs]
json.dump(out, sys.stdout)
"""


def test_objectives_do_not_depend_on_blas_threads(tmp_path):
    # on this 4513-point ball the BLAS product w @ dist**p gives some columns
    # other bits under 2 OpenBLAS threads than under 1 (column 2256 at
    # p = 2); the kernel must not
    space = scaled_space(FppInstance(2, EdgeWeightLaw.parse("det:0.25"), 1, 12.0 * 1.2), 12.0, 0.2, budget=20000)
    assert space.n == 4513
    matrix = tmp_path / "ball.npy"
    np.save(matrix, space.dist)
    del space
    src = str(Path(__file__).resolve().parent.parent / "src")
    runs = []
    try:
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
            done = subprocess.run(
                [sys.executable, "-c", _HOST_SCRIPT, str(matrix)], env=env, capture_output=True, text=True, timeout=600
            )
            assert done.returncode == 0, done.stderr
            runs.append(json.loads(done.stdout))
    finally:
        matrix.unlink()
    assert runs[0] == runs[1]


@st.composite
def spaces_with_duplicates(draw):
    """Small weighted spaces in R^2, some points repeated so that center sets tie."""
    coord = st.floats(-1.0, 1.0, allow_nan=False, width=32)
    distinct = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=7))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=max(2, len(distinct)), max_size=9))
    pts = np.array([distinct[i] for i in picks], dtype=np.float64)
    n = len(pts)
    raw = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n)))
    w = raw / raw.sum()
    w[-1] = 1.0 - w[:-1].sum()
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    np.fill_diagonal(d, 0.0)
    d = np.minimum(d, d.T)
    return FiniteMetricMeasureSpace([str(i) for i in range(n)], d, w)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(spaces_with_duplicates(), st.integers(1, 3), st.sampled_from([1.0, 1.5, 2.0, 3.0]))
def test_exact_matches_brute_force_with_ties(space, k, p):
    sol = k_means_exact(space, k, p)
    obj, tied = brute_kmeans(space, k, p)
    assert sol.objective == pytest.approx(obj, rel=1e-12, abs=1e-15)
    assert {m.indices for m in sol.minimizers} == tied


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

    @pytest.mark.parametrize("rows", [1, 2, 3, 5, 64])
    def test_blocks_cut_anywhere(self, monkeypatch, rows):
        # blocks of `rows` candidates cut the runs of one prefix at every
        # place; a wide tie tolerance makes the family hold many sets
        rng = np.random.default_rng(rows)
        space, _ = random_space(rng, 12)
        monkeypatch.setattr(space_module, "_BLOCK_ENTRIES", rows * 12)
        for k in (2, 3, 4):
            sol = k_means_exact(space, k, 2.0, tie_tol=0.3)
            obj, tied = brute_kmeans(space, k, 2.0, tie_tol=0.3)
            assert sol.objective == pytest.approx(obj, rel=1e-12)
            assert [m.indices for m in sol.minimizers] == sorted(tied)
            assert len(tied) >= 2

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    @pytest.mark.parametrize("block_rows", [None, 2])
    @pytest.mark.parametrize("tie_tol", [0.0, 1e-9, 0.3])
    def test_every_set_screened_or_costed_exactly_once(self, monkeypatch, n, block_rows, tie_tol):
        # distinct points put a zero in a set's served row exactly at its
        # centers, so every row the screen or the kernel sees names its set
        rng = np.random.default_rng(n)
        space, _ = random_space(rng, n)
        every = {}
        for j in range(1, n + 1):
            for s in itertools.combinations(range(n), j):
                every[s] = clustering_cost(space, s, 2.0)
        if block_rows is not None:
            monkeypatch.setattr(space_module, "_BLOCK_ENTRIES", block_rows * n)
        kernel, screen = space_module._weighted_row_sums, space_module._screen
        costed, screened, kept = [], [], []

        def naming_kernel(rows, w):
            costed.extend(tuple(np.flatnonzero(row == 0.0).tolist()) for row in rows)
            return kernel(rows, w)

        def naming_screen(ext, served, first, *args):
            low = screen(ext, served, first, *args)
            for r, row in enumerate(served):
                q = tuple(np.flatnonzero(row == 0.0).tolist())
                for c in range(first + r, n):
                    screened.append(q + (c,))
                    if low[r, c - first] < math.inf:
                        kept.append(q + (c,))
            return low

        monkeypatch.setattr(space_module, "_weighted_row_sums", naming_kernel)
        monkeypatch.setattr(space_module, "_screen", naming_screen)
        dropped = 0
        for k in range(1, n + 2):
            for log in (costed, screened, kept):
                log.clear()
            sol = k_means_exact(space, k, 2.0, tie_tol=tie_tol)
            dropped += len(screened) - len(kept)
            sizes = [s for s in every if len(s) <= k]
            unscreened = [s for s in costed if s not in set(screened)]
            # each set is screened or costed without a screen, exactly once
            assert len(screened) + len(unscreened) == _enum_count(n, k)
            assert sorted(screened + unscreened) == sorted(sizes)
            assert len(set(costed)) == len(costed)
            # the kernel costs only what the screen kept, and everything
            # within the tie threshold of the objective
            assert set(costed) & set(screened) <= set(kept)
            assert {s for s in sizes if every[s] <= sol.objective * (1.0 + tie_tol)} <= set(costed)
            obj, tied = brute_kmeans(space, k, 2.0, tie_tol=tie_tol)
            assert sol.objective == pytest.approx(obj, rel=1e-12, abs=1e-15)
            assert {m.indices for m in sol.minimizers} == tied
        assert dropped > 0 or n < 9

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
        # cost; a swap descent whose candidate costs and recomputed baseline
        # can disagree by an ulp, and which rebuilds that baseline each pass,
        # flips between the tied pairs forever
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


class TestTieTolerance:
    """Both solvers read tie_tol by one rule: a finite real number >= 0."""

    @pytest.mark.parametrize("tie_tol", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("solve", [k_means_exact, k_means_pam], ids=["exact", "pam"])
    def test_rejected(self, solve, tie_tol):
        # these used to return an empty family, whose best raised IndexError
        space = line_space([0.0, 1.0, 2.0])
        with pytest.raises(InvalidArgumentError, match=f"^tie_tol must be a finite real number >= 0, got {tie_tol!r}$"):
            solve(space, 2, 2.0, tie_tol=tie_tol)

    @pytest.mark.parametrize("tie_tol", [0, 0.0, 1e-9, 1e300])
    @pytest.mark.parametrize("solve", [k_means_exact, k_means_pam], ids=["exact", "pam"])
    def test_accepted(self, solve, tie_tol):
        sol = solve(line_space([0.0, 1.0, 2.0]), 2, 2.0, tie_tol=tie_tol)
        assert sol.tie_tolerance == float(tie_tol)
        assert sol.best in sol.minimizers



def solution_bits(sol):
    return np.float64(sol.objective).tobytes(), [m.indices for m in sol.minimizers]


def oracle_space(kind, n, rng):
    """The spaces the screened solvers are held to their unscreened parents on."""
    if kind == "random":
        return random_space(rng, n)[0]
    if kind == "integer_ties":
        d = rng.integers(1, 4, size=(n, n)).astype(float)
        d = np.minimum(d, d.T)
        np.fill_diagonal(d, 0.0)
        return FiniteMetricMeasureSpace.uniform(list(range(n)), d)
    if kind == "zero_weights":
        x = np.round(rng.uniform(size=n), 1)
        w = rng.uniform(size=n)
        w[rng.random(n) < 0.3] = 0.0
        w[0] = 1.0
        return FiniteMetricMeasureSpace(list(range(n)), np.abs(x[:, None] - x[None, :]), w / w.sum())
    if kind == "circle_isomap":
        cloud = sample("circle", n, int(rng.integers(1000)))
        return FiniteMetricMeasureSpace.uniform(list(range(n)), isomap_distance_matrix(cloud, 2.5))
    if kind == "overflow":
        # dist**p is inf for p >= 2, nan under the zero weight in the kernel
        space = random_space(rng, n)[0]
        w = space.weights.copy()
        w[1] = 0.0
        return FiniteMetricMeasureSpace(space.labels, space.dist * 1e200, w / w.sum())
    raise ValueError(kind)


class TestScreenedSolversMatchParent:
    """Objective bits and families of the screened solvers are those of costing every candidate."""

    @pytest.mark.parametrize("kind", ["random", "integer_ties", "zero_weights", "circle_isomap", "overflow"])
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_exact_and_pam(self, kind):
        rng = np.random.default_rng(len(kind))
        for n, ks in ((7, (1, 2, 3, 4)), (16, (1, 2, 3, 4)), (40, (2, 3))):
            space = oracle_space(kind, n, rng)
            for p in (1.0, 1.5, 2.0, 3.0):
                for k in ks:
                    for tie_tol in (0.0, 1e-9):
                        got = k_means_exact(space, k, p, tie_tol=tie_tol)
                        want = k_means_exact_oracle(space, k, p, tie_tol=tie_tol)
                        assert solution_bits(got) == solution_bits(want), (n, p, k, tie_tol)
                    got = k_means_pam(space, k, p, restarts=3, seed=k)
                    want = k_means_pam_oracle(space, k, p, restarts=3, seed=k)
                    assert solution_bits(got) == solution_bits(want), (n, p, k)

    @pytest.mark.parametrize("n", [3, 9, 30])
    @pytest.mark.parametrize("kind", ["random", "overflow"])
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_screen_runs_by_default(self, monkeypatch, kind, n):
        # there is no size crossover: with k >= 2 every solve whose dist**p
        # is finite screens, however small the space, and one whose dist**p
        # overflows never does; k = 1 never builds the screen's arrays.  A
        # screen pass is one cdist call: PAM's greedy steps screen one row,
        # its swap passes all k rows at once
        passes, built = [], []
        real_cdist, finite = space_module.cdist, space_module._Extensions.finite

        def counted_cdist(xa, xb, metric, *args, **kwargs):
            if metric == "cityblock":
                passes.append(xa.shape[0])
            return real_cdist(xa, xb, metric, *args, **kwargs)

        def counted_finite(ext):
            built.append(ext)
            return finite(ext)

        monkeypatch.setattr(space_module, "cdist", counted_cdist)
        monkeypatch.setattr(space_module._Extensions, "finite", counted_finite)
        space = oracle_space(kind, n, np.random.default_rng(n))
        solvers = [
            ("exact", lambda k: k_means_exact(space, k, 2.0), lambda k: k_means_exact_oracle(space, k, 2.0)),
            ("pam", lambda k: k_means_pam(space, k, 2.0, restarts=3), lambda k: k_means_pam_oracle(space, k, 2.0, restarts=3)),
        ]
        for name, solve, oracle in solvers:
            for k in (1, 2, 3):
                passes.clear()
                built.clear()
                got = solve(k)
                assert bool(passes) == (k > 1 and kind != "overflow"), (k, passes)
                assert bool(built) == (k > 1)
                if name == "pam" and passes:
                    # k - 1 greedy steps, then at least one pass per restart
                    assert passes[:k - 1] == [1] * (k - 1) and passes[k - 1:].count(k) >= 3
                    assert set(passes) == {1, k}
                assert solution_bits(got) == solution_bits(oracle(k))

    @pytest.mark.parametrize("kind", ["random", "integer_ties", "circle_isomap"])
    def test_at_n_300(self, kind):
        rng = np.random.default_rng(len(kind) + 50)
        space = oracle_space(kind, 300, rng)
        for p in (1.0, 2.0):
            got = k_means_exact(space, 2, p, tie_tol=0.0)
            assert solution_bits(got) == solution_bits(k_means_exact_oracle(space, 2, p, tie_tol=0.0))
            got = k_means_pam(space, 4, p, restarts=2, seed=3)
            assert solution_bits(got) == solution_bits(k_means_pam_oracle(space, 4, p, restarts=2, seed=3))


class TestScreenBound:
    """fl(approx - err) < kernel cost for every candidate the screen keeps, and
    a dropped candidate costs more than min(best, the batch's smallest cost)
    times (1 + tol), at every scale."""

    @pytest.mark.parametrize("mask", ["tri", "centers"])
    @pytest.mark.parametrize("scale", [1.0, 1e-160, 1e-300, 1e100])
    @pytest.mark.parametrize("kind, n", [("random", 3), ("random", 40), ("random", 300), ("integer_ties", 40)])
    def test_bounds_bracket_the_kernel(self, kind, n, scale, mask):
        rng = np.random.default_rng(n)
        space = oracle_space(kind, n, rng)
        w = space.weights.copy()
        w[rng.random(n) < 0.2] = 0.0
        pw = (space.dist * scale) ** 2.0
        ext = space_module._Extensions(pw, w)
        assert ext.finite()
        for size in (1, 2, 3):
            first = int(rng.integers(0, n)) if mask == "tri" else 0
            served = np.stack([
                pw[rng.choice(n, size=size, replace=False)].min(axis=0) for _ in range(min(5, n - first))
            ])
            if mask == "tri":
                drop = np.tri(served.shape[0], n - first, -1, dtype=bool)
            else:
                drop = np.zeros(n, dtype=bool)
                drop[rng.choice(n, size=min(2, n - 1), replace=False)] = True
            # _screen takes the mask as given (the centers broadcast over rows)
            full = np.broadcast_to(drop, (served.shape[0], n - first))
            costs = np.stack([_weighted_row_sums(np.minimum(row, pw[first:]), w) for row in served])
            costs[full] = math.inf
            smallest = costs.min()
            for tol in (0.0, 1e-9, 0.3):
                for best in (math.inf, float(np.median(costs[~full]))):
                    low = space_module._screen(ext, served, first, best, tol, drop)
                    kept = low < math.inf
                    assert not kept[full].any()
                    assert np.all(low[kept] < costs[kept])
                    # what is dropped could neither lower the smaller of best
                    # and the batch's minimum nor tie it
                    assert np.all(costs[~kept & ~full] > min(best, smallest) * (1.0 + tol))
                    if best > smallest:
                        assert kept[costs == smallest].all()


class TestSolverMemory:
    """A solve may hold dist**p and the screen's weighted copy, but no third n x n array."""

    @pytest.mark.parametrize("solve", ["exact", "pam"])
    def test_no_third_full_array(self, solve):
        n = 600
        x = np.random.default_rng(5).uniform(size=n)
        space = line_space(x)
        tracemalloc.start()
        try:
            if solve == "exact":
                sol = k_means_exact(space, 2, 2.0)
            else:
                sol = k_means_pam(space, 4, 2.0, restarts=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol.objective > 0.0
        # pw and pww are two n x n arrays; the screen's groups add a few
        # blocks of rows
        assert peak < 3 * 8 * n * n

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
