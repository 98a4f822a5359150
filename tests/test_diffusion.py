import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmspace import (
    InvalidArgumentError,
    PointCloud,
    build_ground_metric,
    diffusion_distance_matrix,
    embedding_from_decomposition,
    normalized_laplacian,
    sample,
    similarity_matrix,
    spectral_decomposition,
    spectral_embedding,
)

from helpers import transitive_classes


def two_point_laplacian(d, sigma):
    cloud = PointCloud(np.array([[0.0], [d]]))
    eta = similarity_matrix(cloud, sigma)
    a = math.exp(-d * d / (2.0 * sigma * sigma))
    assert eta[0, 1] == pytest.approx(a, rel=1e-15)
    return normalized_laplacian(eta), a


@st.composite
def near_duplicate_embeddings(draw):
    """(n, k) embeddings whose rows are points of a small pool, each moved
    by 0, 1e-12, 1e-8 or 1e-3 times a vector in [-1, 1]^k.

    The moves match the tested tolerances, so chains of points whose ends
    are farther apart than the tolerance are common.
    """
    k = draw(st.integers(1, 3))
    coord = st.floats(-1.0, 1.0, allow_nan=False)
    vector = st.tuples(*[coord] * k)
    pool = draw(st.lists(vector, min_size=1, max_size=5))
    row = st.tuples(st.sampled_from(pool), st.sampled_from([0.0, 1e-12, 1e-8, 1e-3]), vector)
    rows = draw(st.lists(row, min_size=1, max_size=12))
    return np.array([[x + scale * j for x, j in zip(point, jitter)] for point, scale, jitter in rows])


class TestSimilarity:
    def test_unit_diagonal_and_symmetry(self):
        rng = np.random.default_rng(0)
        eta = similarity_matrix(PointCloud(rng.normal(size=(15, 3))), 0.7)
        assert np.allclose(np.diag(eta), 1.0)
        assert np.array_equal(eta, eta.T) or np.abs(eta - eta.T).max() < 1e-15
        assert eta.min() > 0.0

    def test_sigma_validation(self):
        cloud = PointCloud(np.zeros((2, 1)))
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(InvalidArgumentError):
                similarity_matrix(cloud, bad)

    @pytest.mark.parametrize("sigma, scale", [(1e-300, "0.0"), (5e-324, "0.0"), (1e200, "inf"), (np.float64(1e200), "inf")])
    def test_sigma_whose_two_sigma_squared_is_not_a_positive_float_is_named(self, sigma, scale):
        cloud = PointCloud(np.array([[0.0], [1.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgumentError, match=rf"^sigma is out of range: 2 sigma\^2 = {scale} in float64"):
                similarity_matrix(cloud, sigma)


class TestLaplacian:
    def test_two_point_closed_form(self):
        # degrees are both 1 + a, so L = (a/(1+a)) * [[1, -1], [-1, 1]] with
        # spectrum {0, 2a/(1+a)}
        lap, a = two_point_laplacian(1.0, 1.0)
        dec = spectral_decomposition(lap, 2)
        assert dec.eigenvalues[0] == pytest.approx(0.0, abs=1e-12)
        assert dec.eigenvalues[1] == pytest.approx(2.0 * a / (1.0 + a), abs=1e-12)
        r = 1.0 / math.sqrt(2.0)
        assert np.allclose(np.abs(dec.eigenvectors), r, atol=1e-12)

    def test_all_ones_kernel_spectrum(self):
        n = 6
        lap = normalized_laplacian(np.ones((n, n)))
        dec = spectral_decomposition(lap, n)
        expected = np.concatenate([[0.0], np.ones(n - 1)])
        assert np.allclose(dec.eigenvalues, expected, atol=1e-12)

    def test_zero_eigenvector_is_sqrt_degree(self):
        rng = np.random.default_rng(1)
        eta = similarity_matrix(PointCloud(rng.normal(size=(12, 2))), 0.8)
        lap = normalized_laplacian(eta)
        dec = spectral_decomposition(lap, 1)
        v = np.sqrt(eta.sum(axis=1))
        v /= np.linalg.norm(v)
        assert np.allclose(dec.eigenvectors[:, 0], v, atol=1e-10)

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            normalized_laplacian(np.array([[1.0, 0.5], [0.4, 1.0]]))
        with pytest.raises(InvalidArgumentError):
            normalized_laplacian(np.array([[1.0, -0.5], [-0.5, 1.0]]))
        with pytest.raises(InvalidArgumentError):
            normalized_laplacian(np.zeros((2, 2)))
        with pytest.raises(InvalidArgumentError):
            normalized_laplacian(np.ones((2, 3)))


class TestDecomposition:
    def test_sign_convention(self):
        rng = np.random.default_rng(2)
        eta = similarity_matrix(PointCloud(rng.normal(size=(10, 2))), 1.0)
        dec = spectral_decomposition(normalized_laplacian(eta), 10)
        for j in range(10):
            col = dec.eigenvectors[:, j]
            assert col[int(np.argmax(np.abs(col)))] > 0

    def test_gap_warning_on_tied_spectrum(self):
        lap = normalized_laplacian(np.ones((4, 4)))
        dec = spectral_decomposition(lap, 3)
        # eigenvalues {0, 1, 1, 1}: the pair (1, 2) ties, and so does the
        # truncation boundary pair (2, 3)
        assert [w[0] for w in dec.gap_warnings] == [1, 2]

    def test_no_warning_when_gaps_are_wide(self):
        lap, _ = two_point_laplacian(1.0, 1.0)
        assert spectral_decomposition(lap, 2).gap_warnings == []

    def test_near_zero_gap_detected(self):
        lap, a = two_point_laplacian(1.0, 0.05)
        assert 2.0 * a / (1.0 + a) < 1e-8
        dec = spectral_decomposition(lap, 2)
        assert [w[0] for w in dec.gap_warnings] == [0]

    def test_rejects_non_laplacian(self):
        with pytest.raises(InvalidArgumentError):
            spectral_decomposition(2.0 * np.eye(3), 2)

    def test_k_range(self):
        lap, _ = two_point_laplacian(1.0, 1.0)
        for k in (0, 3):
            with pytest.raises(InvalidArgumentError):
                spectral_decomposition(lap, k)


class TestEmbedding:
    def test_t_zero_is_raw_eigenvectors(self):
        lap, _ = two_point_laplacian(1.0, 1.0)
        dec = spectral_decomposition(lap, 2)
        assert np.array_equal(embedding_from_decomposition(dec, 0.0), dec.eigenvectors)

    def test_two_point_distance_closed_form(self):
        lap, a = two_point_laplacian(1.5, 0.9)
        for t in (0.0, 0.5, 1.0, 2.0, 7.0):
            emb = spectral_embedding(lap, 2, t)
            d, _ = diffusion_distance_matrix(emb)
            want = math.sqrt(2.0) * ((1.0 - a) / (1.0 + a)) ** t
            assert d[0, 1] == pytest.approx(want, abs=1e-12)

    def test_distances_nonincreasing_in_t(self):
        rng = np.random.default_rng(3)
        cloud = PointCloud(rng.normal(size=(20, 2)))
        lap = normalized_laplacian(similarity_matrix(cloud, 0.8))
        dec = spectral_decomposition(lap, 8)
        prev = None
        for t in (0.0, 0.5, 1.0, 2.0):
            d, _ = diffusion_distance_matrix(embedding_from_decomposition(dec, t))
            if prev is not None:
                assert np.all(d <= prev + 1e-12)
            prev = d

    @pytest.mark.parametrize("t", [1, 2])
    def test_full_spectrum_matches_matrix_power_at_scale(self, t):
        # with every eigenpair kept, D_t(i, j)^2 = sum_l (1 - lambda_l)^(2t)
        # (v_l(i) - v_l(j))^2 = (e_i - e_j)' M^(2t) (e_i - e_j), M = I - L,
        # computed here with matrix products and no eigensolver; the
        # Gaussian kernel is positive definite, so the clip of 1 - lambda
        # at 0 acts only at rounding level
        n = 1000
        cloud = sample("interval", n, 7)
        d = build_ground_metric(cloud, "diffusion", {"sigma": 0.1, "embed_k": n, "t": t})
        lap = normalized_laplacian(similarity_matrix(cloud, 0.1))
        power = np.linalg.matrix_power(np.eye(n) - lap, 2 * t)
        diag = np.diag(power)
        squared = diag[:, None] + diag[None, :] - 2.0 * power
        diam2 = squared.max()
        # each side is an n-term sum of terms of the size of the squared
        # diameter, so they agree to n u relative to it
        u = np.finfo(np.float64).eps / 2.0
        assert np.abs(d * d - squared).max() <= n * u * diam2
        # near 0 the square root turns that into |a - b| <= sqrt(|a^2 - b^2|),
        # a gap relative to the diameter
        want = np.sqrt(np.clip(squared, 0.0, None))
        assert np.abs(d - want).max() <= math.sqrt(n * u) * math.sqrt(diam2)

    def test_negative_t_rejected(self):
        lap, _ = two_point_laplacian(1.0, 1.0)
        dec = spectral_decomposition(lap, 2)
        with pytest.raises(InvalidArgumentError):
            embedding_from_decomposition(dec, -0.5)


class TestDistanceMatrix:
    def test_duplicate_points_merge(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        lap = normalized_laplacian(similarity_matrix(PointCloud(pts), 1.0))
        emb = spectral_embedding(lap, 3, 1.0)
        d, classes = diffusion_distance_matrix(emb)
        assert d[0, 1] == pytest.approx(0.0, abs=1e-12)
        assert classes == [[0, 1], [2]]

    def test_all_ones_kernel_collapses_at_positive_t(self):
        lap = normalized_laplacian(np.ones((5, 5)))
        emb = spectral_embedding(lap, 5, 1.0)
        d, classes = diffusion_distance_matrix(emb, merge_tol=1e-8)
        assert d.max() < 1e-10
        assert classes == [[0, 1, 2, 3, 4]]

    def test_generic_points_stay_separate(self):
        rng = np.random.default_rng(4)
        cloud = PointCloud(rng.normal(size=(10, 2)))
        lap = normalized_laplacian(similarity_matrix(cloud, 1.0))
        _, classes = diffusion_distance_matrix(spectral_embedding(lap, 10, 1.0))
        assert classes == [[i] for i in range(10)]

    def test_metric_on_representatives(self):
        rng = np.random.default_rng(5)
        cloud = PointCloud(rng.normal(size=(12, 2)))
        lap = normalized_laplacian(similarity_matrix(cloud, 0.7))
        d, _ = diffusion_distance_matrix(spectral_embedding(lap, 6, 1.0))
        # embedding distances are Euclidean, so the triangle inequality is
        # inherited; spot-check symmetry and a few triangles
        assert np.abs(d - d.T).max() == 0.0
        for i, j, k in ((0, 3, 7), (1, 5, 9), (2, 4, 11)):
            assert d[i, k] <= d[i, j] + d[j, k] + 1e-12

    def test_rejects_bad_shape(self):
        with pytest.raises(InvalidArgumentError):
            diffusion_distance_matrix(np.zeros(5))
        # an empty embedding returned a 0 x 0 matrix, and one with no
        # coordinates raised numpy's ValueError
        for empty in (np.zeros((0, 3)), np.zeros((3, 0))):
            with pytest.raises(InvalidArgumentError, match=r"^embedding must be a nonempty \(n, k\) array$"):
                diffusion_distance_matrix(empty)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_embedding(self, bad):
        # a NaN coordinate used to give a NaN matrix
        emb = np.zeros((4, 2))
        emb[2, 1] = bad
        with pytest.raises(InvalidArgumentError, match="^embedding must be finite$"):
            diffusion_distance_matrix(emb)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(near_duplicate_embeddings(), st.sampled_from([None, 0.0, 1e-8, 1e-3]))
    def test_classes_match_transitive_closure(self, emb, merge_tol):
        d, classes = diffusion_distance_matrix(emb, merge_tol)
        if merge_tol is None:
            merge_tol = 1e-10 * float((emb.max(axis=0) - emb.min(axis=0)).max())
        assert classes == transitive_classes(d.tolist(), merge_tol)
