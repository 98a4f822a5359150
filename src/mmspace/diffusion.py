"""Diffusion distances from a Gaussian similarity kernel.

Pipeline: similarity kernel -> symmetric normalized Laplacian -> spectral
decomposition -> diffusion embedding at time t -> pairwise distances.  The
Laplacian spectrum lives in [0, 1] with a zero eigenvalue whose eigenvector
is the square-rooted degree vector; the time parameter only damps the higher
modes, so distances are nonincreasing in t.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial.distance import cdist

from .cloud import PointCloud
from .errors import InvalidArgumentError
from .space import _as_square

DEFAULT_GAP_TOL = 1e-8


def similarity_matrix(cloud: PointCloud, sigma: float) -> np.ndarray:
    """Gaussian kernel exp(-|x-y|^2 / (2 sigma^2)); unit diagonal."""
    if not (sigma > 0 and math.isfinite(sigma)):
        raise InvalidArgumentError(f"sigma must be positive, got {sigma!r}")
    # Python floats round to 0 or inf where a numpy scalar would warn
    scale = 2.0 * float(sigma) * float(sigma)
    if not 0.0 < scale < math.inf:
        raise InvalidArgumentError(f"sigma is out of range: 2 sigma^2 = {scale!r} in float64, got sigma = {sigma!r}")
    sq = cdist(cloud.points, cloud.points, "sqeuclidean")
    return np.exp(-sq / scale)


def normalized_laplacian(eta: np.ndarray) -> np.ndarray:
    """I - D^(-1/2) eta D^(-1/2) with degrees d_i = sum_j eta_ij.

    Symmetrized after assembly so the result is exactly symmetric; that only
    moves entries at the last-ulp level.
    """
    eta = _as_square(eta, "eta")
    if not np.all(np.isfinite(eta)):
        raise InvalidArgumentError("eta must be finite")
    if np.abs(eta - eta.T).max() > 1e-12 * max(1.0, np.abs(eta).max()):
        raise InvalidArgumentError("eta must be symmetric")
    if eta.min() < 0.0:
        raise InvalidArgumentError("eta entries must be nonnegative")
    deg = eta.sum(axis=1)
    if deg.min() <= 0.0:
        raise InvalidArgumentError("every degree must be positive")
    s = 1.0 / np.sqrt(deg)
    m = eta * s[:, None] * s[None, :]
    m = (m + m.T) / 2.0
    lap = np.eye(eta.shape[0]) - m
    return lap


@dataclass
class SpectralDecomposition:
    """The k smallest eigenpairs of a normalized Laplacian.

    Eigenvalues ascend; eigenvector columns are orthonormal with the sign
    convention that the first component of largest magnitude is positive.
    gap_warnings lists adjacent pairs (j, lambda_j, lambda_j+1) closer than
    gap_tol, including the truncation boundary pair when one exists: near-ties
    there mean the retained subspace is numerically unstable.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    gap_warnings: list


def spectral_decomposition(
    lap: np.ndarray, k: int, gap_tol: float = DEFAULT_GAP_TOL
) -> SpectralDecomposition:
    lap = _as_square(lap, "laplacian")
    if not np.all(np.isfinite(lap)):
        raise InvalidArgumentError("laplacian must be finite")
    n = lap.shape[0]
    if not 1 <= k <= n:
        raise InvalidArgumentError(f"k must be in [1, {n}], got {k}")
    vals, vecs = eigh(lap)
    if vals[0] < -1e-8 or vals[-1] > 1.0 + 1e-8:
        raise InvalidArgumentError(
            "matrix is not a normalized laplacian: spectrum "
            f"[{vals[0]!r}, {vals[-1]!r}] leaves [0, 1]"
        )
    keep_vals = vals[:k].copy()
    keep_vecs = vecs[:, :k].copy()
    for j in range(k):
        col = keep_vecs[:, j]
        lead = int(np.argmax(np.abs(col)))
        if col[lead] < 0:
            keep_vecs[:, j] = -col
    warnings = []
    upper = min(k, n - 1)
    for j in range(upper):
        gap = float(vals[j + 1] - vals[j])
        if gap < gap_tol:
            warnings.append((j, float(vals[j]), float(vals[j + 1])))
    return SpectralDecomposition(
        eigenvalues=keep_vals, eigenvectors=keep_vecs, gap_warnings=warnings
    )


def embedding_from_decomposition(dec: SpectralDecomposition, t: float) -> np.ndarray:
    """Diffusion coordinates: column j is (1 - lambda_j)^t times eigenvector j."""
    if not (t >= 0 and math.isfinite(t)):
        raise InvalidArgumentError(f"t must be >= 0, got {t!r}")
    # clip guards (1 - lambda) < 0 at roundoff scale; 0^0 = 1 keeps t = 0 exact
    scales = np.clip(1.0 - dec.eigenvalues, 0.0, None) ** t
    return dec.eigenvectors * scales[None, :]


def spectral_embedding(lap: np.ndarray, k: int, t: float) -> np.ndarray:
    """Embed into the k lowest diffusion coordinates at time t.

    t = 0 returns the raw eigenvectors exactly.
    """
    dec = spectral_decomposition(lap, k)
    return embedding_from_decomposition(dec, t)


def diffusion_distance_matrix(embedding: np.ndarray, merge_tol: float | None = None):
    """Pairwise Euclidean distances of embedded points plus quotient classes.

    Diffusion distance is only a pseudometric: points the diffusion cannot
    separate sit at distance ~0.  Classes are the connected components of
    the graph d <= merge_tol, each sorted and listed by smallest index; with
    merge_tol=None the tolerance is 1e-10 times the largest coordinate spread,
    so exact duplicates merge and everything else stays apart.  On class
    representatives the induced matrix is a true metric.
    """
    emb = np.asarray(embedding, dtype=np.float64)
    if emb.ndim != 2:
        raise InvalidArgumentError("embedding must be an (n, k) array")
    if not np.all(np.isfinite(emb)):
        raise InvalidArgumentError("embedding must be finite")
    n = emb.shape[0]
    if merge_tol is None:
        spread = float((emb.max(axis=0) - emb.min(axis=0)).max()) if n > 0 else 0.0
        merge_tol = 1e-10 * spread
    d = cdist(emb, emb)
    np.fill_diagonal(d, 0.0)

    ncomp, labels = connected_components(csr_matrix(d <= merge_tol), directed=False)
    classes = [np.flatnonzero(labels == c).tolist() for c in range(ncomp)]
    return d, classes
