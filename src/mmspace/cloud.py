"""Point clouds in Euclidean ambient space."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import InvalidArgumentError


@dataclass
class PointCloud:
    """n points in R^D plus a user-declared intrinsic dimension.

    The intrinsic dimension is what scaling laws use; it is the caller's
    claim about the data, never inferred.  Defaults to the ambient dimension.
    """

    points: np.ndarray
    intrinsic_dim: int = 0

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise InvalidArgumentError("points must be a nonempty (n, D) array")
        if not np.all(np.isfinite(pts)):
            raise InvalidArgumentError("points must be finite")
        self.points = pts
        if self.intrinsic_dim == 0:
            self.intrinsic_dim = pts.shape[1]
        if not 1 <= self.intrinsic_dim <= pts.shape[1]:
            raise InvalidArgumentError(
                "intrinsic_dim must lie in [1, ambient dimension], got "
                f"{self.intrinsic_dim} with D={pts.shape[1]}"
            )

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.points.shape[1]


def euclidean_matrix(cloud: PointCloud | np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distance matrix of a cloud.

    cdist squares each coordinate gap, so a distance past about 1.3e154
    reads inf although it is a finite float.  Only then is the matrix
    recomputed by folding the coordinate gaps together with np.hypot, which
    scales each pair, so no entry overflows unless a gap or the distance
    itself does, and no small one underflows.  Other inputs keep cdist's
    bits.
    """
    pts = cloud.points if isinstance(cloud, PointCloud) else np.asarray(cloud, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    d = cdist(pts, pts)
    if not np.all(np.isfinite(d)):
        with np.errstate(over="ignore"):
            d = np.abs(np.subtract.outer(pts[:, 0], pts[:, 0]))
            for k in range(1, pts.shape[1]):
                np.hypot(d, np.subtract.outer(pts[:, k], pts[:, k]), out=d)
    np.fill_diagonal(d, 0.0)
    return d
