"""Point clouds in Euclidean ambient space."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import InvalidArgumentError


def _floats(values) -> np.ndarray:
    """values as a float64 array; ragged or non-numeric input reads as an empty one, which every shape rule refuses."""
    try:
        return np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError):
        return np.empty(0)


def _as_points(points, name: str) -> np.ndarray:
    """The one point-set rule: a finite float64 (n, D) array with n, D >= 1.

    A 1-D input is n points on a line.  Anything else, a ragged list
    included, raises InvalidArgumentError naming the argument.
    """
    pts = _floats(points)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or 0 in pts.shape:
        raise InvalidArgumentError(f"{name} must be a nonempty (n, D) array")
    if not np.all(np.isfinite(pts)):
        raise InvalidArgumentError(f"{name} must be finite")
    return pts


@dataclass
class PointCloud:
    """n points in R^D plus a user-declared intrinsic dimension.

    The intrinsic dimension is what scaling laws use; it is the caller's
    claim about the data, never inferred.  Defaults to the ambient dimension.
    """

    points: np.ndarray
    intrinsic_dim: int = 0

    def __post_init__(self):
        self.points = pts = _as_points(self.points, "points")
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


# Below this a cdist entry may have lost bits to squares in the subnormal
# range; at or above it the largest squared gap, at least _TINY**2 / D, is a
# normal float, and any term that underflowed moved the sum by under one ulp.
_TINY = 2.0**-500
# Entries per row block of the np.hypot fold, which bounds its temporaries.
_FOLD_ENTRIES = 1 << 18


def euclidean_matrix(cloud: PointCloud | np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distance matrix of a cloud.

    cdist squares each coordinate gap, so a distance past about 1.3e154
    reads inf, and one below about 1.5e-154 loses bits or reads 0, although
    each is a finite float.  Only then are those entries recomputed by
    folding the coordinate gaps together with np.hypot, which scales each
    pair, so no entry overflows unless a gap or the distance itself does,
    and no small one underflows: the whole matrix after an overflow, the
    off-diagonal entries below _TINY otherwise (exact duplicates among
    them, which stay 0).  Other entries keep cdist's bits.  The fold runs
    in place, in row blocks of about _FOLD_ENTRIES entries, so it holds a
    few MB beside the matrix however many entries it recomputes.
    """
    pts = cloud.points if isinstance(cloud, PointCloud) else _as_points(cloud, "cloud")
    d = cdist(pts, pts)
    overflow = not np.all(np.isfinite(d))
    n = pts.shape[0]
    step = max(1, _FOLD_ENTRIES // max(n, 1))
    with np.errstate(over="ignore"):
        for lo in range(0, n, step):
            block = d[lo : lo + step]
            if not overflow:
                redo = block < _TINY
                np.fill_diagonal(redo[:, lo:], False)
                if not redo.any():
                    continue
            fold = np.abs(np.subtract.outer(pts[lo : lo + step, 0], pts[:, 0]))
            for k in range(1, pts.shape[1]):
                np.hypot(fold, np.subtract.outer(pts[lo : lo + step, k], pts[:, k]), out=fold)
            np.copyto(block, fold, where=True if overflow else redo)
    np.fill_diagonal(d, 0.0)
    return d
