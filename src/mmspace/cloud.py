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
        from .space import _check_count  # at call time: space imports this module

        self.points = pts = _as_points(self.points, "points")
        # 0, the default, stands for the ambient dimension
        self.intrinsic_dim = _check_count(self.intrinsic_dim or pts.shape[1], "intrinsic_dim", 1, pts.shape[1])

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


def _euclidean(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The one Euclidean kernel: distances from the points a to the points b.

    cdist squares each coordinate gap, so a distance past about 1.3e154
    reads inf, and one below about 1.5e-154 loses bits or reads 0, although
    each is a finite float.  Only then are entries refolded from the gaps by
    np.hypot, which scales each pair, so none overflows unless a gap or the
    distance does, and none underflows: the whole matrix after an overflow,
    the entries below _TINY otherwise (exact duplicates stay 0; when a is b,
    the diagonal is skipped).  Other entries keep cdist's bits.  The fold
    runs in place, in row blocks of about _FOLD_ENTRIES entries, so it holds
    a few MB beside the matrix however many entries it recomputes.
    """
    d = cdist(a, b)
    overflow = d.max() == np.inf
    step = max(1, _FOLD_ENTRIES // b.shape[0])
    for lo in range(0, a.shape[0], step):
        block = d[lo : lo + step]
        if not overflow:
            redo = block < _TINY
            if a is b:
                np.fill_diagonal(redo[:, lo:], False)
            if not redo.any():
                continue
        with np.errstate(over="ignore"):
            fold = np.abs(np.subtract.outer(a[lo : lo + step, 0], b[:, 0]))
            for k in range(1, a.shape[1]):
                np.hypot(fold, np.subtract.outer(a[lo : lo + step, k], b[:, k]), out=fold)
        np.copyto(block, fold, where=True if overflow else redo)
    return d


def euclidean_matrix(cloud: PointCloud | np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distance matrix of a cloud, by _euclidean, diagonal 0."""
    pts = cloud.points if isinstance(cloud, PointCloud) else _as_points(cloud, "cloud")
    d = _euclidean(pts, pts)
    np.fill_diagonal(d, 0.0)
    return d
