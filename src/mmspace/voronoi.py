"""Voronoi cells, enlarged cells, and cluster deviation on finite spaces.

Cells use the non-strict rule: a point belongs to the cell of every nearest
center, so cells overlap exactly at ties and always cover the space.  The
enlarged cell W(delta) keeps every point within delta of winning, which is
the object stability statements about perturbed centers are phrased in.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .space import CenterSet, FiniteMetricMeasureSpace, _center_indices, _pairwise


@dataclass
class VoronoiPartition:
    """Per-center point index lists; cells may overlap at ties."""

    centers: CenterSet
    cells: dict

    def cell(self, center: int) -> list:
        return self.cells[center]


def _cell_mask(sub: np.ndarray, delta: float = 0.0) -> np.ndarray:
    """The one cell rule on sub, point-to-center distances (points by
    centers): mask[i, j] when sub[i, j] <= min(sub[i]) + delta.  fl(s + delta)
    is monotone in s, so that is sub[i, j] <= sub[i, l] + delta for every l;
    delta = 0 gives the non-strict nearest-center cells."""
    return sub <= sub.min(axis=1, keepdims=True) + delta


def voronoi_cells(space: FiniteMetricMeasureSpace, centers) -> VoronoiPartition:
    """Assign every point to the cell of each of its nearest centers."""
    idx = _center_indices(space, centers)
    mask = _cell_mask(space.dist[:, idx])
    cells = {int(c): np.flatnonzero(mask[:, j]).tolist() for j, c in enumerate(idx)}
    return VoronoiPartition(centers=CenterSet.of(idx), cells=cells)


def _position(idx: np.ndarray, center) -> int:
    """The column of center among the sorted center indices idx."""
    center, idx = int(center), idx.tolist()
    if center not in idx:
        raise InvalidArgumentError(f"center {center} is not in the center set")
    return idx.index(center)


def enlarged_cell(space: FiniteMetricMeasureSpace, centers, center: int, delta: float) -> list:
    """Points within delta of preferring ``center`` over every other center.

    delta = 0 recovers the ordinary (non-strict) cell.  Monotone in delta and
    equal to the whole space once delta reaches the diameter.
    """
    if not delta >= 0:
        raise InvalidArgumentError("delta must be >= 0")
    idx = _center_indices(space, centers)
    j = _position(idx, center)
    return np.flatnonzero(_cell_mask(space.dist[:, idx], delta)[:, j]).tolist()


def enlargement_threshold(space: FiniteMetricMeasureSpace, centers, center: int) -> float:
    """Largest delta below which the enlarged cell still equals the cell.

    For each point x outside the cell of ``center``, x enters W(delta) once
    delta >= max over other centers of d(x, center) - d(x, other).  The
    threshold is the smallest positive such gap; infinity when the cell is
    already the whole space.
    """
    idx = _center_indices(space, centers)
    sub = space.dist[:, idx]
    gaps = (sub[:, [_position(idx, center)]] - sub).max(axis=1)
    positive = gaps[gaps > 0]
    return float(positive.min()) if positive.size else float("inf")


def cluster_deviation(cells_n, cells_lim) -> float:
    """Worst one-sided Euclidean deviation of empirical cells from limit cells.

    Each cell is a coordinate array of its points.  The deviation is max over
    empirical cells V of min over limit cells W of max over v in V of the
    distance from v to W.
    """
    vn = list(cells_n)
    vl = list(cells_lim)
    if not vn or not vl:
        raise InvalidArgumentError("cluster_deviation needs nonempty cell families")
    return max(
        min(float(_pairwise(v_cell, w_cell, "cells_n", "cells_lim").min(axis=1).max()) for w_cell in vl)
        for v_cell in vn
    )
