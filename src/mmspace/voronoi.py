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


def voronoi_cells(space: FiniteMetricMeasureSpace, centers) -> VoronoiPartition:
    """Assign every point to the cell of each of its nearest centers."""
    idx = _center_indices(space, centers)
    sub = space.dist[:, idx]
    dmin = sub.min(axis=1)
    cells = {}
    for j, c in enumerate(idx):
        members = np.flatnonzero(sub[:, j] <= dmin)
        cells[int(c)] = [int(i) for i in members]
    return VoronoiPartition(centers=CenterSet.of(idx), cells=cells)


def enlarged_cell(space: FiniteMetricMeasureSpace, centers, center: int, delta: float) -> list:
    """Points within delta of preferring ``center`` over every other center.

    delta = 0 recovers the ordinary (non-strict) cell.  Monotone in delta and
    equal to the whole space once delta reaches the diameter.
    """
    if delta < 0:
        raise InvalidArgumentError("delta must be >= 0")
    idx = _center_indices(space, centers)
    center = int(center)
    if center not in set(int(i) for i in idx):
        raise InvalidArgumentError(f"center {center} is not in the center set")
    col = space.dist[:, center]
    sub = space.dist[:, idx]
    mask = np.all(col[:, None] <= sub + delta, axis=1)
    return [int(i) for i in np.flatnonzero(mask)]


def enlargement_threshold(space: FiniteMetricMeasureSpace, centers, center: int) -> float:
    """Largest delta below which the enlarged cell still equals the cell.

    For each point x outside the cell of ``center``, x enters W(delta) once
    delta >= max over other centers of d(x, center) - d(x, other).  The
    threshold is the smallest positive such gap; infinity when the cell is
    already the whole space.
    """
    idx = _center_indices(space, centers)
    center = int(center)
    if center not in set(int(i) for i in idx):
        raise InvalidArgumentError(f"center {center} is not in the center set")
    col = space.dist[:, center]
    sub = space.dist[:, idx]
    gaps = (col[:, None] - sub).max(axis=1)
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
        min(float(_pairwise(v_cell, w_cell).min(axis=1).max()) for w_cell in vl)
        for v_cell in vn
    )
