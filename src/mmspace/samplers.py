"""Synthetic point-cloud generators with deterministic, tagged RNG streams.

Every stream is a pure function of (seed, tag...), so a generator draws the
same points no matter what else ran before it, and mixture component picks
do not perturb the normal draws (a one-component mixture at center 0, scale 1
is bitwise the gaussian generator).
"""
from __future__ import annotations

import hashlib
import math

import numpy as np

from .cloud import PointCloud, _as_points, euclidean_matrix
from .errors import InvalidArgumentError

GENERATORS = ("interval", "circle", "torus", "gaussian", "mixture")


def _tag_int(tag) -> int:
    digest = hashlib.blake2b(str(tag).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def stream(seed: int, *tags) -> np.random.Generator:
    """Deterministic generator for (seed, tags); independent across tags."""
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF] + [_tag_int(t) for t in tags]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def derived_seed(seed: int, *tags) -> int:
    """Collapse (seed, tags) into a single integer seed for APIs that take one."""
    payload = ",".join([str(int(seed))] + [str(t) for t in tags])
    digest = hashlib.blake2b(payload.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def sample(generator: str, n: int, seed: int, **params) -> PointCloud:
    """Draw n points from a named distribution.

    interval: uniform on [0, 1], one-dimensional.
    circle:   uniform on the unit circle, embedded in R^2.
    torus:    uniform on the flat torus, embedded in R^4 as a product of
              two unit circles.
    gaussian: standard isotropic normal in ``dim`` dimensions (default 1).
    mixture:  equal-weight isotropic Gaussian mixture with given ``centers``
              (list of points) and ``scales`` (scalar or per-component).
    """
    if n < 1:
        raise InvalidArgumentError("n must be >= 1")
    if generator == "interval":
        x = stream(seed, "interval").random(n)
        return PointCloud(x, 1)
    if generator == "circle":
        theta = stream(seed, "circle").random(n) * 2.0 * math.pi
        return PointCloud(np.stack([np.cos(theta), np.sin(theta)], axis=1), 1)
    if generator == "torus":
        rng = stream(seed, "torus")
        theta = rng.random(n) * 2.0 * math.pi
        phi = rng.random(n) * 2.0 * math.pi
        pts = np.stack([np.cos(theta), np.sin(theta), np.cos(phi), np.sin(phi)], axis=1)
        return PointCloud(pts, 2)
    if generator == "gaussian":
        dim = int(params.get("dim", 1))
        if dim < 1:
            raise InvalidArgumentError("dim must be >= 1")
        z = stream(seed, "normal").standard_normal((n, dim))
        return PointCloud(z, dim)
    if generator == "mixture":
        centers = _as_points(params.get("centers"), "mixture centers")
        m, dim = centers.shape
        scales = np.asarray(params.get("scales", 1.0), dtype=np.float64)
        if scales.ndim == 0:
            scales = np.full(m, float(scales))
        if scales.shape != (m,) or scales.min() <= 0:
            raise InvalidArgumentError("scales must be positive, one per component")
        comp = stream(seed, "component").integers(0, m, size=n)
        z = stream(seed, "normal").standard_normal((n, dim))
        pts = centers[comp] + scales[comp][:, None] * z
        return PointCloud(pts, dim)
    raise InvalidArgumentError(
        f"unknown generator {generator!r}; expected one of {GENERATORS}"
    )


def _parse_rows(text: str) -> list:
    """Points written as 'x y; x y' rows, as lists; cloud._as_points checks the shape."""
    return [[float(v) for v in r.split()] for r in text.split(";") if r.strip()]


def _generator_params(fields) -> dict:
    """sample()'s dim, centers (_parse_rows) and space separated scales, from
    the text fields given (not None); a bad value raises InvalidArgumentError."""
    parsers = {"dim": int, "centers": lambda text: _as_points(_parse_rows(text), "mixture centers"),
               "scales": lambda text: np.asarray([float(v) for v in text.split()])}
    params = {}
    for key, parse in parsers.items():
        if fields.get(key) is not None:
            try:
                params[key] = parse(fields[key])
            except ValueError as exc:
                raise InvalidArgumentError(f"bad {key} {fields[key]!r}: {exc}") from None
    return params


# ----------------------------------------------------------------------------
# closed-form reference geometry per generator
# ----------------------------------------------------------------------------


def _torus_angles(points: np.ndarray) -> np.ndarray:
    return np.stack(
        [np.arctan2(points[:, 1], points[:, 0]), np.arctan2(points[:, 3], points[:, 2])],
        axis=1,
    )


def _circle_angles(points, name: str = "points") -> np.ndarray:
    """Angles of points on the unit circle, from angles or (n, 2) coordinates.

    points pass the point-set rule (cloud._as_points) under name; a 1-D
    input is read as angles.  Raw angles are reduced mod 2 pi; coordinates
    give their arctan2, in [-pi, pi].  Either range keeps every pairwise
    difference within 2 pi.
    """
    pts = _as_points(points, name)
    if np.ndim(points) == 1:
        return np.mod(pts[:, 0], 2.0 * math.pi)
    if pts.shape[1] == 2:
        return np.arctan2(pts[:, 1], pts[:, 0])
    raise InvalidArgumentError("circle points must be angles or (n, 2) coordinates")


def _circle_covering_radius(angles: np.ndarray) -> float:
    """Covering radius of points on the circle: half the largest angular gap."""
    s = np.sort(np.mod(angles, 2.0 * math.pi))
    gaps = np.diff(s, append=s[0] + 2.0 * math.pi)
    return float(gaps.max() / 2.0)


def circle_arc_metric(points) -> np.ndarray:
    """Geodesic arc distances between points on the unit circle.

    Accepts angles or (n, 2) coordinates, like the circle branch of
    epsilon_net_graph.
    """
    return _arc_gaps(_circle_angles(points))


def _arc_gaps(theta: np.ndarray, other: np.ndarray | None = None) -> np.ndarray:
    """|a - b| folded to the shorter way round, for a in theta and b in
    other (default theta), as one array built in place.

    The fold is exact for angles within 2 pi of each other; a gap between
    2 pi and 3 pi folds to minus its arc, which a square does not see.
    """
    # fl(a - b) = -fl(b - a) and a - a = 0, so d(theta, theta) is symmetric
    # with a zero diagonal as computed
    d = np.subtract.outer(theta, theta if other is None else other)
    np.abs(d, out=d)
    return np.minimum(d, 2.0 * math.pi - d, out=d)


def true_distance_matrix(generator: str, cloud: PointCloud) -> np.ndarray:
    """Closed-form geodesic distances between sample points, where known.

    interval, gaussian, mixture live in convex Euclidean space, so geodesics
    are straight lines; circle and torus use arc length on the embedded
    angles.
    """
    pts = cloud.points
    if generator in ("interval", "gaussian", "mixture"):
        return euclidean_matrix(cloud)
    if generator == "circle":
        return circle_arc_metric(pts)
    if generator == "torus":
        # each folded gap is symmetric with a zero diagonal, so the sum of
        # squares and its root are too
        ang = _torus_angles(pts)
        d = _arc_gaps(ang[:, 0])
        np.multiply(d, d, out=d)
        d2 = _arc_gaps(ang[:, 1])
        np.multiply(d2, d2, out=d2)
        np.add(d, d2, out=d)
        return np.sqrt(d, out=d)
    raise InvalidArgumentError(f"no closed-form geometry for generator {generator!r}")


def covering_radius(generator: str, cloud: PointCloud, grid_size: int = 2048) -> float:
    """Covering radius of the sample inside its generator's space.

    Exact for the circle (half the largest angular gap); grid-approximated
    for the interval and torus.  Undefined for unbounded generators.
    """
    pts = cloud.points
    if generator == "interval":
        grid = np.linspace(0.0, 1.0, grid_size)
        return float(np.abs(grid[:, None] - pts[:, 0][None, :]).min(axis=1).max())
    if generator == "circle":
        return _circle_covering_radius(_circle_angles(pts))
    if generator == "torus":
        ang = _torus_angles(pts)
        side = int(math.sqrt(grid_size))
        g = np.linspace(0.0, 2.0 * math.pi, side, endpoint=False)
        gt, gp = np.meshgrid(g, g, indexing="ij")
        grid = np.stack([gt.ravel(), gp.ravel()], axis=1)
        d1 = _arc_gaps(grid[:, 0], ang[:, 0])
        d2 = _arc_gaps(grid[:, 1], ang[:, 1])
        return float(np.sqrt(d1 * d1 + d2 * d2).min(axis=1).max())
    raise InvalidArgumentError(f"no covering radius for generator {generator!r}")


def isometry_defect(d_n: np.ndarray, d_true: np.ndarray, covering_eval=None):
    """(sup entrywise metric defect, covering radius).

    covering_eval may be a float or a zero-argument callable; None leaves the
    covering radius unreported.
    """
    a = np.asarray(d_n, dtype=np.float64)
    b = np.asarray(d_true, dtype=np.float64)
    if a.shape != b.shape:
        raise InvalidArgumentError("matrices must share a shape")
    defect = float(np.abs(a - b).max()) if a.size else 0.0
    if covering_eval is None:
        radius = None
    elif callable(covering_eval):
        radius = float(covering_eval())
    else:
        radius = float(covering_eval)
    return defect, radius
