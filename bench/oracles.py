"""Output oracles for the benchmark, written against the file formats only.

Nothing here imports mmspace: every check reads the files a command wrote
(or the inputs the benchmark generated) with plain numpy and recomputes the
expected answer by an independent route, a closed form or a brute force.
A failed check raises OracleFailure; the caller counts the op as failed.
"""
from __future__ import annotations

import csv
import json
import math
import struct

import numpy as np


class OracleFailure(Exception):
    """An output disagrees with its oracle."""


def check(cond, message: str) -> None:
    if not cond:
        raise OracleFailure(message)


# ----------------------------------------------------------------------------
# readers (independent of mmspace.io)
# ----------------------------------------------------------------------------


def read_cloud(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


def read_matrix_csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def read_matrix_bin(path) -> np.ndarray:
    with open(path, "rb") as fh:
        raw = fh.read()
    check(raw[:4] == b"MMSP", f"{path}: bad magic {raw[:4]!r}")
    (n,) = struct.unpack("<Q", raw[4:12])
    check(len(raw) == 12 + 8 * n * n, f"{path}: payload is not {n}x{n} float64")
    return np.frombuffer(raw, dtype="<f8", offset=12).reshape(n, n)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_results_csv(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ----------------------------------------------------------------------------
# closed forms and brute forces
# ----------------------------------------------------------------------------


def subset_cost(d: np.ndarray, subset, p: float) -> float:
    """Uniform-weight clustering cost of a center subset on matrix d."""
    idx = np.asarray(list(subset), dtype=np.intp)
    return float(np.mean(d[:, idx].min(axis=1) ** p))


def brute_k_at_most_2(d: np.ndarray, p: float) -> float:
    """Best cost over every center set of size 1 or 2, uniform weights."""
    dp = d**p
    n = d.shape[0]
    best = float(dp.mean(axis=0).min())
    for i in range(n - 1):
        costs = np.minimum(dp[:, i : i + 1], dp[:, i + 1 :]).mean(axis=0)
        best = min(best, float(costs.min()))
    return best


def line_kmedoids_p2(coord: np.ndarray, k: int) -> float:
    """Exact uniform-weight k-medoids cost (p = 2) for points on a line.

    Nearest-medoid cells on a line are intervals that contain their medoid,
    so the optimum is a dynamic program over k contiguous intervals.  For one
    interval the best medoid is a sample next to the interval mean.
    """
    c = np.sort(np.asarray(coord, dtype=np.float64))
    n = c.size
    s1 = np.concatenate([[0.0], np.cumsum(c)])
    s2 = np.concatenate([[0.0], np.cumsum(c * c)])
    a, b = np.triu_indices(n)  # interval [a, b]
    length = (b - a + 1).astype(np.float64)
    sum1 = s1[b + 1] - s1[a]
    sum2 = s2[b + 1] - s2[a]
    pos = np.searchsorted(c, sum1 / length)
    cost = np.full(a.size, np.inf)
    for m in (np.clip(pos - 1, a, b), np.clip(pos, a, b)):
        cm = c[m]
        cost = np.minimum(cost, np.maximum(sum2 - 2.0 * cm * sum1 + length * cm * cm, 0.0))
    table = np.full((n, n), np.inf)
    table[a, b] = cost
    best = table[0].copy()  # one interval covering [0, b]
    for _ in range(1, k):
        # best over [0, a-1] with j-1 intervals, then [a, b]
        prev = np.concatenate([[np.inf], best[:-1]])
        best = (prev[:, None] + table).min(axis=0)
    return float(best[-1] / n)


def w2_line_uniform(xs: np.ndarray, ys: np.ndarray) -> float:
    """W_2 between uniform empirical measures on the line (quantile coupling).

    On the common refinement of the two quantile grids (lcm steps) both
    quantile functions are constant, so the integral is an exact mean.
    """
    xs = np.sort(np.asarray(xs, dtype=np.float64).ravel())
    ys = np.sort(np.asarray(ys, dtype=np.float64).ravel())
    steps = math.lcm(xs.size, ys.size)
    grid = np.arange(steps)
    return float(np.sqrt(np.mean((xs[grid * xs.size // steps] - ys[grid * ys.size // steps]) ** 2)))


# ----------------------------------------------------------------------------
# per-command oracles
# ----------------------------------------------------------------------------


def check_sample(x: np.ndarray, n: int) -> None:
    check(x.shape == (n, 1), f"sample shape {x.shape}, expected ({n}, 1)")
    check(np.all((x >= 0.0) & (x <= 1.0)), "interval sample leaves [0, 1]")


def check_line_metric(x: np.ndarray, d: np.ndarray, rtol: float = 1e-9) -> None:
    x = np.asarray(x, dtype=np.float64).ravel()
    ref = np.abs(np.subtract.outer(x, x))
    check(d.shape == ref.shape, f"matrix shape {d.shape}, expected {ref.shape}")
    err = float(np.abs(d - ref).max())
    scale = float(ref.max())
    check(
        err <= rtol * scale,
        f"distance matrix differs from |x - y|: max |err| {err:.3e} = {err / scale:.3e} of the diameter",
    )


def check_validate(doc: dict) -> None:
    check(doc.get("passes") is True, f"validate fails a shortest-path matrix: {doc}")


def check_minimizers(d: np.ndarray, doc: dict, p: float, tie_tol: float) -> None:
    obj = float(doc["objective"])
    check(doc["minimizers"], "no minimizer reported")
    for subset in doc["minimizers"]:
        cost = subset_cost(d, subset, p)
        check(
            abs(cost - obj) <= tie_tol * abs(obj),
            f"minimizer {subset} costs {cost!r} on the matrix read, objective {obj!r}",
        )


def check_exact_k2(d: np.ndarray, doc: dict, p: float, tie_tol: float) -> None:
    check_minimizers(d, doc, p, tie_tol)
    brute = brute_k_at_most_2(d, p)
    obj = float(doc["objective"])
    check(abs(brute - obj) <= tie_tol * abs(obj), f"exact objective {obj!r}, brute force {brute!r}")


def check_pam(d: np.ndarray, doc: dict, p: float, tie_tol: float, lower_bound: float) -> None:
    """PAM minimizers cost their objective, which cannot beat the exact optimum."""
    check_minimizers(d, doc, p, tie_tol)
    obj = float(doc["objective"])
    check(obj >= lower_bound * (1.0 - tie_tol), f"PAM objective {obj!r} below the exact optimum {lower_bound!r}")


def check_voronoi(d: np.ndarray, centers, delta: float, doc: dict) -> None:
    idx = np.asarray(sorted(centers), dtype=np.intp)
    sub = d[:, idx]
    dmin = sub.min(axis=1)
    check(doc["centers"] == [int(c) for c in idx], f"centers {doc['centers']} != {idx.tolist()}")
    for j, c in enumerate(idx):
        col = d[:, c]
        cell = np.flatnonzero(sub[:, j] <= dmin).tolist()
        check(doc["cells"][str(c)] == cell, f"cell of {c} differs")
        gaps = (col[:, None] - sub).max(axis=1)
        positive = gaps[gaps > 0]
        threshold = float(positive.min()) if positive.size else math.inf
        check(doc["thresholds"][str(c)] == threshold, f"threshold of {c}: {doc['thresholds'][str(c)]!r} != {threshold!r}")
        enlarged = np.flatnonzero(np.all(col[:, None] <= sub + delta, axis=1)).tolist()
        check(doc["enlarged"][str(c)] == enlarged, f"enlarged cell of {c} differs")


def check_diffusion(d: np.ndarray, spectrum: dict, n: int, k: int) -> None:
    vals = np.asarray(spectrum["eigenvalues"], dtype=np.float64)
    check(vals.shape == (k,), f"{vals.size} eigenvalues, expected {k}")
    check(np.all(np.diff(vals) >= 0.0), "eigenvalues not ascending")
    check(abs(vals[0]) <= 1e-8 and vals[-1] <= 1.0 + 1e-8, f"spectrum {vals[0]!r}..{vals[-1]!r} leaves [0, 1]")
    check(d.shape == (n, n), f"diffusion matrix shape {d.shape}")
    check(bool(np.all(np.isfinite(d))) and float(d.min()) >= 0.0, "diffusion matrix not finite and nonnegative")
    check(np.array_equal(d, d.T) and not np.any(np.diagonal(d)), "diffusion matrix not symmetric with zero diagonal")


def check_quantize(x: np.ndarray, doc: dict, p: float, rtol: float = 1e-9) -> None:
    centers = np.asarray(doc["centers"], dtype=np.float64)
    dist = np.sqrt(((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2))
    assign = np.argmin(dist, axis=1)
    obj = float(np.mean(dist.min(axis=1) ** p) ** (1.0 / p))
    check(abs(obj - float(doc["objective"])) <= rtol * obj, f"quantize objective {doc['objective']!r}, recomputed {obj!r}")
    masses = np.bincount(assign, minlength=centers.shape[0]) / x.shape[0]
    check(np.allclose(masses, doc["masses"], rtol=0.0, atol=1e-12), "quantize masses differ from the nearest-center shares")


def check_group_kmeans(groups, doc: dict, p: float, rtol: float) -> None:
    """k <= 2 group k-means against brute force on the closed-form W_2 matrix."""
    m = len(groups)
    w2 = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            w2[i, j] = w2[j, i] = w2_line_uniform(groups[i], groups[j])
    brute = brute_k_at_most_2(w2, p)
    obj = float(doc["objective"])
    check(abs(obj - brute) <= rtol * brute, f"group objective {obj!r}, closed-form brute force {brute!r}")
    for subset in doc["minimizers"]:
        cost = subset_cost(w2, subset, p)
        check(cost <= brute * (1.0 + rtol), f"group minimizer {subset} costs {cost!r} > optimum {brute!r}")


def check_experiment(rows: list, sizes, trials: int, angles_of) -> None:
    """Every row ok, zero self-deviation at the largest size, exact covering radius.

    angles_of(n, trial) returns the regenerated cloud's angles.
    """
    check(len(rows) == len(sizes) * trials, f"{len(rows)} rows, expected {len(sizes) * trials}")
    for row in rows:
        n, trial = int(row["n"]), int(row["trial"])
        check(row["status"] == "ok", f"row n={n} trial={trial}: {row['status']} {row['error']}")
        if n == max(sizes):
            check(
                float(row["center_deviation"]) == 0.0 and float(row["cluster_deviation"]) == 0.0,
                f"self-reference deviations at n={n} are not 0",
            )
        theta = np.sort(np.mod(angles_of(n, trial), 2.0 * math.pi))
        gaps = np.diff(np.concatenate([theta, [theta[0] + 2.0 * math.pi]]))
        radius = float(gaps.max()) / 2.0
        got = float(row["covering_radius"])
        check(abs(got - radius) <= 1e-12 * radius, f"covering radius {got!r}, half the largest gap {radius!r}")


def check_fpp_random(doc: dict, ts, ball_of) -> None:
    """ball_of(t) returns the passage-time ball B(t) as a set of lattice points."""
    check([e["t"] for e in doc["track"]] == list(ts), "track times differ")
    for entry in doc["track"]:
        t = entry["t"]
        ball = ball_of(t)
        check(entry["ball_size"] == len(ball), f"t={t}: ball_size {entry['ball_size']} != |B(t)| {len(ball)}")
        check(entry["tied"] == (len(entry["barycenters"]) > 1), f"t={t}: tied flag disagrees")
        for bary in entry["barycenters"]:
            scaled = np.asarray(bary) * t
            lattice = np.rint(scaled)
            check(
                float(np.abs(scaled - lattice).max()) <= 1e-9 and tuple(int(v) for v in lattice) in ball,
                f"t={t}: barycenter {bary} is not a lattice point of B(t)/t",
            )


def check_fpp_deterministic(doc: dict) -> None:
    for entry in doc["track"]:
        check(
            entry["barycenters"] == [[0.0] * doc["dim"]],
            f"t={entry['t']}: deterministic barycenter {entry['barycenters']} is not the origin",
        )
        check(entry["metric_defect"] <= 1e-12, f"t={entry['t']}: metric defect {entry['metric_defect']!r}")
