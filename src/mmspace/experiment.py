"""Experiment harness: generate, learn a metric, cluster, measure convergence.

A config names a generator, a metric method, k-means settings, sample sizes,
and a trial count.  Each (size, trial) cell draws its own cloud from a stream
keyed by (master seed, trial, size), so results are reproducible cell by cell
and independent of execution order.  On Linux the trials run in forked worker
processes (_fork.fork_join), at most MM_THREADS of them, so the graph core
(which holds the interpreter lock) runs in parallel; elsewhere they run
serially.  Each trial is a pure function of (config, trial) and pickling
keeps float bits, so the rows, assembled in sorted order, and the files
written from them are byte-identical either way.

Deviations are Euclidean set distances between coordinate arrays of centers
and Voronoi cells, measured against a reference family: the largest size's
solution within the same trial ("self"), or explicit coordinates when the
population solution is known in closed form, whose cells are the non-strict
nearest-center cells of that size's cloud.  A reference whose dimension
differs from the cloud's is rejected.  Self-reference deviations are
convergence diagnostics, never ground truth.
"""
from __future__ import annotations

import configparser
import csv
import hashlib
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from ._fork import fork_join
from .cloud import PointCloud, _as_points
from .errors import InvalidArgumentError, MmError
from .io import _decoding, dump_json, read_cloud_csv
from .samplers import GENERATORS, _generator_params, _parse_rows, covering_radius, derived_seed, sample, true_distance_matrix
from .space import (
    FiniteMetricMeasureSpace, _check_count, _check_p, _k_means, _k_means_check, _pairwise, one_sided_center_deviation,
)
from .voronoi import _cell_mask, cluster_deviation, voronoi_cells
from .wasserstein import _METRIC_PARAMS, GROUND_METHODS, build_ground_metric

CSV_COLUMNS = [
    "n",
    "trial",
    "status",
    "objective",
    "n_minimizers",
    "centers",
    "center_deviation",
    "cluster_deviation",
    "metric_defect",
    "covering_radius",
    "error",
]

# (method, generator) pairs whose learned matrix targets a closed-form metric
# with no unknown scale factor; only these get a metric defect recorded.
_DEFECT_PAIRS = {
    ("euclid", "interval"),
    ("euclid", "gaussian"),
    ("euclid", "mixture"),
    ("isomap", "circle"),
    ("isomap", "torus"),
    ("isomap", "interval"),
}

_COVERING_GENERATORS = ("interval", "circle", "torus")


@dataclass
class ExperimentConfig:
    generator: str = "interval"
    generator_params: dict = field(default_factory=dict)
    method: str = "euclid"
    method_params: dict = field(default_factory=dict)
    k: int = 1
    p: float = 2.0
    solver: str = "exact"
    restarts: int = 10
    sizes: list = field(default_factory=lambda: [100])
    trials: int = 1
    seed: int = 0
    reference: str = "self"
    reference_centers: np.ndarray | None = None

    def __post_init__(self):
        if self.generator not in GENERATORS + ("file",):
            raise InvalidArgumentError(f"unknown generator {self.generator!r}; expected one of {GENERATORS + ('file',)}")
        if self.method not in GROUND_METHODS:
            raise InvalidArgumentError(f"unknown ground method {self.method!r}; expected one of {GROUND_METHODS}")
        # the counts are stored as the ints they check to, so an integral float
        # runs, and digests, as its int
        self.sizes = [_check_count(s, "sizes") for s in self.sizes]
        if not self.sizes:
            raise InvalidArgumentError("sizes must be nonempty")
        if sorted(set(self.sizes)) != self.sizes:
            raise InvalidArgumentError("sizes must be strictly ascending")
        self.trials = _check_count(self.trials, "trials")
        self.k = _check_count(self.k, "k")
        _check_p(self.p)
        self.restarts = _check_count(self.restarts, "restarts")
        _k_means_check(self.solver)
        if (self.reference, self.reference_centers is None) not in (("self", True), ("explicit", False)):
            given = "without" if self.reference_centers is None else "with"
            raise InvalidArgumentError(
                "reference must be 'self' without reference_centers or 'explicit' with them, "
                f"got {self.reference!r} {given} reference_centers"
            )
        if self.reference_centers is not None:
            self.reference_centers = _as_points(self.reference_centers, "reference_centers")
        if self.generator == "file":
            path = self.generator_params.get("path")
            if not path or not Path(path).exists():
                raise InvalidArgumentError(f"file generator needs an existing path, got {path!r}")

    def to_dict(self) -> dict:
        """Every field that is set, as JSON values; reference_centers only when given."""
        values = ((f.name, getattr(self, f.name)) for f in fields(self))
        return {name: _jsonable(v) for name, v in values if v is not None}

    def digest(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()


def _jsonable(v):
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (np.floating, np.integer, np.ndarray)):
        return v.tolist()
    return v


# config keys read as ExperimentConfig fields: key -> (section, parser)
_CONFIG_KEYS = {
    "generator": ("data", str),
    "method": ("metric", str),
    "k": ("kmeans", int),
    "p": ("kmeans", float),
    "solver": ("kmeans", str),
    "restarts": ("kmeans", int),
    "sizes": ("run", lambda text: [int(v) for v in text.split()]),
    "trials": ("run", int),
    "seed": ("run", int),
}


def load_config(path) -> ExperimentConfig:
    """Read a config from sectioned key-value text (INI)."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    with _decoding(path):
        read = parser.read(path)
    if not read:
        raise InvalidArgumentError(f"cannot read config {path!r}")
    sections = {name: parser[name] if parser.has_section(name) else {} for name in ("data", "metric", "kmeans", "run")}
    data, metric, run = sections["data"], sections["metric"], sections["run"]

    try:
        # a key the file leaves out takes ExperimentConfig's default
        kwargs = {
            key: parse(sections[section][key])
            for key, (section, parse) in _CONFIG_KEYS.items()
            if key in sections[section]
        }
        kwargs["generator_params"] = _generator_params(data)
        if "path" in data:
            kwargs["generator_params"]["path"] = data["path"]
        kwargs["method_params"] = {key: kind(metric[key]) for key, kind in _METRIC_PARAMS.items() if key in metric}
        reference = run.get("reference", "self").strip()
        if reference != "self":
            kwargs.update(reference="explicit", reference_centers=_parse_rows(reference))
        return ExperimentConfig(**kwargs)
    except ValueError as exc:
        raise InvalidArgumentError(f"bad config value: {exc}")


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    rows: list
    summary: dict


def _trial_cloud(config: ExperimentConfig, n: int, trial: int) -> PointCloud:
    if config.generator == "file":
        cloud = read_cloud_csv(config.generator_params["path"])
        if n > cloud.n:
            raise InvalidArgumentError(f"file has {cloud.n} rows, requested n={n}")
        return PointCloud(cloud.points[:n], cloud.intrinsic_dim)
    seed = derived_seed(config.seed, "trial", trial, "n", n)
    return sample(config.generator, n, seed, **config.generator_params)


def _run_trial(config: ExperimentConfig, trial: int):
    cells = {}
    for n in config.sizes:
        row = {
            "n": n,
            "trial": trial,
            "status": "ok",
            "objective": math.nan,
            "n_minimizers": 0,
            "centers": "",
            "center_deviation": math.nan,
            "cluster_deviation": math.nan,
            "metric_defect": math.nan,
            "covering_radius": math.nan,
            "error": "",
        }
        try:
            cloud = _trial_cloud(config, n, trial)
            # the space keeps an exact copy of the learned matrix, the only
            # one held from here on
            space = FiniteMetricMeasureSpace.uniform(
                [str(i) for i in range(n)], build_ground_metric(cloud, config.method, config.method_params)
            )
            sol = _k_means(
                space, config.solver, config.k, config.p,
                restarts=config.restarts, seed=derived_seed(config.seed, "pam", trial),
            )
            center_sets = [cloud.points[list(m.indices)] for m in sol.minimizers]
            cell_sets = [
                cloud.points[members]
                for m in sol.minimizers
                for members in voronoi_cells(space, m).cells.values()
            ]
            row["objective"] = sol.objective
            row["n_minimizers"] = len(sol.minimizers)
            row["centers"] = "|".join(
                " ".join(repr(float(v)) for v in pt) for pt in center_sets[0]
            )
            if (config.method, config.generator) in _DEFECT_PAIRS:
                defect = true_distance_matrix(config.generator, cloud)
                np.abs(np.subtract(space.dist, defect, out=defect), out=defect)
                row["metric_defect"] = float(defect.max())
            if config.generator in _COVERING_GENERATORS:
                row["covering_radius"] = covering_radius(config.generator, cloud)
            cells[n] = (row, cloud, center_sets, cell_sets)
        except MmError as exc:
            row["status"] = "error"
            row["error"] = f"{type(exc).__name__}: {exc}"
            cells[n] = (row, None, None, None)

    # reference family: explicit centers with their cells in the largest size
    # that succeeded, or that size's own solution
    largest_ok = next((n for n in reversed(config.sizes) if cells[n][1] is not None), None)
    if largest_ok is None:
        return [cells[n][0] for n in config.sizes]
    _, cloud, ref_centers, ref_cells = cells[largest_ok]
    if config.reference == "explicit":
        ref_centers = [config.reference_centers]
        mask = _cell_mask(_pairwise(cloud.points, config.reference_centers, "points", "reference_centers"))
        ref_cells = [cloud.points[col] for col in mask.T]
        for j, (center, cell) in enumerate(zip(config.reference_centers, ref_cells)):
            if len(cell) == 0:
                coords = " ".join(repr(float(v)) for v in center)
                raise InvalidArgumentError(
                    f"reference center {j} ({coords}) is nearest to no point of "
                    f"the n={largest_ok} cloud in trial {trial}"
                )

    rows = []
    for n in config.sizes:
        row, _, center_sets, cell_sets = cells[n]
        if row["status"] == "ok":
            row["center_deviation"] = one_sided_center_deviation(center_sets, ref_centers)
            row["cluster_deviation"] = cluster_deviation(cell_sets, ref_cells)
        rows.append(row)
    return rows


def run_experiment(config: ExperimentConfig, out_dir=None) -> ExperimentResult:
    """Run all (size, trial) cells, optionally writing results.csv + summary.json.

    The trials are split into contiguous ranges, one per _fork.fork_join
    worker: on Linux, min(worker_count(), trials) workers, all but this
    process forked for this call and reaped before it returns or raises;
    elsewhere, with one worker, or when the caller runs other Python threads
    (which a fork would copy mid-operation), serially in this process.
    Per-cell errors are recorded in their row and the run continues; the
    summary counts them.  An error that escapes a trial reaches the caller
    with its type and message, that of the lowest trial that raised, as in a
    serial run.  Output is byte-deterministic for a fixed config, whatever
    MM_THREADS and the platform.
    """

    def share(j, workers):
        trials = range(j * config.trials // workers, (j + 1) * config.trials // workers)
        return [row for trial in trials for row in _run_trial(config, trial)]

    # a trial is a whole pipeline, well past the cost of a fork
    rows = [row for part in fork_join(share, config.trials, True) for row in part]
    rows.sort(key=lambda r: (r["n"], r["trial"]))
    for row in rows:
        if set(row) != set(CSV_COLUMNS):
            raise MmError(f"row schema drift: {sorted(row)}")

    failed = sum(1 for r in rows if r["status"] != "ok")
    summary = {
        "config_sha256": config.digest(),
        "rows": len(rows),
        "failed": failed,
        "per_n": {},
    }
    for n in config.sizes:
        ok = [r for r in rows if r["n"] == n and r["status"] == "ok"]
        entry = {"ok": len(ok), "failed": sum(1 for r in rows if r["n"] == n) - len(ok)}
        for col in ("objective", "center_deviation", "cluster_deviation", "metric_defect", "covering_radius"):
            vals = [r[col] for r in ok if not math.isnan(r[col])]
            if vals:
                entry[f"median_{col}"] = float(np.median(vals))
        summary["per_n"][str(n)] = entry

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "results.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
            writer.writeheader()
            for row in rows:
                formatted = dict(row)
                for col in ("objective", "center_deviation", "cluster_deviation", "metric_defect", "covering_radius"):
                    formatted[col] = "" if math.isnan(row[col]) else repr(float(row[col]))
                writer.writerow(formatted)
        dump_json(out / "summary.json", summary)
    return ExperimentResult(config=config, rows=rows, summary=summary)
