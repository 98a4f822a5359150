"""The three benchmark workloads: inputs from the seed, jobs of `mm` commands, oracles.

A job is a list of `mm` commands run back to back through ``Session.mm``;
each command is one op.  An op fails on a nonzero exit code, on an exception,
or when its oracle rejects the output.  Oracles are attached to the op and run
after the job, outside every timed span.  ``self_test`` hands each oracle a
deliberately corrupted output, and every one of them must count as failed.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracles
import clock
from oracles import OracleFailure

import mmspace.cli
from mmspace.fpp import EdgeWeightLaw, FppInstance, passage_time_ball
from mmspace.samplers import derived_seed, sample


@dataclass
class Op:
    argv: list
    check: object = None  # callable(op) raising OracleFailure, run after the job
    rc: int | None = None
    error: str = ""
    seconds: float = 0.0
    stdout: str = ""


def evaluate(op: Op) -> str:
    """Empty string when the op succeeded, else why it failed."""
    if op.error:
        return op.error
    if op.check is not None:
        try:
            op.check(op)
        except OracleFailure as exc:
            return f"oracle: {exc}"
        except Exception as exc:  # missing or malformed output is a failed op too
            return f"oracle cannot read the output: {type(exc).__name__}: {exc}"
    return ""


class Session:
    """Runs `mm` commands in-process, one at a time, timing each with ``clock.elapsed``."""

    def __init__(self):
        self.ops = []

    def mm(self, argv, check=None) -> Op:
        op = Op([str(a) for a in argv], check)
        out, err = io.StringIO(), io.StringIO()
        start = clock.mark()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                # looked up per call, so a traced run goes through the rebound name
                op.rc = mmspace.cli.main(op.argv)
        except SystemExit as exc:
            op.rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an op that raises is a failed op, not a dead run
            op.error = f"{type(exc).__name__}: {exc}"
        op.seconds = clock.elapsed(start)
        op.stdout = out.getvalue()
        if op.rc and not op.error:
            op.error = f"exit code {op.rc}: {err.getvalue().strip()[:200]}"
        self.ops.append(op)
        return op

    def skip(self, command: str, reason: str) -> None:
        self.ops.append(Op([command], error=f"not run: {reason}"))

    @property
    def seconds(self) -> float:
        return sum(op.seconds for op in self.ops)


def _job_seeds(seed: int, tag: int, count: int) -> list:
    rng = np.random.default_rng([seed, tag])
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def _write_column(path: Path, values: np.ndarray) -> None:
    path.write_text("".join(f"{float(v)!r}\n" for v in values))


class Workload:
    """Inputs for up to MAX_JOBS timed jobs, a priming job and a small warm-up job, all from one seed."""

    name = ""
    MAX_JOBS = 64

    def __init__(self, seed: int):
        self.seed = seed

    def warm_up(self, workdir: Path) -> None:
        """Every command of a job at small sizes: imports and lazy set-up finish here."""
        self._untimed(workdir, self.warm_up_params())

    def prime(self, workdir: Path) -> None:
        """One full-size job, so the allocator and caches reach the state later jobs see."""
        self._untimed(workdir, self.job_params(self.MAX_JOBS))

    def _untimed(self, workdir: Path, params) -> None:
        job_dir = workdir / "untimed"
        job_dir.mkdir()
        self._run(Session(), job_dir, params)
        shutil.rmtree(job_dir)

    def job(self, index: int, job_dir: Path) -> Session:
        session = Session()
        self._run(session, job_dir, self.job_params(index))
        return session


class Convergence(Workload):
    """`mm experiment`: circle, isomap, exact k=2, sizes 100 200 400, two trials."""

    name = "convergence"
    SIZES = (100, 200, 400)
    TRIALS = 2
    # eps = 1.0 keeps every n = 100 cloud connected (a largest angular gap
    # above the eps arc has probability ~1e-6 per cloud; at eps = 0.5 it is 2.5%)
    EPS = 1.0

    def __init__(self, seed: int):
        super().__init__(seed)
        self.seeds = _job_seeds(seed, 1, self.MAX_JOBS + 1)

    def warm_up_params(self):
        return {"seed": self.seed, "sizes": (40, 80)}

    def job_params(self, index):
        return {"seed": self.seeds[index], "sizes": self.SIZES}

    def _run(self, session, job_dir, params):
        config = job_dir / "experiment.ini"
        config.write_text(
            "[data]\ngenerator = circle\n"
            f"[metric]\nmethod = isomap\neps = {self.EPS}\n"
            "[kmeans]\nk = 2\np = 2\nsolver = exact\n"
            f"[run]\nsizes = {' '.join(map(str, params['sizes']))}\n"
            f"trials = {self.TRIALS}\nseed = {params['seed']}\n"
        )
        out = job_dir / "out"
        session.mm(["experiment", "--config", config, "--out", out], lambda op: self._check(op, out, params))

    def _check(self, op, out, params):
        oracles.check(" failed=0 " in op.stdout, f"experiment reports failures: {op.stdout.strip()}")
        rows = oracles.read_results_csv(out / "results.csv")
        oracles.check_experiment(rows, params["sizes"], self.TRIALS, _circle_angles(params["seed"]))

    def self_test(self, job_dir, index):
        params = self.job_params(index)
        rows = oracles.read_results_csv(job_dir / "out" / "results.csv")
        largest = max(params["sizes"])

        def corrupted(mutate):
            bad = [dict(r) for r in rows]
            mutate(bad)
            return lambda op: oracles.check_experiment(bad, params["sizes"], self.TRIALS, _circle_angles(params["seed"]))

        def deviate(bad):
            next(r for r in bad if int(r["n"]) == largest)["cluster_deviation"] = "0.001"

        def widen(bad):
            bad[0]["covering_radius"] = repr(float(bad[0]["covering_radius"]) * (1 + 1e-9))

        def error(bad):
            bad[-1]["status"] = "error"

        return {
            "nonzero self-deviation": corrupted(deviate),
            "perturbed covering radius": corrupted(widen),
            "row in error": corrupted(error),
        }


def _circle_angles(seed):
    """Angles of the experiment's (n, trial) cloud, regenerated from its stream."""

    def angles_of(n, trial):
        cloud = sample("circle", n, derived_seed(seed, "trial", trial, "n", n))
        return np.arctan2(cloud.points[:, 1], cloud.points[:, 0])

    return angles_of


class CliSession(Workload):
    """One user session of nine `mm` commands on a fresh interval cloud.

    The matrix that validate, kmeans and voronoi read comes from
    `mm dist --method euclid`.  `mm dist --method fermat` is left out: on an
    i.i.d. sample its dense-matrix shortest-path pass drops every weight below
    about 1e-8 (ROADMAP item 2), so its matrix is wrong in every job, and a
    workload must run without failing ops.
    """

    name = "cli-session"
    N = 500
    GROUP_SIZES = (40,) * 8 + (30,) * 4
    DELTA = 0.05  # about 5% of the diameter of the interval
    SIGMA = 0.1
    SPECTRUM_K = 10  # the `mm dist` default min(n, 10)
    LP_RTOL = 1e-7  # HiGHS objective accuracy, well above rounding, far below any wrong coupling

    def __init__(self, seed: int):
        super().__init__(seed)
        self.seeds = _job_seeds(seed, 2, self.MAX_JOBS + 1)

    def _groups(self, seed, sizes):
        # half the groups near 0, half near 1: two clusters of measures; uniform
        # supports keep the pooled cloud connected at eps = 1.0
        rng = np.random.default_rng([seed, 3])
        return [(i % 2) + rng.uniform(-0.5, 0.5, size=m) for i, m in enumerate(sizes)]

    def warm_up_params(self):
        return {"seed": self.seed, "n": 60, "groups": self._groups(self.seed, (8,) * 8 + (6,) * 4)}

    def job_params(self, index):
        seed = self.seeds[index]
        return {"seed": seed, "n": self.N, "groups": self._groups(seed, self.GROUP_SIZES)}

    def _run(self, session, d, params):
        n = params["n"]
        cloud, metric = d / "cloud.csv", d / "metric.csv"
        km2, km4, vor = d / "kmeans2.json", d / "kmeans4.json", d / "voronoi.json"
        diff, spectrum, quant, wk = d / "diffusion.bin", d / "spectrum.json", d / "quantize.json", d / "wkmeans.json"
        group_files = [d / f"group{i:02d}.csv" for i in range(len(params["groups"]))]
        for path, values in zip(group_files, params["groups"]):
            _write_column(path, values)
        files = _Files()

        session.mm(
            ["sample", "--generator", "interval", "--n", n, "--seed", params["seed"], "--out", cloud],
            lambda op: oracles.check_sample(files.cloud(cloud), n),
        )
        session.mm(
            ["dist", "--method", "euclid", "--in", cloud, "--out", metric],
            lambda op: oracles.check_line_metric(files.cloud(cloud), files.matrix(metric)),
        )
        session.mm(["validate", "--in", metric], lambda op: oracles.check_validate(json.loads(op.stdout)))
        exact = session.mm(
            ["kmeans", "--space", metric, "--k", "2", "--out", km2],
            lambda op: oracles.check_exact_k2(files.matrix(metric), files.json(km2), 2.0, files.json(km2)["tie_tolerance"]),
        )
        session.mm(
            ["kmeans", "--space", metric, "--k", "4", "--pam", "--out", km4],
            lambda op: oracles.check_pam(
                files.matrix(metric), files.json(km4), 2.0, files.json(km4)["tie_tolerance"],
                oracles.line_kmedoids_p2(files.cloud(cloud).ravel(), 4),
            ),
        )
        try:
            centers = files.json(km2)["minimizers"][0] if exact.rc == 0 else None
        except (OSError, ValueError, KeyError, IndexError):
            centers = None
        if centers:
            session.mm(
                ["voronoi", "--space", metric, "--centers", ",".join(map(str, centers)), "--delta", self.DELTA, "--out", vor],
                lambda op: oracles.check_voronoi(files.matrix(metric), centers, self.DELTA, files.json(vor)),
            )
        else:
            session.skip("voronoi", "no exact centers")
        session.mm(
            ["dist", "--method", "diffusion", "--sigma", self.SIGMA, "--in", cloud, "--out", diff, "--spectrum-out", spectrum],
            lambda op: oracles.check_diffusion(oracles.read_matrix_bin(diff), files.json(spectrum), n, min(n, self.SPECTRUM_K)),
        )
        session.mm(
            ["quantize", "--in", cloud, "--n", "4", "--out", quant],
            lambda op: oracles.check_quantize(files.cloud(cloud), files.json(quant), 2.0),
        )
        session.mm(
            ["wkmeans", "--groups", *group_files, "--ground-method", "isomap", "--eps", "1.0", "--k", "2", "--out", wk],
            lambda op: oracles.check_group_kmeans(params["groups"], files.json(wk), 2.0, self.LP_RTOL),
        )

    def self_test(self, d, index):
        params = self.job_params(index)
        files = _Files()
        x = files.cloud(d / "cloud.csv")
        matrix = files.matrix(d / "metric.csv")
        exact, pam = files.json(d / "kmeans2.json"), files.json(d / "kmeans4.json")
        vor, quant, wk = files.json(d / "voronoi.json"), files.json(d / "quantize.json"), files.json(d / "wkmeans.json")
        tol = exact["tie_tolerance"]
        far = int(np.argmax(matrix[:, exact["minimizers"][0][0]]))
        lower = oracles.line_kmedoids_p2(x.ravel(), 4)

        bumped = matrix.copy()
        bumped[np.unravel_index(np.argmax(matrix), matrix.shape)] *= 1.0 + 1e-6
        out_of_range = x.copy()
        out_of_range[0, 0] = 1.5
        asymmetric = oracles.read_matrix_bin(d / "diffusion.bin").copy()
        asymmetric[0, 1] += 1e-3
        moved = dict(quant, centers=[[c[0] + 1e-2] for c in quant["centers"]])
        cells = {k: v[1:] for k, v in vor["cells"].items()}

        def swap(doc, index):
            return dict(doc, minimizers=[sorted({index, *doc["minimizers"][0][1:]})])

        return {
            "perturbed distance entry": lambda op: oracles.check_line_metric(x, bumped),
            "sample outside [0, 1]": lambda op: oracles.check_sample(out_of_range, params["n"]),
            "validate failing": lambda op: oracles.check_validate({"passes": False}),
            "swapped exact minimizer": lambda op: oracles.check_exact_k2(matrix, swap(exact, far), 2.0, tol),
            "swapped PAM minimizer": lambda op: oracles.check_pam(matrix, swap(pam, far), 2.0, tol, lower),
            # a halved matrix keeps the minimizer costs consistent, so only the bound can object
            "PAM below the exact optimum": lambda op: oracles.check_pam(matrix / 2, dict(pam, objective=pam["objective"] / 4), 2.0, tol, lower),
            "Voronoi cell missing a point": lambda op: oracles.check_voronoi(matrix, exact["minimizers"][0], self.DELTA, dict(vor, cells=cells)),
            "asymmetric diffusion entry": lambda op: oracles.check_diffusion(asymmetric, files.json(d / "spectrum.json"), params["n"], self.SPECTRUM_K),
            "moved quantizer centers": lambda op: oracles.check_quantize(x, moved, 2.0),
            # groups 0 and 2 sit in the same cluster: a poor pair of centers
            "swapped group minimizer": lambda op: oracles.check_group_kmeans(params["groups"], dict(wk, minimizers=[[0, 2]]), 2.0, self.LP_RTOL),
        }


class FppTrack(Workload):
    """Random-law barycenter track plus the deterministic track with its shape defect."""

    name = "fpp-track"
    TIMES = (5.0, 8.0, 10.0)
    DET_TIME = 8.0
    SHELL = 0.2  # the `mm fpp` default, used to rebuild the instance's horizon

    def __init__(self, seed: int):
        super().__init__(seed)
        self.seeds = _job_seeds(seed, 4, self.MAX_JOBS + 1)

    def warm_up_params(self):
        return {"seed": self.seed, "times": (3.0, 5.0), "det_time": 4.0}

    def job_params(self, index):
        return {"seed": self.seeds[index], "times": self.TIMES, "det_time": self.DET_TIME}

    def _run(self, session, d, params):
        track, det = d / "track.json", d / "deterministic.json"
        times = ",".join(f"{t:g}" for t in params["times"])
        session.mm(
            ["fpp", "--dim", "2", "--law", "exp:1", "--t", times, "--budget", "12000", "--seed", params["seed"], "--out", track],
            lambda op: oracles.check_fpp_random(oracles.read_json(track), params["times"], self._balls(params)),
        )
        session.mm(
            ["fpp", "--dim", "2", "--law", "det:0.25", "--t", f"{params['det_time']:g}", "--out", det],
            lambda op: oracles.check_fpp_deterministic(oracles.read_json(det)),
        )

    def _balls(self, params):
        instance = FppInstance(2, EdgeWeightLaw.exponential(1.0), params["seed"], max(params["times"]) * (1.0 + self.SHELL))
        return lambda t: set(passage_time_ball(instance, t))

    def self_test(self, d, index):
        params = self.job_params(index)
        track, det = oracles.read_json(d / "track.json"), oracles.read_json(d / "deterministic.json")
        balls = self._balls(params)

        def edit(doc, **changes):
            bad = json.loads(json.dumps(doc))
            bad["track"][-1].update(changes)
            return bad

        last = track["track"][-1]
        shifted = [[b[0] + 0.5 / last["t"], b[1]] for b in last["barycenters"]]
        off_origin = [[1.0 / params["det_time"], 0.0]]
        return {
            "ball size off by one": lambda op: oracles.check_fpp_random(edit(track, ball_size=last["ball_size"] + 1), params["times"], balls),
            "barycenter off the lattice": lambda op: oracles.check_fpp_random(edit(track, barycenters=shifted), params["times"], balls),
            "off-origin barycenter": lambda op: oracles.check_fpp_deterministic(edit(det, barycenters=off_origin)),
            "metric defect": lambda op: oracles.check_fpp_deterministic(edit(det, metric_defect=1e-6)),
        }


WORKLOADS = {w.name: w for w in (Convergence, CliSession, FppTrack)}


class _Files:
    """Reads each output file once per job."""

    def __init__(self):
        self._cache = {}

    def _load(self, path, reader):
        key = (str(path), reader)
        if key not in self._cache:
            self._cache[key] = reader(path)
        return self._cache[key]

    def cloud(self, path):
        return self._load(path, oracles.read_cloud)

    def matrix(self, path):
        return self._load(path, oracles.read_matrix_csv)

    def json(self, path):
        return self._load(path, oracles.read_json)
