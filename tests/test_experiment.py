import csv
import json
import math
import multiprocessing
import os
import threading

import numpy as np
import pytest

from mmspace import (
    ExperimentConfig,
    InvalidArgumentError,
    load_config,
    run_experiment,
    write_cloud_csv,
)
from mmspace import experiment, space
from mmspace.experiment import CSV_COLUMNS

from helpers import random_space


def interval_config(**overrides):
    base = dict(generator="interval", k=1, sizes=[20, 40], trials=2, seed=0)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            ExperimentConfig(generator="interval", sizes=[])
        with pytest.raises(InvalidArgumentError):
            ExperimentConfig(generator="interval", sizes=[40, 20])
        with pytest.raises(InvalidArgumentError):
            ExperimentConfig(generator="interval", sizes=[20, 20])
        with pytest.raises(InvalidArgumentError):
            ExperimentConfig(generator="interval", trials=0)
        with pytest.raises(InvalidArgumentError):
            ExperimentConfig(generator="interval", solver="magic")
        with pytest.raises(InvalidArgumentError):
            ExperimentConfig(generator="interval", reference="explicit")
        with pytest.raises(InvalidArgumentError):
            ExperimentConfig(generator="file", generator_params={"path": "/no/such"})

    def test_digest_is_stable_and_sensitive(self):
        a = interval_config()
        b = interval_config()
        c = interval_config(seed=1)
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()
        assert len(a.digest()) == 64

    @pytest.mark.parametrize("text, digest", [
        # the convergence benchmark's shape
        ("[data]\ngenerator = circle\n[metric]\nmethod = isomap\neps = 1.0\n[kmeans]\nk = 2\nsolver = exact\n"
         "[run]\nsizes = 100 200 400\ntrials = 2\n",
         "e6e9627c813aaf250aaf9e1cc449c6fcd67d73cec13e3cf9c436f0440cf7f5c2"),
        ("[data]\ngenerator = mixture\ncenters = -2 0; 2 0\nscales = 0.5 0.6\n"
         "[metric]\nmethod = fermat\nalpha = 2.5\nknn = 8\n[kmeans]\nk = 2\nsolver = pam\nrestarts = 4\n"
         "[run]\nsizes = 30 60\ntrials = 3\nseed = 11\nreference = -2 0; 2 0\n",
         "d64a2f0a91abd6b2fb50e7da905a62320440e74e2d56c5bdcb42abb1cc51e6f3"),
    ], ids=["convergence", "mixture-fermat-pam-explicit"])
    def test_digest_is_frozen(self, tmp_path, text, digest):
        # config_sha256 names a run in summary.json; a rewrite of to_dict or
        # load_config must not move it
        path = tmp_path / "e.ini"
        path.write_text(text)
        assert load_config(path).digest() == digest

    def test_digest_handles_array_params(self):
        cfg = ExperimentConfig(
            generator="mixture",
            generator_params={
                "centers": np.array([[0.0, 0.0], [1.0, 1.0]]),
                "scales": np.array([0.5, 0.5]),
            },
            sizes=[10],
        )
        assert len(cfg.digest()) == 64
        doc = cfg.to_dict()
        json.dumps(doc)  # must be serializable as-is

    @pytest.mark.parametrize("reference, centers, given", [
        ("explicitt", [[0.5]], "with"),
        ("self", [[0.5]], "with"),
        ("explicit", None, "without"),
        ("explicitt", None, "without"),
    ])
    def test_reference_pairs_other_than_self_alone_or_explicit_with_centers_are_named(self, reference, centers, given):
        # a misspelt reference used to run against the self reference, and
        # centers beside "self" were dropped
        with pytest.raises(InvalidArgumentError, match=f"^reference must be .*, got {reference!r} {given} reference_centers$"):
            interval_config(reference=reference, reference_centers=centers)

    def test_explicit_reference_kept(self):
        cfg = ExperimentConfig(
            generator="interval",
            sizes=[10],
            reference="explicit",
            reference_centers=np.array([[0.5]]),
        )
        assert cfg.reference == "explicit"

    def test_flat_reference_is_points_on_a_line(self):
        flat = interval_config(k=2, reference="explicit", reference_centers=np.array([0.25, 0.75]))
        column = interval_config(k=2, reference="explicit", reference_centers=np.array([[0.25], [0.75]]))
        assert flat.reference_centers.shape == (2, 1)
        assert flat.digest() == column.digest()
        assert run_experiment(flat).rows == run_experiment(column).rows


class TestLoadConfig:
    def test_full_roundtrip(self, tmp_path):
        text = """
[data]
generator = mixture
centers = -3 0; 3 0
scales = 0.2 0.2

[metric]
method = euclid

[kmeans]
k = 2
p = 2.0
solver = exact

[run]
sizes = 30 60
trials = 3
seed = 7
"""
        path = tmp_path / "exp.ini"
        path.write_text(text)
        cfg = load_config(path)
        assert cfg.generator == "mixture"
        assert cfg.generator_params["centers"].shape == (2, 2)
        assert cfg.generator_params["scales"].tolist() == [0.2, 0.2]
        assert cfg.k == 2
        assert cfg.sizes == [30, 60]
        assert cfg.trials == 3
        assert cfg.seed == 7
        assert cfg.reference == "self"

    def test_metric_params_typed(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(
            "[data]\ngenerator = circle\n"
            "[metric]\nmethod = isomap\neps = 0.5\nknn = 8\n"
            "[run]\nsizes = 50\n"
        )
        cfg = load_config(path)
        assert cfg.method == "isomap"
        assert cfg.method_params == {"eps": 0.5, "knn": 8}

    def test_explicit_reference_rows(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(
            "[data]\ngenerator = interval\n"
            "[run]\nsizes = 20\nreference = 0.25; 0.75\n"
        )
        cfg = load_config(path)
        assert cfg.reference == "explicit"
        assert cfg.reference_centers.tolist() == [[0.25], [0.75]]

    def test_inline_comments(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[run]\nsizes = 10 20  # two sizes\nseed = 3\n")
        cfg = load_config(path)
        assert cfg.sizes == [10, 20]

    def test_missing_file_and_bad_value(self, tmp_path):
        with pytest.raises(InvalidArgumentError):
            load_config(tmp_path / "absent.ini")
        path = tmp_path / "exp.ini"
        path.write_text("[run]\ntrials = soon\n")
        with pytest.raises(InvalidArgumentError):
            load_config(path)


class TestRunExperiment:
    def test_integral_float_counts_run_as_their_ints(self, tmp_path):
        # trials=2.0 used to die in range() with a bare TypeError; the counts
        # are stored as ints, so rows, files and digest are the int config's
        floats = ExperimentConfig(trials=2.0, sizes=[20.0], k=1.0, restarts=3.0)
        ints = ExperimentConfig(trials=2, sizes=[20], k=1, restarts=3)
        stored = [floats.trials, floats.k, floats.restarts, *floats.sizes]
        assert stored == [2, 1, 3, 20] and all(type(v) is int for v in stored)
        assert floats.digest() == ints.digest()
        # a sizes array of two or more entries used to raise numpy's bare ValueError
        assert ExperimentConfig(trials=2, sizes=np.array([20.0]), k=1, restarts=3).digest() == ints.digest()
        assert ExperimentConfig(sizes=np.array([20, 40])).sizes == [20, 40]
        assert run_experiment(floats, tmp_path / "floats").rows == run_experiment(ints, tmp_path / "ints").rows
        for name in ("results.csv", "summary.json"):
            assert (tmp_path / "floats" / name).read_bytes() == (tmp_path / "ints" / name).read_bytes()

    def test_row_grid_and_schema(self):
        res = run_experiment(interval_config())
        assert len(res.rows) == 4
        assert [(r["n"], r["trial"]) for r in res.rows] == [
            (20, 0), (20, 1), (40, 0), (40, 1)
        ]
        for row in res.rows:
            assert set(row) == set(CSV_COLUMNS)
            assert row["status"] == "ok"
            assert row["n_minimizers"] >= 1
            assert row["objective"] >= 0.0

    def test_interval_euclid_defect_is_zero(self):
        res = run_experiment(interval_config())
        for row in res.rows:
            assert row["metric_defect"] == 0.0
            assert 0.0 < row["covering_radius"] < 0.5

    def test_self_reference_deviation(self):
        res = run_experiment(interval_config())
        by_key = {(r["n"], r["trial"]): r for r in res.rows}
        for trial in (0, 1):
            # largest size is its own reference within the trial
            assert by_key[(40, trial)]["center_deviation"] == pytest.approx(0.0, abs=1e-12)
            assert math.isfinite(by_key[(20, trial)]["center_deviation"])

    def test_explicit_reference(self):
        cfg = interval_config(
            reference="explicit", reference_centers=np.array([[0.5]])
        )
        res = run_experiment(cfg)
        for row in res.rows:
            assert row["center_deviation"] == pytest.approx(
                abs(0.5 - float(row["centers"].split("|")[0])), abs=1e-12
            )
            assert math.isfinite(row["cluster_deviation"])

    def test_error_rows_do_not_stop_the_run(self):
        # isomap with a tiny eps disconnects every cloud
        cfg = ExperimentConfig(
            generator="circle",
            method="isomap",
            method_params={"eps": 1e-6},
            sizes=[10],
            trials=2,
        )
        res = run_experiment(cfg)
        assert len(res.rows) == 2
        for row in res.rows:
            assert row["status"] == "error"
            assert "DisconnectedGraphError" in row["error"]
        assert res.summary["failed"] == 2

    def test_summary_medians(self):
        res = run_experiment(interval_config())
        per_n = res.summary["per_n"]
        assert set(per_n) == {"20", "40"}
        assert per_n["20"]["ok"] == 2
        objs = sorted(r["objective"] for r in res.rows if r["n"] == 20)
        assert per_n["20"]["median_objective"] == pytest.approx(
            float(np.median(objs))
        )
        assert res.summary["config_sha256"] == interval_config().digest()

    def test_file_generator(self, tmp_path):
        rng = np.random.default_rng(0)
        _, pts = random_space(rng, 30, dim=1)
        from mmspace import PointCloud

        path = tmp_path / "cloud.csv"
        write_cloud_csv(path, PointCloud(pts, 1))
        cfg = ExperimentConfig(
            generator="file",
            generator_params={"path": str(path)},
            method="euclid",
            sizes=[10, 30],
            trials=1,
        )
        res = run_experiment(cfg)
        assert all(r["status"] == "ok" for r in res.rows)

    def test_outputs_byte_deterministic(self, tmp_path, monkeypatch):
        cfg = interval_config()
        for threads in ("1", "2", "8"):
            monkeypatch.setenv("MM_THREADS", threads)
            run_experiment(cfg, out_dir=tmp_path / threads)
        for name in ("results.csv", "summary.json"):
            for threads in ("2", "8"):
                assert (tmp_path / "1" / name).read_bytes() == (tmp_path / threads / name).read_bytes()

    def test_csv_layout(self, tmp_path):
        run_experiment(interval_config(), out_dir=tmp_path)
        with open(tmp_path / "results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == CSV_COLUMNS
        assert len(rows) == 4
        # NaN cells must be written empty, not as "nan"
        for row in rows:
            assert row["cluster_deviation"] != "nan"
        data = json.loads((tmp_path / "summary.json").read_text())
        assert data["rows"] == 4

    def test_pam_solver_path(self):
        cfg = interval_config(solver="pam", restarts=2, sizes=[15], trials=1)
        res = run_experiment(cfg)
        assert res.rows[0]["status"] == "ok"


def test_oversized_graph_fails_its_row_only(monkeypatch):
    # past the size limit a cell records BudgetExceededError and the
    # grid goes on, instead of a MemoryError aborting the whole run
    monkeypatch.setattr(space, "MAX_GRAPH_POINTS", 30)
    for method, params in (("isomap", {"eps": 0.5}), ("euclid", {}), ("diffusion", {"sigma": 1.0})):
        config = interval_config(method=method, method_params=params, sizes=[20, 40])
        result = run_experiment(config)
        status = {(r["n"], r["trial"]): r["status"] for r in result.rows}
        assert status == {(20, 0): "ok", (20, 1): "ok", (40, 0): "error", (40, 1): "error"}
        assert all(r["error"].startswith("BudgetExceededError") for r in result.rows if r["n"] == 40)
        assert result.summary["failed"] == 2


def test_reference_of_wrong_dimension_rejected():
    # a 2-D reference against a 1-D cloud must be rejected, not broadcast
    config = interval_config(reference="explicit", reference_centers=np.array([[0.25, 0.5]]))
    with pytest.raises(InvalidArgumentError):
        run_experiment(config)


def test_reference_center_with_empty_cell_is_named(monkeypatch):
    # 5.0 is nearest to no point of the unit interval, so its cell is empty;
    # the error is the same raised in this process or in a worker
    config = interval_config(k=2, reference="explicit", reference_centers=np.array([[0.25], [5.0]]))
    for threads in ("1", "2"):
        monkeypatch.setenv("MM_THREADS", threads)
        with pytest.raises(InvalidArgumentError, match=r"reference center 1 \(5\.0\) .* n=40 .* trial 0$"):
            run_experiment(config)


def log_draws(monkeypatch, log):
    """Make each cloud draw append "n trial pid" to log, in whichever process draws it."""
    real = experiment._trial_cloud

    def counting(config, n, trial):
        with open(log, "a") as fh:
            fh.write(f"{n} {trial} {os.getpid()}\n")
        return real(config, n, trial)

    monkeypatch.setattr(experiment, "_trial_cloud", counting)


def read_draws(log):
    return [tuple(map(int, line.split())) for line in log.read_text().splitlines()]


def test_explicit_reference_draws_each_cloud_once(tmp_path, monkeypatch):
    config = interval_config(reference="explicit", reference_centers=np.array([[0.5]]))
    for threads in ("1", "2"):
        log = tmp_path / f"draws{threads}.txt"
        with monkeypatch.context() as patch:
            patch.setenv("MM_THREADS", threads)
            log_draws(patch, log)
            run_experiment(config)
        drawn = read_draws(log)
        assert sorted((n, trial) for n, trial, _ in drawn) == [(20, 0), (20, 1), (40, 0), (40, 1)]
        pids = {pid for _, _, pid in drawn}
        if threads == "1":
            assert pids == {os.getpid()}
        else:
            # the pool is really used
            assert pids - {os.getpid()}


def test_trials_stay_in_process_beside_other_threads(tmp_path, monkeypatch):
    # a fork would copy the other thread's state mid-operation, so trials
    # run serially while the caller has threads of its own
    log = tmp_path / "draws.txt"
    monkeypatch.setenv("MM_THREADS", "2")
    log_draws(monkeypatch, log)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(30,))
    other.start()
    try:
        run_experiment(interval_config())
    finally:
        release.set()
        other.join(30)
    assert not other.is_alive()
    assert {pid for _, _, pid in read_draws(log)} == {os.getpid()}


def assert_no_child_left():
    # multiprocessing only sees its own children, so ask the kernel too: a
    # forked worker left unreaped would still be a child of this process
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_no_worker_outlives_the_run(monkeypatch):
    monkeypatch.setenv("MM_THREADS", "2")
    run_experiment(interval_config())
    assert_no_child_left()


def test_worker_error_reaches_the_caller(monkeypatch):
    # an error that escapes a trial in a worker process keeps its type and
    # message, and every worker is reaped before it is raised; with 2 workers
    # and 4 trials, trial 3 runs in the forked one
    real = experiment._trial_cloud

    def failing(config, n, trial):
        if trial == 3:
            raise RuntimeError(f"trial 3 drawn in process {os.getpid()}")
        return real(config, n, trial)

    monkeypatch.setenv("MM_THREADS", "2")
    monkeypatch.setattr(experiment, "_trial_cloud", failing)
    with pytest.raises(RuntimeError, match=r"^trial 3 drawn in process \d+$") as info:
        run_experiment(interval_config(trials=4))
    assert str(info.value) != f"trial 3 drawn in process {os.getpid()}"
    assert_no_child_left()


def test_lowest_failing_trial_is_raised(monkeypatch):
    # as in a serial run, the error of the lowest trial that raises reaches
    # the caller, whichever worker ran it
    real = experiment._trial_cloud

    def failing(config, n, trial):
        if trial in (1, 2, 3):
            raise RuntimeError(f"trial {trial}")
        return real(config, n, trial)

    monkeypatch.setattr(experiment, "_trial_cloud", failing)
    for threads in ("1", "2", "3", "8"):
        monkeypatch.setenv("MM_THREADS", threads)
        with pytest.raises(RuntimeError, match=r"^trial 1$"):
            run_experiment(interval_config(trials=4))
        assert_no_child_left()
