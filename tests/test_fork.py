"""The fork-join helper and the loops split on it: same bytes for every MM_THREADS, no child left."""
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from mmspace import _fork
from mmspace import io as io_module
from mmspace import space as space_module
from mmspace import (
    DisconnectedGraphError,
    ExperimentConfig,
    InvalidArgumentError,
    k_means_pam,
    metric_validate,
    read_matrix_csv,
    run_experiment,
    write_matrix_csv,
)

from helpers import k_means_pam_oracle, metric_validate_oracle
from test_experiment import assert_no_child_left
from test_io import csv_reader_outcome, read_outcome
from test_space import oracle_space, report_bits, solution_bits, validate_inputs

THREADS = ("1", "2", "3", "8")
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def fork_always(monkeypatch):
    """Every call site splits its work, however small."""
    monkeypatch.setattr(io_module, "_FORK_READ_BYTES", 0)
    monkeypatch.setattr(space_module, "_FORK_PAM_ENTRIES", 0)
    monkeypatch.setattr(space_module, "_FORK_TRIANGLE_ENTRIES", 0)
    return monkeypatch


def count_forks(monkeypatch):
    forks = []
    real = os.fork

    def counting():
        forks.append(1)
        return real()

    monkeypatch.setattr(os, "fork", counting)
    return forks


class TestSharedCalls:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 301])
    def test_reads_match_the_serial_reader(self, tmp_path, fork_always, n):
        rng = np.random.default_rng(n)
        m = rng.normal(size=(n, n)) * rng.choice([0.0, -0.0, 1.0, 1e-300, 1e300], size=(n, n))
        path = tmp_path / "m.csv"
        write_matrix_csv(path, [f"p{i}" for i in range(n)], m)
        want = csv_reader_outcome(path, fork_always)
        assert want[2] == m.tobytes()
        forks = count_forks(fork_always)
        for threads in THREADS:
            fork_always.setenv("MM_THREADS", threads)
            assert read_outcome(path) == want
            assert_no_child_left()
        # one fork per worker past the first, never more workers than rows
        assert len(forks) == sum(min(int(t), n) - 1 for t in THREADS)

    @pytest.mark.parametrize("bad, rows", [("abc", False), ("1_0", True), ("", False), ("1,2", False)])
    def test_bad_last_row_takes_the_serial_path(self, tmp_path, fork_always, bad, rows):
        # the last row is parsed in a forked share; whatever fails there, the
        # outcome is the csv.reader path's, message for message
        n = 64
        m = np.random.default_rng(1).uniform(size=(n, n))
        path = tmp_path / "m.csv"
        write_matrix_csv(path, [f"p{i}" for i in range(n)], m)
        lines = path.read_bytes().split(b"\r\n")
        lines[n] = lines[n].rsplit(b",", 1)[0] + b"," + bad.encode()
        path.write_bytes(b"\r\n".join(lines))
        assert io_module._crlf_line_count(path) == n + 1
        want = csv_reader_outcome(path, fork_always)
        assert (want[0] is InvalidArgumentError) != rows
        for threads in THREADS:
            fork_always.setenv("MM_THREADS", threads)
            assert read_outcome(path) == want
            assert_no_child_left()

    @pytest.mark.parametrize("kind", ["random", "integer_ties", "zero_weights", "circle_isomap"])
    def test_pam_bits_and_families(self, fork_always, kind):
        rng = np.random.default_rng(len(kind) + 7)
        for n, k, restarts in ((12, 3, 5), (40, 4, 10), (300, 4, 3)):
            space = oracle_space(kind, n, rng)
            want = solution_bits(k_means_pam_oracle(space, k, 2.0, restarts=restarts, seed=k))
            for threads in THREADS:
                fork_always.setenv("MM_THREADS", threads)
                assert solution_bits(k_means_pam(space, k, 2.0, restarts=restarts, seed=k)) == want
                assert_no_child_left()

    @pytest.mark.parametrize("kind", ["uniform", "integer_ties", "negative", "asymmetric", "signed_zeros", "zeros", "line"])
    def test_validate_reports_are_bytewise_equal(self, fork_always, kind):
        # small blocks, so every matrix has many column block pairs to deal out
        fork_always.setattr(space_module, "_VALIDATE_ENTRIES", 150)
        rng = np.random.default_rng(len(kind))
        for n in (1, 2, 3, 17, 40, 150):
            d = validate_inputs(kind, n, rng)
            want = report_bits(metric_validate_oracle(d))
            for threads in THREADS:
                fork_always.setenv("MM_THREADS", threads)
                assert report_bits(metric_validate(d)) == want
                assert_no_child_left()

    def test_restarts_cap_the_forks(self, fork_always):
        fork_always.setenv("MM_THREADS", "64")
        forks = count_forks(fork_always)
        space = oracle_space("random", 20, np.random.default_rng(3))
        k_means_pam(space, 3, 2.0, restarts=10)
        # one worker per restart, this process among them
        assert len(forks) == 9
        assert_no_child_left()

    def test_trial_share_keeps_the_cap(self, monkeypatch):
        # trial 0 runs in this process beside the forked trial 1; its PAM
        # restarts, past their crossover, must not fork a third worker
        config = ExperimentConfig(
            generator="interval", method="euclid", k=4, solver="pam", restarts=10, sizes=[400], trials=2, seed=3
        )
        monkeypatch.setenv("MM_THREADS", "1")
        want = repr(run_experiment(config).rows)
        monkeypatch.setenv("MM_THREADS", "2")
        forks = count_forks(monkeypatch)
        assert repr(run_experiment(config).rows) == want
        assert len(forks) == 1
        assert_no_child_left()

    def test_nothing_forks_beside_another_thread(self, tmp_path, fork_always):
        def refuse():
            raise AssertionError("forked while another thread runs")

        n = 40
        m = np.random.default_rng(2).uniform(size=(n, n))
        path = tmp_path / "m.csv"
        write_matrix_csv(path, [str(i) for i in range(n)], m)
        space = oracle_space("random", n, np.random.default_rng(2))
        fork_always.setenv("MM_THREADS", "2")
        fork_always.setattr(space_module, "_VALIDATE_ENTRIES", 150)
        fork_always.setattr(os, "fork", refuse)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(30,))
        other.start()
        try:
            assert read_matrix_csv(path)[1].tobytes() == m.tobytes()
            k_means_pam(space, 3, 2.0, restarts=4)
            metric_validate(m)
        finally:
            release.set()
            other.join(30)
        assert not other.is_alive()


def fail_in(share, exc):
    def task(j, workers):
        if j == share:
            raise exc
        return j

    return task


class Unpicklable(Exception):
    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


class TestForkJoin:
    @pytest.fixture(autouse=True)
    def two_workers(self, monkeypatch):
        monkeypatch.setenv("MM_THREADS", "2")

    def test_results_in_worker_order(self):
        first, second = _fork.fork_join(lambda j, w: (j, w, os.getpid()), 5, True)
        assert first == (0, 2, os.getpid())
        assert second[:2] == (1, 2) and second[2] != os.getpid()
        assert _fork.fork_join(lambda j, w: (j, w), 5, False) == [(0, 1)]
        assert _fork.fork_join(lambda j, w: (j, w), 1, True) == [(0, 1)]
        assert_no_child_left()

    @pytest.mark.parametrize("exc", [KeyError("k"), InvalidArgumentError("bad input"), ZeroDivisionError("x / 0")])
    @pytest.mark.parametrize("share", [0, 1])
    def test_share_error_keeps_type_and_message(self, exc, share):
        with pytest.raises(type(exc)) as info:
            _fork.fork_join(fail_in(share, exc), 2, True)
        assert str(info.value) == str(exc)
        assert_no_child_left()

    def test_error_attributes_survive(self):
        with pytest.raises(DisconnectedGraphError) as info:
            _fork.fork_join(fail_in(1, DisconnectedGraphError("split", [[3, 1], [0]])), 2, True)
        assert str(info.value) == "split" and info.value.components == [[0], [1, 3]]
        assert_no_child_left()

    def test_unpicklable_error_keeps_its_name_and_message(self):
        with pytest.raises(RuntimeError, match=r"^Unpicklable: 1 and 2$"):
            _fork.fork_join(fail_in(1, Unpicklable(1, 2)), 2, True)
        assert_no_child_left()

    def test_lowest_worker_error_wins(self, monkeypatch):
        monkeypatch.setenv("MM_THREADS", "3")

        def task(j, workers):
            if j:
                raise ValueError(f"share {j}")
            return j

        with pytest.raises(ValueError, match=r"^share 1$"):
            _fork.fork_join(task, 3, True)
        assert_no_child_left()

    def test_nested_calls_run_serially(self):
        # share 0 runs in the caller beside the forked share 1, so its nested
        # call must not fork either, or three workers would run for a cap of two
        inner = lambda j, w: _fork.fork_join(lambda i, v: (i, v), 2, True)
        assert _fork.fork_join(inner, 2, True) == [[(0, 1)], [(0, 1)]]
        assert not _fork._in_worker
        assert_no_child_left()

    @pytest.mark.parametrize("value", ["0", "two"])
    def test_bad_thread_cap_fails_before_the_crossover(self, monkeypatch, value):
        monkeypatch.setenv("MM_THREADS", value)
        with pytest.raises(InvalidArgumentError, match="MM_THREADS"):
            _fork.fork_join(lambda j, w: j, 1, False)

    @pytest.mark.parametrize("share", [0, 1])
    def test_killed_child_raises_instead_of_hanging(self, share):
        # the child of share 1 is killed; when share 0 raises first, the
        # parent kills and reaps the child that is still running
        code = (
            "import os, signal, time\n"
            "from mmspace import _fork\n"
            "def task(j, w):\n"
            "    if j == 1:\n"
            f"        {'time.sleep(60)' if share == 0 else 'os.kill(os.getpid(), signal.SIGKILL)'}\n"
            f"    {'raise KeyError(7)' if share == 0 else 'return j'}\n"
            "try:\n"
            "    _fork.fork_join(task, 2, True)\n"
            "except Exception as exc:\n"
            "    print(type(exc).__name__, exc)\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "except ChildProcessError:\n"
            "    print('no child left')\n"
        )
        env = dict(os.environ, MM_THREADS="2", PYTHONPATH=str(SRC))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=30)
        assert out.returncode == 0, out.stderr
        lines = out.stdout.splitlines()
        if share == 0:
            assert lines == ["KeyError 7", "no child left"]
        else:
            assert lines[0].startswith("RuntimeError worker process ")
            assert lines[0].endswith(" ended without a result (killed by signal 9)")
            assert lines[1:] == ["no child left"]
