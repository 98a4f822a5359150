"""Closed-loop benchmark of the `mm` command line, one workload per process.

    python3 bench/run.py --workload convergence --seed 1 --seconds 30 --trace 0

Run from the repository root.  One client runs one job at a time, back to
back, calling ``mmspace.cli.main`` in-process on files in a scratch directory
under ``.bench_run/``.  Every input is generated from ``--seed``.  After each
job the outputs are checked against the oracles in ``oracles.py``; a command
that exits nonzero, raises, or fails its oracle is a failed op.  After the
timed jobs, the oracle self-test of ``workloads.py`` must reject corrupted
outputs, or the run is reported as not correct.

Set-up (``setup_s``) is the median import time of three interpreters plus
the median of three rounds of input generation and a small warm-up job.  One
untimed full-size job then primes the allocator before the timed jobs start.
Job and set-up times come from ``clock.elapsed``, which leaves out the wall
time the hypervisor withheld the CPUs (steal), so they measure the program,
not the neighbours on a shared host.  The length of the timed phase is plain
wall time, so a run ends in bounded time however much is stolen.

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace 1``
alternates each job untraced and traced on the same inputs, and reports the
per-layer metrics of ``tracer.py`` per traced job plus the tracing overhead.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Exit code 2 means the benchmark could not run at all.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import clock

SETUP_REPEATS = 3
MIN_JOBS = 3
MIN_TRACED_PAIRS = 2


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pin_threads() -> int:
    """One BLAS/OpenMP thread per process, MM_THREADS pool = nproc (the library default)."""
    threads = nproc()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["MM_THREADS"] = str(threads)
    return threads


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = pin_threads()
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "mmspace" / "__init__.py").is_file():
        print(f"error: no mmspace sources under {root / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    start = clock.mark()
    import mmspace.cli  # noqa: F401  (timed: import is part of set-up)

    import_s = clock.elapsed(start)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    run_dir = root / ".bench_run"
    workdir = run_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return run(args, workloads, workdir, run_dir, [import_s] + fresh_imports(root / "src"), threads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def fresh_imports(src: Path) -> list:
    """Import times of mmspace in fresh interpreters, to take a median with this one's."""
    code = "import clock; t = clock.mark(); import mmspace.cli; print(clock.elapsed(t))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(Path(__file__).resolve().parent)]))
    return [
        float(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120).stdout)
        for _ in range(SETUP_REPEATS - 1)
    ]


def run(args, workloads, workdir, run_dir, imports, threads) -> int:
    # set-up = import + input generation + a small warm-up job; each part is
    # repeated and the medians are summed
    setups = []
    for _ in range(SETUP_REPEATS):
        start = clock.mark()
        workload = workloads.WORKLOADS[args.workload](args.seed)
        workload.warm_up(workdir)
        setups.append(clock.elapsed(start))
    setup_s = statistics.median(imports) + statistics.median(setups)
    workload.prime(workdir)

    tally = Tally(workloads.evaluate)
    if args.trace:
        from tracer import Tracer, unit_of

        tracer = Tracer()
        plain, traced, last = traced_phase(workload, workdir, args.seconds, tally, tracer)
        metrics = tracer.metrics(jobs=len(traced), threads=threads)
        metrics["trace.overhead_ratio"] = sum(traced) / sum(plain)
        print("untraced/traced job latencies (s): " + " ".join(f"{a:.3f}/{b:.3f}" for a, b in zip(plain, traced)), file=sys.stderr)
        tracer.dump(run_dir / f"spans-{args.workload}-seed{args.seed}.json")
        unbound = sorted(name for name, count in tracer.bindings.items() if count == 0)
        if unbound:
            print(f"trace: no mmspace binding found for {', '.join(unbound)}", file=sys.stderr)
        units = {name: unit_of(name) for name in metrics}
    else:
        latencies, last = plain_phase(workload, workdir, args.seconds, tally)
        print("job latencies (s): " + " ".join(f"{v:.3f}" for v in latencies), file=sys.stderr)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": setup_s,
            "jobs_per_s": len(latencies) / sum(latencies),
            "job_p50_s": statistics.median(latencies),
            "peak_rss_mb": peak_rss_mb,
            "ok_ratio": 1.0 - tally.failed / tally.attempted,
        }
        units = {"setup_s": "s", "jobs_per_s": "jobs/s", "job_p50_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio"}

    self_test_ok = self_test(workload, *last, workloads)
    result = {
        "correct": tally.failed == 0 and self_test_ok,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


class Tally:
    """Counts ops attempted and failed; reports the first few failures on stderr."""

    REPORTED = 5

    def __init__(self, evaluate):
        self.evaluate = evaluate
        self.attempted = 0
        self.failed = 0

    def add(self, index: int, session) -> None:
        for op in session.ops:
            self.attempted += 1
            reason = self.evaluate(op)
            if reason:
                self.failed += 1
                if self.failed <= self.REPORTED:
                    print(f"job {index}: mm {op.argv[0]} failed: {reason}", file=sys.stderr)


def _job(workload, workdir, index, tag=""):
    job_dir = workdir / f"job{index}{tag}"
    job_dir.mkdir()
    return workload.job(index, job_dir), job_dir


def _keep_going(walls: list, minimum: int, seconds: float, limit: int) -> bool:
    """Start another unit while the phase, at the median unit's wall time, stays within its seconds."""
    if len(walls) >= limit:
        return False
    return len(walls) < minimum or sum(walls) + statistics.median(walls) <= seconds


def plain_phase(workload, workdir, seconds, tally):
    """Closed loop of untraced jobs; returns job latencies and the last (job directory, index)."""
    latencies, walls, last_dir = [], [], None
    while _keep_going(walls, MIN_JOBS, seconds, workload.MAX_JOBS):
        index = len(latencies)
        start = time.perf_counter()
        session, job_dir = _job(workload, workdir, index)
        walls.append(time.perf_counter() - start)
        latencies.append(session.seconds)
        tally.add(index, session)
        if last_dir is not None:
            shutil.rmtree(last_dir)
        last_dir = job_dir
    return latencies, (last_dir, len(latencies) - 1)


def traced_phase(workload, workdir, seconds, tally, tracer):
    """Each job twice on the same inputs, untraced then traced."""
    plain, traced, walls, last_dir = [], [], [], None
    while _keep_going(walls, MIN_TRACED_PAIRS, seconds, workload.MAX_JOBS):
        index = len(walls)
        start = time.perf_counter()
        session, job_dir = _job(workload, workdir, index)
        plain.append(session.seconds)
        tally.add(index, session)
        tracer.install()
        try:
            traced_session, traced_dir = _job(workload, workdir, index, "-traced")
        finally:
            tracer.uninstall()
        traced.append(traced_session.seconds)
        tally.add(index, traced_session)
        shutil.rmtree(traced_dir)
        walls.append(time.perf_counter() - start)
        if last_dir is not None:
            shutil.rmtree(last_dir)
        last_dir = job_dir
    return plain, traced, (last_dir, len(walls) - 1)


def self_test(workload, job_dir, index, workloads) -> bool:
    """Every corrupted output must count as a failed op."""
    try:
        corruptions = workload.self_test(job_dir, index)
    except Exception:  # the last job's outputs are unusable; report, do not die
        traceback.print_exc()
        print("self-test: cannot build the corrupted outputs", file=sys.stderr)
        return False
    ok = True
    for name, check in corruptions.items():
        if not workloads.evaluate(workloads.Op(["self-test"], check)):
            ok = False
            print(f"self-test: oracle accepts a corrupted output ({name})", file=sys.stderr)
    return ok


if __name__ == "__main__":
    sys.exit(main())
