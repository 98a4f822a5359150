"""Interval timing that leaves out the time the hypervisor took from the CPUs.

On a shared virtual machine a vCPU that is runnable but descheduled by the
host accrues steal time (``/proc/stat``).  On a 2-vCPU host with busy
neighbours that makes the same job take up to twice as long from one minute
to the next.  ``elapsed`` subtracts the steal of an interval divided by the
average number of CPUs that ran or wanted to run in it, which is the wall
time lost when one thread (or several in parallel) was descheduled.  Where
``/proc/stat`` cannot be read it is plain monotonic time.
"""
from __future__ import annotations

import os
import time

_TICKS_PER_S = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def _cpu_seconds():
    """(CPU seconds run or stolen, CPU seconds stolen), summed over all CPUs."""
    try:
        with open("/proc/stat") as fh:
            user, nice, system, _idle, _iowait, irq, softirq, steal = (int(v) for v in fh.readline().split()[1:9])
    except (OSError, ValueError):
        return 0.0, 0.0
    return (user + nice + system + irq + softirq + steal) / _TICKS_PER_S, steal / _TICKS_PER_S


def mark():
    return (time.perf_counter(), *_cpu_seconds())


def elapsed(start) -> float:
    """Seconds since ``mark()`` returned ``start``, without the wall time lost to steal."""
    wall0, demand0, steal0 = start
    wall1, demand1, steal1 = mark()
    wall = wall1 - wall0
    busy = max((demand1 - demand0) / wall, 1.0) if wall > 0 else 1.0
    return wall - (steal1 - steal0) / busy
