"""Machine-speed calibration for the benchmark's timings.

On the shared 2-core virtual machine the baseline was measured on, the speed
of sympy code drifts by up to a third within minutes (other tenants share the
host's caches and memory bandwidth; a pure-Python loop hardly moves), and
every job slows in proportion.  Ten runs of one workload gave wall times whose
quartiles lay 20-35 % apart.  A fixed sympy snippet, timed between jobs, measures the current speed:
a job's time multiplied by ``CAL_REF_S / calibrate()`` is what it would take
when the snippet takes ``CAL_REF_S``.  The ratio of pass time to snippet time
kept its quartiles within 2-3 % while the raw times drifted by 18 %.  A job's
scale comes from calibrations just before and just after it, since the speed
can change between jobs.

The snippet imports sympy only, so a change to jetsym's code does not move it.
"""

from __future__ import annotations

import statistics
import time

import sympy as sp
from sympy.core.cache import clear_cache

#: Median time of ``calibrate()`` on the machine where the baseline was
#: recorded (a shared 2-core virtual machine, Python 3.11.7, sympy 1.14).
CAL_REF_S = 0.025

_X, _Y = sp.symbols("x y")


def calibrate():
    """Seconds one fixed expand + cancel takes now, from a cleared cache."""
    clear_cache()
    start = time.perf_counter()
    sp.cancel(sp.expand((_X + 2 * _Y + 3) ** 3 * (_X - _Y + 1)) / (_X - _Y + 1))
    return time.perf_counter() - start


def calibrate_for(seconds):
    """Median calibration over about a twentieth of ``seconds``, at least one run.

    Sampling in proportion to the work being rescaled keeps the rescaling of
    a long job as precise as that of a short one.
    """
    samples = [calibrate()]
    while sum(samples) < seconds / 20:
        samples.append(calibrate())
    return statistics.median(samples)


def scale(seconds, calibrations):
    """``seconds`` rescaled by the mean of the calibrations taken around it."""
    return seconds * CAL_REF_S * len(calibrations) / sum(calibrations)
