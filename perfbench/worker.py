"""One fresh interpreter's share of a benchmark run (started by ``run.py``).

    python3 perfbench/worker.py WORKLOAD SEED MODE [SECONDS]

MODE is one of
  ``setup``   import ``jetsym.cli`` and load the workload's inputs, then
              calibrate, so that the caller can rescale the launch time;
  ``e2e``     pairs of passes while another fits in SECONDS, at least one: a
              cold pass, each job with sympy's cache cleared first, and a
              warm pass, each job again at once with the cache its cold run
              left;
  ``plain``   one cold pass;
  ``traced``  one cold pass with the outside-in tracer installed; its spans
              are written to ``perfbench/results/``.

A cold run starts from a cleared cache, the state a fresh ``jetsym``
invocation sees; a warm run is what a library caller pays for repeating a
query.  Pass times are reported raw and rescaled to the reference machine
speed (``calibrate.py``).  The last line of standard output is a JSON object
with the pass times, the job tally, the misses no known defect covers, a
digest of each pass's job reports and, for ``traced``, the layer metrics.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
RESULTS = BENCH / "results"
if not (SRC / "jetsym").is_dir():
    sys.exit(f"worker.py: no jetsym sources under {SRC}")
sys.path.insert(0, str(SRC))

import jetsym.cli  # noqa: E402,F401  (part of set-up; fails outside a checkout)
from sympy.core.cache import clear_cache  # noqa: E402

from calibrate import calibrate, calibrate_for, scale  # noqa: E402
from expectations import FAILED, OK, WRONG  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_passes(jobs, warm, tracer=None):
    """Run each job cold (sympy's cache cleared first) and, with ``warm``,
    once more at once with the cache its first run left.

    A calibration runs before the first job and after every job; a job's
    times are rescaled by the two around it.  Returns one
    [rescaled seconds, raw seconds, [(report, error)]] per pass.
    """
    passes = [[0.0, 0.0, []] for _ in range(2 if warm else 1)]
    calibrate()                  # the first call in a process pays one-time costs
    before = calibrate_for(1.0)
    for index, job in enumerate(jobs):
        clear_cache()
        if tracer is not None:
            tracer.job = index
        times = []
        for pass_ in passes:
            start = time.perf_counter()
            try:
                report, error = job.run(), None
            except Exception as exc:  # a traceback is a failed job, not a failed benchmark
                report, error = None, f"raised {type(exc).__name__}: {exc}"
            times.append(time.perf_counter() - start)
            pass_[2].append((report, error))
        after = calibrate_for(sum(times))
        for pass_, seconds in zip(passes, times):
            pass_[0] += scale(seconds, (before, after))
            pass_[1] += seconds
        before = after
    return passes


def grade(jobs, results, tally, misses):
    """Add each job's outcome to ``tally``; record misses no known defect covers."""
    for job, (report, error) in zip(jobs, results):
        if report is None:
            outcome, detail = FAILED, error
        else:
            try:
                outcome, detail = job.check(report)
            except (ValueError, KeyError, TypeError) as exc:
                outcome, detail = WRONG, f"unreadable report: {exc!r}"
        tally[outcome] += 1
        if outcome != OK and not (job.known and job.known.covers(outcome, detail)):
            misses.append(f"{job.name}: {outcome}: {detail}")


def digest(results):
    h = hashlib.sha256()
    for report, error in results:
        h.update(f"{report if report is not None else error}\0".encode())
    return h.hexdigest()


def main():
    name, seed, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    seconds = float(sys.argv[4]) if mode == "e2e" else 0.0
    make_jobs, load_inputs = WORKLOADS[name]
    if mode == "setup":
        load_inputs(seed)
        start = time.perf_counter()
        calibrations = [calibrate() for _ in range(4)][1:]
        print(json.dumps({"calibrations": calibrations,
                          "calibration_s": time.perf_counter() - start}))
        return
    jobs = make_jobs(seed)
    tally, misses = Counter(), []
    out = {"passes": []}
    if mode == "traced":
        from tracer import Tracer

        with Tracer() as tracer:
            passes = run_passes(jobs, warm=False, tracer=tracer)
        out["metrics"] = tracer.metrics()
        RESULTS.mkdir(exist_ok=True)
        tracer.write_jsonl(RESULTS / f"trace-{name}-{seed}.jsonl")
    else:
        passes = []
        start = time.perf_counter()
        while True:                  # stop before a pair that would overrun ``seconds``
            pair_start = time.perf_counter()
            passes += run_passes(jobs, warm=mode == "e2e")
            now = time.perf_counter()
            if now - start + (now - pair_start) > seconds:
                break
    for kind, (seconds, raw, results) in zip(itertools.cycle(("cold", "warm")), passes):
        grade(jobs, results, tally, misses)
        out["passes"].append({"kind": kind, "seconds": seconds, "raw_seconds": raw,
                              "digest": digest(results)})
    out["tally"] = dict(tally)
    out["misses"] = list(dict.fromkeys(misses))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))


if __name__ == "__main__":
    main()
