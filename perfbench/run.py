"""jetsym benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; jetsym is imported from ``src/``.
The passes run in fresh interpreters (``worker.py``), one after another.

``--trace 0``: set-up time is the median over several fresh interpreters that
import ``jetsym.cli`` and load the workload's inputs.  Then one interpreter
makes pairs of cold and warm passes while another pair fits in ``--seconds``
(at least one pair); ``wall_s`` and ``warm_wall_s`` are the medians over the
passes.
Every time is rescaled to the reference machine speed by a calibration
snippet timed next to it (``calibrate.py``); the raw medians are printed as
``raw_*`` but are not part of the result.  ``--trace 1``: one
untraced and one traced cold pass; the per-layer metrics come from the
traced one, and ``trace.overhead_s`` is the difference of the two.

Every job is checked against its expectation, and every pass of a run must
give byte-identical job reports.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("cli-fixtures", "prolong-poly", "zero-kernels", "determining-ladder")
SETUP_LAUNCHES = 3
END_TO_END = ("wall_s", "warm_wall_s", "setup_s", "peak_rss_mb")
WORKER_TIMEOUT_S = 170


def worker(name, seed, mode, *extra):
    """Run worker.py in a fresh interpreter; return its result and its wall time."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), name, str(seed), mode,
                           *map(str, extra)],
                          cwd=ROOT, stdout=subprocess.PIPE, timeout=WORKER_TIMEOUT_S,
                          text=True)
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        sys.exit(f"run.py: worker {mode} for {name} exited {proc.returncode}")
    lines = proc.stdout.splitlines()
    return (json.loads(lines[-1]) if lines else None), seconds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    name, seed = args.workload, args.seed

    runs = []
    if args.trace:
        runs.append(worker(name, seed, "plain")[0])
        runs.append(worker(name, seed, "traced")[0])
        metrics = {k: tuple(v) for k, v in runs[1]["metrics"].items()}
        metrics["trace.overhead_s"] = (
            runs[1]["passes"][0]["seconds"] - runs[0]["passes"][0]["seconds"], "s")
    else:
        from calibrate import scale

        setup, raw_setup = [], []
        for _ in range(SETUP_LAUNCHES):
            probe, seconds = worker(name, seed, "setup")
            raw_setup.append(seconds - probe["calibration_s"])
            setup.append(scale(raw_setup[-1], probe["calibrations"]))
        runs.append(worker(name, seed, "e2e", args.seconds)[0])
        passes = runs[0]["passes"]

        def median(key, kind):
            return statistics.median(p[key] for p in passes if p["kind"] == kind)

        metrics = {
            "wall_s": (median("seconds", "cold"), "s"),
            "warm_wall_s": (median("seconds", "warm"), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (runs[0]["peak_rss_mb"], "MB"),
            "raw_wall_s": (median("raw_seconds", "cold"), "s"),
            "raw_warm_wall_s": (median("raw_seconds", "warm"), "s"),
            "raw_setup_s": (statistics.median(raw_setup), "s"),
        }

    tally = sum((Counter(r["tally"]) for r in runs), Counter())
    misses = list(dict.fromkeys(m for r in runs for m in r["misses"]))
    digests = {p["digest"] for r in runs for p in r["passes"]}
    if len(digests) > 1:
        misses.append(f"job reports differ between the {sum(len(r['passes']) for r in runs)} "
                      f"passes of this run")
    attempted = sum(tally.values())
    metrics["failed_share"] = (tally["failed"] / attempted, "share")
    metrics["wrong_share"] = (tally["wrong"] / attempted, "share")

    n_passes = Counter(p["kind"] for r in runs for p in r["passes"])
    print(f"workload {name}, seed {seed}, trace {args.trace}, "
          f"{attempted // sum(n_passes.values())} jobs, passes {dict(n_passes)}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<52} {value:>12.6g} {unit}")
    for miss in misses:
        print(f"  UNEXPECTED {miss}")
    keep = metrics if args.trace else {k: metrics[k] for k in END_TO_END}
    print(json.dumps({
        "correct": not misses,
        "attempted": attempted,
        "failed": tally["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in keep.items()},
    }))


if __name__ == "__main__":
    main()
