"""Self-checks of the benchmark itself.

    python3 perfbench/selfcheck.py [--seed N] [WORKLOAD ...]

For each workload (all four by default), in fresh interpreters:
  1. for the generated workloads, the same seed produces identical inputs
     and another seed different ones;
  2. a traced and an untraced cold pass give byte-identical job reports;
  3. two untraced cold passes give byte-identical job reports.
Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import subprocess
import sys

from run import BENCH, ROOT, WORKLOADS, worker

GENERATED = ("prolong-poly", "zero-kernels")

_INPUTS_PROBE = """
import hashlib, sys
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
print(hashlib.sha256(workloads.generated_inputs({name!r}, {seed!r}).encode()).hexdigest())
"""


def inputs_digest(name, seed):
    probe = _INPUTS_PROBE.format(src=str(ROOT / "src"), bench=str(BENCH), name=name, seed=seed)
    return subprocess.run([sys.executable, "-c", probe], cwd=ROOT, check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def pass_digest(name, seed, mode):
    return worker(name, seed, mode)[0]["passes"][0]["digest"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = parser.parse_args()
    failures = []

    def check(ok, what):
        print(f"{'PASS' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    for name in args.workloads:
        if name in GENERATED:
            first = inputs_digest(name, args.seed)
            check(first == inputs_digest(name, args.seed),
                  f"{name}: seed {args.seed} gives identical inputs in two interpreters")
            check(first != inputs_digest(name, args.seed + 1),
                  f"{name}: seeds {args.seed} and {args.seed + 1} give different inputs")
        plain = pass_digest(name, args.seed, "plain")
        check(plain == pass_digest(name, args.seed, "traced"),
              f"{name}: traced and untraced reports are byte-identical")
        check(plain == pass_digest(name, args.seed, "plain"),
              f"{name}: two untraced runs give byte-identical reports")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
