#!/usr/bin/env python3
"""Gate: a short fmmbench run of every BENCHMARK.json workload.

Runs `python3 fmmbench/run.py --workload W --seed 1 --seconds S --trace 0`
for each workload BENCHMARK.json lists.  fmmbench checks its own outputs
(accuracy against direct_sum, epoch-1 replay within 1e-12, wire_bytes ==
bytes_sent, zero steady-state GAS allocations); this gate fails on a
nonzero exit, on `correct: false` or on `failed > 0`.  Each run's output
is kept as OUT_DIR/fmmbench_W.txt.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_workload(name, args):
    """Runs one workload; returns a violation string or None."""
    cmd = [sys.executable, os.path.join(ROOT, "fmmbench", "run.py"),
           "--workload", name, "--seed", "1",
           "--seconds", "%g" % args.seconds, "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          check=False)
    out_path = os.path.join(args.out_dir, "fmmbench_%s.txt" % name)
    with open(out_path, "w", encoding="utf-8") as f:
        f.write(proc.stdout)
    if proc.returncode != 0:
        return "%s: fmmbench exited with %d" % (name, proc.returncode)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return "%s: no JSON result line (see %s)" % (name, out_path)
    print("check_fmmbench: %s correct: %s failed: %s"
          % (name, result.get("correct"), result.get("failed")))
    if result.get("correct") is not True:
        return "%s: correct is %r" % (name, result.get("correct"))
    if result.get("failed") != 0:
        return "%s: %r failed operations" % (name, result.get("failed"))
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", required=True,
                    help="directory for the per-workload fmmbench outputs")
    ap.add_argument("--seconds", type=float, default=2.0,
                    help="measured seconds per workload (default 2)")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    os.makedirs(args.out_dir, exist_ok=True)

    violations = [v for v in (run_workload(w, args) for w in workloads) if v]
    if violations:
        for v in violations:
            print("check_fmmbench: %s" % v, file=sys.stderr)
        return 1
    print("check_fmmbench: OK (%s)" % ", ".join(workloads))
    return 0


if __name__ == "__main__":
    sys.exit(main())
