#!/usr/bin/env python3
"""End-to-end gate for the live telemetry channel and post-mortem path.

Drives real binaries (no mocks) through four scenarios:

  1. live metrics, 2-process world: amtfmm_launch runs a 2-rank
     amtfmm_serve with --telemetry; the rank-0 aggregator's snapshot must
     hold samples from EVERY rank, and `amtfmm_top --once --prom` scraped
     from it must satisfy the Prometheus text-exposition grammar and
     expose the expected metric families;
  2. cross-rank trace merge: a 2-process amtfmm_serve writes per-rank
     traces of its resident epochs; `trace_report --merge` must exit 0
     with no negative cross-rank flows and sub-millisecond clock
     uncertainty;
  3. forced watchdog dump: amtfmm_serve with an injected stall and a
     shorter watchdog timeout must leave a loadable flight dump whose
     reason names the watchdog;
  4. (in-process) telemetry-on bench parity is gated separately by
     check_bench_serve.py; this script only asserts the channel works.

Usage: scripts/check_telemetry.py [--build-dir build] [--n 2000]
"""

import argparse
import json
import pathlib
import re
import subprocess
import sys
import tempfile

# Prometheus text exposition: `# TYPE name gauge` lines and
# `name{rank="N"} value` samples, nothing else.
TYPE_RE = re.compile(r"^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* gauge$")
SAMPLE_RE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*\{rank="\d+"\} '
    r"[-+]?(\d+\.?\d*([eE][-+]?\d+)?|inf|nan)$"
)
# Metric families every serving rank must expose.
REQUIRED_METRICS = (
    "amtfmm_sched_tasks_run_rate",
    "amtfmm_serve_epoch_us_window_count",
    "amtfmm_serve_epoch_us_p50",
    "amtfmm_serve_epoch_us_p99",
    "amtfmm_gas_objects_hw",
)


def run(cmd, **kw):
    print("+ " + " ".join(str(c) for c in cmd), flush=True)
    return subprocess.run([str(c) for c in cmd], **kw)


def check_live_metrics(tools, args, violations):
    with tempfile.TemporaryDirectory(prefix="amtfmm_tel.") as tel:
        r = run([
            tools / "amtfmm_launch", "--np=2", "--transport=unix",
            f"--dir={tel}", "--timeout=300", "--",
            tools / "amtfmm_serve", f"--n={args.n}", "--epochs=6",
            "--cores=2", f"--telemetry={tel}", "--telemetry-interval=0.1",
        ])
        if r.returncode != 0:
            violations.append(f"2-process telemetry serve exited {r.returncode}")
            return

        snap = json.loads((pathlib.Path(tel) / "telemetry.json").read_text())
        if snap.get("world") != 2:
            violations.append(f"snapshot world {snap.get('world')} != 2")
        for rank_entry in snap.get("ranks", []):
            if not rank_entry.get("samples"):
                violations.append(
                    f"rank {rank_entry.get('rank')}: no telemetry samples"
                    " reached the aggregator")
        if snap.get("rejected", 0) != 0:
            violations.append(f"{snap['rejected']} samples rejected")

        r = run([tools / "amtfmm_top", f"--dir={tel}", "--once", "--prom"],
                capture_output=True, text=True)
        if r.returncode != 0:
            violations.append(f"amtfmm_top --once --prom exited {r.returncode}")
            return
        seen_ranks, seen_names = set(), set()
        for line in r.stdout.splitlines():
            if not line:
                continue
            if line.startswith("#"):
                if not TYPE_RE.match(line):
                    violations.append(f"bad exposition comment: {line!r}")
                continue
            if not SAMPLE_RE.match(line):
                violations.append(f"bad exposition sample: {line!r}")
                continue
            seen_names.add(line.split("{", 1)[0])
            seen_ranks.add(re.search(r'rank="(\d+)"', line).group(1))
        if seen_ranks != {"0", "1"}:
            violations.append(f"exposition covers ranks {sorted(seen_ranks)},"
                              " want 0 and 1")
        for name in REQUIRED_METRICS:
            if name not in seen_names:
                violations.append(f"metric family {name} missing from"
                                  " exposition")


def check_trace_merge(tools, args, violations):
    with tempfile.TemporaryDirectory(prefix="amtfmm_mrg.") as d:
        d = pathlib.Path(d)
        r = run([
            tools / "amtfmm_launch", "--np=2", "--transport=unix",
            "--timeout=300", "--",
            tools / "amtfmm_serve", f"--n={args.n}", "--epochs=2",
            "--cores=2", f"--trace-out={d / 'trace'}",
        ])
        if r.returncode != 0:
            violations.append(f"2-process traced serve exited {r.returncode}")
            return
        r = run([
            tools / "trace_report", f"--merge={d / 'merged.json'}",
            d / "trace.0", d / "trace.1",
        ], capture_output=True, text=True)
        if r.returncode != 0:
            violations.append(
                f"trace_report --merge exited {r.returncode}: {r.stderr}")
            return
        report = json.loads(r.stdout)
        if report.get("negative_flows", -1) != 0:
            violations.append(
                f"{report.get('negative_flows')} negative cross-rank flows"
                " after clock correction")
        if report.get("max_uncertainty_s", 1.0) >= 1e-3:
            violations.append(
                f"clock uncertainty {report.get('max_uncertainty_s')}s not"
                " sub-millisecond")
        cp = report.get("cross_critical_path_s", 0.0)
        for rank in report.get("ranks", []):
            if cp < rank.get("critical_path_s", 0.0):
                violations.append(
                    f"cross-rank critical path {cp} below rank"
                    f" {rank.get('rank')}'s {rank.get('critical_path_s')}")
        # The merged file itself must be valid JSON (Perfetto-loadable).
        json.loads((d / "merged.json").read_text())


def check_watchdog_dump(tools, args, violations):
    with tempfile.TemporaryDirectory(prefix="amtfmm_wd.") as d:
        d = pathlib.Path(d)
        r = run([
            tools / "amtfmm_serve", f"--n={args.n}", "--epochs=3",
            "--localities=2", "--cores=2", f"--telemetry={d}",
            "--watchdog=0.5", "--stall=2.0",
        ])
        if r.returncode != 0:
            violations.append(f"stalled serve exited {r.returncode}")
            return
        dump_path = d / "flight.0.json"
        if not dump_path.exists():
            violations.append("watchdog fired but left no flight dump")
            return
        dump = json.loads(dump_path.read_text())
        meta = dump.get("amtfmm_flight", {})
        if "watchdog" not in meta.get("reason", ""):
            violations.append(
                f"flight dump reason {meta.get('reason')!r} does not name"
                " the watchdog")
        if not dump.get("traceEvents"):
            violations.append("flight dump holds no events")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--build-dir", default="build")
    ap.add_argument("--n", type=int, default=2000)
    args = ap.parse_args()
    tools = pathlib.Path(args.build_dir).resolve() / "tools"

    violations = []
    check_live_metrics(tools, args, violations)
    check_trace_merge(tools, args, violations)
    check_watchdog_dump(tools, args, violations)

    if violations:
        print(f"check_telemetry: {len(violations)} violation(s)")
        for v in violations:
            print("  " + v)
        return 1
    print("check_telemetry: live metrics, trace merge, and watchdog dump OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
