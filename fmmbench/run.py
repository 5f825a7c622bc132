#!/usr/bin/env python3
"""Repository benchmark: builds amtfmm from source and runs one workload.

    python3 fmmbench/run.py --workload paper_laplace --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The first run configures and builds the
amtfmm libraries and tools/amtfmm_launch with the repository's own CMake
files, then the benchmark package in fmmbench/ against those static libraries;
everything lands under .bench_build/ (or $CARGO_TARGET_DIR).  Later runs only
rebuild what changed.

The program (fmmbench/fmmbench.cpp) makes its inputs from --seed, checks every
evaluation, and reports.  mesh_2rank runs it as two socket ranks under
tools/amtfmm_launch.  The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.  The line
before it is the program's detailed report.  A crash or timeout still prints a
result (correct: false) in which every epoch the run did not finish counts as
failed, and the exit code is nonzero.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LIMIT_S = 170.0  # a run (without the first build) must end within 180 s
# Workloads the program implements but BENCHMARK.json does not list yet.  They
# run by hand and print every metric the program gives them.  mesh_2rank waits
# on the NetTransport bootstrap race (a peer's clock-sync ping read together
# with its hello trips the `dec.buffered() == 0` assertion in
# src/runtime/net/transport.cpp), which aborts a share of 2-rank launches.
UNLISTED = ("mesh_2rank",)


def log(msg):
    print("fmmbench: " + msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec


def build_root():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def sh(cmd, env):
    """Runs a build step; its output goes to stderr so stdout stays clean."""
    r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                       stderr=sys.stderr)
    if r.returncode != 0:
        raise RuntimeError("build step failed: " + " ".join(cmd))


def build(env):
    """Builds the libraries, the launcher and the program; returns paths."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        raise RuntimeError("no amtfmm sources next to fmmbench/")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    out = build_root()
    repo_build = os.path.join(out, "repo")
    bench_build = os.path.join(out, "fmmbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(repo_build, "CMakeCache.txt")):
        sh(["cmake", "-S", ROOT, "-B", repo_build,
            "-DCMAKE_BUILD_TYPE=Release"], env)
    sh(["cmake", "--build", repo_build, "-j", jobs, "--target",
        "amtfmm_core", "amtfmm_geom", "amtfmm_launch"], env)
    if not os.path.isfile(os.path.join(bench_build, "CMakeCache.txt")):
        sh(["cmake", "-S", HERE, "-B", bench_build,
            "-DCMAKE_BUILD_TYPE=Release",
            "-DAMTFMM_SOURCE_DIR=" + ROOT,
            "-DAMTFMM_BUILD_DIR=" + repo_build], env)
    sh(["cmake", "--build", bench_build, "-j", jobs], env)
    return (os.path.join(bench_build, "fmmbench"),
            os.path.join(repo_build, "tools", "amtfmm_launch"))


def run_program(cmd, env, timeout):
    """Runs the program in its own process group; kills the group on timeout
    and always waits for it.  Returns (returncode or None, stdout lines)."""
    p = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                         stderr=sys.stderr, text=True, start_new_session=True)
    try:
        out, _ = p.communicate(timeout=timeout)
        return p.returncode, out.splitlines()
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGTERM)
        try:
            out, _ = p.communicate(timeout=5)
        except subprocess.TimeoutExpired:
            os.killpg(p.pid, signal.SIGKILL)
            out, _ = p.communicate()
        return None, (out or "").splitlines()


def crashed_result(lines, seconds, started, ended):
    """A run that died: every epoch it did not finish counts as failed.  The
    remaining epochs are estimated from the steady window still owed at the
    median epoch latency seen so far (at least the one in flight)."""
    done = [ln.split() for ln in lines if ln.startswith("E ")]
    attempted = len(done)
    failed = sum(1 for d in done if len(d) > 2 and d[2] != "ok")
    lat = sorted(float(d[3]) for d in done if len(d) > 3)
    med = lat[len(lat) // 2] if lat else 0.0
    owed = max(0.0, seconds - (ended - started))
    remaining = 1 + (int(math.ceil(owed / med)) if med > 0 else 0)
    return {"correct": False, "attempted": attempted + remaining,
            "failed": failed + remaining, "metrics": {}}


def check_result(res, names, exact):
    """The program's result must carry the metrics BENCHMARK.json lists for
    this mode (exactly those for a listed workload), each a finite number
    with the listed unit."""
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError("result keys: %s" % sorted(res))
    got = res["metrics"]
    if not set(names) <= set(got) or (exact and set(got) != set(names)):
        missing = sorted(set(names) - set(got))
        extra = sorted(set(got) - set(names))
        raise RuntimeError("metric set differs: missing %s, extra %s"
                           % (missing, extra))
    for name, unit in names.items():
        v = got[name]
        if v.get("unit") != unit or not isinstance(v.get("value"), (int, float)) \
                or not math.isfinite(v["value"]):
            raise RuntimeError("bad metric %s: %s" % (name, v))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    t_start = time.monotonic()
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads + list(UNLISTED):
        log("unknown workload %r (have %s)" % (args.workload, workloads))
        return 2
    key = "per_layer" if args.trace else "end_to_end"
    names = {m["name"]: m["unit"] for m in spec[key]}
    listed = args.workload in workloads

    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(build_root(), "tmp")  # compiler temp files
    try:
        program, launcher = build(env)
    except (RuntimeError, OSError) as e:
        log(str(e))
        return 1
    built_s = time.monotonic() - t_start

    out_dir = os.path.join(build_root(), "out")
    os.makedirs(out_dir, exist_ok=True)
    drv = [program, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
           "--out-dir=" + out_dir]
    # The run's own clock starts after the build, which only the first run
    # of a checkout pays.
    timeout = max(30.0, LIMIT_S - min(built_s, 10.0))
    net_dir = None
    if args.workload == "mesh_2rank":
        # A relative bootstrap directory keeps the Unix socket paths short.
        net_dir = os.path.relpath(
            os.path.join(build_root(), "net", str(os.getpid())), ROOT)
        os.makedirs(os.path.join(ROOT, net_dir), exist_ok=True)
        cmd = [launcher, "--np=2", "--transport=unix", "--dir=" + net_dir,
               "--timeout=%d" % int(timeout - 5), "--"] + drv
    else:
        cmd = drv
    t_run = time.monotonic()
    rc, lines = run_program(cmd, env, timeout)
    t_end = time.monotonic()
    if net_dir is not None:
        # The launcher already printed the failed ranks' stderr tails.
        shutil.rmtree(os.path.join(ROOT, net_dir), ignore_errors=True)

    result = None
    report = None
    if rc == 0 and lines:
        try:
            result = json.loads(lines[-1])
            report = lines[-2] if len(lines) > 1 and \
                lines[-2].startswith('{"report"') else None
        except ValueError:
            result = None
    if result is None:
        log("fmmbench %s after %.1f s" % (
            "timed out" if rc is None else "exited with %s" % rc,
            t_end - t_run))
        print(json.dumps(crashed_result(lines, args.seconds, t_run, t_end)))
        return 1
    try:
        check_result(result, names, listed)
    except RuntimeError as e:
        log(str(e))
        return 1
    if report is not None:
        print(report)
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
