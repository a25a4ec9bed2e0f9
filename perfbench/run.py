#!/usr/bin/env python3
"""Run one workload of the ganacc repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N   # each workload in turn
    python3 perfbench/run.py --self-test

Run from the root of a ganacc source tree. The first run builds the
libraries, the ganacc-served daemon and the measuring program into
.bench_build/ (Release). The measuring program writes its result file,
and with --trace 1 a Perfetto-loadable trace, to .bench_out/.

The last line of standard output is the result: one JSON object with
the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are the end_to_end metrics of BENCHMARK.json, with --trace 1
its per_layer metrics. A per-layer metric whose layer the workload does
not exercise reads 0. Any build or run failure exits non-zero without a
result line.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
TARGETS = ["perfbench", "perfbench_selftest", "ganacc_served"]
RUN_TIMEOUT_S = 170
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
# Runnable on request but not one of BENCHMARK.json's workloads: on a
# shared host its run-to-run spread exceeds the metric bounds (see
# README.md). It reports the same metrics.
UNGATED = ["dse-sweep"]


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(root):
    """Configure once, then build the targets incrementally."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        die("no ganacc sources here (src/CMakeLists.txt missing); run "
            "from the root of a ganacc source tree")
    build_dir = os.path.join(root, BUILD_DIR)
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "a") as log:
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=log, stderr=log).returncode:
                cache = os.path.join(build_dir, "CMakeCache.txt")
                if os.path.exists(cache):
                    os.remove(cache)
                die(f"configure failed; see {log_path}")
        cmd = ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
               "--target"] + TARGETS
        if subprocess.run(cmd, stdout=log, stderr=log).returncode:
            die(f"build failed; see {log_path}")
    return build_dir


def source_id(root):
    """The git commit, or a digest of the sources when there is none."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ["CMakeLists.txt", "src", "tools", "perfbench"]:
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "sources-sha256:" + h.hexdigest()[:16]


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for group in ("end_to_end", "per_layer"):
        for m in spec[group]:
            if not NAME_RE.match(m["name"]):
                die(f"bad metric name {m['name']!r}")
    return spec


def run_workload(root, build_dir, spec, name, args):
    """Run one workload; print its metrics and its result line."""
    env = dict(os.environ, PERFBENCH_COMMIT=source_id(root))
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", name, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--served", os.path.join(build_dir, "ganacc_tools",
                                    "ganacc-served"),
           "--out", os.path.join(root, OUT_DIR)]
    # Its own process group, so a timeout stops its daemons too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die(f"{name} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        die(f"{name} failed with exit code {proc.returncode}")
    raw = json.loads(out.strip().splitlines()[-1])

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    idle = []
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None:
            if not args.trace:
                die(f"{name} did not report {m['name']}")
            got = {"value": 0, "unit": m["unit"]}
            idle.append(m["name"])
        elif got["unit"] != m["unit"]:
            die(f"{m['name']}: unit {got['unit']!r}, BENCHMARK.json says "
                f"{m['unit']!r}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    for metric, m in metrics.items():
        print(f"{name:15s} {metric:40s} {m['value']:>16.6g} {m['unit']}")
    if idle:
        print(f"{name}: layers not exercised (reported as 0): "
              f"{' '.join(idle)}")
    print(json.dumps({"correct": bool(raw["correct"]),
                      "attempted": int(raw["attempted"]),
                      "failed": int(raw["failed"]),
                      "metrics": metrics}), flush=True)
    return bool(raw["correct"])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="a workload of BENCHMARK.json, "
                    "dse-sweep, or 'all' to run BENCHMARK.json's in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the generator self-tests")
    args = ap.parse_args()

    root = os.getcwd()
    build_dir = build(root)
    if args.self_test:
        test = subprocess.run(
            [os.path.join(build_dir, "perfbench_selftest"),
             os.path.join(root, "BENCHMARK.json")])
        sys.exit(test.returncode)

    spec = load_spec(root)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        correct = [run_workload(root, build_dir, spec, n, args)
                   for n in names]
        sys.exit(0 if all(correct) else 1)
    if args.workload not in names + UNGATED:
        die(f"--workload must be 'all' or one of "
            f"{', '.join(names + UNGATED)}")
    run_workload(root, build_dir, spec, args.workload, args)


if __name__ == "__main__":
    main()
