#!/usr/bin/env python3
"""Runs one workload of the MQO macro benchmark and prints its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload tpcd_exec --seed 1 --seconds 20 --trace 0

Builds the library and perfbench/perfbench.cc with CMake (Release) under
.bench_build/ — the first run compiles, later runs reuse the build — then runs
the benchmark binary with MQO_* environment overrides removed. It checks the
counters that must repeat exactly for a seed against any earlier run of the
same seed on the same code — same contents of src/ and perfbench/ — in this
checkout (exit code 3 on drift), writes the full result to
.bench_build/results/, and prints one JSON object as the last line of stdout:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 its per-layer metrics.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("tpcd_exec", "dashboard_sql", "service_mix")
RUN_TIMEOUT_S = 170

# Layer times that add up to the replica batch time (unattributed included).
LAYERS = ("parser.parse_ms", "lqdag.build_ms", "optimizer.setup_ms",
          "optimizer.select_ms", "optimizer.plan_ms", "vexec.exec_ms",
          "session.unattributed_ms")


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, log):
    result = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            text=True, check=False)
    log.write(result.stdout)
    if result.returncode != 0:
        sys.stderr.write(result.stdout[-4000:])
        fail(f"command failed: {' '.join(cmd)}")


def build():
    """Configures once and builds incrementally; returns the binary path."""
    BUILD.mkdir(exist_ok=True)
    obj = BUILD / "perfbench"
    with open(BUILD / "build.lock", "w") as lock, \
            open(BUILD / "build.log", "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (obj / "CMakeCache.txt").exists():
            run_logged(["cmake", "-S", str(HERE), "-B", str(obj),
                        "-DCMAKE_BUILD_TYPE=Release"], log)
        jobs = str(min(4, os.cpu_count() or 1))
        run_logged(["cmake", "--build", str(obj), "-j", jobs], log)
    return obj / "mqo_perfbench"


def load_metric_units(trace):
    config_path = ROOT / "BENCHMARK.json"
    if not config_path.is_file():
        fail("BENCHMARK.json not found at the repository root")
    config = json.loads(config_path.read_text())
    section = config["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def code_digest():
    """Hash of the sources the benchmark builds (src/ and perfbench/)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
                digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


def check_exact(code, workload, seed, trace, exact):
    """Compares this run's exact counters with the first run of the seed on
    the same code; another version of the code starts a record of its own."""
    record_dir = BUILD / "exact" / code
    record_dir.mkdir(parents=True, exist_ok=True)
    path = record_dir / f"{workload}-seed{seed}-trace{trace}.json"
    if path.exists():
        first = json.loads(path.read_text())
        drifted = sorted(k for k in set(first) | set(exact)
                         if first.get(k) != exact.get(k))
        if drifted:
            for k in drifted:
                print(f"perfbench: {k} drifted: first run {first.get(k)}, "
                      f"this run {exact.get(k)}", file=sys.stderr)
            fail("exact-repeat counters drifted for this seed", 3)
    else:
        path.write_text(json.dumps(exact, indent=1, sort_keys=True) + "\n")


def layer_shares(metrics):
    total = sum(metrics[k] for k in LAYERS)
    return {k: metrics[k] / total for k in LAYERS} if total > 0 else {}


def overhead_vs_untraced(results_dir, code, workload, seed, info):
    """Traced replica batch p50 against batch_ms_p50 of an untraced run of
    the same seed and code, in percent; None when there is no such run."""
    path = results_dir / f"{workload}-seed{seed}.e2e.json"
    if not path.is_file():
        return None
    e2e = json.loads(path.read_text())
    if e2e.get("code") != code:
        return None
    untraced = e2e["info"]["batch_ms_p50"]
    return 100.0 * (info["replica_batch_ms_p50"] / untraced - 1.0)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    units = load_metric_units(args.trace)
    code = code_digest()
    binary = build()
    env = {k: v for k, v in os.environ.items() if not k.startswith("MQO_")}
    spill_dir = BUILD / f"spill-{os.getpid()}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spill-dir", str(spill_dir)]
    try:
        result = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                                timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(spill_dir, ignore_errors=True)
    if result.returncode != 0:
        fail(f"benchmark exited with code {result.returncode}",
             result.returncode if result.returncode > 0 else 1)
    lines = result.stdout.strip().splitlines()
    if not lines:
        fail("benchmark printed no result")
    raw = json.loads(lines[-1])

    missing = sorted(set(units) - set(raw["metrics"]))
    if missing:
        fail(f"benchmark did not report {', '.join(missing)}")
    check_exact(code, args.workload, args.seed, args.trace, raw["exact"])

    metrics = {name: {"value": raw["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    out = {"correct": raw["correct"], "attempted": raw["attempted"],
           "failed": raw["failed"], "metrics": metrics}

    results_dir = BUILD / "results"
    results_dir.mkdir(exist_ok=True)
    kind = "trace" if args.trace else "e2e"
    report = dict(out, workload=args.workload, seed=args.seed, code=code,
                  seconds=args.seconds, exact=raw["exact"], info=raw["info"])
    if args.trace:
        report["layer_shares"] = layer_shares(raw["metrics"])
        report["trace_overhead_vs_untraced_pct"] = overhead_vs_untraced(
            results_dir, code, args.workload, args.seed, raw["info"])
    (results_dir / f"{args.workload}-seed{args.seed}.{kind}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(json.dumps(out))


if __name__ == "__main__":
    main()
