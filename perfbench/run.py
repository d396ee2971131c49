#!/usr/bin/env python3
"""perfbench: the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload train|sched|serve --seed N \
        --seconds S --trace 0|1

Run it from the repository root. It builds the library, the `mphpc` CLI and
the harness (Release, contracts compiled to assumptions) under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
harness, checks the result against BENCHMARK.json and prints it as the last
line of stdout. With --trace 1 it runs the harness untraced and then traced
on the same seed, reports the per-layer metrics of the traced run and the
tracing overhead (traced minus untraced, as a share of untraced) of the
stage timings. Exits non-zero without a result line when anything fails.
"""

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import time

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
WORKLOADS = ("train", "sched", "serve")
# Stage timings whose traced/untraced difference is the tracing overhead.
OVERHEAD_OF = ("train_s", "sched_paper_s", "serve_p50_ms")
RUN_BUDGET_S = 170.0  # every run must end within 180 s once built


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def validate_spec(spec):
    """Problems with BENCHMARK.json's metric lists (empty when valid)."""
    problems = []
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    if len(names) != len(set(names)):
        problems.append("metric names are not unique")
    for metric in spec["end_to_end"] + spec["per_layer"]:
        if not NAME_RE.match(metric["name"]):
            problems.append(f"bad metric name {metric['name']!r}")
        if not UNIT_RE.match(metric["unit"]):
            problems.append(f"{metric['name']}: bad unit {metric['unit']!r}")
        if metric["better"] not in ("lower", "higher"):
            problems.append(f"{metric['name']}: better must be lower or higher")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if any(not 0 < b <= 0.25 for b in bounds.values()):
        problems.append("every bound must be in (0, 0.25]")
    if "setup_s" not in bounds or bounds["setup_s"] < max(bounds.values()):
        problems.append("setup_s must have the largest bound")
    return problems


def expected_metrics(spec, trace):
    """{name: unit} the result must report, from BENCHMARK.json."""
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def validate_result(result, expected):
    """Problems with a result object (an empty list when it is valid)."""
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return [f"result keys must be exactly {sorted(RESULT_KEYS)}"]
    problems = []
    if not isinstance(result["correct"], bool):
        problems.append("correct must be a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append(f"{key} must be a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted must be at least 1")
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        return problems + ["metrics must be an object"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        problems.append(f"metric names differ: missing {missing}, unexpected {extra}")
    for name, entry in metrics.items():
        if not NAME_RE.match(name):
            problems.append(f"bad metric name {name!r}")
        if not isinstance(entry, dict) or set(entry) != {"value", "unit"}:
            problems.append(f"{name}: entry must hold exactly value and unit")
            continue
        value = entry["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            problems.append(f"{name}: value must be a finite number")
        if name in expected and entry["unit"] != expected[name]:
            problems.append(f"{name}: unit {entry['unit']!r}, expected {expected[name]!r}")
    return problems


def build_dir(root):
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(root, base, "perfbench")


def build(root, digest):
    """Configures (once) and builds the two programs; returns their paths.

    A stamp holding the source digest of the last good build skips the
    up-to-date check when nothing changed."""
    out = build_dir(root)
    programs = (os.path.join(out, "perfbench_harness"),
                os.path.join(out, "mphpc_tools", "mphpc"))
    stamp = os.path.join(out, "built-from.sha256")
    if all(os.path.exists(p) for p in programs) and os.path.exists(stamp):
        with open(stamp, encoding="utf-8") as f:
            if f.read() == digest:
                return programs
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "mphpc_cli", "perfbench_harness",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"build step failed: {' '.join(step)}")
    with open(stamp, "w", encoding="utf-8") as f:
        f.write(digest)
    return programs


def source_provenance(root):
    """Git sha when the tree is a git checkout, plus a digest of the sources."""
    sha = "none"
    if os.path.isdir(os.path.join(root, ".git")) and shutil.which("git"):
        done = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        if done.returncode == 0:
            sha = done.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {"git_sha": sha, "source_sha256": digest.hexdigest()}


def run_harness(harness, mphpc, args, trace, run_dir, deadline):
    """Runs the harness once; returns (report, result) parsed from stdout."""
    shutil.rmtree(run_dir, ignore_errors=True)
    command = [harness, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "1" if trace else "0",
               "--mphpc", mphpc, "--run-dir", run_dir]
    child = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise RuntimeError("harness ran out of time")
    if child.returncode != 0:
        raise RuntimeError(f"harness exited with code {child.returncode}")
    lines = [line for line in stdout.splitlines() if line.strip()]
    if len(lines) < 2:
        raise RuntimeError("harness printed no result")
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def with_overhead(untraced, traced_report, traced):
    """Adds trace.overhead_pct.<metric> from the untraced/traced pair."""
    base = untraced[0]["end_to_end"]
    seen = traced_report["end_to_end"]
    metrics = dict(traced["metrics"])
    for name in OVERHEAD_OF:
        metrics[f"trace.overhead_pct.{name}"] = {
            "value": 100.0 * (seen[name] - base[name]) / base[name], "unit": "%"}
    return {
        "correct": untraced[1]["correct"] and traced["correct"],
        "attempted": untraced[1]["attempted"] + traced["attempted"],
        "failed": untraced[1]["failed"] + traced["failed"],
        "metrics": metrics,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    root = os.getcwd()
    try:
        spec = load_spec(root)
        problems = validate_spec(spec)
        if problems:
            raise ValueError("BENCHMARK.json: " + "; ".join(problems))
        source = source_provenance(root)
        harness, mphpc = build(root, source["source_sha256"])
        deadline = time.monotonic() + RUN_BUDGET_S
        run_dir = os.path.relpath(os.path.join(build_dir(root), "run", args.workload), root)
        untraced = run_harness(harness, mphpc, args, False, run_dir, deadline)
        report, result = untraced
        if args.trace:
            report, traced = run_harness(harness, mphpc, args, True, run_dir, deadline)
            result = with_overhead(untraced, report, traced)
    except (OSError, RuntimeError, ValueError, KeyError) as error:
        log(str(error))
        return 1
    problems = validate_result(result, expected_metrics(spec, args.trace))
    if problems:
        for problem in problems:
            log(problem)
        return 1
    report["provenance"].update(source)
    results = os.path.join(build_dir(root), "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w", encoding="utf-8") as f:
        json.dump({"report": report, "result": result}, f, indent=1)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
