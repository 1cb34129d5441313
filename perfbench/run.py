#!/usr/bin/env python3
"""Benchmark of the Sia scheduler stack.

Builds the `perfbench` package (perfbench/Cargo.toml) from source, runs one
workload in a fresh process and prints its result.

    python3 perfbench/run.py --workload philly64 --seed 1 --seconds 10 --trace 0

prints the end-to-end metrics (`--trace 1`: the per-layer metrics) as a
table, then, as the last line of standard output, one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`. The exit code is 1 when
a correctness check failed and 2 when the benchmark could not run.

    python3 perfbench/run.py [--seconds 10] [--seed N]

runs every workload at its recorded seed (or at N), untraced and then
traced, each in a fresh process, and prints every end-to-end metric under
its workload-specific name plus the per-layer table. The cargo build goes to
$CARGO_TARGET_DIR, by default `.bench_build` at the root of the checkout.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
MANIFEST = BENCH_DIR / "manifest.json"
CONTRACT = ROOT / "BENCHMARK.json"
# A run measures for --seconds; set-up, the last repetition and the
# correctness checks come on top. Past this the child is killed.
GRACE_S = 120.0


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_json(path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {path.name}: {e}")


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build").resolve()


def build():
    """Builds the benchmark binary; cargo's output goes to stderr."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH_DIR / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=900)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    return target_dir() / "release" / "perfbench"


def run_workload(binary, workload, seed, seconds, trace):
    """Runs one workload in a fresh process; returns its report and exit code."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        spans = target_dir() / "perfbench-spans" / f"{workload}-seed{seed}.jsonl"
        cmd += ["--spans-out", str(spans)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=seconds + GRACE_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {seconds + GRACE_S:.0f} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        fail(f"{workload} exited with code {done.returncode}")
    try:
        return json.loads(lines[-1]), done.returncode
    except ValueError:
        fail(f"{workload} printed no report")


def contract_names(contract, trace):
    section = contract["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def contract_line(report, names):
    """The result object the contract asks for, restricted to `names`."""
    metrics = report["metrics"]
    if set(metrics) != set(names):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        raise ValueError(f"metric set differs from BENCHMARK.json: missing {missing}, extra {extra}")
    for name, unit in names.items():
        if metrics[name]["unit"] != unit:
            raise ValueError(f"{name}: unit {metrics[name]['unit']} != {unit}")
    return {
        "correct": bool(report["correct"]),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {k: {"value": metrics[k]["value"], "unit": metrics[k]["unit"]}
                    for k in sorted(names)},
    }


def fmt(value):
    if value == 0:
        return "0"
    if abs(value) >= 1e5 or value == int(value):
        return f"{value:.0f}"
    return f"{value:.4g}"


def print_e2e(report):
    print(f"== {report['workload']} (seed {report['seed']}, {report['reps']} repetitions, "
          f"{report['workers']} pool workers) end to end")
    for m in report["named"]:
        print(f"  {m['name']:<28} {fmt(m['value']):>14} {m['unit']:<6} n={m['n']}")


def print_layers(report, manifest):
    layers = manifest["per_layer"]
    metrics = report["metrics"]
    print(f"== {report['workload']} (seed {report['seed']}) per layer, one traced repetition")
    idle = [name for name in layers if metrics[name]["n"] == 0]
    for name in layers:
        m = metrics[name]
        if name in idle:
            continue
        base = layers[name].get("base")
        share = ""
        if base and metrics[base]["value"] > 0 and m["value"] != 0:
            share = f"{m['value'] / metrics[base]['value']:7.1%} of {base}"
        print(f"  {name:<28} {fmt(m['value']):>14} {m['unit']:<6} n={m['n']:<8} {share}")
    if idle:
        print(f"  not loaded by this workload: {', '.join(idle)}")
    if "layers_add_up" in report["checks"]:
        held = report["checks"]["layers_add_up"]
        print(f"  identities (core.schedule_s + sim.self_s = sim.run_s, core phases + "
              f"core.unattributed_s = core.schedule_s): held on {held} of {report['reps']} repetitions")


def run_all(binary, manifest, seconds, seed):
    ok = True
    for workload, entry in manifest["workloads"].items():
        s = entry["seed"] if seed is None else seed
        for trace in (False, True):
            report, code = run_workload(binary, workload, s, seconds, trace)
            (print_layers(report, manifest) if trace else print_e2e(report))
            if code != 0 or not report["correct"]:
                ok = False
                for failure in report["failures"]:
                    print(f"  CHECK FAILED: {failure}")
        print(f"  checks: {', '.join(f'{k} x{n}' for k, n in report['checks'].items())}")
        if report.get("spans_file"):
            print(f"  spans: {report['spans_file']}")
    print("all checks passed" if ok else "CHECKS FAILED")
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")
    manifest = load_json(MANIFEST)
    if args.workload is not None and args.workload not in manifest["workloads"]:
        fail(f"unknown workload {args.workload!r}")
    binary = build()
    if args.workload is None:
        return run_all(binary, manifest, args.seconds, args.seed)
    if args.seed is None:
        fail("--seed is required with --workload")
    contract = load_json(CONTRACT)
    report, code = run_workload(binary, args.workload, args.seed, args.seconds, args.trace == 1)
    (print_layers(report, manifest) if args.trace else print_e2e(report))
    for failure in report["failures"]:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    try:
        line = contract_line(report, contract_names(contract, args.trace == 1))
    except ValueError as e:
        fail(str(e))
    print(json.dumps(line))
    return 0 if code == 0 and line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
