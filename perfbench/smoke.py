#!/usr/bin/env python3
"""Reduced-size smoke test of the benchmark itself.

Run from the root of the repository:

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json, and for the ungated kv_ingest, it
runs one short untraced and one short traced run and checks the result
line: exactly the metrics BENCHMARK.json names for that mode, with its
units, finite values, and `correct` true with nothing failed. As negative controls it checks that
a run with one perturbed reference value fails its output check (exit
status not 0, no result line), and that the benchmark fails the same way
in a directory holding only BENCHMARK.json and the benchmark's files.
Exits 0 when every check passes.
"""

import json
import math
import os
import shutil
import subprocess
import sys

SEED = "7"
SECONDS = "1"


def run(args, cwd=".", env=None):
    cmd = ["python3", "perfbench/run.py"] + args
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)


def result_line(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        obj = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return obj if isinstance(obj, dict) else None


def check_result(name, proc, expected):
    if proc.returncode != 0:
        return [f"{name}: exit {proc.returncode}: {proc.stderr.strip()[-400:]}"]
    obj = result_line(proc.stdout)
    if obj is None:
        return [f"{name}: no JSON result line"]
    errors = []
    if sorted(obj) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{name}: result keys {sorted(obj)}")
    if obj.get("correct") is not True or obj.get("failed") != 0:
        errors.append(f"{name}: correct={obj.get('correct')} failed={obj.get('failed')}")
    if not isinstance(obj.get("attempted"), int) or obj["attempted"] < 1:
        errors.append(f"{name}: attempted={obj.get('attempted')}")
    metrics = obj.get("metrics", {})
    if sorted(metrics) != sorted(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        errors.append(f"{name}: missing {missing}, unexpected {extra}")
    for key, unit in expected.items():
        m = metrics.get(key)
        if not isinstance(m, dict) or sorted(m) != ["unit", "value"]:
            continue
        if m["unit"] != unit:
            errors.append(f"{name}: {key} unit {m['unit']}, BENCHMARK.json says {unit}")
        v = m["value"]
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            errors.append(f"{name}: {key} value {v!r}")
    return errors


def check_refused(name, proc):
    if proc.returncode == 0:
        return [f"{name}: exited 0, expected a failure"]
    if result_line(proc.stdout) is not None:
        return [f"{name}: printed a result line although it failed"]
    return []


def isolated_copy(dest):
    """A directory holding only BENCHMARK.json and the benchmark's files."""
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(os.path.join(dest, "perfbench"))
    shutil.copy("BENCHMARK.json", dest)
    for entry in ["Cargo.toml", "Cargo.lock", "build.rs", "run.py", "smoke.py", "src"]:
        src = os.path.join("perfbench", entry)
        dst = os.path.join(dest, "perfbench", entry)
        if os.path.isdir(src):
            shutil.copytree(src, dst)
        else:
            shutil.copy(src, dst)


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    errors = []
    # kv_ingest is not gated (see README.md) but is still checked here.
    for w in [w["name"] for w in bench["workloads"]] + ["kv_ingest"]:
        base = ["--workload", w, "--seed", SEED, "--seconds", SECONDS]
        errors += check_result(f"{w} trace 0", run(base + ["--trace", "0"]), end_to_end)
        errors += check_result(f"{w} trace 1", run(base + ["--trace", "1"]), per_layer)
        perturbed = run(base + ["--trace", "0", "--perturb-reference"])
        errors += check_refused(f"{w} perturbed reference", perturbed)
        print(f"smoke: {w} checked", file=sys.stderr)

    dest = os.path.join("perfbench", "work", "isolated")
    isolated_copy(dest)
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.abspath(os.path.join(dest, "target")))
    w = bench["workloads"][0]["name"]
    args = ["--workload", w, "--seed", SEED, "--seconds", SECONDS, "--trace", "0"]
    errors += check_refused("isolated directory", run(args, cwd=dest, env=env))
    shutil.rmtree(dest, ignore_errors=True)

    for e in errors:
        print(f"smoke: FAIL {e}")
    print(f"smoke: {'FAILED' if errors else 'passed'}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
