#!/usr/bin/env python3
"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Checks BENCHMARK.json against the benchmark file format, then runs
every workload at the tiny size (n = 8 grids, one certificate per
subcommand) with --trace 0 and --trace 1 and checks the result line's
schema: exactly the keys correct, attempted, failed and metrics, and
exactly the metrics BENCHMARK.json names, each a finite number with the
named unit and also printed in the table with that unit. Verdicts and
times are not checked: tiny grids cannot meet the compat thresholds.
Last, it checks that the benchmark fails, without a result line, in a
directory that holds only BENCHMARK.json and perfbench/.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")


def check_spec(spec, problems):
    if set(spec) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        problems.append(f"BENCHMARK.json keys: {sorted(spec)}")
    if len(json.dumps(spec)) > 64 * 1024:
        problems.append("BENCHMARK.json is over 64 KiB")
    if not (1 <= len(spec["paths"]) <= 16 and all(PATH.fullmatch(p) and ".." not in p for p in spec["paths"])):
        problems.append(f"bad paths: {spec['paths']}")
    if not (isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60):
        problems.append(f"bad run_seconds: {spec['run_seconds']}")
    names = []
    for w in spec["workloads"]:
        names.append(w["name"])
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"bad workload entry: {w}")
    if not 2 <= len(spec["workloads"]) <= 8:
        problems.append("need 2 to 8 workloads")
    for group, keys, most in (("end_to_end", {"name", "unit", "better", "bound"}, 16),
                              ("per_layer", {"name", "unit", "better"}, 128)):
        if not 1 <= len(spec[group]) <= most:
            problems.append(f"{group}: {len(spec[group])} metrics")
        for m in spec[group]:
            names.append(m["name"])
            if set(m) != keys or not UNIT.fullmatch(m["unit"]) or m["better"] not in ("higher", "lower"):
                problems.append(f"bad {group} entry: {m}")
            if "bound" in m and not 0 < m["bound"] <= 0.25:
                problems.append(f"bad bound: {m}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s must be an end-to-end metric in s, lower is better")
    elif setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        problems.append("setup_s should have the largest bound")
    bad = [n for n in names if not NAME.fullmatch(n)]
    dup = {n for n in names if names.count(n) > 1}
    if bad or dup:
        problems.append(f"bad names {bad}, duplicates {sorted(dup)}")


def check_run(spec, workload, trace, problems):
    cmd = [*spec["command"], "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    where = f"{workload} --trace {trace}"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        problems.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        problems.append(f"{where}: last line is not JSON: {lines[-1][:200]}")
        return
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
        return
    if not isinstance(result["correct"], bool):
        problems.append(f"{where}: correct is not a boolean")
    if type(result["attempted"]) is not int or result["attempted"] < 1 or type(result["failed"]) is not int:
        problems.append(f"{where}: attempted/failed are not counts")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(wanted):
        problems.append(f"{where}: metrics differ: missing {sorted(set(wanted) - set(got))}, "
                        f"extra {sorted(set(got) - set(wanted))}")
    table = lines[:-1]
    for name, unit in wanted.items():
        m = got.get(name, {})
        value = m.get("value")
        if set(m) != {"value", "unit"} or m["unit"] != unit:
            problems.append(f"{where}: {name}: {m}")
        elif isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} is not a finite number: {value!r}")
        if not any(line.split()[:1] == [name] and unit in line.split() for line in table):
            problems.append(f"{where}: {name} not printed with unit {unit}")


def check_bare(spec, problems):
    """Only BENCHMARK.json and perfbench/: the run must fail without a result."""
    bare = ROOT / ".perfbench_work" / f"smoke-bare-{os.getpid()}"
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for p in spec["paths"]:
            shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
        cmd = [*spec["command"], "--workload", spec["workloads"][0]["name"], "--seed", "1",
               "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        if proc.returncode == 0 or last.startswith("{"):
            problems.append(f"bare directory: exit {proc.returncode}, last line {last[:200]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    check_spec(spec, problems)
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, w["name"], trace, problems)
    check_bare(spec, problems)
    for p in problems:
        print(f"smoke: {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
