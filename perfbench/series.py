#!/usr/bin/env python3
"""Run the benchmark over several seeds and collect the results.

    python3 perfbench/series.py --seeds 1-10 --out .perfbench_work/base.json
    python3 perfbench/series.py --workloads planewave --seeds 1-5 --trace 1

Runs perfbench/run.py once per workload and seed, one process after
another, and writes all results to one series file, the input of
perfbench/compare.py. It then prints, per workload and metric, the
median, the quartiles and the spread (quartile distance over median)
against a third of the metric's bound in BENCHMARK.json. setup_s is
exempt from that spread check.
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from compare import by_metric, spread, summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="run the benchmark over several seeds")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(ROOT / ".perfbench_work" / "series.json"))
    args = parser.parse_args(argv)

    runs = []
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            t = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            wall = time.perf_counter() - t
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"series: {workload} seed {seed} exited with {proc.returncode}")
            last = json.loads(lines[-1])
            result_line = next(line for line in lines if line.startswith("result: "))
            result = json.loads((ROOT / result_line.split(": ", 1)[1]).read_text(encoding="ascii"))
            runs.append(result)
            print(f"{workload} seed {seed}: wall={wall:.1f}s correct={last['correct']} "
                  f"attempted={last['attempted']} failed={last['failed']}", flush=True)
            if not args.trace:
                for k, m in result["metrics"].items():
                    print(f"    {k:<18} {m['value']:<12.6g} {m['unit']:<6} samples {m['samples']}")
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps({"runs": runs}, indent=1) + "\n", encoding="ascii")
    print(f"series written to {args.out}")

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    table, _ = by_metric(runs)
    status = 0
    for (workload, name), values in sorted(table.items()):
        if name not in bounds:
            continue
        vals = list(values.values())
        med, q1, q3 = summary(vals)
        s = spread(vals)
        limit = bounds[name] / 3
        ok = name == "setup_s" or s < limit
        status |= not ok
        print(f"{workload:<11} {name:<12} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
              f"spread {s:.4f} (bound/3 {limit:.4f}) {'ok' if ok else 'TOO WIDE'}")
    return status


if __name__ == "__main__":
    sys.exit(main())
