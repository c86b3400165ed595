#!/usr/bin/env python3
"""tbdkit certificate benchmark.

    python3 perfbench/run.py --workload compat --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout, builds nothing (tbdkit is pure Python
and is imported from the checkout's src/) and drives the public entry
point tbdkit.cli.main in-process, one certificate after another: a
single-process closed loop. Every certificate runs on generated config
files and writes its reports, so config loading and report writing are
timed as users pay for them. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1
reports its per-layer metrics instead: each certificate runs traced,
untraced and traced again; the reports of the three runs must be
byte-identical and the counts of the two traced runs equal.

Workloads, metrics and the traced run are described in
perfbench/README.md.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import benchenv  # noqa: E402

benchenv.pin_threads()

import certs  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 6  # child processes that repeat the set-up; with this one, 7 samples
# Rough cost of one certificate here, used only to size the traced run
# (three runs per certificate) to about --seconds.
NOMINAL_CERT_S = {"compat": 6.0, "positivity": 0.4, "planewave": 0.1}


@dataclass
class CertRun:
    kind: str
    steps: list = field(default_factory=list)  # wall seconds of each tbdkit.cli.main call
    reason: str | None = None
    aliasing: int = 0
    digests: dict = field(default_factory=dict)

    @property
    def seconds(self):
        return sum(self.steps)


def import_cli():
    src = ROOT / "src"
    if not (src / "tbdkit" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no tbdkit sources under {src}")
    sys.path.insert(0, str(src))
    import tbdkit.cli as cli

    if Path(cli.__file__).resolve().parent != (src / "tbdkit").resolve():
        raise SystemExit(f"perfbench: imported tbdkit from {cli.__file__}, not from {src}")
    return cli


def write_inputs(pool, directory: Path):
    """Config files of every step of every certificate."""
    directory.mkdir(parents=True)
    paths = []
    for i, cert in enumerate(pool):
        cert_paths = []
        for k, step in enumerate(cert.steps):
            path = directory / f"{i:03d}-{k}-{step.command}.json"
            doc = {"schema": "tbdkit-config/1", "command": step.command, **step.config}
            path.write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="ascii")
            cert_paths.append(path)
        paths.append(cert_paths)
    return paths


def _digests(directory: Path):
    return {
        p.relative_to(directory).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


def run_cert(cli, aliasing_warning, cert, cfg_paths, outdir: Path, digest=False) -> CertRun:
    """Run one certificate; only the tbdkit.cli.main calls are timed."""
    run = CertRun(cert.kind)
    reports = []
    for k, (step, cfg) in enumerate(zip(cert.steps, cfg_paths)):
        out = outdir / f"step{k}"
        argv = [step.command, "--config", str(cfg), "--out", str(out), "--quiet"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t = time.perf_counter()
            try:
                rc = cli.main(argv)
            except Exception as e:  # a certificate that raises has failed; keep going
                rc = f"{type(e).__name__}: {e}"
                traceback.print_exc(limit=3, file=sys.stderr)
            run.steps.append(time.perf_counter() - t)
        run.aliasing += sum(issubclass(w.category, aliasing_warning) for w in caught)
        if rc != 0:
            run.reason = run.reason or f"{step.command} exited with {rc}"
            continue
        reports.append(json.loads((out / f"{step.command}.json").read_text(encoding="ascii")))
    if run.reason is None:
        run.reason = cert.check(reports)
    if run.reason is None and run.aliasing:
        run.reason = f"{run.aliasing} AliasingWarning(s)"
    if digest:
        run.digests = _digests(outdir)
    shutil.rmtree(outdir, ignore_errors=True)
    return run


def setup_probe(args):
    """Set-up time of one fresh process: import and input generation."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def end_to_end(args, cli, aliasing_warning, pool, paths, rundir, setup_s):
    # The pool cycles until --seconds of loop time have passed (at least
    # one full pass). The set-up probes are spread over the run, so they
    # sample the machine at different moments; their time is not loop time.
    attempts = [[] for _ in pool]
    setups = [setup_s]
    probe_every = args.seconds / (SETUP_REPEATS + 1)
    t_loop = time.perf_counter()
    probe_s = 0.0
    i = 0
    while i < len(pool) or time.perf_counter() - t_loop - probe_s < args.seconds:
        attempts[i % len(pool)].append(run_cert(cli, aliasing_warning, pool[i % len(pool)],
                                                paths[i % len(pool)], rundir / "out"))
        i += 1
        if len(setups) <= SETUP_REPEATS and time.perf_counter() - t_loop - probe_s >= len(setups) * probe_every:
            t = time.perf_counter()
            setups.append(setup_probe(args))
            probe_s += time.perf_counter() - t
    while len(setups) <= SETUP_REPEATS:
        setups.append(setup_probe(args))

    runs = [a for cert in attempts for a in cert]
    passed = [a.seconds for a in runs if a.reason is None]
    # Each certificate's mean time over its repetitions; the median is
    # taken over the certificates that always gave the expected verdict.
    means = [statistics.fmean(a.seconds for a in cert) for cert in attempts
             if all(a.reason is None for a in cert)]
    reps = [len(cert) for cert in attempts]
    metrics = {
        "certs_per_s": (len(passed) / sum(a.seconds for a in runs), "1/s", len(runs)),
        "cert_s_p50": (statistics.median(means or [a.seconds for a in runs]), "s", len(passed)),
        "fail_ratio": ((len(runs) - len(passed)) / len(runs), "ratio", len(runs)),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }
    if len(passed) >= 100:
        metrics["cert_s_p90"] = (statistics.quantiles(passed, n=10)[-1], "s", len(passed))
    detail = {
        "repetitions": {"min": min(reps), "max": max(reps)},
        "certificates": [
            {"kind": cert[0].kind, "attempts": [{"steps": a.steps, "reason": a.reason} for a in cert]}
            for cert in attempts
        ],
        "setup_samples": setups,
    }
    return runs, metrics, [], detail


def traced(args, cli, aliasing_warning, pool, paths, rundir):
    import spans

    if args.tiny:
        n_certs = len(pool)
    else:
        n_certs = max(1, math.ceil(args.seconds / (3 * NOMINAL_CERT_S[args.workload])))
    first, second = spans.Tracer(), spans.Tracer()
    runs = {"traced": [], "untraced": [], "traced_again": []}
    errors = []
    for i in range(n_certs):
        j = i % len(pool)
        outcome = {}
        for label, tracer in (("traced", first), ("untraced", None), ("traced_again", second)):
            if tracer is not None:
                tracer.cert = i
                tracer.install()
            try:
                outcome[label] = run_cert(cli, aliasing_warning, pool[j], paths[j], rundir / "out", digest=True)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            runs[label].append(outcome[label])
        if not (outcome["traced"].digests == outcome["untraced"].digests == outcome["traced_again"].digests):
            errors.append(f"certificate {i} ({pool[j].kind}): traced and untraced reports differ")

    alias = [sum(r.aliasing for r in runs[label]) for label in ("traced", "traced_again")]
    m1 = spans.layer_metrics(first.spans, alias[0])
    m2 = spans.layer_metrics(second.spans, alias[1])
    moved = [k for k, (v, unit) in m1.items() if unit in spans.COUNT_UNITS and v != m2[k][0]]
    if moved:
        errors.append(f"counts differ between the two traced runs: {', '.join(sorted(moved))}")

    def throughput(rs):
        return len(rs) / sum(r.seconds for r in rs)

    untraced, traced_again = throughput(runs["untraced"]), throughput(runs["traced_again"])
    metrics = {k: (v, unit, n_certs) for k, (v, unit) in m1.items()}
    metrics["trace.overhead"] = ((untraced - traced_again) / untraced, "ratio", n_certs)
    metrics["trace.certs"] = (n_certs, "count", n_certs)

    WORK.joinpath("traces").mkdir(parents=True, exist_ok=True)
    trace_file = WORK / "traces" / f"{args.workload}-s{args.seed}.json"
    names = sorted({rec[spans.NAME] for t in (first, second) for rec in t.spans})
    index = {name: k for k, name in enumerate(names)}
    with open(trace_file, "w", encoding="ascii") as fh:
        json.dump({
            "fields": ["name", "start", "end", "parent", "cert", "attrs"],
            "names": names,
            "passes": {
                label: [[index[r[0]], r[1], r[2], r[3], r[4], r[5]] for r in t.spans]
                for label, t in (("traced", first), ("traced_again", second))
            },
        }, fh)
    all_runs = [r for rs in runs.values() for r in rs]
    detail = {"trace_file": str(trace_file.relative_to(ROOT)), "certificates_per_pass": n_certs}
    return all_runs, metrics, errors, detail


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=certs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="n=8 grids, one certificate per subcommand")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    cli = import_cli()
    from tbdkit.operators import AliasingWarning

    pool = certs.build(args.workload, args.seed, args.tiny)
    rundir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    try:
        paths = write_inputs(pool, rundir / "inputs")
        setup_s = time.perf_counter() - T0
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        if args.trace:
            runs, metrics, errors, detail = traced(args, cli, AliasingWarning, pool, paths, rundir)
        else:
            runs, metrics, errors, detail = end_to_end(args, cli, AliasingWarning, pool, paths, rundir, setup_s)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    missing = [name for name, unit in wanted.items() if name not in metrics or metrics[name][1] != unit]
    if missing:
        raise SystemExit(f"perfbench: metrics missing or with another unit: {missing}")
    failed = [r for r in runs if r.reason is not None]
    for r in failed[:5]:
        print(f"perfbench: {r.kind} certificate failed: {r.reason}", file=sys.stderr)
    for e in errors:
        print(f"perfbench: error: {e}", file=sys.stderr)

    fp = benchenv.fingerprint(ROOT)
    WORK.joinpath("results").mkdir(parents=True, exist_ok=True)
    result_file = WORK / "results" / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "environment": fp,
        "attempted": len(runs), "failed": len(failed), "errors": errors,
        "correct": not failed and not errors,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        **detail,
    }
    result_file.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="ascii")

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}"
          f"{' tiny' if args.tiny else ''}")
    print("environment: " + json.dumps(fp, sort_keys=True))
    print(f"result: {result_file.relative_to(ROOT)}")
    width = max(len(k) for k in metrics)
    print(f"{'metric':<{width}}  {'value':>14}  {'unit':<10}  samples")
    for k, (v, u, n) in metrics.items():
        print(f"{k:<{width}}  {v:>14.6g}  {u:<10}  {n}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k][0], "unit": u} for k, u in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
