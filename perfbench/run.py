"""mosqdyn benchmark: seeded CLI workloads timed in fresh interpreters.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is threshold_basin, interior_orbits, verify_sweep, or ``all`` for the
three in turn.  Run from the repository root (the script finds src/ next to
its own directory).  With ``--trace 0`` the last line of output is a JSON
object holding every end-to-end metric; with ``--trace 1`` it holds every
per-layer metric.  Lines before it give the metrics with units, failure
labels, the output digest and run metadata.  See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

#: Set-up is measured this many times per run; the median is reported.
SETUP_REPEATS = 11
#: A pass process that runs longer than this is killed and the run fails.
PASS_TIMEOUT_S = 170.0


def declared_units() -> tuple[dict[str, str], dict[str, str]]:
    """Metric units of BENCHMARK.json: (end_to_end, per_layer)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


class PassFailed(RuntimeError):
    pass


def verdict(op: workloads.Op, code: int, out: bytes) -> str | None:
    """Failure label of one call, or None; unreadable output is a failure."""
    try:
        return op.check(code, out)
    except (ValueError, KeyError, IndexError, TypeError):
        return "unreadable_output"


def _env(threads: str | None) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("MOSQDYN_THREADS", None)
    if threads is not None:
        env["MOSQDYN_THREADS"] = threads
    return env


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, round(q * len(ordered)) - 1))
    return ordered[k]


def measure_setup(env, workdir: Path) -> tuple[list[float], list[str | None]]:
    """Fresh interpreter to first completed equilibria call, SETUP_REPEATS times."""
    op = workloads.setup_op()
    times, failures = [], []
    for k in range(SETUP_REPEATS):
        out = workdir / f"setup-{k}.json"
        argv = list(op.argv) + ["--out", str(out)]
        t0 = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, str(HERE / "worker.py"), "setup", json.dumps(argv)],
                env=env, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
            proc.wait(timeout=PASS_TIMEOUT_S)
        if proc.returncode != 0 or not line.startswith("ready "):
            raise PassFailed(f"set-up process failed (exit {proc.returncode})")
        code = int(line.split()[1])
        failures.append(verdict(op, code, out.read_bytes() if out.exists() else b""))
    return times, failures


def run_pass(wl: workloads.Workload, env, workdir: Path, plan_path: Path,
             index: int, traced: bool) -> dict:
    """One pass in a fresh interpreter; returns timings, checks and digest."""
    outdir = workdir / f"pass-{index}"
    outdir.mkdir()
    cmd = [sys.executable, str(HERE / "worker.py"), "pass", str(plan_path), str(outdir)]
    spans_path = workdir / f"spans-{index}.json"
    if traced:
        cmd.append(str(spans_path))
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=PASS_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise PassFailed(f"pass process failed (exit {proc.returncode}):\n{proc.stderr}")
    res = json.loads(proc.stdout.splitlines()[-1])
    digest = hashlib.sha256()
    failures, out_bytes = [], 0
    for i, (op, code, err) in enumerate(zip(wl.ops, res["codes"], res["errors"])):
        path = outdir / f"{i:05d}"
        data = path.read_bytes() if path.exists() else b""
        out_bytes += len(data)
        digest.update(len(data).to_bytes(8, "little"))
        digest.update(data)
        failures.append(f"exception_{err}" if err else verdict(op, code, data))
    shutil.rmtree(outdir)
    res.update(elapsed_s=elapsed, failures=failures, out_bytes=out_bytes,
               digest=digest.hexdigest())
    if traced:
        res["spans"] = json.loads(spans_path.read_text())
        spans_path.unlink()
    return res


def run_passes(wl, env, workdir, plan_path, seconds: float, traced: bool,
               first_index: int) -> list[dict]:
    """Passes until the next one would end past `seconds`; at least one."""
    passes = []
    start = time.perf_counter()
    while True:
        res = run_pass(wl, env, workdir, plan_path, first_index + len(passes), traced)
        passes.append(res)
        if time.perf_counter() - start + res["elapsed_s"] > seconds:
            return passes


def end_to_end(wl, setup_times, passes) -> dict[str, float]:
    walls = [p["wall_s"] for p in passes]
    latencies = [t for p in passes for t in p["latency_s"]]
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(walls),
        "orbits_per_s": statistics.median(wl.orbits / w for w in walls),
        "tuples_per_s": statistics.median(wl.tuples / w for w in walls),
        "cli_p50_ms": _percentile(latencies, 0.50) * 1e3,
        "cli_p95_ms": _percentile(latencies, 0.95) * 1e3,
        "peak_rss_mb": statistics.median(p["maxrss_kb"] / 1024 for p in passes),
    }


def per_layer(untraced, traced) -> dict[str, float]:
    rows = []
    for p in traced:
        row = spans.layer_metrics(p["spans"])
        row.update(p["layers"])
        row["sampling.threads"] = p["threads"]
        row["cli.out_bytes"] = p["out_bytes"]
        rows.append(row)
    out = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    out["trace.overhead_ratio"] = (statistics.median(p["wall_s"] for p in traced)
                                   / statistics.median(p["wall_s"] for p in untraced))
    return dict(sorted(out.items()))


def _commit() -> str | None:
    """HEAD of the checkout when it is a git repository, read without git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = workloads.WORKLOADS[name](seed)
    env = _env(wl.threads)
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"run-{os.getpid()}-{name}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        plan_path = workdir / "plan.json"
        plan_path.write_text(json.dumps([list(op.argv) for op in wl.ops]))
        setup_times, setup_failures = measure_setup(env, workdir)
        if trace:
            untraced = run_passes(wl, env, workdir, plan_path, seconds / 2, False, 0)
            traced = run_passes(wl, env, workdir, plan_path, seconds / 2, True,
                                len(untraced))
            passes = untraced + traced
        else:
            passes = run_passes(wl, env, workdir, plan_path, seconds, False, 0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = list(setup_failures)
    unexpected = [f for f in setup_failures if f]
    for p in passes:
        failures += p["failures"]
        unexpected += [f for op, f in zip(wl.ops, p["failures"])
                       if f and not (op.known_defect and f == "wrong_limit")]
    labels = Counter(f for f in failures if f)
    digests = sorted({p["digest"] for p in passes})
    known = sum(op.known_defect for op in wl.ops) * len(passes)
    report = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "attempted": len(failures),
        "failed": sum(labels.values()),
        "failure_labels": dict(labels),
        "known_defect_share": known / len(failures),
        "digest": digests[0] if len(digests) == 1 else digests,
        "correct": not unexpected and len(digests) == 1,
        "passes": len(passes),
        "invocations_per_pass": len(wl.ops),
        "latency_samples": len(wl.ops) * len(passes),
        "meta": {
            "nproc": os.cpu_count(),
            "MOSQDYN_THREADS": wl.threads or "unset",
            "pass_threads": passes[0]["threads"],
            "python": passes[0]["python"],
            "numpy": passes[0]["numpy"],
            "commit": _commit(),
            "src_sha256": _src_digest(),
            "tuples_per_pass": wl.tuples,
            "orbits_per_pass": wl.orbits,
        },
    }
    if trace:
        report["metrics"] = per_layer(untraced, traced)
        (WORK / f"last-{name}-spans.json").write_text(json.dumps(traced[0]["spans"]))
    else:
        report["metrics"] = end_to_end(wl, setup_times, passes)
    (WORK / f"last-{name}-trace{int(trace)}.json").write_text(
        json.dumps(report, indent=1) + "\n")
    return report


def print_report(r: dict, units: dict[str, str]) -> None:
    print(f"== {r['workload']} seed={r['seed']} trace={r['trace']} "
          f"passes={r['passes']} latency_samples={r['latency_samples']}")
    for name, value in r["metrics"].items():
        print(f"  {name:40s} {value:.6g} {units[name]}")
    print(f"  fail_ratio {r['failed']}/{r['attempted']} = "
          f"{r['failed'] / r['attempted']:.6g}  labels={r['failure_labels']}  "
          f"known_defect_share={r['known_defect_share']:.6g}")
    print(f"  output_sha256 {r['digest']}")
    print(f"  meta {json.dumps(r['meta'])}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "mosqdyn" / "cli.py").is_file():
        print(f"perfbench: no mosqdyn sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    units = declared_units()[args.trace]
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        reports = [run_workload(n, args.seed, args.seconds, bool(args.trace))
                   for n in names]
    except (PassFailed, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    for r in reports:
        if set(r["metrics"]) != set(units):
            print(f"perfbench: metrics differ from BENCHMARK.json: "
                  f"{sorted(set(r['metrics']) ^ set(units))}", file=sys.stderr)
            return 1
    for r in reports:
        print_report(r, units)
    for r in reports:
        metrics = {k: {"value": v, "unit": units[k]} for k, v in r["metrics"].items()}
        print(json.dumps({"correct": r["correct"], "attempted": r["attempted"],
                          "failed": r["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
