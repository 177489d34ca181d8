"""One fresh interpreter per timed pass, as a CLI user starts every run.

    worker.py setup ARGV_JSON
        import mosqdyn, make one CLI call, print "ready <exit code>", exit.
    worker.py pass PLAN_JSON OUTDIR [SPANS_JSON]
        run every argv in PLAN_JSON through mosqdyn.cli.main with
        --out OUTDIR/<index>, then print one JSON line of timings.  With
        SPANS_JSON the pass is traced: layer spans are recorded in memory,
        written to SPANS_JSON at the end, and the layer probes run after the
        timed sequence.

mosqdyn is imported from PYTHONPATH, which the driver points at the
checkout's src/.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time


def _call(main, argv) -> tuple[int, str | None]:
    try:
        return main(argv), None
    except Exception as e:  # an uncaught error is a failed operation, exit 1
        return 1, type(e).__name__


def _timed(fn, repeats: int, inner: int = 1) -> float:
    """Median seconds per call of fn over `repeats` batches of `inner` calls."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        times.append((time.perf_counter() - t0) / inner)
    return statistics.median(times)


def probes() -> dict[str, float]:
    """The ROADMAP layer probes, at fixed sizes on the reference tuples."""
    import numpy as np

    import mosqdyn
    from mosqdyn import core, cycles, geometry, lyapunov, trajectory

    p0 = mosqdyn.validate_params(0.5, 2.0, 0.8, 0.3)
    pb = mosqdyn.validate_params(0.5, 0.8 * (1.0 + 0.3 / 0.5), 0.8, 0.3)
    z = mosqdyn.State(1.0, 0.5)
    lanes = 10 ** 5
    xs, ys = np.linspace(0.0, 4.0, lanes), np.linspace(0.0, 0.6, lanes)
    capped_steps = 10 ** 4
    plan = {
        "core.step_w0_us": (
            1e6, lambda: core.step_w0(p0, z), 5, 2000),
        "core.step_batch_ns_per_lane": (
            1e9 / lanes, lambda: core.step_w0_batch(p0, xs, ys), 5, 5),
        "trajectory.threshold_us_per_step": (
            1e6 / capped_steps,
            lambda: trajectory.basin_raster(pb, 4, capped_steps, 1e-6), 3, 1),
        "trajectory.interior_us_per_lane": (
            1e6 / 192 ** 2, lambda: trajectory.basin_raster(p0, 192, 10 ** 6, 1e-8),
            3, 1),
        "cycles.certificate_us": (
            1e6, lambda: cycles.no_cycle_certificate(p0), 5, 500),
        "geometry.invariance_ns_per_sample": (
            1e9 / lanes,
            lambda: geometry.check_invariance(
                p0, geometry.RegionLabel.OMEGA_ONLY, lanes, 0), 3, 1),
        # two regions (Omega1 and Omega2) of `lanes` samples each
        "lyapunov.ns_per_sample": (
            1e9 / (2 * lanes), lambda: lyapunov.monotonicity_report(p0, lanes, 0),
            3, 1),
    }
    for period in (2, 3, 4):
        plan[f"cycles.newton_probe_ms.p{period}"] = (
            1e3, lambda k=period: cycles.brute_force_cycle_search(p0, k, 30), 3, 1)
    out = {}
    for name, (scale, fn, repeats, inner) in plan.items():
        try:
            out[name] = _timed(fn, repeats, inner) * scale
        except AttributeError as e:  # the probed function no longer exists
            print(f"probe {name} skipped: {e}", file=sys.stderr)
            out[name] = 0.0
    return out


def _cache_metrics() -> dict[str, float]:
    from mosqdyn import cycles, equilibria, geometry

    out = {}
    for name, module, attr in (
            ("equilibria.regime_cache", equilibria, "regime_quantities"),
            ("geometry.bounds_cache", geometry, "omega_bounds"),
            ("cycles.coeff_cache", cycles, "cycle_coefficients")):
        fn = getattr(module, attr, None)
        info = fn.cache_info() if hasattr(fn, "cache_info") else None
        calls = info.hits + info.misses if info else 0
        out[f"{name}.hit_ratio"] = info.hits / calls if calls else 0.0
        out[f"{name}.size"] = info.currsize if info else 0
    return out


def run_pass(plan_path: str, outdir: str, spans_path: str | None) -> dict:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    import numpy
    import mosqdyn.cli
    from mosqdyn import _sampling

    tracer = None
    if spans_path:
        from spans import Tracer

        tracer = Tracer()
        missing = tracer.install()
        if missing:
            print(f"spans not installed: {missing}", file=sys.stderr)
    main = mosqdyn.cli.main
    argvs = [argv + ["--out", os.path.join(outdir, f"{i:05d}")]
             for i, argv in enumerate(plan)]
    codes, errors, latencies = [], [], []
    start = time.perf_counter()
    for argv in argvs:
        t0 = time.perf_counter()
        if tracer is None:
            code, err = _call(main, argv)
        else:
            code, err = tracer.call("cli.main", _call, main, argv)
        latencies.append(time.perf_counter() - t0)
        codes.append(code)
        errors.append(err)
    wall = time.perf_counter() - start
    result = {
        "wall_s": wall,
        "latency_s": latencies,
        "codes": codes,
        "errors": errors,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "threads": _sampling.thread_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = {**_cache_metrics(), **probes()}
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return result


def main() -> int:
    mode = sys.argv[1]
    if mode == "setup":
        from mosqdyn.cli import main as cli_main

        code, _ = _call(cli_main, json.loads(sys.argv[2]))
        sys.stdout.write(f"ready {code}\n")
        sys.stdout.flush()
        return 0
    if mode == "pass":
        spans_path = sys.argv[4] if len(sys.argv) > 4 else None
        print(json.dumps(run_pass(sys.argv[2], sys.argv[3], spans_path)))
        return 0
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
