"""Span recording around mosqdyn's layer boundaries, and per-layer metrics.

The tracer wraps public functions at the module attributes their callers
look up (``mosqdyn.cli.basin_raster``, ``mosqdyn._sampling.map_chunks``, ...),
so the program itself is not edited.  Spans stay in memory until the pass
ends; the pass process then writes them out, and the driver turns them into
per-layer metrics with ``layer_metrics``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time


def _basin_info(bound, result) -> dict:
    codes = result.codes  # raster code 3 is OmegaLimitClass.UNDETERMINED
    return {"lanes": int(codes.size), "undetermined": int((codes == 3).sum())}


def _iterate_info(bound, result) -> dict:
    return {"steps": int(result.iterations_used),
            "undetermined": int(result.limit.name == "UNDETERMINED")}


def _invariance_info(bound, result) -> dict:
    return {"violations": len(result.violations)}


def _monotonicity_info(bound, result) -> dict:
    return {"violations": int(result.total_violations)}


def _cycle_search_info(bound, result) -> dict:
    args = bound.arguments
    return {"period": int(args["period"]), "seeds": int(args["grid_n"]) ** 2,
            "found": len(result)}


#: (module, attribute, span name, result summariser).  Per-step functions
#: (step_w0_floats, region_of) are left alone: wrapping them would time the
#: wrapper, not the layer.
TARGETS = (
    ("mosqdyn.cli", "parse_args", "cli.parse_args", None),
    ("mosqdyn.cli", "iterate", "trajectory.iterate", _iterate_info),
    ("mosqdyn.cli", "basin_raster", "trajectory.basin_raster", _basin_info),
    ("mosqdyn._sampling", "map_chunks", "sampling.map_chunks", None),
    ("mosqdyn.cli", "equilibrium_report", "equilibria.equilibrium_report", None),
    ("mosqdyn.cli", "check_invariance", "geometry.check_invariance", _invariance_info),
    ("mosqdyn.cli", "monotonicity_report", "lyapunov.monotonicity_report",
     _monotonicity_info),
    ("mosqdyn.cli", "no_cycle_certificate", "cycles.no_cycle_certificate", None),
    ("mosqdyn.cli", "brute_force_cycle_search", "cycles.brute_force_cycle_search",
     _cycle_search_info),
)


class Tracer:
    """In-memory span store; one span stack per thread.

    A span is ``[id, parent_id, name, start_s, end_s, info]``; ``info`` holds
    counts read from the call's result, or ``{"error": ExceptionName}``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        stack = self._stack()
        with self._lock:
            span = [len(self.spans), stack[-1] if stack else None, name,
                    time.perf_counter(), None, None]
            self.spans.append(span)
        stack.append(span[0])
        return span

    def close(self, span: list, info: dict | None = None) -> None:
        span[4] = time.perf_counter()
        span[5] = info
        self._stack().pop()

    def call(self, name: str, fn, *args):
        """Run fn(*args) inside a span; used for the request-level cli.main span."""
        span = self.open(name)
        try:
            return fn(*args)
        finally:
            self.close(span)

    def install(self) -> list[str]:
        """Wrap every target that exists; returns the span names not installed."""
        missing = []
        for mod_name, attr, name, summarise in TARGETS:
            module = importlib.import_module(mod_name)
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(name)
                continue
            self._installed.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, summarise))
        return missing

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def _wrap(self, fn, name: str, summarise):
        signature = inspect.signature(fn) if summarise else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                self.close(span, {"error": type(e).__name__})
                raise
            info = None
            if summarise is not None:
                try:
                    info = summarise(signature.bind(*args, **kwargs), result)
                except (AttributeError, KeyError, TypeError):
                    info = None  # a changed return type must not stop the pass
            self.close(span, info)
            return result

        return wrapper


def _self_times(spans: list[list]) -> dict[int, float]:
    """Span duration minus the time covered by its direct children."""
    child = {}
    for _, parent, _, t0, t1, _ in spans:
        if parent is not None:
            child[parent] = child.get(parent, 0.0) + (t1 - t0)
    return {s[0]: (s[4] - s[3]) - child.get(s[0], 0.0) for s in spans}


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Busy time and counts per layer, from the spans of one traced pass."""
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    info_sum: dict[tuple[str, str], int] = {}
    newton = {2: 0.0, 3: 0.0, 4: 0.0}
    for _, _, name, t0, t1, info in spans:
        total[name] = total.get(name, 0.0) + (t1 - t0)
        calls[name] = calls.get(name, 0) + 1
        for key, value in (info or {}).items():
            if key == "error":
                info_sum[(name, "errors")] = info_sum.get((name, "errors"), 0) + 1
            elif key != "period":
                info_sum[(name, key)] = info_sum.get((name, key), 0) + value
        if name == "cycles.brute_force_cycle_search" and info:
            newton[info["period"]] = newton.get(info["period"], 0.0) + (t1 - t0)

    selfs = _self_times(spans)
    cli_self = sum(selfs[s[0]] for s in spans if s[2] == "cli.main")

    def t(name):
        return total.get(name, 0.0)

    def n(name, key):
        return info_sum.get((name, key), 0)

    iterate_steps = n("trajectory.iterate", "steps")
    eq_calls = calls.get("equilibria.equilibrium_report", 0)
    return {
        "cli.invocations": calls.get("cli.main", 0),
        "cli.self_s": cli_self,
        "cli.parse_s": t("cli.parse_args"),
        "trajectory.basin_s": t("trajectory.basin_raster"),
        "trajectory.basin_lanes": n("trajectory.basin_raster", "lanes"),
        "trajectory.iterate_s": t("trajectory.iterate"),
        "trajectory.iterate_steps": iterate_steps,
        "trajectory.iterate_ns_per_step":
            t("trajectory.iterate") / iterate_steps * 1e9 if iterate_steps else 0.0,
        "trajectory.undetermined": n("trajectory.basin_raster", "undetermined")
        + n("trajectory.iterate", "undetermined"),
        "sampling.map_chunks_s": t("sampling.map_chunks"),
        "sampling.map_chunks_calls": calls.get("sampling.map_chunks", 0),
        "equilibria.report_us":
            t("equilibria.equilibrium_report") / eq_calls * 1e6 if eq_calls else 0.0,
        "equilibria.calls": eq_calls,
        "geometry.invariance_s": t("geometry.check_invariance"),
        "geometry.violations": n("geometry.check_invariance", "violations"),
        "lyapunov.monotonicity_s": t("lyapunov.monotonicity_report"),
        "lyapunov.violations": n("lyapunov.monotonicity_report", "violations"),
        "cycles.newton_s.p2": newton[2],
        "cycles.newton_s.p3": newton[3],
        "cycles.newton_s.p4": newton[4],
        "cycles.newton_seeds": n("cycles.brute_force_cycle_search", "seeds"),
        "cycles.cycles_found": n("cycles.brute_force_cycle_search", "found"),
        "cycles.certificate_failures": n("cycles.no_cycle_certificate", "errors"),
    }
