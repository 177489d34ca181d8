"""Command-line front end: parameter ingestion, analyses, CSV/JSON emission.

Subcommands
-----------
simulate    orbit from (--x0, --y0); CSV rows ``n,x,y,phi,region``
equilibria  fixed points, Jacobians, eigenvalues, classification; JSON
verify      sampled invariance + Lyapunov monotonicity reports; JSON
cycles      no-cycle certificate plus brute-force search results; JSON
basin       limit-class raster over the trapping rectangle; CSV code matrix
sweep       regime table over a beta grid at fixed alpha/mu/d0; CSV

JSON output is ``params`` followed by the subcommand's result, by one rule:
a dataclass becomes its fields in declaration order, with a ``state`` field
spread into its parent; an enum becomes its lowercase name, a complex number
``{"re", "im"}``, and a tuple or array a list.  The CLI adds only what the
reports do not hold: violation counts and the cap of 100 listed violations
per region, the search's ``grid_n`` and ``tol``, ``brute_force_residual``
and ``ok``.  Invariance entries restate their report's fields, because
``n_violations`` prints between ``seed`` and ``max_excursion``; a found
cycle lists ``states`` and ``residual``, its period being its entry's.

Exit status: 0 on success, 1 when any verification report contains a
violation (or a certificate fails, or a cycle is found), 2 on usage errors.
Floats in CSV output carry 17 significant digits so downstream tools can
reproduce states bit-exactly; identical invocations produce byte-identical
files.
"""

from __future__ import annotations

import argparse
import enum
import functools
import json
import sys
from dataclasses import fields, is_dataclass

import numpy as np

from . import _sampling
from .core import Params, State, validate_params
from .cycles import (
    RESIDUAL_TOL,
    brute_force_cycle_search,
    no_cycle_certificate,
)
from .equilibria import (
    beta_vs_threshold,
    classify_origin_regime,
    equilibrium_report,
    regime_quantities,
)
from .errors import CertificateFailure, DomainError, ParamError, UsageError
from .geometry import RegionLabel, check_invariance
from .lyapunov import monotonicity_report
from .trajectory import _orbit_columns, basin_raster, iterate

_SUBCOMMANDS = ("simulate", "equilibria", "verify", "cycles", "basin", "sweep")

#: At most this many violations are embedded per report in JSON output.
_MAX_JSON_VIOLATIONS = 100

#: argparse settings of every flag, keyed by its name with "_" for "-";
#: --config files use the same keys.  max_iter/tol default to None
#: (regime-dependent, resolved at run time) and format to None (the
#: subcommand's natural format).
_FLAGS = {
    "alpha": {"type": float},
    "beta": {"type": float},
    "mu": {"type": float},
    "d0": {"type": float},
    "d1": {"type": float, "default": 0.0},
    "x0": {"type": float},
    "y0": {"type": float},
    "max_iter": {"type": int},
    "tol": {"type": float},
    "grid_n": {"type": int, "default": 64},
    "samples": {"type": int, "default": 100_000},
    "seed": {"type": int, "default": 0},
    "stride": {"type": int, "default": 1},
    "out": {},
    "format": {"choices": ("csv", "json")},
}

#: Least admissible value of each integer flag (max_iter may stay None).
_AT_LEAST = {"max_iter": 1, "grid_n": 1, "samples": 0, "seed": 0, "stride": 1}

#: Iteration budgets when the user does not override them: convergence on the
#: threshold boundary is algebraic, so it gets a far larger budget and a
#: looser tolerance.
_INTERIOR_BUDGET = (1_000_000, 1e-8)
_BOUNDARY_BUDGET = (10_000_000, 1e-6)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); surface instead
        raise UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """One parser for every subcommand; flags may come before or after it."""
    parser = _Parser(prog="mosqdyn", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("subcommand", nargs="?", choices=_SUBCOMMANDS)
    parser.add_argument("--config", help="JSON file with the same keys as the flags")
    for key, settings in _FLAGS.items():
        parser.add_argument("--" + key.replace("_", "-"), dest=key, **settings)
    return parser


def _config_tokens(path: str) -> list[str]:
    """The JSON object in `path` as ``--flag=value`` tokens (null entries skipped)."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise UsageError(f"--config: cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise UsageError(f"--config: {path} is not valid JSON: {e}") from None
    if not isinstance(data, dict):
        raise UsageError(f"--config: {path} must hold a JSON object")
    unknown = set(data) - set(_FLAGS)
    if unknown:
        raise UsageError(f"--config: unknown keys {sorted(unknown)}")
    tokens = []
    for key, value in data.items():
        if value is None:
            continue
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise UsageError(f"--config: {key} must be a string or a number, "
                             f"got {value!r}")
        text = value if isinstance(value, str) else repr(value)
        tokens.append(f"--{key.replace('_', '-')}={text}")
    return tokens


def parse_args(argv: list[str]) -> argparse.Namespace:
    """Validated flags of argv, plus ``params``, ``format`` and simulate's ``z0``.

    Raises UsageError on any bad input.
    """
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if ns.config:
        # config entries go first, so flags given in argv override them
        tokens = _config_tokens(ns.config)
        try:
            ns = parser.parse_args([*tokens, *argv])
        except UsageError as e:
            raise UsageError(f"--config {ns.config}: {e}") from None
    if ns.subcommand is None:
        raise UsageError(f"a subcommand is required: {', '.join(_SUBCOMMANDS)}")

    for key in ("alpha", "beta", "mu", "d0"):
        if getattr(ns, key) is None:
            raise UsageError(f"--{key} is required (flag or config file)")
    try:
        ns.params = validate_params(ns.alpha, ns.beta, ns.mu, ns.d0, ns.d1)
    except ParamError as e:
        raise UsageError(f"--{e.param}: {e}") from None
    if not ns.params.w0_regime:
        if ns.d1 != 0.0:
            raise UsageError("--d1: must be 0 (restricted regime)")
        if ns.mu > 1.0:
            raise UsageError("--mu: must satisfy 0 < mu <= 1 (restricted regime)")
        if ns.d0 <= 0.0:
            raise UsageError("--d0: must be positive (restricted regime)")
        raise UsageError("--alpha/--d0: alpha + d0 must be <= 1 (restricted regime)")
    try:
        regime_quantities(ns.params)
    except DomainError as e:
        raise UsageError(f"--beta/--mu/--d0: {e}") from None

    if ns.subcommand == "simulate":
        if ns.x0 is None or ns.y0 is None:
            raise UsageError("--x0/--y0: simulate needs an initial point")
        try:
            ns.z0 = State(ns.x0, ns.y0)
        except DomainError as e:
            raise UsageError(f"--x0/--y0: {e}") from None

    if ns.tol is not None and not 0.0 < ns.tol < np.inf:  # also refuses NaN
        raise UsageError(f"--tol: must be positive and finite, got {ns.tol}")
    for key, least in _AT_LEAST.items():
        value = getattr(ns, key)
        if value is not None and value < least:
            raise UsageError(f"--{key.replace('_', '-')}: must be >= {least}, "
                             f"got {value}")
    _sampling.thread_count()  # every subcommand refuses a bad MOSQDYN_THREADS

    if ns.format is None:
        ns.format = "csv" if ns.subcommand in _CSV else "json"
    if ns.format == "csv" and ns.subcommand not in _CSV:
        raise UsageError(f"--format: csv is not available for '{ns.subcommand}'")
    return ns


def _fmt(v) -> str:
    """Full round-trip CSV float formatting: 17 significant digits."""
    if v is None:
        return "nan"
    return format(float(v), ".17g")


def _budgets(cfg: argparse.Namespace) -> tuple[int, float]:
    base = (_BOUNDARY_BUDGET if beta_vs_threshold(cfg.params) == 0
            else _INTERIOR_BUDGET)
    return (cfg.max_iter if cfg.max_iter is not None else base[0],
            cfg.tol if cfg.tol is not None else base[1])


def _plain(obj):
    """JSON-ready values of a report, by the rule in the module docstring."""
    if isinstance(obj, enum.Enum):
        return obj.name.lower()
    if obj is None or isinstance(obj, (str, int, float)):
        return obj
    if is_dataclass(obj):
        out = {}
        for f in fields(obj):
            value = _plain(getattr(obj, f.name))
            out.update(value if f.name == "state" else {f.name: value})
        return out
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (tuple, list)):
        return [_plain(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


def _run_simulate(cfg: argparse.Namespace):
    """The orbit's columns for CSV, its `iterate` report for JSON."""
    max_iter, tol = _budgets(cfg)
    orbit = _orbit_columns if cfg.format == "csv" else iterate
    try:
        return 0, orbit(cfg.params, cfg.z0, max_iter, tol, cfg.stride)
    except DomainError as e:
        raise UsageError(f"--x0/--y0: the orbit overflows: {e}") from None


#: Region names by the codes of `trajectory._orbit_columns`.
_REGION_VALUES = np.array([r.value for r in RegionLabel])


def _simulate_csv(orbit) -> str:
    """All rows in one %-format of the interleaved columns (%.17g is `_fmt`)."""
    *_, n, x, y, phi, codes = orbit
    cells = [None] * (5 * len(n))
    for k, column in enumerate((n, x, y, phi, _REGION_VALUES[codes])):
        cells[k::5] = column.tolist()
    return "n,x,y,phi,region\n" + "%d,%.17g,%.17g,%.17g,%s\n" * len(n) % tuple(cells)


def _run_equilibria(cfg: argparse.Namespace):
    return 0, equilibrium_report(cfg.params)


def _run_verify(cfg: argparse.Namespace):
    p = cfg.params
    regions = [RegionLabel.OMEGA_ONLY]
    if regime_quantities(p).x_star is not None:
        regions += [RegionLabel.OMEGA1, RegionLabel.OMEGA2]
    invariance = [check_invariance(p, r, cfg.samples, cfg.seed) for r in regions]

    lyap = None
    if beta_vs_threshold(p) >= 0:
        lyap = monotonicity_report(p, cfg.samples, cfg.seed)
    n_violations = (sum(len(r.violations) for r in invariance)
                    + (0 if lyap is None else lyap.total_violations))
    return (0 if n_violations == 0 else 1), {
        "invariance": [
            {"region": r.region, "n_samples": r.n_samples, "seed": r.seed,
             "n_violations": len(r.violations), "max_excursion": r.max_excursion,
             "violations": r.violations[:_MAX_JSON_VIOLATIONS]}
            for r in invariance
        ],
        "lyapunov": lyap,
        "n_violations": n_violations,
        "ok": n_violations == 0,
    }


def _certificate(p: Params):
    """(no-cycle certificate, None), or (None, why it fails) for p."""
    try:
        return no_cycle_certificate(p), None
    except CertificateFailure as e:
        return None, str(e)


def _run_cycles(cfg: argparse.Namespace):
    p = cfg.params
    tol = cfg.tol if cfg.tol is not None else RESIDUAL_TOL
    certificate, certificate_error = (_certificate(p) if beta_vs_threshold(p) >= 0
                                      else (None, None))
    searches = [
        (period, brute_force_cycle_search(p, period, cfg.grid_n, tol))
        for period in (2, 3, 4)
    ]
    residuals = [c.residual for _, cycles in searches for c in cycles]
    ok = certificate_error is None and not residuals
    return (0 if ok else 1), {
        "certificate": None if certificate is None else {
            **_plain(certificate),
            "brute_force_residual": min(residuals) if residuals else None},
        "certificate_error": certificate_error,
        "brute_force": [
            {"period": period, "grid_n": cfg.grid_n, "tol": tol,
             "cycles": [{"states": c.states, "residual": c.residual} for c in cycles]}
            for period, cycles in searches
        ],
        "ok": ok,
    }


def _run_basin(cfg: argparse.Namespace):
    max_iter, tol = _budgets(cfg)
    return 0, basin_raster(cfg.params, cfg.grid_n, max_iter, tol)


def _basin_csv(raster) -> str:
    n, m = raster.codes.shape  # codes are the single digits 0-3
    out = np.full((n, 2 * m), ord(","), np.uint8)
    out[:, ::2], out[:, -1] = raster.codes + ord("0"), ord("\n")
    return out.tobytes().decode()


_REGIMES = ("below_threshold", "at_threshold", "above_threshold")


def _run_sweep(cfg: argparse.Namespace):
    p = cfg.params
    rows = []
    for i in range(1, cfg.grid_n + 1):
        beta = p.beta * i / cfg.grid_n
        q = validate_params(p.alpha, beta, p.mu, p.d0, 0.0)
        rel = beta_vs_threshold(q)
        try:
            rq = regime_quantities(q)
        except DomainError as e:
            raise UsageError(f"--beta: sweep row beta = {beta!r}: {e}") from None
        cert_ok = "na"
        if rel >= 0:
            cert_ok = "false" if _certificate(q)[0] is None else "true"
        rows.append({"beta": q.beta, "regime": _REGIMES[rel + 1],
                     "origin_class": classify_origin_regime(q).value,
                     "x_star": rq.x_star, "y_star": rq.y_star,
                     "certificate_ok": cert_ok})
    return 0, {"rows": rows}


def _sweep_csv(result) -> str:
    return "\n".join(["beta,regime,origin_class,x_star,y_star,certificate_ok"] + [
        ",".join(v if isinstance(v, str) else _fmt(v) for v in row.values())
        for row in result["rows"]
    ]) + "\n"


_HANDLERS = {
    "simulate": _run_simulate,
    "equilibria": _run_equilibria,
    "verify": _run_verify,
    "cycles": _run_cycles,
    "basin": _run_basin,
    "sweep": _run_sweep,
}

#: CSV writers; each formats straight from its result, not through `_plain`.
_CSV = {"simulate": _simulate_csv, "basin": _basin_csv, "sweep": _sweep_csv}


def run(cfg: argparse.Namespace) -> int:
    """Run the handler, write its result as JSON or CSV, and return its status."""
    status, result = _HANDLERS[cfg.subcommand](cfg)
    if cfg.format == "csv":
        text = _CSV[cfg.subcommand](result)
    else:
        text = json.dumps({"params": _plain(cfg.params), **_plain(result)},
                          indent=2) + "\n"
    if cfg.out is None:
        sys.stdout.write(text)
    else:
        with open(cfg.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return status


def main(argv: list[str] | None = None) -> int:
    try:
        cfg = parse_args(sys.argv[1:] if argv is None else list(argv))
        return run(cfg)
    except UsageError as e:
        print(f"mosqdyn: error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
