"""Command-line front end: parameter ingestion, analyses, CSV/JSON emission.

Subcommands
-----------
simulate    orbit from (--x0, --y0); CSV rows ``n,x,y,phi,region``
equilibria  fixed points, Jacobians, eigenvalues, classification; JSON
verify      sampled invariance + Lyapunov monotonicity reports; JSON
cycles      no-cycle certificate plus brute-force search results; JSON
basin       limit-class raster over the trapping rectangle; CSV code matrix
sweep       regime table over a beta grid at fixed alpha/mu/d0; CSV

Exit status: 0 on success, 1 when any verification report contains a
violation (or a certificate fails, or a cycle is found), 2 on usage errors.
Floats in CSV output carry 17 significant digits so downstream tools can
reproduce states bit-exactly; identical invocations produce byte-identical
files.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass

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
from .trajectory import basin_raster, iterate

_CSV_SUBCOMMANDS = {"simulate", "basin", "sweep"}
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

#: Iteration budgets when the user does not override them: convergence on the
#: threshold boundary is algebraic, so it gets a far larger budget and a
#: looser tolerance.
_INTERIOR_BUDGET = (1_000_000, 1e-8)
_BOUNDARY_BUDGET = (10_000_000, 1e-6)


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    params: Params
    x0: float | None
    y0: float | None
    max_iter: int | None
    tol: float | None
    grid_n: int
    n_samples: int
    seed: int
    stride: int
    out: str | None
    fmt: str


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


def parse_args(argv: list[str]) -> RunConfig:
    """Turn argv into a validated RunConfig; UsageError on any bad input."""
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
        params = validate_params(ns.alpha, ns.beta, ns.mu, ns.d0, ns.d1)
    except ParamError as e:
        raise UsageError(f"--{e.param}: {e}") from None
    if not params.w0_regime:
        if params.d1 != 0.0:
            raise UsageError("--d1: must be 0 (restricted regime)")
        if params.mu > 1.0:
            raise UsageError("--mu: must satisfy 0 < mu <= 1 (restricted regime)")
        if params.d0 <= 0.0:
            raise UsageError("--d0: must be positive (restricted regime)")
        raise UsageError("--alpha/--d0: alpha + d0 must be <= 1 (restricted regime)")

    if ns.subcommand == "simulate":
        if ns.x0 is None or ns.y0 is None:
            raise UsageError("--x0/--y0: simulate needs an initial point")
        try:
            State(ns.x0, ns.y0)
        except DomainError as e:
            raise UsageError(f"--x0/--y0: {e}") from None

    if ns.max_iter is not None and ns.max_iter < 1:
        raise UsageError(f"--max-iter: must be >= 1, got {ns.max_iter}")
    if ns.tol is not None and not ns.tol > 0.0:
        raise UsageError(f"--tol: must be positive, got {ns.tol}")
    if ns.grid_n < 1:
        raise UsageError(f"--grid-n: must be >= 1, got {ns.grid_n}")
    if ns.samples < 0:
        raise UsageError(f"--samples: must be >= 0, got {ns.samples}")
    if ns.seed < 0:
        raise UsageError(f"--seed: must be >= 0, got {ns.seed}")
    if ns.stride < 1:
        raise UsageError(f"--stride: must be >= 1, got {ns.stride}")

    fmt = ns.format
    if fmt is None:
        fmt = "csv" if ns.subcommand in _CSV_SUBCOMMANDS else "json"
    if fmt == "csv" and ns.subcommand not in _CSV_SUBCOMMANDS:
        raise UsageError(f"--format: csv is not available for '{ns.subcommand}'")

    return RunConfig(
        subcommand=ns.subcommand,
        params=params,
        x0=ns.x0,
        y0=ns.y0,
        max_iter=ns.max_iter,
        tol=ns.tol,
        grid_n=ns.grid_n,
        n_samples=ns.samples,
        seed=ns.seed,
        stride=ns.stride,
        out=ns.out,
        fmt=fmt,
    )


def _fmt(v) -> str:
    """Full round-trip CSV float formatting: 17 significant digits."""
    if v is None:
        return "nan"
    return format(float(v), ".17g")


def _budgets(cfg: RunConfig) -> tuple[int, float]:
    base = (_BOUNDARY_BUDGET if beta_vs_threshold(cfg.params) == 0
            else _INTERIOR_BUDGET)
    return (cfg.max_iter if cfg.max_iter is not None else base[0],
            cfg.tol if cfg.tol is not None else base[1])


def _params_dict(p: Params) -> dict:
    return {"alpha": p.alpha, "beta": p.beta, "mu": p.mu, "d0": p.d0,
            "d1": p.d1, "w0_regime": p.w0_regime}


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _run_simulate(cfg: RunConfig) -> tuple[int, str]:
    max_iter, tol = _budgets(cfg)
    report = iterate(cfg.params, State(cfg.x0, cfg.y0), max_iter, tol, cfg.stride)
    if cfg.fmt == "csv":
        lines = ["n,x,y,phi,region"]
        lines += [
            f"{s.n},{_fmt(s.state.x)},{_fmt(s.state.y)},{_fmt(s.phi)},{s.region.value}"
            for s in report.samples
        ]
        return 0, "\n".join(lines) + "\n"
    payload = {
        "params": _params_dict(cfg.params),
        "samples": [
            {"n": s.n, "x": s.state.x, "y": s.state.y, "phi": s.phi,
             "region": s.region.value}
            for s in report.samples
        ],
        "iterations_used": report.iterations_used,
        "final": {"x": report.final.x, "y": report.final.y},
        "limit": report.limit.label,
        "boundary_regime": report.boundary_regime,
    }
    return 0, _json_text(payload)


def _run_equilibria(cfg: RunConfig) -> tuple[int, str]:
    rep = equilibrium_report(cfg.params)
    payload = {
        "params": _params_dict(cfg.params),
        "regime": {
            "threshold": rep.regime.threshold,
            "alpha_star": rep.regime.alpha_star,
            "x_star": rep.regime.x_star,
            "y_star": rep.regime.y_star,
        },
        "fixed_points": [
            {
                "x": fp.state.x,
                "y": fp.state.y,
                "jacobian": list(fp.jacobian),
                "eigenvalues": [{"re": lam.real, "im": lam.imag}
                                for lam in fp.eigenvalues],
                "classification": fp.classification.value,
            }
            for fp in rep.fixed_points
        ],
    }
    return 0, _json_text(payload)


def _invariance_payload(report) -> dict:
    return {
        "region": report.region.value,
        "n_samples": report.n_samples,
        "seed": report.seed,
        "n_violations": len(report.violations),
        "max_excursion": report.max_excursion,
        "violations": [
            {"index": v.index, "x": v.x, "y": v.y, "x_image": v.x_image,
             "y_image": v.y_image, "excursion": v.excursion}
            for v in report.violations[:_MAX_JSON_VIOLATIONS]
        ],
    }


def _run_verify(cfg: RunConfig) -> tuple[int, str]:
    p = cfg.params
    regions = [RegionLabel.OMEGA_ONLY]
    if regime_quantities(p).x_star is not None:
        regions += [RegionLabel.OMEGA1, RegionLabel.OMEGA2]
    invariance = [check_invariance(p, r, cfg.n_samples, cfg.seed) for r in regions]

    lyap = None
    if beta_vs_threshold(p) >= 0:
        lyap = monotonicity_report(p, cfg.n_samples, cfg.seed)

    n_violations = sum(len(r.violations) for r in invariance)
    if lyap is not None:
        n_violations += lyap.total_violations
    payload = {
        "params": _params_dict(p),
        "invariance": [_invariance_payload(r) for r in invariance],
        "lyapunov": None if lyap is None else {
            "n_samples": lyap.n_samples,
            "seed": lyap.seed,
            "regions": [
                {
                    "region": r.region.value,
                    "claim": r.claim,
                    "n_samples": r.n_samples,
                    "n_violations": r.n_violations,
                    "worst_delta": r.worst_delta,
                    "worst_point": None if r.worst_point is None
                    else list(r.worst_point),
                }
                for r in lyap.regions
            ],
        },
        "n_violations": n_violations,
        "ok": n_violations == 0,
    }
    return (0 if n_violations == 0 else 1), _json_text(payload)


def _run_cycles(cfg: RunConfig) -> tuple[int, str]:
    p = cfg.params
    tol = cfg.tol if cfg.tol is not None else RESIDUAL_TOL
    certificate = None
    certificate_error = None
    if beta_vs_threshold(p) >= 0:
        try:
            certificate = no_cycle_certificate(p)
        except CertificateFailure as e:
            certificate_error = str(e)
    searches = [
        (period, brute_force_cycle_search(p, period, cfg.grid_n, tol))
        for period in (2, 3, 4)
    ]
    residuals = [c.residual for _, cycles in searches for c in cycles]
    ok = certificate_error is None and not residuals
    payload = {
        "params": _params_dict(p),
        "certificate": None if certificate is None else {
            "branch": certificate.branch.value,
            "b0": certificate.b0,
            "coefficients": list(certificate.coefficients),
            "all_positive": certificate.all_positive,
            "inequality_checks": certificate.inequality_checks,
            "brute_force_residual": min(residuals) if residuals else None,
        },
        "certificate_error": certificate_error,
        "brute_force": [
            {
                "period": period,
                "grid_n": cfg.grid_n,
                "tol": tol,
                "cycles": [
                    {"states": [list(s) for s in c.states], "residual": c.residual}
                    for c in cycles
                ],
            }
            for period, cycles in searches
        ],
        "ok": ok,
    }
    return (0 if ok else 1), _json_text(payload)


def _run_basin(cfg: RunConfig) -> tuple[int, str]:
    max_iter, tol = _budgets(cfg)
    raster = basin_raster(cfg.params, cfg.grid_n, max_iter, tol)
    if cfg.fmt == "csv":
        lines = [",".join(str(int(c)) for c in row) for row in raster.codes]
        return 0, "\n".join(lines) + "\n"
    payload = {
        "params": _params_dict(cfg.params),
        "xs": [float(v) for v in raster.xs],
        "ys": [float(v) for v in raster.ys],
        "codes": [[int(c) for c in row] for row in raster.codes],
    }
    return 0, _json_text(payload)


def _sweep_rows(cfg: RunConfig):
    p = cfg.params
    for i in range(1, cfg.grid_n + 1):
        beta = p.beta * i / cfg.grid_n
        q = validate_params(p.alpha, beta, p.mu, p.d0, 0.0)
        rel = beta_vs_threshold(q)
        regime = ("below_threshold", "at_threshold", "above_threshold")[rel + 1]
        rq = regime_quantities(q)
        if rel >= 0:
            try:
                no_cycle_certificate(q)
                cert_ok = "true"
            except CertificateFailure:
                cert_ok = "false"
        else:
            cert_ok = "na"
        yield q, regime, classify_origin_regime(q).value, rq, cert_ok


def _run_sweep(cfg: RunConfig) -> tuple[int, str]:
    header = "beta,regime,origin_class,x_star,y_star,certificate_ok"
    if cfg.fmt == "csv":
        lines = [header]
        for q, regime, origin_class, rq, cert_ok in _sweep_rows(cfg):
            lines.append(
                f"{_fmt(q.beta)},{regime},{origin_class},"
                f"{_fmt(rq.x_star)},{_fmt(rq.y_star)},{cert_ok}"
            )
        return 0, "\n".join(lines) + "\n"
    payload = {
        "params": _params_dict(cfg.params),
        "rows": [
            {"beta": q.beta, "regime": regime, "origin_class": origin_class,
             "x_star": rq.x_star, "y_star": rq.y_star,
             "certificate_ok": cert_ok}
            for q, regime, origin_class, rq, cert_ok in _sweep_rows(cfg)
        ],
    }
    return 0, _json_text(payload)


_HANDLERS = {
    "simulate": _run_simulate,
    "equilibria": _run_equilibria,
    "verify": _run_verify,
    "cycles": _run_cycles,
    "basin": _run_basin,
    "sweep": _run_sweep,
}


def run(cfg: RunConfig) -> int:
    """Execute a RunConfig, write its output, and return the exit status."""
    status, text = _HANDLERS[cfg.subcommand](cfg)
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
