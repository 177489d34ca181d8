"""Byte-for-byte golden outputs of every subcommand.

tests/golden/<subcommand>_<tuple>.<ext> holds the stdout of one call at a
small size.  After an intended output change, regenerate a file with
``python -m mosqdyn <argv> > tests/golden/<file>``, using the argv below.
The SUBSTITUTED files pin failing reports: they hold the stdout of the same
call made in-process with the listed substitution applied.  WIDE_BASIN pins
wide proof-decided rasters above, below and on the threshold (at a tol below
its band tuple's fixed point), ORBITS pins whole stride-1 orbits in both
formats (tests/golden/simulate_orbit_<name>.<ext>), and NEAR_CORNER_CYCLES
pins a report whose certificate fails (exit status 1).  The files
verify_<tuple>_full.json pin verify at its default size, --samples 100000
and --seed 0: their argv is ``verify <tuple flags>`` alone.
"""

import os
from pathlib import Path

import pytest

from mosqdyn.cli import main
from mosqdyn.cycles import Cycle
from mosqdyn.errors import CertificateFailure
from mosqdyn.geometry import RegionBounds, omega_bounds

GOLDEN = Path(__file__).parent / "golden"

TUPLES = {
    "p0": ["--alpha", "0.5", "--beta", "2.0", "--mu", "0.8", "--d0", "0.3"],
    # beta exactly on the persistence threshold mu*(1 + d0/alpha)
    "boundary": ["--alpha", "0.5", "--beta", "1.2800000000000002", "--mu", "0.8",
                 "--d0", "0.3"],
    "below": ["--alpha", "0.5", "--beta", "1.0", "--mu", "0.8", "--d0", "0.3"],
}

COMMANDS = {
    "simulate": (["--x0", "1", "--y0", "0.5", "--stride", "25", "--max-iter", "200"],
                 "csv"),
    "equilibria": ([], "json"),
    "verify": (["--samples", "500", "--seed", "1"], "json"),
    "cycles": (["--grid-n", "6"], "json"),
    "basin": (["--grid-n", "6", "--max-iter", "300"], "csv"),
    "sweep": (["--grid-n", "5"], "csv"),
}

#: Subcommands whose default CSV also has a ``--format json`` mirror.
JSON_MIRRORS = ("simulate", "basin", "sweep")

#: Whole orbits at the default stride 1.  The first two visit outside_omega
#: and three of omega1-omega4; the third sits on the threshold (omega_only)
#: and runs out of budget.
ORBITS = {
    "omega134": ["--alpha", "0.7", "--beta", "1.43", "--mu", "0.92", "--d0", "0.18",
                 "--x0", "0", "--y0", "1"],
    "omega234": ["--alpha", "0.58", "--beta", "2.4", "--mu", "0.9", "--d0", "0.41",
                 "--x0", "0", "--y0", "1"],
    "at_threshold": [*TUPLES["boundary"], "--x0", "1", "--y0", "0.5",
                     "--max-iter", "400"],
}

CASES = [
    (f"{cmd}_{name}.{ext}", [cmd, *flags, *extra])
    for name, flags in TUPLES.items()
    for cmd, (extra, ext) in COMMANDS.items()
] + [
    (f"{cmd}_{name}.json", [cmd, *flags, *COMMANDS[cmd][0], "--format", "json"])
    for name, flags in TUPLES.items()
    for cmd in JSON_MIRRORS
] + [
    (f"simulate_orbit_{name}.{ext}", ["simulate", *flags, "--format", ext])
    for name, flags in ORBITS.items()
    for ext in ("csv", "json")
] + [
    (f"verify_{name}_full.json", ["verify", *flags]) for name, flags in TUPLES.items()
]


@pytest.mark.parametrize("filename,argv", CASES, ids=[c[0] for c in CASES])
def test_stdout_matches_golden_bytes(filename, argv, capsys):
    status = main(argv)
    out = capsys.readouterr().out.encode("utf-8")
    assert status == 0
    assert out == (GOLDEN / filename).read_bytes()


def _no_newton(*args):
    raise AssertionError("cycles ran Newton")


@pytest.mark.parametrize("name", TUPLES)
def test_cycles_match_golden_bytes_without_newton(name, monkeypatch, capsys):
    # above, on and below the threshold the lists come from the theorem alone
    monkeypatch.setattr("mosqdyn.cycles._newton_cycle_batch", _no_newton)
    assert main(["cycles", *TUPLES[name], *COMMANDS["cycles"][0]]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert out == (GOLDEN / f"cycles_{name}.json").read_bytes()


#: Rasters of 72 x 72 = 5,184 lanes, none of which steps.  Above the
#: threshold the order sandwich decides every cell, and below it
#: `settles_near_origin` does, as on the threshold at the golden files' tol.
#: At tol 1e-17 the band tuple's exact fixed point, about (4.1e-16, 2.5e-16),
#: lies beyond the near radius 1e-16, so every cell but the origin reads 3:
#: the float regime does not list the point its orbit converges to.
WIDE_BASIN = {
    name: (f"basin_{name}_wide.csv",
           ["basin", *TUPLES[flags], "--grid-n", "72", "--max-iter", "300", *extra])
    for name, flags, extra in (("p0", "p0", []), ("below", "below", []),
                               ("band", "boundary", ["--tol", "1e-17"]))
}

#: A value of MOSQDYN_THREADS, which earlier versions read and which an
#: environment may still set: it may change no byte and start no process.
#: Nothing reads the variable any more, so one value is enough; it keeps its
#: test id.
WORKERS = pytest.mark.parametrize("workers", ["3"], ids=["threads_3"])


def _refuse_fork():
    raise AssertionError("basin forked")


def _wide_basin_matches_golden_bytes(name, workers, monkeypatch, capsys):
    monkeypatch.setenv("MOSQDYN_THREADS", workers)
    monkeypatch.setattr(os, "fork", _refuse_fork, raising=False)
    filename, argv = WIDE_BASIN[name]
    assert main(argv) == 0
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / filename).read_bytes()


@WORKERS
def test_wide_basin_matches_golden_bytes(workers, monkeypatch, capsys):
    _wide_basin_matches_golden_bytes("p0", workers, monkeypatch, capsys)


@WORKERS
def test_wide_below_threshold_basin_matches_golden_bytes(workers, monkeypatch, capsys):
    _wide_basin_matches_golden_bytes("below", workers, monkeypatch, capsys)


@WORKERS
def test_wide_band_basin_matches_golden_bytes(workers, monkeypatch, capsys):
    _wide_basin_matches_golden_bytes("band", workers, monkeypatch, capsys)


#: A hair above the corner mu = 1, alpha + d0 = 1 on the threshold, no
#: certificate can be built, so the exit status is 1.  The grid-30 Newton
#: search accepts 49 spurious period-2 cycles near the origin there; the
#: order sandwich proves that none exists, so every list is empty.
NEAR_CORNER_CYCLES = (
    "cycles_near_corner_grid30.json",
    ["cycles", "--alpha", "0.5", "--beta", "2.0000000000000004", "--mu", "1",
     "--d0", "0.5", "--grid-n", "30"])


def test_near_corner_cycles_match_golden_bytes(capsys):
    filename, argv = NEAR_CORNER_CYCLES
    assert main(argv) == 1
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / filename).read_bytes()


def corrupt_omega_bounds(monkeypatch):
    """Halve Omega's x extent, so the invariance samples leave their regions."""
    real = omega_bounds

    def corrupted(p):
        b = real(p)
        return RegionBounds(0.5 * b.x_max, b.y_max, b.x_star, b.y_star)

    monkeypatch.setattr("mosqdyn.geometry.omega_bounds", corrupted)


def fake_cycles(monkeypatch):
    """One made-up cycle per searched period."""
    def search(p, period, grid_n, tol):
        states = tuple((0.1 * (k + 1), 0.3 / (k + 1)) for k in range(period))
        return [Cycle(period, states, 1e-13 / period)]

    monkeypatch.setattr("mosqdyn.cli.brute_force_cycle_search", search)


def failing_certificate(monkeypatch):
    def certificate(p):
        raise CertificateFailure("substituted failure: coefficients lost sign")

    monkeypatch.setattr("mosqdyn.cli.no_cycle_certificate", certificate)


SUBSTITUTED = {
    "verify_p0_corrupted.json": (
        ["verify", *TUPLES["p0"], *COMMANDS["verify"][0]], (corrupt_omega_bounds,)),
    "cycles_p0_fake_cycles.json": (
        ["cycles", *TUPLES["p0"], *COMMANDS["cycles"][0]], (fake_cycles,)),
    "cycles_p0_no_certificate.json": (
        ["cycles", *TUPLES["p0"], *COMMANDS["cycles"][0]],
        (fake_cycles, failing_certificate)),
}


@pytest.mark.parametrize("filename", SUBSTITUTED)
def test_failing_report_matches_golden_bytes(filename, monkeypatch, capsys):
    argv, substitutions = SUBSTITUTED[filename]
    for substitute in substitutions:
        substitute(monkeypatch)
    status = main(argv)
    out = capsys.readouterr().out.encode("utf-8")
    assert status == 1
    assert out == (GOLDEN / filename).read_bytes()
