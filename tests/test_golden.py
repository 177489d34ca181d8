"""Byte-for-byte golden outputs of every subcommand.

tests/golden/<subcommand>_<tuple>.<ext> holds the stdout of one call at a
small size.  After an intended output change, regenerate a file with
``python -m mosqdyn <argv> > tests/golden/<file>``, using the argv below.
The SUBSTITUTED files pin failing reports: they hold the stdout of the same
call made in-process with the listed substitution applied.  WIDE_BASIN pins
a raster wide enough for the vector orbit loop (below the threshold) and its
proof-decided counterpart above it, ORBITS pins whole stride-1
orbits in both formats (tests/golden/simulate_orbit_<name>.<ext>), and
NEAR_CORNER_CYCLES pins a search that lists cycles (exit status 1).
"""

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
]


@pytest.mark.parametrize("filename,argv", CASES, ids=[c[0] for c in CASES])
def test_stdout_matches_golden_bytes(filename, argv, capsys):
    status = main(argv)
    out = capsys.readouterr().out.encode("utf-8")
    assert status == 0
    assert out == (GOLDEN / filename).read_bytes()


#: Rasters of 72 x 72 = 5,184 lanes.  Below the threshold the lanes stop at
#: 39 distinct steps from 0 to 160, so the vector loop compacts its lanes in
#: every row piece of 1 to 3 workers and, in one piece, hands its last 7 lanes
#: to the scalar loop; above it the order sandwich decides every cell without
#: a step.  The grid-6 rasters run
#: the scalar loop alone.
WIDE_BASIN = {
    name: (f"basin_{name}_wide.csv",
           ["basin", *TUPLES[name], "--grid-n", "72", "--max-iter", "300"])
    for name in ("p0", "below")
}

WORKERS = pytest.mark.parametrize("workers", [None, "2", "3"],
                                  ids=["threads_unset", "threads_2", "threads_3"])


def _wide_basin_matches_golden_bytes(name, workers, monkeypatch, capsys):
    monkeypatch.delenv("MOSQDYN_THREADS", raising=False)
    if workers is not None:
        monkeypatch.setenv("MOSQDYN_THREADS", workers)
    filename, argv = WIDE_BASIN[name]
    assert main(argv) == 0
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / filename).read_bytes()


@WORKERS
def test_wide_basin_matches_golden_bytes(workers, monkeypatch, capsys):
    _wide_basin_matches_golden_bytes("p0", workers, monkeypatch, capsys)


@WORKERS
def test_wide_below_threshold_basin_matches_golden_bytes(workers, monkeypatch, capsys):
    _wide_basin_matches_golden_bytes("below", workers, monkeypatch, capsys)


#: The only golden cycles report that lists cycles, so the only one that pins
#: Newton roots' bits: a hair above the corner mu = 1, alpha + d0 = 1 on the
#: threshold, no certificate can be built and the grid-30 search reports 49
#: spurious period-2 cycles near the origin, so the exit status is 1.  A
#: cycle verdict that proves its roots will change this file.
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
