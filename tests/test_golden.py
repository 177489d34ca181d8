"""Byte-for-byte golden outputs of every subcommand.

tests/golden/<subcommand>_<tuple>.<ext> holds the stdout of one call at a
small size.  After an intended output change, regenerate a file with
``python -m mosqdyn <argv> > tests/golden/<file>``, using the argv below.
"""

from pathlib import Path

import pytest

from mosqdyn.cli import main

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

CASES = [
    (f"{cmd}_{name}.{ext}", [cmd, *flags, *extra])
    for name, flags in TUPLES.items()
    for cmd, (extra, ext) in COMMANDS.items()
]


@pytest.mark.parametrize("filename,argv", CASES, ids=[c[0] for c in CASES])
def test_stdout_matches_golden_bytes(filename, argv, capsys):
    status = main(argv)
    out = capsys.readouterr().out.encode("utf-8")
    assert status == 0
    assert out == (GOLDEN / filename).read_bytes()
