import os
import subprocess
import sys
from pathlib import Path

import mosqdyn
from mosqdyn import _sampling


def test_thread_count_is_one_whatever_the_environment(monkeypatch):
    for value in (None, "3", "zero"):
        if value is None:
            monkeypatch.delenv("MOSQDYN_THREADS", raising=False)
        else:
            monkeypatch.setenv("MOSQDYN_THREADS", value)
        assert _sampling.thread_count() == 1


def test_basin_imports_no_pool():
    # P0 and the threshold's band at tol 1e-17 are both decided by proofs;
    # the stopping rule runs at no tol
    code = ("import sys, mosqdyn.cli; "
            "[mosqdyn.cli.main(['basin', '--alpha', '0.5', '--beta', beta, "
            "'--mu', '0.8', '--d0', '0.3', '--grid-n', '6', '--max-iter', "
            "'300', '--tol', tol]) "
            "for beta, tol in (('2.0', '1e-8'), ('1.2800000000000002', "
            "'1e-17'))]; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith(('concurrent', 'multiprocessing'))))")
    # the child imports the same mosqdyn as this process, installed or not
    src = str(Path(mosqdyn.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    assert lines[0] == "0,1,1,1,1,1" and lines[6] == "0,3,3,3,3,3"
    assert lines[7:12] == ["3,3,3,3,3,3"] * 5
    assert lines[-1] == "[]"
