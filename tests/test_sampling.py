import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import mosqdyn
from mosqdyn import _sampling
from mosqdyn.errors import DomainError


# map_chunks pickles what it runs in a worker process, so the pieces are
# module-level functions
def _piece(a, b):
    return a, b, os.getpid()


def _later_pieces_finish_first(a, b):
    time.sleep(0.005 * (10 - a))
    return a, b


def _refuse_later_pieces(a, b):
    if a > 0:
        raise DomainError(f"rows {a}-{b} refused")
    return a, b


class TestMapChunks:
    def test_later_pieces_run_in_other_processes(self, monkeypatch):
        monkeypatch.setenv("MOSQDYN_THREADS", "2")
        (a0, b0, pid0), (a1, b1, pid1) = _sampling.map_chunks(_piece, 10)
        assert (a0, b0, a1, b1) == (0, 5, 5, 10)
        assert pid0 == os.getpid()
        assert pid1 != os.getpid()

    def test_results_come_back_in_piece_order(self, monkeypatch):
        monkeypatch.setenv("MOSQDYN_THREADS", "4")
        got = _sampling.map_chunks(_later_pieces_finish_first, 10)
        assert got == [(0, 2), (2, 5), (5, 7), (7, 10)]

    def test_error_in_a_worker_reaches_the_caller(self, monkeypatch):
        monkeypatch.setenv("MOSQDYN_THREADS", "2")
        with pytest.raises(DomainError, match="rows 5-10 refused"):
            _sampling.map_chunks(_refuse_later_pieces, 10)

    def test_without_fork_every_piece_runs_in_the_caller(self, monkeypatch):
        monkeypatch.setenv("MOSQDYN_THREADS", "3")
        forked = _sampling.map_chunks(_piece, 9)
        starts = multiprocessing.get_all_start_methods()
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: [m for m in starts if m != "fork"])
        serial = _sampling.map_chunks(_piece, 9)
        assert [r[:2] for r in serial] == [r[:2] for r in forked]
        assert [r[2] for r in serial] == [os.getpid()] * 3

    def test_one_worker_imports_no_pool(self):
        code = ("import sys, mosqdyn.cli; from mosqdyn import _sampling; "
                "_sampling.map_chunks(lambda a, b: a, 5); "
                "print(sorted(m for m in sys.modules "
                "if m.startswith(('concurrent', 'multiprocessing'))))")
        # the child imports the same mosqdyn as this process, installed or not
        src = str(Path(mosqdyn.__file__).resolve().parent.parent)
        env = {k: v for k, v in os.environ.items() if k != "MOSQDYN_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert out == "[]\n"
