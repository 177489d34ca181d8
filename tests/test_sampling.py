import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import mosqdyn
from mosqdyn import _sampling
from mosqdyn.errors import DomainError


def _piece(a, b):
    return a, b, os.getpid()


def _later_pieces_finish_first(a, b):
    time.sleep(0.005 * (10 - a))
    return a, b


def _refuse_later_pieces(a, b):
    if a > 0:
        raise DomainError(f"rows {a}-{b} refused")
    return a, b


def _later_pieces_die(a, b):
    if a > 0:
        os._exit(3)
    return a, b


def _later_pieces_exit_5_after_their_result(a, b):
    if a > 0:  # runs in the forked child, so the caller's os is untouched
        real_exit = os._exit
        os._exit = lambda code: real_exit(5)
    return a, b


class _UnpicklableError(Exception):
    def __init__(self, message):
        super().__init__(message)
        self.hook = lambda: None


def _later_pieces_raise_unpicklable(a, b):
    if a > 0:
        raise _UnpicklableError(f"rows {a}-{b} refused")
    return a, b


def _first_piece_fails(a, b):
    if a == 0:
        raise DomainError("rows 0 refused")
    time.sleep(0.2)
    return a, b


def _big_piece(a, b):
    # far more than one pipe buffer (64 KiB) per piece
    return bytes(range(a, a + 200)) * 1000 + b"|%d-%d" % (a, b)


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

    def test_error_that_does_not_pickle_keeps_its_message(self, monkeypatch):
        monkeypatch.setenv("MOSQDYN_THREADS", "2")
        with pytest.raises(ChildProcessError, match="rows 5-10 refused.*does not pickle"):
            _sampling.map_chunks(_later_pieces_raise_unpicklable, 10)

    def test_worker_that_dies_without_a_result_raises(self, monkeypatch):
        monkeypatch.setenv("MOSQDYN_THREADS", "2")
        with pytest.raises(ChildProcessError, match="rows 5-10 exited with status 3"):
            _sampling.map_chunks(_later_pieces_die, 10)

    def test_worker_that_exits_non_zero_after_its_result_raises(self, monkeypatch):
        monkeypatch.setenv("MOSQDYN_THREADS", "2")
        with pytest.raises(ChildProcessError, match="rows 5-10 exited with status 5"):
            _sampling.map_chunks(_later_pieces_exit_5_after_their_result, 10)
        assert os._exit.__name__ == "_exit"

    def test_no_worker_is_left_when_the_first_piece_raises(self, monkeypatch):
        monkeypatch.setenv("MOSQDYN_THREADS", "3")
        with pytest.raises(DomainError, match="rows 0 refused"):
            _sampling.map_chunks(_first_piece_fails, 9)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_results_wider_than_a_pipe_come_back_whole(self, monkeypatch):
        monkeypatch.setenv("MOSQDYN_THREADS", "4")
        got = _sampling.map_chunks(_big_piece, 40)
        assert got == [_big_piece(a, a + 10) for a in (0, 10, 20, 30)]
        assert all(len(r) > 64 * 1024 for r in got)

    def test_without_fork_every_piece_runs_in_the_caller(self, monkeypatch):
        monkeypatch.setenv("MOSQDYN_THREADS", "3")
        forked = _sampling.map_chunks(_piece, 9)
        monkeypatch.delattr(os, "fork")
        serial = _sampling.map_chunks(_piece, 9)
        assert [r[:2] for r in serial] == [r[:2] for r in forked]
        assert [r[2] for r in serial] == [os.getpid()] * 3

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_basin_imports_no_pool(self, workers):
        # P0 is decided by the proof; below the threshold the rule runs in
        # row pieces
        code = ("import sys, mosqdyn.cli; "
                "[mosqdyn.cli.main(['basin', '--alpha', '0.5', '--beta', beta, "
                "'--mu', '0.8', '--d0', '0.3', '--grid-n', '6']) "
                "for beta in ('2.0', '1.0')]; "
                "print(sorted(m for m in sys.modules "
                "if m.startswith(('concurrent', 'multiprocessing'))))")
        # the child imports the same mosqdyn as this process, installed or not
        src = str(Path(mosqdyn.__file__).resolve().parent.parent)
        env = dict(os.environ, MOSQDYN_THREADS=workers)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True).stdout
        lines = out.splitlines()
        assert lines[0] == "0,1,1,1,1,1" and lines[6:12] == ["0,0,0,0,0,0"] * 6
        assert lines[-1] == "[]"
