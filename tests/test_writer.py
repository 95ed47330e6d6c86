"""`run`'s trajectory.csv writer process: the same bytes as write_csv, and
a one-line error, with no process left, on every way it can fail."""

import dataclasses
import errno
import importlib
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import savetxt_write_csv
from rigiform import _g17, _writer, builtin_scenario, generate_scenario, integrate, save_scenario, \
    sim, write_csv
from rigiform.cli import main


@pytest.fixture(autouse=True)
def deadline():
    """A run that hangs on its writer fails the test after 60 s instead;
    the alarm is not inherited by the writer."""
    def expire(signum, frame):
        raise TimeoutError("the run waited 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def forks(monkeypatch):
    """The number of times os.fork has been called, as a one-item list."""
    calls, fork = [0], os.fork

    def counting():
        calls[0] += 1
        return fork()

    monkeypatch.setattr(os, "fork", counting)
    return calls


def _assert_written_as_write_csv(sc, tmp_path):
    """stream_run's file against write_csv's and the savetxt writer's, and
    what it keeps against the Trajectory."""
    run = sim.stream_run(sc, tmp_path / "streamed.csv")
    traj = integrate(sc)
    write_csv(traj, tmp_path / "written.csv")
    savetxt_write_csv(traj, tmp_path / "savetxt.csv")
    streamed = (tmp_path / "streamed.csv").read_bytes()
    assert streamed == (tmp_path / "written.csv").read_bytes()
    assert streamed == (tmp_path / "savetxt.csv").read_bytes()
    assert (run.divergence_step, run.divergence_reason) == \
        (traj.divergence_step, traj.divergence_reason)
    for got, want in ((run.times, traj.times), (run.error_norms, traj.error_norms),
                      (run.speeds, traj.speeds), (run.last_mu, traj.mu[-1]),
                      (run.last_mu_hat, traj.mu_hat[-1]), (run.final_errors, traj.final_errors)):
        np.testing.assert_array_equal(got, want)
    return run


# the rows of each table the parent formats itself: as measured, or forced
SHARES = {
    "measured": None,
    "none": lambda writer, rows, seconds: 0,
    "half": lambda writer, rows, seconds: rows // 2,
    "all": lambda writer, rows, seconds: rows,
}


@pytest.mark.parametrize("share", [*SHARES, "no-fork"])
@pytest.mark.parametrize("mode", ["gradient_only", "estimator"])
@pytest.mark.parametrize("name", ["epuck2d", "tetra3d"])
def test_runs_across_many_chunks_write_what_write_csv_writes(tmp_path, monkeypatch, forks, name,
                                                            mode, share):
    # chunks of 1024 values: tables of 15 and 8 rows, each shorter than a
    # block, so what no block took moves from table to table
    monkeypatch.setattr(sim, "_CSV_CHUNK_VALUES", 1 << 10)
    if share == "no-fork":
        monkeypatch.delattr(os, "fork")
    elif SHARES[share] is not None:
        monkeypatch.setattr(_writer.Writer, "_share", SHARES[share])
    sc = dataclasses.replace(builtin_scenario(name), mode=mode, t_end=2.0, output_every=5)
    _assert_written_as_write_csv(sc, tmp_path)
    assert forks[0] == (share != "no-fork")


@pytest.mark.parametrize("share", ["measured", "half", "no-fork"])
def test_a_run_that_diverges_mid_chunk_writes_what_write_csv_writes(tmp_path, monkeypatch, forks,
                                                                   share):
    # tables of 3 rows of 2189 values; the guard trips in the second
    monkeypatch.setattr(sim, "_CSV_CHUNK_VALUES", 1 << 14)
    if share == "no-fork":
        monkeypatch.delattr(os, "fork")
    elif SHARES[share] is not None:
        monkeypatch.setattr(_writer.Writer, "_share", SHARES[share])
    sc = dataclasses.replace(generate_scenario(200, 2, 0), dt=0.055, t_end=200 * 0.055,
                             output_every=1)
    run = _assert_written_as_write_csv(sc, tmp_path)
    assert run.diverged and 3 < run.sample_count < 6
    assert forks[0] == (share != "no-fork")


def test_a_run_within_one_chunk_is_written_in_process(tmp_path, forks):
    # every built-in run fits one chunk, its full horizon too
    for name in ("epuck2d", "tetra3d"):
        sc = builtin_scenario(name)
        samples = round(sc.t_end / sc.dt) // sc.output_every + 1
        fw = sc.framework_initial()
        assert samples * (1 + fw.graph.n * (fw.dim + 1) + 4 * fw.graph.edge_count) \
            <= sim._CSV_CHUNK_VALUES
    sc = dataclasses.replace(builtin_scenario("tetra3d"), t_end=2.0)
    run = _assert_written_as_write_csv(sc, tmp_path)
    assert forks == [0] and run.write_seconds > 0


def test_the_writer_shares_no_more_rows_than_one_chunk(tmp_path, monkeypatch):
    shapes, shared = [], _writer.shared

    def recording(shape):
        shapes.append(shape)
        return shared(shape)

    monkeypatch.setattr(_writer, "shared", recording)
    sc = dataclasses.replace(generate_scenario(200, 2, 0), t_end=0.25, output_every=1)
    sim.stream_run(sc, tmp_path / "run.csv")
    (slots, values), = shapes
    assert slots == 2 and slots * (values - sim._CSV_BLOCK_VALUES) <= sim._CSV_CHUNK_VALUES


def _writer_run_file(tmp_path):
    """A run whose 301 rows of 937 values pass one chunk: the writer formats them."""
    sc = dataclasses.replace(generate_scenario(60, 3, 1), t_end=0.3, output_every=1)
    save_scenario(sc, tmp_path / "gen.json")
    return str(tmp_path / "gen.json")


def _failing_text(*args):
    raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("forked", [True, False], ids=["writer", "no-fork"])
def test_a_failing_writer_exits_one_in_one_line(tmp_path, monkeypatch, capsys, forks, forked):
    # the fork inherits the patched formatter; the parent raises its error
    monkeypatch.setattr(_g17, "text", _failing_text)
    if not forked:
        monkeypatch.delattr(os, "fork")
    code = main(["run", _writer_run_file(tmp_path), "--out", str(tmp_path / "out")])
    assert (code, capsys.readouterr()) == (1, ("", "error: [Errno 28] No space left on device\n"))
    assert forks[0] == forked


def _kill_the_writer_before_the_second_hand_over(monkeypatch):
    flush, calls = _writer.Writer.flush, []

    def killing(self, rows, last=False):
        calls.append(rows)
        if len(calls) == 2:
            os.kill(self.pid, signal.SIGKILL)
            os.waitid(os.P_PID, self.pid, os.WEXITED | os.WNOWAIT)  # dead, not reaped
        return flush(self, rows, last)

    monkeypatch.setattr(_writer.Writer, "flush", killing)


def _exit_the_writer_at_the_end_of_the_file(monkeypatch):
    parent, flush = os.getpid(), sim._CsvChunks.flush

    def exiting(self, rows, last=False, tail=0):
        if last and os.getpid() != parent:  # the parent is waiting for its answer
            os._exit(3)
        return flush(self, rows, last, tail)

    monkeypatch.setattr(sim._CsvChunks, "flush", exiting)


@pytest.mark.parametrize("end, message", [
    (_kill_the_writer_before_the_second_hand_over, "was killed by signal 9"),
    (_exit_the_writer_at_the_end_of_the_file, "exited with status 3"),
], ids=["killed", "exited"])
def test_a_writer_that_dies_is_a_one_line_error_not_a_hang(tmp_path, monkeypatch, capsys, end,
                                                          message):
    # killed, the writer fails the parent's next message with EPIPE; exited,
    # it ends the answers the parent is waiting for
    end(monkeypatch)
    code = main(["run", _writer_run_file(tmp_path), "--out", str(tmp_path / "out")])
    assert (code, capsys.readouterr()) == \
        (1, ("", f"error: the trajectory.csv writer process {message} before it finished\n"))


@pytest.mark.parametrize("exception", [KeyboardInterrupt, RuntimeError])
def test_an_exception_in_the_parent_kills_and_reaps_the_writer(tmp_path, monkeypatch, exception):
    flush, pids = _writer.Writer.flush, []

    def raising(self, rows, last=False):
        if pids:
            raise exception
        pids.append(self.pid)
        return flush(self, rows, last)

    monkeypatch.setattr(_writer.Writer, "flush", raising)
    sc = dataclasses.replace(generate_scenario(60, 3, 1), t_end=0.3, output_every=1)
    with pytest.raises(exception):
        sim.stream_run(sc, tmp_path / "run.csv")
    with pytest.raises(ChildProcessError):
        os.waitpid(pids[0], os.WNOHANG)


def test_the_writer_never_flushes_the_parents_stdio(tmp_path):
    # text a block-buffered stdout holds at the fork is printed once, by the
    # parent, whether the writer succeeds or fails
    src = str(Path(importlib.import_module("rigiform").__file__).parents[1])
    scenario = _writer_run_file(tmp_path)
    code = (
        "import sys\n"
        "from rigiform import _g17\n"
        "from rigiform.cli import main\n"
        "print('held', end='')\n"
        f"first = main(['run', {scenario!r}, '--out', {str(tmp_path / 'ok')!r}])\n"
        "def fail(*args): raise OSError('formatter failed')\n"
        "_g17.text = fail\n"
        f"sys.exit(10 * first + main(['run', {scenario!r}, '--out', {str(tmp_path / 'no')!r}]))\n"
    )
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**env, "PYTHONPATH": src})
    assert done.returncode == 1 and done.stderr == "error: formatter failed\n"
    assert done.stdout.startswith("heldrun ") and done.stdout.count("held") == 1
