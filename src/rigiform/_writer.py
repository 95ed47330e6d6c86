"""trajectory.csv formatted in a forked writer process.

`sim.stream_run` imports this module only for a run whose rows pass one
chunk, so importing rigiform does not compile it.  The run's
`sim._CsvChunks` keeps its tables in memory that the fork shares.  The
parent fills them in turn and hands each over through a pipe; the child,
forked once the header is written, flushes each through its copy of the
same `_CsvChunks` and answers once the table may be filled again.  So the
child formats one table while the parent integrates into the other, and
the file is written in order by the child alone.

Formatting costs more than integrating at every size measured, so the
parent would wait on the child.  Instead it formats the last rows of each
table it hands over itself, as many as even out the two processes' work
by the child's measured formatting rate and the parent's integration
time, and sends their text down the same pipe; the child writes it after
its own rows.

How it fails:
- an exception in the child goes to the parent pickled, and the parent
  raises it; the child leaves by os._exit, so it runs no exit handler and
  never flushes the parent's stdio;
- a child that ends without a word shows as end of file on its answers
  (or EPIPE on the messages), and the parent raises ChildProcessError
  naming how it ended: the parent never waits on a dead child;
- an exception in the parent kills and reaps the child.

Python 3.12 and later warn (DeprecationWarning) when a process that runs
several threads forks, as one whose BLAS started a thread pool does.  The
child calls no BLAS routine and touches no lock but its own pipes.
"""

from __future__ import annotations

import fcntl
import gc
import mmap
import os
import pickle
import signal
import struct
from time import perf_counter

import numpy as np

from . import _g17

_HAND_OVER = struct.Struct("<qq?")  # the child's rows of a table, the parent's, last
_LENGTH = struct.Struct("<q")  # bytes of the parent's text that follow; 0 ends a table's
_READY = struct.Struct("<cd")  # _OK and the child's seconds formatting so far
_OK, _FAILED = b".", b"!"  # the child's answers: a table written; a pickled exception follows
_PIPE_BYTES = 1 << 20  # asked of the pipe; the parent's share of a table is text that fits


def shared(shape):
    """A float64 array of the shape in memory that a forked child shares."""
    size = int(np.prod(shape)) * 8
    return np.frombuffer(mmap.mmap(-1, size), np.float64).reshape(shape)


class Writer:
    """Hands the tables of csv, a sim._CsvChunks over `shared` memory, in
    turn to a forked child that flushes them.  `table` is the table to
    fill next, flush(rows, last) hands it over as _CsvChunks.flush takes
    it, and seconds is the time spent in the writer: csv's header, the
    fork, the hand-overs, the parent's share of the formatting and the
    waits.  Used as a context manager, it kills and reaps the child when
    an exception leaves the block."""

    def __init__(self, csv):
        start = perf_counter()
        self.csv, self.table, self.slot = csv, csv.table, 0
        self.pending = []  # values the child formats of each table handed over, not answered
        self.rate = None  # the child's seconds formatting a value
        self.formatted = 0  # values the child has formatted in the tables answered
        csv.file.flush()  # the header: the child writes on from its end
        _g17.tables()  # built once per process, not once per child
        work, self.work = os.pipe()
        self.answers, answer = os.pipe()
        try:
            piped = fcntl.fcntl(self.work, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
        except (AttributeError, OSError):  # not Linux, or over the user's pipe allowance
            piped = 0
        # rows of text the pipe holds: a value prints in at most a _g17 slot
        self.most = piped // (_g17.SLOT.itemsize * csv.columns)
        try:
            self.pid = os.fork()
        except BaseException:
            for fd in (work, self.work, self.answers, answer):
                os.close(fd)
            raise
        if self.pid == 0:
            status = 1
            try:
                os.close(self.work)
                os.close(self.answers)
                status = _serve(csv, work, answer)
            finally:
                os._exit(status)
        os.close(work)
        os.close(answer)
        self.seconds = csv.seconds + perf_counter() - start
        self.integrated = perf_counter()  # when the parent last left the writer

    def flush(self, rows, last=False):
        """Hand over the first `rows` rows of `table`, with last=True the
        end of the file too, and wait until the next table is free; with
        last=True, wait until the child has written everything and reap it."""
        start, columns, tables = perf_counter(), self.csv.columns, self.csv.tables
        mine = self._share(rows, start - self.integrated)
        self._send(_HAND_OVER.pack(rows - mine, mine, last))
        if mine:
            for text in self.csv.tail_texts(self.slot, rows - mine, rows):
                self._send(_LENGTH.pack(len(text)))
                self._send(text)
            self._send(_LENGTH.pack(0))
        self.pending.append((rows - mine) * columns)
        self.slot = (self.slot + 1) % len(tables)
        self.table = tables[self.slot]
        while len(self.pending) == len(tables) or (last and self.pending):
            answer = os.read(self.answers, _READY.size)
            if answer[:1] != _OK:
                self._fail(answer)
            self.formatted += self.pending.pop(0)
            if self.formatted:
                self.rate = _READY.unpack(answer)[1] / self.formatted
        if last:
            self._reap()
        self.integrated = perf_counter()
        self.seconds += self.integrated - start

    def _share(self, rows, seconds):
        """The rows of a table the parent formats itself, after `seconds`
        integrating it: as many as even out its work and the child's at the
        child's rate, none before the child has answered once, and no more
        text than the pipe holds."""
        if self.rate is None:
            return 0
        share = (rows - seconds / (self.rate * self.csv.columns)) / 2
        return min(max(0, round(share)), rows, self.most)

    def _send(self, data):
        try:
            _write(self.work, data)
        except BrokenPipeError:
            self._fail(b"")

    def _fail(self, data):
        """Raise what ended the child, given what was read of its answers:
        its exception when it sent one."""
        while chunk := os.read(self.answers, 1 << 16):
            data += chunk
        status = self._reap(check=False)
        while data[:1] == _OK:
            data = data[_READY.size:]
        if data[:1] == _FAILED:
            raise pickle.loads(data[1:])
        if os.WIFSIGNALED(status):
            ended = f"was killed by signal {os.WTERMSIG(status)}"
        else:
            ended = f"exited with status {os.waitstatus_to_exitcode(status)}"
        raise ChildProcessError(f"the trajectory.csv writer process {ended} before it finished")

    def _reap(self, check=True):
        """Wait for the child to end and return its wait status."""
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        if check and status:
            raise ChildProcessError(f"the trajectory.csv writer process ended with "
                                    f"status {os.waitstatus_to_exitcode(status)}")
        return status

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        if self.pid is not None:  # an exception left the child running
            os.kill(self.pid, signal.SIGKILL)
            self._reap(check=False)
        os.close(self.work)
        os.close(self.answers)


def _serve(csv, work, answer):
    """The child's loop: flush every table the parent hands over, write the
    text of the parent's rows after it, answer, and return the exit status
    once the last is written or the parent has gone.  An exception is sent
    to the parent, pickled."""
    gc.disable()  # a collection here would finalize, and copy, the parent's objects
    try:
        while message := _read(work, _HAND_OVER.size):
            rows, tail, last = _HAND_OVER.unpack(message)
            csv.flush(rows, last, tail)
            while tail and (size := _LENGTH.unpack(_read(work, _LENGTH.size))[0]):
                csv.file.write(_read(work, size))
            if last:
                csv.file.flush()
            _write(answer, _READY.pack(_OK, csv.seconds))
            if last:
                return 0
        return 1
    except BaseException as exc:  # KeyboardInterrupt too: the parent decides
        os.close(work)  # a parent blocked on a full pipe sees EPIPE and reads the answer
        try:
            data = pickle.dumps(exc)
            pickle.loads(data)
        except Exception:
            data = pickle.dumps(OSError(f"trajectory.csv writer: {type(exc).__name__}: {exc}"))
        _write(answer, _FAILED + data)
        return 1


def _read(fd, size):
    """size bytes from fd, fewer only at its end: a pipe may give them in parts."""
    data = b""
    while len(data) < size and (chunk := os.read(fd, size - len(data))):
        data += chunk
    return data


def _write(fd, data):
    """os.write all of data: a pipe may take it in parts."""
    while data:
        data = data[os.write(fd, data):]
