"""Row parts done at the same time, one forked child per part after the first.

The table writer (`cli._write_csv`) and the sampler (`dpp_kernels.exact_sample`)
split their rows into contiguous parts the same way: `parts` is how many, one
per available CPU above a per-part floor, and `run` does the parts, this
process the first and a forked child each later one, and gathers the
children's results in row order.  Every part count gives the same result.
"""

import contextlib
import os
import pickle
import signal
import tempfile
import threading

__all__ = []


def parts(items, floor):
    """How many contiguous parts `items` items split into: one per available
    CPU, with at least `floor` items a part.  One part where the platform lacks
    `os.sched_getaffinity` or `os.fork`, or where a second thread runs: a
    forked copy of a multi-threaded process can deadlock."""
    if (not hasattr(os, "sched_getaffinity") or not hasattr(os, "fork")
            or threading.active_count() != 1):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), items // floor))


def run(n, start, count, own, child, gather, name, mode="w+b", reraise=False):
    """Do rows start..n-1 in `count` contiguous parts at the same time.

    One child is forked per part after the first, with an unnamed temporary
    file opened in `mode`; it calls child(file, lo, hi) for its rows lo..hi-1
    and exits, with status 1 on any exception, so it never returns here.  This
    process calls own(lo, hi) for the first part, then reaps the children in
    row order and calls gather(file, lo, hi), the file rewound, for each child
    that exited 0.

    A child that fails raises ChildProcessError naming "the `name` of rows
    lo..hi-1 of n" and the child's exception (type and message), or the signal
    that killed it; with `reraise` the child's exception itself, rebuilt from
    its pickle, so the caller sees what one process would have raised.  Row
    order decides which failure is raised: the first part's before any
    child's, an earlier child's before a later one's.  On any exception here
    every child still running is killed and reaped before it propagates.
    """
    cut = [start + (n - start) * k // count for k in range(count + 1)]
    parent, children = os.getpid(), []      # (pid, lo, hi, file) of the children not reaped
    with contextlib.ExitStack() as files:
        try:
            for lo, hi in zip(cut[1:-1], cut[2:]):
                part = files.enter_context(tempfile.TemporaryFile(mode))
                pid = os.fork()
                if pid == 0:
                    _child(child, part, lo, hi)
                children.append((pid, lo, hi, part))
            own(cut[0], cut[1])
            while children:
                pid, lo, hi, part = children[0]
                status = os.waitpid(pid, 0)[1]
                children.pop(0)
                if status != 0:
                    raise _failure(f"the {name} of rows {lo}..{hi - 1} of {n}", status, part,
                                   reraise)
                part.seek(0)
                gather(part, lo, hi)
        except BaseException:
            if os.getpid() != parent:     # a child interrupted before `_child`
                os._exit(1)
            for pid, *_ in children:
                with contextlib.suppress(ProcessLookupError, ChildProcessError):
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
            raise


def _child(child, part, lo, hi):
    """A forked child's work: child(part, lo, hi), then exit; never returns.
    On an exception `part` holds only the pickle of (its type and message, the
    pickled exception or b"" where it does not pickle), written past the file
    object's buffer, for `_failure`."""
    status = 1
    try:
        child(part, lo, hi)
        part.flush()
        status = 0
    except BaseException as exc:
        why = type(exc).__name__ + (f": {exc}" if str(exc) else "")
        try:
            blob = pickle.dumps(exc)
        except Exception:     # an exception holding what does not pickle: its text still goes
            blob = b""
        os.ftruncate(part.fileno(), 0)
        os.pwrite(part.fileno(), pickle.dumps((why, blob)), 0)
    finally:
        os._exit(status)


def _failure(rows, status, part, reraise):
    """The exception for a child that ended with `status`: the one it raised
    (with `reraise`, where it unpickles), else a ChildProcessError naming
    `rows` with the exit status and the reason in `part`, or the signal."""
    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        return ChildProcessError(f"{rows} was killed by signal {-code}")
    fd = part.fileno()
    report = os.pread(fd, os.fstat(fd).st_size, 0)
    why, blob = pickle.loads(report) if report else ("", b"")
    if reraise and blob:
        with contextlib.suppress(Exception):     # an exception class that does not rebuild
            return pickle.loads(blob)
    return ChildProcessError(f"{rows} exited with status {code}" + (f": {why}" if why else ""))
