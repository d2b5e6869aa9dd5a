"""Leave no process behind: adopt orphaned descendants, then reap them.

A workload's child can start processes of its own that outlive it: the
``vase serve`` process spawns executor workers and a multiprocessing
resource tracker, and the tracker exits only after the server is gone.
Such orphans would be re-parented to init and outlive the benchmark.
:func:`adopt_orphans` makes this process a child subreaper (Linux), so
they are re-parented here instead, and :func:`reap_all` waits for every
child, killing what is still running after a grace period.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import os
import signal
import sys
import time
from typing import List

#: prctl option that makes orphaned descendants re-parent to the caller
PR_SET_CHILD_SUBREAPER = 36
#: seconds a child may take to exit on its own before it is killed
GRACE_S = 5.0


def adopt_orphans() -> bool:
    """Become a child subreaper; False where the platform has none."""
    if not sys.platform.startswith("linux"):
        return False
    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c"), use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def running_children() -> List[int]:
    """Pids of this process's children that have not exited (Linux)."""
    me = os.getpid()
    pids = []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return pids
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as stat:
                fields = stat.read().rsplit(b")", 1)[1].split()
        except (OSError, IndexError):
            continue  # exited meanwhile
        if fields[0] != b"Z" and int(fields[1]) == me:
            pids.append(int(entry))
    return pids


def _stop_resource_tracker() -> None:
    """Stop this process's own multiprocessing resource tracker, if any.

    It exits only when every holder of its pipe has closed it, and this
    process is one of them.  ``_stop`` closes the pipe and waits.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    stop = getattr(getattr(tracker, "_resource_tracker", None), "_stop",
                   None)
    if stop is not None:
        try:
            stop()
        except (OSError, ChildProcessError):
            pass


def reap_all(grace_s: float = GRACE_S) -> int:
    """Wait for every child to end; SIGKILL those left after ``grace_s``.

    Returns how many children were killed.  Call it only once nothing
    else waits on a child: it collects any child's exit status.
    """
    _stop_resource_tracker()
    deadline = time.monotonic() + grace_s
    killed = set()
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return len(killed)  # no children left
        if pid:
            continue
        if time.monotonic() >= deadline:
            for pid in running_children():
                try:
                    os.kill(pid, signal.SIGKILL)
                    killed.add(pid)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)
