"""CPU time and peak memory of a process and all of its descendants.

The process backend's workers are children of a forkserver, not of the
server, and the server never waits for them, so its ``cutime`` misses
them.  These helpers walk ``/proc`` for every descendant instead.
"""

from __future__ import annotations

import os
import signal
import time

_TICKS = os.sysconf("SC_CLK_TCK")


def _stat(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            text = handle.read()
    except OSError:
        return None
    # Field 2 (comm) may hold spaces; everything after its ')' is fixed.
    return text[text.rindex(")") + 2:].split()


def descendants(root: int) -> list[int]:
    """*root* and every live process below it."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat(int(entry))
        if fields is not None:
            children.setdefault(int(fields[1]), []).append(int(entry))
    found, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        found.append(pid)
        frontier.extend(children.get(pid, ()))
    return found


def cpu_ms(pids: list[int]) -> dict[int, float]:
    """User plus system CPU time of each live process, in ms."""
    out = {}
    for pid in pids:
        fields = _stat(pid)
        if fields is not None:
            # utime and stime are fields 14 and 15 of the stat line.
            out[pid] = (int(fields[11]) + int(fields[12])) * 1000.0 / _TICKS
    return out


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of each live process's peak resident set (VmHWM), in MB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def alive(pid: int) -> bool:
    fields = _stat(pid)
    return fields is not None and fields[0] != "Z"


def wait_gone(pids: list[int], timeout: float) -> None:
    """Wait until every pid has exited; kill what is left at *timeout*."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not any(alive(pid) for pid in pids):
            return
        time.sleep(0.02)
    for pid in pids:
        if alive(pid):
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
    end = time.monotonic() + 5.0
    while time.monotonic() < end and any(alive(pid) for pid in pids):
        time.sleep(0.02)
