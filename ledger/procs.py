"""Processes the benchmark starts and what it reads about them.

One CPU for the whole process tree, a ``repro serve --listen`` child that
is always reaped (SIGTERM, wait for the drain, kill the group on
timeout), and peak RSS summed over the benchmark process and every
descendant.
"""

from __future__ import annotations

import os
import resource
import signal
import subprocess
import sys
import time
from typing import Optional

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE_DIR = os.path.join(REPO_ROOT, "src")


def pin_to_one_cpu() -> tuple[bool, list[int]]:
    """Pin this process (children inherit it) to its highest allowed CPU.

    Every workload is a serial chain with one request in flight, so one
    CPU measures the program's work per request and not cross-core
    wake-ups.  Returns ``(pinned, affinity)``; where affinity cannot be
    set the run goes on unpinned and says so.
    """
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        return True, sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return False, []


def _descendants(root: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                # The command name may hold spaces; fields resume after ')'.
                fields = handle.read().rsplit(b")", 1)[1].split()
        except (OSError, IndexError):
            continue
        children.setdefault(int(fields[1]), []).append(int(entry))
    found, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        for child in children.get(pid, ()):
            found.append(child)
            frontier.append(child)
    return found


def _peak_rss_kb(pid: int) -> Optional[int]:
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def peak_rss_mb() -> float:
    """Sum of ``VmHWM`` over this process and all its live descendants."""
    me = os.getpid()
    peaks = [_peak_rss_kb(pid) for pid in [me, *_descendants(me)]]
    if peaks[0] is None:  # no /proc: fall back to what getrusage knows
        usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return usage / 1024.0
    return sum(peak for peak in peaks if peak is not None) / 1024.0


class ServeProcess:
    """A ``python -m repro serve --store DIR --workers W --listen 127.0.0.1:0`` child."""

    def __init__(self, store_dir: str, log_path: str, workers: int = 2) -> None:
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(
            filter(None, [SOURCE_DIR, environment.get("PYTHONPATH")])
        )
        self._log_path = log_path
        with open(log_path, "w", encoding="utf-8") as log:
            self._process = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--store", store_dir,
                    "--workers", str(workers),
                    "--listen", "127.0.0.1:0",
                ],
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=log,
                env=environment,
                start_new_session=True,  # its own group, so stop() can sweep the workers
            )
        try:
            self.host, self.port = self._wait_for_address(timeout=60.0)
        except BaseException:
            self.stop()
            raise

    def _wait_for_address(self, timeout: float) -> tuple[str, int]:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with open(self._log_path, "r", encoding="utf-8") as log:
                for line in log:
                    if line.startswith("listening:") and line.endswith("\n"):
                        host, _, port = line.split()[1].rpartition(":")
                        return host, int(port)
            if self._process.poll() is not None:
                break
            time.sleep(0.01)
        with open(self._log_path, "r", encoding="utf-8") as log:
            raise RuntimeError(f"repro serve did not start listening: {log.read()!r}")

    def stop(self, timeout: float = 15.0) -> None:
        """SIGTERM, wait for the graceful drain; sweep the group if it did not drain."""
        process = self._process
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout)
            except subprocess.TimeoutExpired:
                pass
        if process.returncode == 0:
            return  # drained: the pool closed its workers on the way out
        # A server that crashed or hung may leave workers behind, in its group.
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                break  # nobody left in the group
            process.poll()  # reap the leader so the group can empty
            time.sleep(0.01)
        process.wait()
