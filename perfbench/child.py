"""Child processes whose wall time the benchmark measures."""

from __future__ import annotations

import subprocess
import threading


def run(argv: list[str], timeout: float, **popen_kwargs) -> subprocess.CompletedProcess:
    """``subprocess.run`` with a watchdog thread in place of its timeout.

    ``subprocess.run(..., timeout=...)`` waits for the child by polling with
    sleeps of up to 50 ms, which rounds a measured wall time up to the next
    poll.  Here the wait blocks until the child exits, and a watchdog kills
    the child once ``timeout`` seconds have passed.
    """
    fired = threading.Event()
    with subprocess.Popen(argv, **popen_kwargs) as proc:

        def kill() -> None:
            fired.set()
            proc.kill()

        watchdog = threading.Timer(timeout, kill)
        watchdog.start()
        try:
            stdout, stderr = proc.communicate()
        finally:
            watchdog.cancel()
            watchdog.join()
    if fired.is_set():
        raise subprocess.TimeoutExpired(argv, timeout, stdout, stderr)
    return subprocess.CompletedProcess(argv, proc.returncode, stdout, stderr)
