"""Child processes timed without the polling of ``subprocess.run``."""

from __future__ import annotations

import subprocess
import threading
from pathlib import Path

#: a child process still running after this long is killed
CHILD_TIMEOUT_S = 120


def run_child(cmd, env: dict, cwd: Path) -> tuple[int, str]:
    """Run ``cmd`` to completion and return its exit code and stderr.

    ``subprocess.run(timeout=...)`` waits by polling with sleeps of up to
    50 ms, which would quantize the latencies measured here; this waits
    blocking and leaves the timeout to a timer that kills the child.
    """
    with subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True) as proc:
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, err = proc.communicate()
        finally:
            timer.cancel()
    return proc.returncode, err
