"""Starts the benchmark's child processes from a process that stays small.

The peak RSS the kernel reports for a child (``ru_maxrss``) includes the
peak RSS of the process that spawned it, so children are not started from
the harness, which holds the generated inputs. Usage:
``python3 spawner.py STDERR_LOG``. It reads one request per line on stdin,
``[stdout_path_or_null, program, args...]`` as JSON. For each request it
runs the program to completion and writes one line,
``[wall_s, peak_rss_kib, exit_code]``. The wall time runs from spawn to exit.
"""

import contextlib
import json
import os
import signal
import sys
import time

CHILD_TIMEOUT_S = 60


def main() -> None:
    stderr_fd = os.open(sys.argv[1], os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    child = [0]

    def kill_child(*_) -> None:
        with contextlib.suppress(ProcessLookupError):
            os.kill(child[0], signal.SIGKILL)

    signal.signal(signal.SIGALRM, kill_child)
    for line in sys.stdin:
        stdout_path, *argv = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, stdout_path or os.devnull, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            (os.POSIX_SPAWN_DUP2, stderr_fd, 2),
        ]
        t0 = time.perf_counter()
        child[0] = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        signal.alarm(CHILD_TIMEOUT_S)
        _, status, usage = os.wait4(child[0], 0)
        wall = time.perf_counter() - t0
        signal.alarm(0)
        print(json.dumps([wall, usage.ru_maxrss, os.waitstatus_to_exitcode(status)]), flush=True)


if __name__ == "__main__":
    main()
