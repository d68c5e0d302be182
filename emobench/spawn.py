"""Run one command and report its own wall time and peak resident set.

Usage: ``python3 -S emobench/spawn.py RESULT.json STDOUT STDERR TIMEOUT_S -- ARGV...``

A child's ``ru_maxrss`` also counts the pages it shared with its parent when
it was forked, so a command started straight from the benchmark, which holds
numpy, scipy and a whole corpus, would report the benchmark's memory as its
own. This small process starts the command instead: at the fork it holds
less than any emocast process reaches, so the figure it reads with
``os.wait4`` is the command's own peak. The command is killed after
TIMEOUT_S seconds, or when this process receives SIGTERM, and is always
waited for.
"""

import json
import os
import signal
import sys
import time


def main() -> int:
    result_path, out_path, err_path, timeout, sep, *argv = sys.argv[1:]
    if sep != "--" or not argv:
        raise SystemExit(__doc__.splitlines()[2])
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    out_fd, err_fd = os.open(out_path, flags, 0o644), os.open(err_path, flags, 0o644)
    actions = [(os.POSIX_SPAWN_DUP2, out_fd, 1), (os.POSIX_SPAWN_DUP2, err_fd, 2)]
    child = {"pid": None, "stop": False}

    def kill(signum, frame):
        child["stop"] = True
        if child["pid"] is not None:
            os.kill(child["pid"], signal.SIGKILL)

    signal.signal(signal.SIGALRM, kill)
    signal.signal(signal.SIGTERM, kill)
    start = time.perf_counter()
    pid = child["pid"] = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    if child["stop"]:
        os.kill(pid, signal.SIGKILL)
    signal.alarm(max(1, int(float(timeout))))
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    signal.alarm(0)
    os.close(out_fd)
    os.close(err_fd)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({
            "code": os.waitstatus_to_exitcode(status),
            "wall_s": wall,
            "maxrss_kib": usage.ru_maxrss,
            "cpu_s": usage.ru_utime + usage.ru_stime,
        }, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
