"""Starts the benchmark's commands from a small process of its own.

Linux starts a child's ``ru_maxrss`` from the resident size of the process
that forked it, so a command started by the benchmark itself, which holds
the oracle's arrays, would report at least the benchmark's size.  Commands
started from this interpreter, which imports no numpy, report their own
peak.  ``os.wait4`` gives the rusage of that one child; ``RUSAGE_CHILDREN``
would be a running maximum over every child waited for.

Protocol: one JSON request per line on stdin, ``{"argv", "cwd", "stdout",
"stderr", "timeout"}``; one JSON reply per line on stdout, ``{"code",
"wall", "cpu", "maxrss_kib"}``.  The process ends at the end of its input.
Children inherit this process's environment.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], stdout=out, stderr=err, cwd=request["cwd"])
        timer = threading.Timer(request["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime, "maxrss_kib": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
