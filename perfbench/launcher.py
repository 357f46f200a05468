"""A small long-lived process that spawns the benchmark's child processes.

A child spawned straight from the benchmark reports the benchmark's own
peak RSS as its ru_maxrss (Linux carries the parent's high-water mark
across vfork and exec), so the CLI ops would seem as large as the
benchmark after it parsed a 10^5-row JSON file.  The launcher starts
before numpy and scipy load, stays at about 13 MB, and reports each
child's wait4 usage; a child's peak RSS is therefore exact above that
floor.

The launcher also times the calibration loop (timing.py) right
before and right after each child, with nothing else running; the client
adds them to Launcher.calibration, each standing for half the child's
wall time, unless the child times the loop itself.

Protocol: one JSON request per stdin line ({"argv", "stdout", "stderr",
"env", "cwd"}), one JSON reply per stdout line ({"latency", "maxrss_kb",
"rc", "loops"}).  The launcher exits when its stdin closes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import timing


def serve() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        before = timing.loop_s()
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(
                req["argv"], stdout=out, stderr=err, env=req["env"], cwd=req["cwd"]
            )
            _, status, usage = os.wait4(proc.pid, 0)
            latency = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"latency": latency, "maxrss_kb": usage.ru_maxrss, "rc": proc.returncode,
                 "loops": [before, timing.loop_s()]}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


class Launcher:
    """Client side: start the launcher, run children through it, close it."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        self.calibration = timing.Calibration()

    def run(self, argv: list[str], stdout: str, stderr: str, env: dict, cwd: str,
            calibrate: bool = True):
        """Run one child to completion: (latency s, peak RSS MB, exit code)."""
        req = {"argv": argv, "stdout": stdout, "stderr": stderr, "env": env, "cwd": cwd}
        self._proc.stdin.write(json.dumps(req) + "\n")
        self._proc.stdin.flush()
        reply = json.loads(self._proc.stdout.readline())
        if calibrate:
            for loop in reply["loops"]:
                self.calibration.add(loop, 0.5 * reply["latency"])
        return reply["latency"], reply["maxrss_kb"] / 1024.0, reply["rc"]

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=60)
        self._proc.stdout.close()

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    serve()
