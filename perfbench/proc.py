"""Run one `schemedouble` CLI process from a checkout and measure it.

Each job is a fresh interpreter, timed from spawn to exit; CPU time and peak
RSS come from the child's own rusage (`wait4`).  Jobs may write bytecode
caches, as an installed package has them: the first call compiles `src/` and
later calls pay only the import.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
JOB_TIMEOUT_S = 120


def env():
    e = dict(os.environ)
    e["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), e.get("PYTHONPATH")]))
    e.pop("PYTHONDONTWRITEBYTECODE", None)
    return e


class Result:
    def __init__(self, code, wall_s, cpu_s, rss_mb, stdout, stderr):
        self.code = code  # None on timeout
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.rss_mb = rss_mb
        self.stdout = stdout
        self.stderr = stderr


def run(argv, logdir: Path, timeout: float = JOB_TIMEOUT_S, script=None) -> Result:
    """Run `python -m schemedouble.cli argv` (or `python script argv`) with
    stdout and stderr captured to files in logdir; kill it after timeout."""
    logdir.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable] + ([str(script)] if script else ["-m", "schemedouble.cli"])
    out_path, err_path = logdir / "stdout.txt", logdir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd + list(argv), stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL, env=env(), cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: stop the job before leaving
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code < 0:  # killed by the timer
        code = None
    return Result(code, wall, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss / 1024.0,
                  out_path.read_text(errors="replace"),
                  err_path.read_text(errors="replace"))
