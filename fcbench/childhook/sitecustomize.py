"""Report the peak resident memory of one command-line call of the cli workload.

fcbench/run.py puts this directory on PYTHONPATH for the `python -m
freecomm.cli` calls and names a file in FCBENCH_PEAK_FILE.  At exit the
interpreter writes its VmHWM (kB) there.  The caller cannot take it from
wait4: an exec'd child's ru_maxrss starts at the spawning process's own
peak, which is the benchmark's memory, not the program's.
"""

import atexit
import os

_PATH = os.environ.get("FCBENCH_PEAK_FILE")


def _report() -> None:
    with open("/proc/self/status", encoding="ascii") as fh:
        kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    with open(_PATH, "w", encoding="ascii") as fh:
        fh.write(kb)


if _PATH:
    atexit.register(_report)
