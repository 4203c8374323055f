"""Run ``python -m tetradgeom ARGS...`` and record its own peak RSS.

    python3 perfbench/peak.py RSS_FILE ARGS...

The ``ru_maxrss`` that ``os.wait4`` gives for a child is at least the
peak RSS of the process that started it, because Linux carries the
high-water mark of the address space a process had before ``exec`` over
into the new one; the benchmark's own size would then hide a smaller
child's.  This wrapper writes instead the ``VmHWM`` of its own address
space, which ``exec`` made new, to RSS_FILE (in KiB) when the program
exits.  Everything else is as ``python -m tetradgeom``: the module runs
as ``__main__`` with ``sys.argv`` and ``sys.path[0]`` set the same way.
"""

import atexit
import os
import runpy
import sys


def write_hwm(path: str) -> None:
    with open("/proc/self/status") as fh:
        kib = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    with open(path, "w") as fh:
        fh.write(kib)


if __name__ == "__main__":
    rss_file = sys.argv.pop(1)
    sys.path[0] = os.getcwd()
    atexit.register(write_hwm, rss_file)
    runpy.run_module("tetradgeom", run_name="__main__", alter_sys=True)
