"""Run one tetradgeom CLI command in this process and describe the run.

    python3 perfbench/child.py RESULT.json plain|traced CLI-ARGS...

Times ``import tetradgeom.cli`` and ``cli.main(CLI-ARGS)``; with
``traced`` it records spans first (see spans.py).  The command's output
goes to this process's standard output, its exit code becomes this
process's exit code, and RESULT.json receives the timings and spans.
Needs ``src`` on PYTHONPATH.
"""

import sys
import time

# Only sys and time are imported before the timed import, so that the
# import time includes every module the CLI pulls in.
t0 = time.perf_counter()
import tetradgeom.cli as cli  # noqa: E402

import_ms = (time.perf_counter() - t0) * 1e3

import json  # noqa: E402

from spans import Tracer  # noqa: E402


def main() -> int:
    result_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer() if mode == "traced" else None
    if tracer:
        tracer.install()
    t = time.perf_counter()
    code = cli.main(argv)
    wall_ms = (time.perf_counter() - t) * 1e3
    sys.stdout.flush()
    result = {"code": code, "import_ms": import_ms, "wall_ms": wall_ms}
    if tracer:
        result.update(tracer.dump())
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
