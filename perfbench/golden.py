"""Golden outputs the benchmark checks every invocation against.

- ``golden/verify-report.json``: the ``verify-all --report`` file of the
  frame with every ``elapsed_ms`` removed, dumped exactly as the CLI
  dumps it.  Sequential and threaded runs must both match it.  Its
  certificate names, in report order, name the per-check metrics.
- ``golden/queries.json``: for every query invocation the benchmark can
  draw, the SHA-256 of its ``--json`` standard output, grouped by
  subcommand.  The keys are also the pool the seeded query mix draws from.

Regenerate from the tree at the repository root (about 30 s)::

    python3 perfbench/golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
VERIFY_REPORT = GOLDEN / "verify-report.json"
QUERIES = GOLDEN / "queries.json"

REPORT_KEYS = {"name", "claim", "status", "witness", "elapsed_ms"}


def load() -> dict:
    """All golden data; raises OSError or ValueError if any file is missing
    or malformed."""
    verify = VERIFY_REPORT.read_bytes()
    return {
        "verify": verify,
        "checks": [rec["name"] for rec in json.loads(verify)],
        "queries": json.loads(QUERIES.read_text()),
    }


def strip_timings(report: list) -> bytes:
    """The report without ``elapsed_ms``, serialised as the CLI writes it."""
    stripped = [{k: v for k, v in rec.items() if k != "elapsed_ms"} for rec in report]
    return (json.dumps(stripped, indent=2, sort_keys=True) + "\n").encode()


def _read_report(path) -> list:
    with open(path, "rb") as fh:
        report = json.loads(fh.read())
    if not isinstance(report, list) or not all(
        isinstance(rec, dict) and set(rec) == REPORT_KEYS for rec in report
    ):
        raise ValueError("report is not a list of five-key records")
    return report


def check_verify(golden: dict, code: int, report_path) -> str | None:
    """None if a plain ``verify-all`` run is correct, else the reason."""
    if code != 0:
        return f"exit code {code}, expected 0"
    try:
        report = _read_report(report_path)
    except (OSError, ValueError) as e:
        return f"unreadable report: {e}"
    if strip_timings(report) != golden["verify"]:
        return "report differs from golden/verify-report.json"
    return None


def check_query(golden: dict, argv: list, code: int, stdout: bytes) -> str | None:
    """None if a query's exit code and standard output are golden."""
    if code != 0:
        return f"exit code {code}, expected 0"
    want = golden["queries"][argv[0]][" ".join(argv)]
    if hashlib.sha256(stdout).hexdigest() != want:
        return "output differs from golden/queries.json"
    return None


def query_pool() -> dict:
    """Every query invocation the benchmark draws from, by subcommand,
    derived from the program's own listing of denizens."""
    trips = json.loads(_cli("triplets", "--json"))["triplets"]
    idents = [d for t in trips for d in t["denizens"]]
    segres = [d for t in trips if t["denizen_kind"] == "segre" for d in t["denizens"]]
    pool = {
        "orbits": [["orbits", "--json"]],
        "invariants": [["invariants", "--emit-anf", "--json"]],
        "triplets": [["triplets", "--json"]],
        "caps": [["caps", "--json"]],
        "spreads": [
            ["spreads", "--ijk", f"{i}{j}{k}", "--json"]
            for i in "12" for j in "12" for k in "12"
        ],
        "denizen": [
            ["denizen", "--plane", d.split(":")[0], "--shift", d.split(":")[1], "--json"]
            for d in idents
        ],
        "sections": [["sections", "--segre", d, "--json"] for d in segres],
    }
    return pool


def _cli(*argv) -> bytes:
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "-m", "tetradgeom", *argv],
        env=env, stdout=subprocess.PIPE, check=True, timeout=120,
    )
    return proc.stdout


def regenerate(tmp: Path) -> None:
    tmp.mkdir(parents=True, exist_ok=True)
    GOLDEN.mkdir(exist_ok=True)
    report_path = tmp / "golden-report.json"
    _cli("verify-all", "--report", str(report_path))
    VERIFY_REPORT.write_bytes(strip_timings(_read_report(report_path)))
    hashes = {
        sub: {" ".join(a): hashlib.sha256(_cli(*a)).hexdigest() for a in argvs}
        for sub, argvs in query_pool().items()
    }
    QUERIES.write_text(json.dumps(hashes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate(Path(".bench_build") / "perfbench")
