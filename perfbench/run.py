"""Benchmark of the tetradgeom CLI.  Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md in this directory for why each exists):

- ``verify-seq``   ``verify-all --report FILE``, sequential;
- ``queries``      a mix of the seven query subcommands with ``--json``,
                   arguments drawn from ``--seed``.

``--trace 0`` runs the workload for ``--seconds`` as one client in a
closed loop, one fresh ``python -m tetradgeom`` process per invocation
with ``PYTHONPATH=src``, checks every output against ``golden/`` and
prints the end-to-end metrics, with times normalised to the host's speed
(see reference.py).  ``--trace 1`` instead runs rounds of
in-process traced and untraced invocations (child.py) for ``--seconds``,
at least two, and prints the per-layer metrics; it also writes a Chrome
trace-event file.  Either way the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it are a readable summary.  Scratch files, traces and a result
record with machine info go to ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import golden
import reference
import spans

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".bench_build" / "perfbench"
NPROC = len(os.sched_getaffinity(0))

CHILD_TIMEOUT_S = 60.0
RUN_LIMIT_S = 170.0  # every child is ended by this time into a run
SETUP_SAMPLES = 11
MIN_OPS = 3
REF_EVERY_S = 3.0  # time the reference loop after this much measured work
MIN_ROUNDS = 2

SEQ_FLAGS = ["verify-all"]
JOBS_FLAGS = ["verify-all", "--jobs", str(NPROC)]
WORKLOADS = ["verify-seq", "queries"]

END_TO_END = {
    "wall_norm_ms": "ms",
    "cpu_norm_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_norm_per_s": "1/s",
}

ARTIFACTS = [
    "g81", "invariants", "quadric_points", "solids", "system_tags",
    "stabilizer", "spreads", "triplets", "segres",
]
QUERY_SUBCOMMANDS = [
    "caps", "denizen", "invariants", "orbits", "sections", "spreads", "triplets",
]
# Inclusive wall time summed over calls, from the traced verify-all.
FUNCTION_MS = [
    "gf2.mulclose", "tetrad.build_stabilizer", "tetrad.point_orbits",
    "tetrad.subspace_orbit_partition", "gf3.plane_subspaces",
    "denizens.sections_of", "denizens.recover_tetrad", "denizens.ennead",
    "quadric.singular_solids", "quadric.system_tags", "anf.build_invariants",
    "spreads.all_spreads", "spreads.solid_pair",
]
CALLS = ["tetrad.Frame.orbit", "quadric.same_system"]
CALLS_PER_DISTINCT = [
    "gf3.plane_subspaces", "gf3.subspace_vectors",
    "denizens.fan_triplets", "denizens.fan_decompose",
]


def per_layer_units(checks) -> dict:
    units = {f"certificates.build.{a}_ms": "ms" for a in ARTIFACTS}
    units.update({f"certificates.check.{c}_ms": "ms" for c in checks})
    units["certificates.jobs_inflation"] = "ratio"
    units["certificates.accounted_frac"] = "ratio"
    units.update({f"{f}_ms": "ms" for f in FUNCTION_MS})
    units.update({f"{f}.calls": "count" for f in CALLS})
    units.update({f"{f}.calls_per_distinct": "ratio" for f in CALLS_PER_DISTINCT})
    units["cli.import_ms"] = "ms"
    units.update({f"cli.query.{q}_ms": "ms" for q in QUERY_SUBCOMMANDS})
    units["trace.overhead_ms"] = "ms"
    return units


@dataclass
class Op:
    """One finished child process."""

    code: int
    at: float  # perf_counter() when the child was started
    wall_s: float
    cpu_s: float
    stdout: bytes


class Bench:
    def __init__(self, args, gold):
        self.args = args
        self.gold = gold
        self.t_start = time.perf_counter()
        self.attempted = 0
        self.failures = []  # invocations that failed
        self.problems = []  # faults of the run as a whole
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.pool = {
            sub: sorted(key.split() for key in keys)
            for sub, keys in gold["queries"].items()
        }
        self.rng = random.Random(args.seed)
        self.order = []
        self.refs = []  # (perf_counter() at the end, reference loop ms)
        self.ref_results = set()

    # ── processes ──

    def spawn(self, argv) -> Op | None:
        """Run one child to completion, killing it after CHILD_TIMEOUT_S or
        at RUN_LIMIT_S; None if the run's time is already up.  CPU time
        comes from this child's own rusage."""
        left = RUN_LIMIT_S - (time.perf_counter() - self.t_start)
        if left <= 1:
            return None
        out_path = OUT / "child.out"
        with open(out_path, "wb") as out, open(OUT / "child.err", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], stdout=out, stderr=err,
                env=self.env, cwd=ROOT,
            )
            timer = threading.Timer(min(CHILD_TIMEOUT_S, left), proc.kill)
            timer.start()
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Op(proc.returncode, t0, wall, ru.ru_utime + ru.ru_stime,
                  out_path.read_bytes())

    def record(self, what, error):
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{what}: {error}")
            print(f"FAILED {what}: {error}", file=sys.stderr)

    def next_query(self, sub=None) -> list:
        """Arguments for the next query: of subcommand ``sub`` if given,
        else the next in a seeded order in which every run of seven
        queries holds each subcommand once, so the mix is the same for
        every seed and only the arguments and order vary."""
        if sub is None:
            if not self.order:
                self.order = sorted(self.pool)
                self.rng.shuffle(self.order)
            sub = self.order.pop()
        return self.rng.choice(self.pool[sub])

    def setup_probes(self) -> list[Op]:
        """Fresh processes up to a built frame.  One unrecorded warm-up
        first, which also writes the bytecode cache."""
        argv = ["-c", "import tetradgeom.cli as c; c.build_frame()"]
        samples = []
        for i in range(SETUP_SAMPLES + 1):
            op = self.spawn(argv)
            if op is None or op.code != 0:
                raise RuntimeError(f"set-up probe failed: {argv}")
            if i:
                samples.append(op)
        return samples

    def time_reference(self):
        ms, result = reference.time_ms()
        self.refs.append((time.perf_counter(), ms))
        self.ref_results.add(result)

    def scale(self, op: Op) -> float:
        """Factor that turns the op's times into times on a host where the
        reference loop takes REF_MS: REF_MS over the mean of the reference
        times taken last before and first after the op."""
        before = [ms for t, ms in self.refs if t <= op.at][-1]
        after = next(ms for t, ms in self.refs if t > op.at)
        return reference.REF_MS / ((before + after) / 2)

    # ── --trace 0: end-to-end ──

    def end_to_end(self) -> tuple[dict, dict]:
        """Closed loop of fresh invocations for the run's seconds, with the
        reference loop timed before the first, after the last and after
        every REF_EVERY_S of them; likewise around the set-up probes.
        Times are reported normalised, and raw in ``detail``."""
        self.time_reference()
        setup = self.setup_probes()
        self.time_reference()
        w = self.args.workload
        report = OUT / "report.json"
        rss_file = OUT / "peak-rss-kib"
        ops = []
        rss_mb = []
        since_ref = 0.0
        deadline = time.perf_counter() + self.args.seconds
        while len(ops) < MIN_OPS or time.perf_counter() < deadline:
            if w == "queries":
                cli_args = self.next_query()
            else:
                report.unlink(missing_ok=True)
                cli_args = SEQ_FLAGS + ["--report", str(report)]
            rss_file.unlink(missing_ok=True)
            op = self.spawn([str(HERE / "peak.py"), str(rss_file), *cli_args])
            if op is None:
                break
            if w == "queries":
                error = golden.check_query(self.gold, cli_args, op.code, op.stdout)
            else:
                error = golden.check_verify(self.gold, op.code, report)
            try:
                rss_mb.append(int(rss_file.read_text()) / 1024)
            except (OSError, ValueError):
                error = error or "no peak RSS from peak.py"
            self.record(" ".join(cli_args), error)
            ops.append(op)
            since_ref += op.wall_s
            if since_ref >= REF_EVERY_S:
                self.time_reference()
                since_ref = 0.0
        if since_ref:
            self.time_reference()
        if len(self.ref_results) != 1:
            self.problems.append("the reference loop's result changed")
        scales = [self.scale(op) for op in ops]
        walls = [op.wall_s * 1e3 * f for op, f in zip(ops, scales)]
        metrics = {
            "wall_norm_ms": statistics.median(walls),
            "cpu_norm_ms": statistics.median(
                op.cpu_s * 1e3 * f for op, f in zip(ops, scales)
            ),
            "setup_s": statistics.median(op.wall_s * self.scale(op) for op in setup),
            "peak_rss_mb": statistics.median(rss_mb),
            "ops_norm_per_s": (len(ops) - len(self.failures)) / (sum(walls) / 1e3),
        }
        detail = {
            "samples": len(ops),
            "ops_failed_frac": len(self.failures) / max(1, self.attempted),
            "wall_ms_raw": statistics.median(op.wall_s * 1e3 for op in ops),
            "cpu_ms_raw": statistics.median(op.cpu_s * 1e3 for op in ops),
            "setup_s_raw": statistics.median(op.wall_s for op in setup),
            "reference_ms": [ms for _, ms in self.refs],
            "wall_norm_ms_samples": walls,
        }
        if len(ops) >= 100:
            detail["wall_norm_ms_p90"] = statistics.quantiles(walls, n=10)[-1]
        return metrics, detail

    # ── --trace 1: per-layer ──

    def child(self, mode, cli_args) -> tuple[Op | None, dict]:
        result = OUT / "child-result.json"
        result.unlink(missing_ok=True)
        op = self.spawn([str(HERE / "child.py"), str(result), mode, *cli_args])
        if op is None:
            return None, {}
        try:
            return op, json.loads(result.read_text())
        except (OSError, ValueError):
            return op, {}

    def verify_child(self, mode, flags) -> dict:
        report = OUT / "report.json"
        report.unlink(missing_ok=True)
        cli_args = flags + ["--report", str(report)]
        op, res = self.child(mode, cli_args)
        if op is None:
            raise RuntimeError("out of time before the traced runs finished")
        error = golden.check_verify(self.gold, op.code, report)
        if error is None and not res:
            error = "no result from child.py"
        self.record(f"{mode} {' '.join(flags)}", error)
        if error is not None:
            return {}
        res["elapsed_ms"] = sum(
            rec["elapsed_ms"] for rec in json.loads(report.read_text())
        )
        return res

    def traced_round(self) -> dict:
        """One round: untraced sequential and threaded verify-all (for the
        overhead and jobs inflation), traced sequential verify-all (every
        layer's metrics), and one traced query per subcommand."""
        plain_seq = self.verify_child("plain", SEQ_FLAGS)
        plain_jobs = self.verify_child("plain", JOBS_FLAGS)
        traced = self.verify_child("traced", SEQ_FLAGS)
        runs = [plain_seq, plain_jobs, traced]
        children = [(" ".join(SEQ_FLAGS), traced.get("spans", []))]
        m = {}
        imports = [r["import_ms"] for r in runs if r]
        for sub in QUERY_SUBCOMMANDS:
            cli_args = self.next_query(sub)
            op, res = self.child("traced", cli_args)
            if op is None:
                raise RuntimeError("out of time before the traced runs finished")
            error = golden.check_query(self.gold, cli_args, op.code, op.stdout)
            if error is None and not res:
                error = "no result from child.py"
            self.record("traced " + " ".join(cli_args), error)
            if res:
                imports.append(res["import_ms"])
                m[f"cli.query.{sub}_ms"] = spans.inclusive_ms(res["spans"]).get(
                    f"cli.cmd_{sub}", 0.0
                )
                children.append((" ".join(cli_args), res["spans"]))
        round_ = {"metrics": m, "counters": None, "children": children}
        if not all(runs):
            return round_
        s = traced["spans"]
        self_ms = spans.certificate_self_ms(s)
        incl = spans.inclusive_ms(s)
        for a in ARTIFACTS:
            m[f"certificates.build.{a}_ms"] = self_ms.get(f"certificates.build.{a}", 0.0)
        for c in self.gold["checks"]:
            m[f"certificates.check.{c}_ms"] = self_ms.get(f"certificates.check.{c}", 0.0)
        m["certificates.jobs_inflation"] = plain_jobs["elapsed_ms"] / plain_seq["elapsed_ms"]
        m["certificates.accounted_frac"] = sum(self_ms.values()) / incl["cli.cmd_verify"]
        for f in FUNCTION_MS:
            m[f"{f}_ms"] = incl.get(f, 0.0)
        calls, distinct = traced["calls"], traced["distinct"]
        for f in CALLS:
            m[f"{f}.calls"] = calls.get(f, 0)
        for f in CALLS_PER_DISTINCT:
            m[f"{f}.calls_per_distinct"] = calls.get(f, 0) / max(1, distinct.get(f, 0))
        m["cli.import_ms"] = statistics.median(imports)
        m["trace.overhead_ms"] = traced["wall_ms"] - plain_seq["wall_ms"]
        round_["counters"] = {
            f: [calls.get(f, 0), distinct.get(f, 0)] for f in CALLS + CALLS_PER_DISTINCT
        }
        return round_

    def per_layer(self) -> tuple[dict, dict]:
        rounds = []
        deadline = time.perf_counter() + self.args.seconds
        while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
            rounds.append(self.traced_round())
        counters = [r["counters"] for r in rounds]
        if any(c != counters[0] for c in counters):
            self.problems.append("call counters differ between traced rounds")
        metrics = {}
        for name in per_layer_units(self.gold["checks"]):
            values = [r["metrics"][name] for r in rounds if name in r["metrics"]]
            if values:
                metrics[name] = statistics.median(values)
        trace_path = OUT / f"trace-{self.args.workload}-seed{self.args.seed}.json"
        trace = spans.chrome_trace(rounds[-1]["children"])
        trace_path.write_text(json.dumps(trace))
        detail = {
            "rounds": len(rounds),
            "trace_file": str(trace_path.relative_to(ROOT)),
            "trace_events": len(trace["traceEvents"]),
            "counters_calls_distinct": counters[0],
        }
        return metrics, detail


def machine_info() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {
        "nproc": NPROC,
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def loadavg() -> str:
    try:
        with open("/proc/loadavg") as fh:
            return " ".join(fh.read().split()[:3])
    except OSError:
        return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "tetradgeom" / "cli.py").is_file():
        print(f"no tetradgeom sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    try:
        gold = golden.load()
    except (OSError, ValueError) as e:
        print(f"cannot read golden data: {e}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)

    machine = machine_info()
    machine["loadavg_start"] = loadavg()
    bench = Bench(args, gold)
    try:
        if args.trace:
            metrics, detail = bench.per_layer()
            units = per_layer_units(gold["checks"])
        else:
            metrics, detail = bench.end_to_end()
            units = END_TO_END
    except RuntimeError as e:
        print(f"benchmark aborted: {e}", file=sys.stderr)
        return 1
    machine["loadavg_end"] = loadavg()
    missing = sorted(set(units) - set(metrics))
    if missing:
        bench.problems.append(f"metrics not measured: {', '.join(missing)}")
    for problem in bench.problems:
        print(f"PROBLEM {problem}", file=sys.stderr)

    result = {
        "correct": not (bench.failures or bench.problems),
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items() if name in metrics
        },
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine, "detail": detail,
              "failures": bench.failures + bench.problems, **result}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}")
    for name, unit in units.items():
        if name in metrics:
            print(f"  {name:<48} {metrics[name]:12.4f} {unit}")
    print("  detail: " + json.dumps(detail))
    print("  machine: " + json.dumps(machine))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
