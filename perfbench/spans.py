"""Span recording around tetradgeom's layer boundaries, and its analysis.

The recorder patches the program from outside, in the process that runs
it: each wrapped function is replaced under every name it is bound to in
the ``tetradgeom`` modules (so ``from .gf2 import mulclose`` in ``tetrad``
sees the wrapper too), every ``CHECKS`` entry is wrapped, and every
artifact builder passed to ``Context._get`` is wrapped, so a build is
recorded where it runs.  A span is (name, start ns, end ns, parent span
index, thread id).  Hot functions are only counted, by call and by
distinct argument, since a span per call would cost more than the call.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter, defaultdict
from functools import wraps

# Functions that get a span per call: module -> public names.
TIMED = {
    "tetradgeom.cli": [
        "cmd_verify", "cmd_orbits", "cmd_invariants", "cmd_spreads",
        "cmd_triplets", "cmd_denizen", "cmd_sections", "cmd_caps",
    ],
    "tetradgeom.tetrad": [
        "build_frame", "build_group81", "build_stabilizer", "point_orbits",
        "subspace_orbit_partition",
    ],
    "tetradgeom.gf2": ["mulclose"],
    "tetradgeom.gf3": ["plane_subspaces"],
    "tetradgeom.denizens": [
        "all_triplets", "sections_of", "recover_tetrad", "ennead",
        "fan_triplets", "fan_decompose",
    ],
    "tetradgeom.quadric": ["build_quadric", "singular_solids", "system_tags"],
    "tetradgeom.anf": ["build_invariants"],
    "tetradgeom.spreads": ["all_spreads", "solid_pair"],
}
# Functions that are only counted.
COUNTED = {
    "tetradgeom.gf3": ["subspace_vectors"],
    "tetradgeom.quadric": ["same_system"],
}
# Calls whose distinct arguments are also counted, to measure repeated work.
DISTINCT = {
    "gf3.plane_subspaces", "gf3.subspace_vectors",
    "denizens.fan_triplets", "denizens.fan_decompose",
}


def _freeze(x):
    if isinstance(x, (set, frozenset)):
        return frozenset(x)
    if isinstance(x, list):
        return tuple(x)
    return x


class Tracer:
    def __init__(self):
        self.spans = []
        self.calls = Counter()
        self.keys = defaultdict(set)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._skip = ()  # argument types left out of distinct-call keys

    def _count(self, name, args):
        self.calls[name] += 1
        if name in DISTINCT:
            key = tuple(_freeze(a) for a in args if not isinstance(a, self._skip))
            self.keys[name].add(key)

    def counted(self, name, fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            with self._lock:
                self._count(name, args)
            return fn(*args, **kwargs)

        return wrapper

    def timed(self, name, fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            with self._lock:
                self._count(name, args)
                idx = len(self.spans)
                self.spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(idx)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                self.spans[idx] = (name, t0, t1, parent, threading.get_ident())

        return wrapper

    def install(self):
        """Patch the imported ``tetradgeom`` package.  Call once, after
        ``import tetradgeom.cli`` and before running anything."""
        from tetradgeom import certificates, tetrad

        self._skip = (tetrad.Frame,)
        mods = [m for n, m in sys.modules.items() if n.split(".")[0] == "tetradgeom"]

        def patch(original, wrapper):
            for m in mods:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)

        for table, make in ((TIMED, self.timed), (COUNTED, self.counted)):
            for modname, names in table.items():
                mod = sys.modules[modname]
                layer = modname.split(".")[1]
                for name in names:
                    original = getattr(mod, name)
                    patch(original, make(f"{layer}.{name}", original))
        tetrad.Frame.orbit = self.counted("tetrad.Frame.orbit", tetrad.Frame.orbit)
        certificates.CHECKS[:] = [
            (n, claim, self.timed(f"certificates.check.{n}", fn))
            for n, claim, fn in certificates.CHECKS
        ]
        get = certificates.Context._get

        def traced_get(ctx, name, builder):
            return get(ctx, name, self.timed(f"certificates.build.{name}", builder))

        certificates.Context._get = traced_get

    def dump(self) -> dict:
        return {
            "spans": [list(s) for s in self.spans],
            "calls": dict(self.calls),
            "distinct": {k: len(v) for k, v in self.keys.items()},
        }


# ── analysis (in the benchmark process) ──────────────────────────────────


def _is_cert(name: str) -> bool:
    return name.startswith(("certificates.check.", "certificates.build."))


def certificate_self_ms(spans) -> dict:
    """Self time of every check and build span, summed by name: a span's
    duration minus the builds nested in it whose nearest enclosing check
    or build is this span.  Summed over all checks and builds it equals
    the checks' total duration, so every build is charged once, to
    itself, and not to the check that first touched it."""
    own = {}
    for i, (name, t0, t1, _, _) in enumerate(spans):
        if _is_cert(name):
            own[i] = t1 - t0
    for i, (name, t0, t1, parent, _) in enumerate(spans):
        if not name.startswith("certificates.build."):
            continue
        while parent is not None and not _is_cert(spans[parent][0]):
            parent = spans[parent][3]
        if parent is not None:
            own[parent] -= t1 - t0
    out = Counter()
    for i, ns in own.items():
        out[spans[i][0]] += ns / 1e6
    return dict(out)


def inclusive_ms(spans) -> dict:
    """Wall time summed by span name over outermost calls only, so that a
    function nested in itself is not counted twice."""
    out = Counter()
    for name, t0, t1, parent, _ in spans:
        while parent is not None and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent is None:
            out[name] += (t1 - t0) / 1e6
    return dict(out)


def chrome_trace(children) -> dict:
    """Chrome trace-event JSON (loads in Perfetto and chrome://tracing).
    ``children`` is a list of (label, spans); each becomes one process."""
    starts = [s[1] for _, spans in children for s in spans]
    epoch = min(starts) if starts else 0
    events = []
    for pid, (label, spans) in enumerate(children, start=1):
        events.append({"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                       "args": {"name": label}})
        tids = {}
        for name, t0, t1, parent, ident in spans:
            tid = tids.setdefault(ident, len(tids) + 1)
            events.append({
                "name": name, "cat": name.split(".")[0], "ph": "X",
                "ts": (t0 - epoch) / 1e3, "dur": (t1 - t0) / 1e3,
                "pid": pid, "tid": tid,
                "args": {"parent": None if parent is None else spans[parent][0]},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
