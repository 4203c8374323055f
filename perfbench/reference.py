"""A fixed pure-Python loop that measures the host's current speed.

The benchmark host is a few cores of a shared machine.  Its speed moves
in steps of up to 40 % that last from seconds to minutes, with its
neighbours' load, and that is more than the changes the benchmark has
to resolve.  The benchmark therefore times this loop in between the
invocations it measures, and reports each invocation's time scaled by
``REF_MS`` over the loop times just before and after it: the time the
invocation would have taken on a host where this loop takes ``REF_MS``.
The loop does the kind of work tetradgeom does (bit-vector elimination
over GF(2), sets and dicts keyed by frozensets and tuples, sorting) but
imports none of it, so no change to the program changes it.  A change
to this file changes every normalised metric.
"""

from __future__ import annotations

import itertools
import time

ROUNDS = 30000
# About the loop's median time on a 2-core shared Xeon host, Python 3.11.
REF_MS = 900.0


def _rank(rows: list) -> int:
    rows = list(rows)
    r = 0
    for bit in range(16):
        mask = 1 << bit
        piv = next((i for i in range(r, len(rows)) if rows[i] & mask), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i] & mask:
                rows[i] ^= rows[r]
        r += 1
    return r


def _work() -> int:
    seen = {}
    x = 12345
    for _ in range(ROUNDS):
        vs = []
        for _ in range(8):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            vs.append(x & 0xFFFF)
        key = frozenset(v & 0xFF for v in vs)
        seen[key] = seen.get(key, 0) + _rank(vs)
    pairs = {(a, b): a ^ b for a, b in itertools.combinations(range(160), 2)}
    return len(seen) + sum(sorted(pairs.values())[::7])


def time_ms() -> tuple[float, int]:
    """Wall time of one run of the loop in ms, and the loop's result,
    which must be the same on every run."""
    t0 = time.perf_counter()
    result = _work()
    return (time.perf_counter() - t0) * 1e3, result
