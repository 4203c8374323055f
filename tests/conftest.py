import json

import pytest

from tetradgeom.certificates import Context
from tetradgeom.tetrad import build_frame


def symplectic_product(x, y) -> int:
    """B(x, y) by its defining sum over the coordinate pairs {i, 9-i}, one
    bit at a time: the reference the form's tables are tested against."""
    return sum(x >> k & y >> (7 - k) & 1 for k in range(8)) & 1


def records(listing) -> list:
    """The maps of a packed stabilizer listing, 8 column bytes each."""
    return [listing[i:i + 8] for i in range(0, len(listing), 8)]


def without_timings(report) -> str:
    """The report minus every elapsed_ms, serialised as the CLI writes it."""
    stripped = [{k: v for k, v in e.items() if k != "elapsed_ms"} for e in report]
    return json.dumps(stripped, indent=2, sort_keys=True) + "\n"


@pytest.fixture(scope="session")
def frame():
    return build_frame()


@pytest.fixture(scope="session")
def ctx(frame):
    return Context(frame)
