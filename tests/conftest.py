import pytest

from tetradgeom.certificates import Context
from tetradgeom.tetrad import build_frame


def records(listing) -> list:
    """The maps of a packed stabilizer listing, 8 column bytes each."""
    return [listing[i:i + 8] for i in range(0, len(listing), 8)]


@pytest.fixture(scope="session")
def frame():
    return build_frame()


@pytest.fixture(scope="session")
def ctx(frame):
    return Context(frame)
