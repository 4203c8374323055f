"""Exact models of a tetrad of mutually skew lines spanning PG(7,2).

The package builds the four lines, their order-3 rotation group, the
induced index labelling of the 255 points, the invariant quadric and
polynomials, the eight line spreads, the 270 generator solids, and the
classification of the 120 denizens of the weight-4 orbit — and ships a
certificate suite (`tetradgeom verify-all`) that recomputes and checks
every headline property from scratch.

Importing the package loads only the frame (`tetrad`, with `gf2` and
`gf3`).  The suite lives in `tetradgeom.certificates` and the other
objects in their own modules; import those where they are needed.
"""

from .tetrad import Frame, build_frame, build_group81, build_stabilizer

__version__ = "0.1.0"

__all__ = [
    "Frame",
    "build_frame",
    "build_group81",
    "build_stabilizer",
    "__version__",
]
