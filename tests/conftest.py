"""Shared test helpers."""

from e8voa.griess import AlgebraContext
from e8voa.rootsys import build_root_system


def sqrt2_root_context(letter, rank):
    """The root system of the type and the algebra context of sqrt(2) times its lattice."""
    rs = build_root_system(letter, rank)
    gram2 = [[2 * x for x in row] for row in rs.lattice.gram]
    return rs, AlgebraContext(gram2, label=f"sqrt2{letter}{rank}")
