"""Geometric substrates: hierarchical grids over ``[Delta]^d`` (§5.1) and
packing/counting arguments in doubling metrics (Lemma 6, Lemma 25)."""

from .grid import (
    CellIndex,
    GridHierarchy,
    GridLevel,
    PointGrid,
)
from .packing import (
    doubling_cover_count,
    grid_cell_bound,
    packing_bound,
    separated_subset,
)

__all__ = [
    "CellIndex",
    "GridHierarchy",
    "GridLevel",
    "PointGrid",
    "doubling_cover_count",
    "grid_cell_bound",
    "packing_bound",
    "separated_subset",
]
