"""Access methods: R-tree (Guttman inserts + STR bulk loading), a uniform
hash grid, and a B+tree for the engine's secondary indexes."""

from repro.index.btree import BPlusTree
from repro.index.grid import GridIndex
from repro.index.rtree import RTree

__all__ = [
    "RTree",
    "GridIndex",
    "BPlusTree",
]
