"""Real-valued functions on a truncated tree (one value per vertex), and the
rows of the CSV files that give functions."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .tree import TruncatedTree, Vertex


@dataclass
class TreeFunction:
    """Values in the level-offset layout of `tree` (level-k block of length m^k)."""

    tree: TruncatedTree
    values: np.ndarray

    @classmethod
    def from_values(cls, tree: TruncatedTree, values) -> TreeFunction:
        u = cls(tree, np.asarray(values, dtype=np.float64).copy())
        u.validate()
        return u

    @classmethod
    def constant(cls, tree: TruncatedTree, value: float) -> TreeFunction:
        return cls.from_values(tree, np.full(tree.vertex_count, value))

    @classmethod
    def zeros(cls, tree: TruncatedTree) -> TreeFunction:
        return cls(tree, np.zeros(tree.vertex_count))

    def validate(self) -> None:
        """Raise ValueError unless there is one finite value per vertex."""
        tree = self.tree
        if self.values.shape != (tree.vertex_count,):
            raise ValueError(
                f"expected {tree.vertex_count} values for m={tree.m}, "
                f"depth={tree.depth}, got shape {self.values.shape}"
            )
        if not np.isfinite(self.values).all():
            raise ValueError("tree function values must be finite")

    def value_at(self, v: Vertex) -> float:
        return float(self.values[self.tree.flat_index(v)])

    @property
    def leaf_values(self) -> np.ndarray:
        return self.values[self.tree.leaf_slice]

    def copy(self) -> TreeFunction:
        return TreeFunction(self.tree, self.values.copy())


def csv_rows(path: str, reader):
    """The rows of a csv reader; a row the csv module refuses, such as a
    cell longer than `csv.field_size_limit()`, raises a ValueError naming
    its file line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ValueError(f"{path}: row {reader.line_num}: {exc}") from exc
