"""Real-valued functions on a truncated tree (one value per vertex), and the
rows of the CSV files that give functions."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .tree import TruncatedTree


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


def csv_rows(path: str, reader):
    """The rows of a csv reader; a row the csv module refuses, such as a
    cell longer than `csv.field_size_limit()`, raises a ValueError naming
    its file line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ValueError(f"{path}: row {reader.line_num}: {exc}") from exc
