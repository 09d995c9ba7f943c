"""Addressing on the regular m-branching tree and its depth truncations.

A vertex is addressed by its digit sequence (a_1, ..., a_k) with digits in
{0, ..., m-1}; the root is the empty sequence.  Values on a truncation live
in flat arrays, level by level.  The digit-expansion map psi is the one
exact-rational quantity left here: it is a `fractions.Fraction`, converted to
float at output boundaries only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from fractions import Fraction

VERTEX_BUDGET = 2**28

ROOT_TEXT = "root"


@dataclass(frozen=True)
class Vertex:
    """A tree vertex: branching factor `m` plus the digit path from the root."""

    m: int
    digits: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", check_integer("m", self.m))
        if self.m < 2:
            raise ValueError(f"branching factor must be >= 2, got {self.m}")
        for d in self.digits:
            check_integer("digit", d)
            if not 0 <= d < self.m:
                raise ValueError(f"digit {d} out of range [0, {self.m})")
        object.__setattr__(self, "digits", tuple(map(int, self.digits)))

    @classmethod
    def from_level_index(cls, m: int, level: int, index: int) -> Vertex:
        """Inverse of the (level, index) dense encoding."""
        m, level = check_integer("m", m), check_integer("level", level)
        index = check_integer("index", index)
        if level < 0 or not 0 <= index < m**level:
            raise ValueError(f"index {index} out of range for level {level}")
        digits = [0] * level
        for pos in range(level - 1, -1, -1):
            index, digits[pos] = divmod(index, m)
        return cls(m, tuple(digits))

    @classmethod
    def parse(cls, m: int, text: str) -> Vertex:
        """Parse the dotted text form, e.g. "1.0.2"; the root is "root"."""
        if text == ROOT_TEXT:
            return cls(m, ())
        try:
            digits = tuple(int(part) for part in text.split("."))
        except ValueError as exc:
            raise ValueError(f"malformed vertex text {text!r}") from exc
        return cls(m, digits)

    @property
    def level(self) -> int:
        return len(self.digits)

    @property
    def index(self) -> int:
        """Within-level index: sum of digits[i] * m^(level-1-i)."""
        idx = 0
        for d in self.digits:
            idx = idx * self.m + d
        return idx

    @property
    def is_root(self) -> bool:
        return not self.digits

    @property
    def parent(self) -> Vertex:
        if self.is_root:
            raise ValueError("the root has no predecessor")
        return Vertex(self.m, self.digits[:-1])

    def __str__(self) -> str:
        if self.is_root:
            return ROOT_TEXT
        return ".".join(str(d) for d in self.digits)


def check_integer(name: str, value) -> int:
    """A size or cap as a Python int, so that arithmetic on it cannot wrap as
    a NumPy integer's does.  Refuse a value that is not a Python or NumPy
    integer: a float such as 2.0 passes the range checks but breaks the counts
    built from it, and a bool is a flag, not a count."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def psi(v: Vertex) -> Fraction:
    """Digit-expansion map: sum of digits[i] / m^(i+1), exactly."""
    from fractions import Fraction  # imported on call: no CLI command calls psi

    return Fraction(v.index, v.m**v.level)


def leaf_psi_values(tree: TruncatedTree) -> np.ndarray:
    """psi of each leaf in index order: k / m^depth."""
    return np.arange(tree.leaf_count, dtype=np.float64) / float(tree.m**tree.depth)


@dataclass(frozen=True)
class TruncatedTree:
    """The regular m-branching tree cut at depth `depth` (leaves = level depth).

    Values attached to the tree live in flat arrays with the level-offset
    layout: the level-k block starts at (m^k - 1)/(m - 1) and has length m^k,
    ordered by within-level index.
    """

    m: int
    depth: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", check_integer("m", self.m))
        object.__setattr__(self, "depth", check_integer("depth", self.depth))
        if self.m < 2:
            raise ValueError(f"branching factor must be >= 2, got {self.m}")
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")
        # 2^depth alone is over the budget from its bit length on; m^depth is
        # then not formed, nor printed (it may pass `str`'s digit limit)
        over = self.depth >= VERTEX_BUDGET.bit_length()
        if over or self.vertex_count > VERTEX_BUDGET:
            count = f"more than 2^{self.depth}" if over else self.vertex_count
            raise ValueError(
                f"tree with m={self.m}, depth={self.depth} has {count} vertices, "
                f"over the budget of {VERTEX_BUDGET}"
            )

    @property
    def vertex_count(self) -> int:
        return (self.m ** (self.depth + 1) - 1) // (self.m - 1)

    @property
    def leaf_count(self) -> int:
        return self.m**self.depth

    @property
    def interior_count(self) -> int:
        return self.vertex_count - self.leaf_count

    def level_size(self, level: int) -> int:
        level = check_integer("level", level)
        if not 0 <= level <= self.depth:
            raise ValueError(f"level {level} outside [0, {self.depth}]")
        return self.m**level

    def level_offset(self, level: int) -> int:
        """Flat offset of the first level-`level` vertex."""
        level = check_integer("level", level)
        if not 0 <= level <= self.depth + 1:
            raise ValueError(f"level {level} outside [0, {self.depth + 1}]")
        return (self.m**level - 1) // (self.m - 1)

    def level_slice(self, level: int) -> slice:
        off = self.level_offset(level)
        return slice(off, off + self.level_size(level))

    @property
    def leaf_slice(self) -> slice:
        return self.level_slice(self.depth)

    @property
    def interior_slice(self) -> slice:
        return slice(0, self.level_offset(self.depth))

    def is_interior(self, v: Vertex) -> bool:
        self._check_member(v)
        return v.level < self.depth

    def _check_member(self, v: Vertex) -> None:
        if v.m != self.m:
            raise ValueError(f"vertex has m={v.m}, tree has m={self.m}")
        if v.level > self.depth:
            raise ValueError(f"vertex {v} is below the depth-{self.depth} cut")

    def flat_index(self, v: Vertex) -> int:
        self._check_member(v)
        return self.level_offset(v.level) + v.index

    def vertex_at(self, flat: int) -> Vertex:
        flat = check_integer("flat index", flat)
        if not 0 <= flat < self.vertex_count:
            raise ValueError(f"flat index {flat} out of range")
        level = 0
        while self.level_offset(level + 1) <= flat:
            level += 1
        return Vertex.from_level_index(self.m, level, flat - self.level_offset(level))

    def labels(self) -> list[str]:
        """The dotted text form of every vertex in flat order, equal to
        `[str(self.vertex_at(i)) for i in range(self.vertex_count)]`; each
        level is built from the labels of the level above, without a `Vertex`
        per row."""
        digits = [str(d) for d in range(self.m)]
        level = digits
        out = [ROOT_TEXT, *level]
        for _ in range(1, self.depth):
            level = [prefix + d for prefix in [p + "." for p in level] for d in digits]
            out += level
        return out
