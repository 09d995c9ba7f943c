"""Geometry of the regular m-branching tree and its depth truncations.

A vertex is addressed by its digit sequence (a_1, ..., a_k) with digits in
{0, ..., m-1}; the root is the empty sequence.  Each level-k edge has length
m^(-k), which induces a metric through minimal (self-avoiding) paths.  All
rational quantities (psi values, distances) are computed exactly with
`fractions.Fraction`; callers convert to float at output boundaries only.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

DEFAULT_VERTEX_BUDGET = 2**28
BUDGET_ENV_VAR = "TREECONVEX_BUDGET"

ROOT_TEXT = "root"


@dataclass(frozen=True)
class Vertex:
    """A tree vertex: branching factor `m` plus the digit path from the root."""

    m: int
    digits: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError(f"branching factor must be >= 2, got {self.m}")
        for d in self.digits:
            if not 0 <= d < self.m:
                raise ValueError(f"digit {d} out of range [0, {self.m})")

    @classmethod
    def root(cls, m: int) -> Vertex:
        return cls(m, ())

    @classmethod
    def from_level_index(cls, m: int, level: int, index: int) -> Vertex:
        """Inverse of the (level, index) dense encoding."""
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

    def child(self, digit: int) -> Vertex:
        return Vertex(self.m, self.digits + (digit,))

    def children(self) -> list[Vertex]:
        return [self.child(d) for d in range(self.m)]

    def __str__(self) -> str:
        if self.is_root:
            return ROOT_TEXT
        return ".".join(str(d) for d in self.digits)


def _check_same_m(x: Vertex, y: Vertex) -> None:
    if x.m != y.m:
        raise ValueError(f"mismatched branching factors: {x.m} vs {y.m}")


def psi(v: Vertex) -> Fraction:
    """Digit-expansion map: sum of digits[i] / m^(i+1), exactly."""
    return Fraction(v.index, v.m**v.level)


def common_ancestor(x: Vertex, y: Vertex) -> Vertex:
    """Deepest vertex lying on both root paths (longest common digit prefix)."""
    _check_same_m(x, y)
    n = 0
    for a, b in zip(x.digits, y.digits):
        if a != b:
            break
        n += 1
    return Vertex(x.m, x.digits[:n])


def distance(x: Vertex, y: Vertex) -> Fraction:
    """Length of the minimal path: edge at level j counts m^(-j)."""
    w = common_ancestor(x, y)
    m = x.m
    total = Fraction(0)
    for j in range(w.level + 1, x.level + 1):
        total += Fraction(1, m**j)
    for j in range(w.level + 1, y.level + 1):
        total += Fraction(1, m**j)
    return total


def minimal_path(x: Vertex, y: Vertex) -> list[Vertex]:
    """The unique self-avoiding path from x to y, through the common ancestor."""
    w = common_ancestor(x, y)
    up = [x]
    while up[-1].level > w.level:
        up.append(up[-1].parent)
    down = [y]
    while down[-1].level > w.level:
        down.append(down[-1].parent)
    return up + down[-2::-1]


def _vertex_budget() -> int:
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_VERTEX_BUDGET
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}") from exc


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
        if self.m < 2:
            raise ValueError(f"branching factor must be >= 2, got {self.m}")
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")
        budget = _vertex_budget()
        # 2^depth alone is over the budget from its bit length on; m^depth is
        # then not formed, nor printed (it may pass `str`'s digit limit)
        over = self.depth >= budget.bit_length()
        if over or self.vertex_count > budget:
            count = f"more than 2^{self.depth}" if over else self.vertex_count
            raise ValueError(
                f"tree with m={self.m}, depth={self.depth} has {count} vertices, "
                f"over the budget of {budget} (override with {BUDGET_ENV_VAR})"
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
        if not 0 <= level <= self.depth:
            raise ValueError(f"level {level} outside [0, {self.depth}]")
        return self.m**level

    def level_offset(self, level: int) -> int:
        """Flat offset of the first level-`level` vertex."""
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
        if not 0 <= flat < self.vertex_count:
            raise ValueError(f"flat index {flat} out of range")
        level = 0
        while self.level_offset(level + 1) <= flat:
            level += 1
        return Vertex.from_level_index(self.m, level, flat - self.level_offset(level))

    def vertices(self) -> Iterator[Vertex]:
        """All vertices in flat (level-major, index-ascending) order."""
        for level in range(self.depth + 1):
            for index in range(self.level_size(level)):
                yield Vertex.from_level_index(self.m, level, index)

    def interior_vertices(self) -> Iterator[Vertex]:
        for level in range(self.depth):
            for index in range(self.level_size(level)):
                yield Vertex.from_level_index(self.m, level, index)

    def labels(self) -> list[str]:
        """The dotted text form of every vertex in flat order, equal to
        `[str(v) for v in self.vertices()]`; each level is built from the
        labels of the level above, without a `Vertex` per row."""
        digits = [str(d) for d in range(self.m)]
        level = digits
        out = [ROOT_TEXT, *level]
        for _ in range(1, self.depth):
            level = [prefix + d for prefix in [p + "." for p in level] for d in digits]
            out += level
        return out
