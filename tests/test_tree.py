"""Tree addressing, metric, and interval tests."""

from __future__ import annotations

import time
from collections import deque
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeconvex import (SolveConfig, TreeFunction, TruncatedTree, Vertex, convergence_study,
                        is_convex_operator, parse_datum, psi)
from treeconvex import tree as tree_module

import oracles


def digit_vertices(m, max_level):
    return st.lists(st.integers(0, m - 1), min_size=0, max_size=max_level).map(
        lambda ds: Vertex(m, tuple(ds)))


class TestVertex:
    def test_psi_examples(self):
        assert psi(Vertex(3, (1, 2))) == Fraction(5, 9)
        assert psi(Vertex(2, ())) == 0
        assert psi(Vertex(7, ())) == 0
        assert psi(Vertex(2, (1,))) == Fraction(1, 2)

    def test_invalid_digits(self):
        with pytest.raises(ValueError):
            Vertex(3, (0, 3))
        with pytest.raises(ValueError):
            Vertex(1, ())

    def test_m_and_digits_must_be_integers(self):
        # a float m printed as an integer, and a float digit as "0.1.0"
        for m, digits, message in [(2.5, (0, 2), "m must be an integer, got 2.5"),
                                   (2, (0, 1.0), "digit must be an integer, got 1.0")]:
            with pytest.raises(ValueError) as exc:
                Vertex(m, digits)
            assert str(exc.value) == message
        v = Vertex(np.int64(3), (np.int32(2), 0))
        assert str(v) == "2.0" and [type(x) for x in (v.m, *v.digits)] == [int] * 3

    def test_parent_drops_last_digit(self):
        v = Vertex(3, (1, 0, 2))
        assert v.parent == Vertex(3, (1, 0))
        with pytest.raises(ValueError):
            Vertex(3, ()).parent

    def test_text_roundtrip(self):
        for v in [Vertex(3, ()), Vertex(3, (1, 0, 2)), Vertex(5, (4,))]:
            assert Vertex.parse(v.m, str(v)) == v
        assert str(Vertex(3, ())) == "root"
        assert str(Vertex(3, (1, 0, 2))) == "1.0.2"
        with pytest.raises(ValueError):
            Vertex.parse(3, "1.x")

    @pytest.mark.parametrize("m,depth", [(2, 10), (3, 7), (5, 5)])
    def test_level_index_roundtrip_full(self, m, depth):
        tree = TruncatedTree(m, depth)
        for v in oracles.vertices(tree):
            assert Vertex.from_level_index(m, v.level, v.index) == v

    @given(st.sampled_from([2, 3, 5]), st.data())
    @settings(max_examples=200, derandomize=True)
    def test_level_index_roundtrip_random(self, m, data):
        v = data.draw(digit_vertices(m, 10))
        assert Vertex.from_level_index(m, v.level, v.index) == v

    def test_psi_equals_index_ratio(self):
        tree = TruncatedTree(2, 8)
        for v in oracles.vertices(tree):
            assert psi(v) == Fraction(v.index, 2**v.level)


class TestMetric:
    """The oracle's exact geometry on digit tuples: the bitwise array tests
    mean something only if it is right."""

    def test_distance_examples(self):
        assert oracles.distance(2, (0, 1), (0,)) == Fraction(1, 4)
        assert oracles.distance(2, (0,), (1,)) == 1
        assert oracles.distance(3, (0, 2), (1, 0)) == Fraction(8, 9)

    def test_parent_edge_length(self):
        for v in oracles.digit_tuples(3, 4):
            if v:
                assert oracles.distance(3, v, v[:-1]) == Fraction(1, 3 ** len(v))

    @pytest.mark.parametrize("m", [2, 3])
    def test_metric_axioms_random(self, m):
        rng = np.random.default_rng(42 + m)
        verts = [tuple(int(d) for d in rng.integers(0, m, int(rng.integers(0, 7))))
                 for _ in range(1000)]
        for i in range(0, 999, 3):
            x, y, z = verts[i], verts[i + 1], verts[i + 2]
            assert oracles.distance(m, x, y) == oracles.distance(m, y, x)
            assert (oracles.distance(m, x, y) == 0) == (x == y)
            assert oracles.distance(m, x, z) <= (oracles.distance(m, x, y)
                                                 + oracles.distance(m, y, z))

    def test_path_examples(self):
        x = (0, 0)
        assert oracles.minimal_path(x, x) == [x]
        assert oracles.minimal_path(x, (0,)) == [x, (0,)]
        path = oracles.minimal_path((0, 2, 1), (1, 0, 0))
        expected = ["0.2.1", "0.2", "0", "root", "1", "1.0", "1.0.0"]
        assert [str(Vertex(3, p)) for p in path] == expected

    def test_path_properties_and_bfs_oracle(self):
        # for every pair in a small tree: distinct vertices, adjacency,
        # edge lengths summing to the distance, agreement with BFS
        m = 3
        verts = list(oracles.digit_tuples(m, 3))
        adjacency = {v: set() for v in verts}
        for v in verts:
            if v:
                adjacency[v].add(v[:-1])
                adjacency[v[:-1]].add(v)

        def bfs_path(src, dst):
            prev = {src: None}
            queue = deque([src])
            while queue:
                cur = queue.popleft()
                if cur == dst:
                    break
                for nxt in adjacency[cur]:
                    if nxt not in prev:
                        prev[nxt] = cur
                        queue.append(nxt)
            out = [dst]
            while prev[out[-1]] is not None:
                out.append(prev[out[-1]])
            return out[::-1]

        rng = np.random.default_rng(7)
        idx = rng.integers(0, len(verts), size=(80, 2))
        for a, b in idx:
            x, y = verts[int(a)], verts[int(b)]
            path = oracles.minimal_path(x, y)
            assert len(set(path)) == len(path)
            total = Fraction(0)
            for u, v in zip(path, path[1:]):
                assert v in adjacency[u]
                total += Fraction(1, m ** max(len(u), len(v)))
            assert total == oracles.distance(m, x, y)
            assert path == bfs_path(x, y)

    @given(st.data())
    @settings(max_examples=150, derandomize=True)
    def test_path_through_common_ancestor(self, data):
        m = data.draw(st.sampled_from([2, 3]))
        x = data.draw(digit_vertices(m, 6)).digits
        y = data.draw(digit_vertices(m, 6)).digits
        w = oracles.common_prefix(x, y)
        path = oracles.minimal_path(x, y)
        assert w in path
        assert min(len(p) for p in path) == len(w)
        # w is an ancestor of both, and their next digits differ below it
        assert x[: len(w)] == y[: len(w)] == w
        assert len(w) in (len(x), len(y)) or x[len(w)] != y[len(w)]


class TestIntervals:
    def test_subtree_matches_interval_containment(self):
        # the subtree below x0, as the reference indicator marks it, is the
        # set of vertices at level >= |x0| whose interval lies in x0's
        for m, depth, digits in [(2, 4, (0, 1)), (3, 3, (2,)), (3, 3, (1, 0))]:
            tree = TruncatedTree(m, depth)
            x0 = Vertex(m, digits)
            inside = oracles.reference_binary_indicator(tree, x0)
            lo, hi = psi(x0), psi(x0) + Fraction(1, m**x0.level)
            for v in oracles.vertices(tree):
                in_interval = lo <= psi(v) and psi(v) + Fraction(1, m**v.level) <= hi
                want = float(v.level >= x0.level and in_interval)
                assert inside.values[tree.flat_index(v)] == want

    def test_nesting_and_tiling(self):
        # the children's base-m intervals [psi, psi + m^-level] tile the parent's
        for digits in oracles.digit_tuples(3, 2):
            v = Vertex(3, digits)
            width = Fraction(1, 3 ** (v.level + 1))
            los = [psi(Vertex(3, digits + (d,))) for d in range(3)]
            assert los[0] == psi(v)
            assert los[-1] + width == psi(v) + 3 * width
            for a, b in zip(los, los[1:]):
                assert a + width == b


class TestTruncatedTree:
    def test_counts_and_layout(self):
        tree = TruncatedTree(3, 4)
        assert tree.vertex_count == (3**5 - 1) // 2 == 121
        assert tree.leaf_count == 81
        assert tree.interior_count == 40
        assert tree.level_offset(0) == 0
        assert tree.level_offset(2) == 4
        flats = [tree.flat_index(v) for v in oracles.vertices(tree)]
        assert flats == list(range(121))
        for flat in (0, 1, 40, 120):
            assert tree.flat_index(tree.vertex_at(flat)) == flat

    def test_interior_and_leaf_queries(self):
        tree = TruncatedTree(2, 3)
        assert tree.is_interior(Vertex(2, (0, 1)))
        assert not tree.is_interior(Vertex(2, (0, 1, 1)))
        with pytest.raises(ValueError):
            tree.is_interior(Vertex(2, (0, 1, 1, 0)))
        with pytest.raises(ValueError):
            tree.flat_index(Vertex(3, (0,)))

    @pytest.mark.parametrize("m,depth", [(2, 1), (2, 6), (3, 1), (3, 4), (5, 3), (11, 2)])
    def test_labels_are_vertex_texts(self, m, depth):
        tree = TruncatedTree(m, depth)
        assert tree.labels() == [str(v) for v in oracles.vertices(tree)]

    def test_validation(self):
        with pytest.raises(ValueError):
            TruncatedTree(1, 3)
        with pytest.raises(ValueError):
            TruncatedTree(2, 0)

    def test_m_must_be_an_integer(self):
        for bad in (2.0, 2.5, "3"):
            with pytest.raises(ValueError) as exc:
                TruncatedTree(bad, 3)
            assert str(exc.value) == f"m must be an integer, got {bad!r}"
        tree = TruncatedTree(np.int64(3), 2)
        assert tree.vertex_count == 13 and type(tree.m) is int

    def test_depth_must_be_an_integer(self):
        # a float depth gave a float vertex count, which no solve could use
        for bad in (3.0, 2.5):
            with pytest.raises(ValueError) as exc:
                TruncatedTree(2, bad)
            assert str(exc.value) == f"depth must be an integer, got {bad}"
        tree = TruncatedTree(2, np.int32(3))
        assert tree.vertex_count == 15 and type(tree.depth) is int

    @pytest.mark.parametrize("call,message", [
        # NumPy sizes wrapped: vertex_count -1 and leaf_count 0, under the budget
        (lambda: TruncatedTree(np.int64(2**40), 2), "over the budget of 268435456"),
        (lambda: TruncatedTree(np.int64(2**21), np.int64(3)), "over the budget of 268435456"),
        # and a study failed inside NumPy with "negative dimensions"
        (lambda: convergence_study(parse_datum("power:2"), np.int64(2**40), [2], SolveConfig()),
         "depth 2 exceeds the study budget"),
        # a bool passed as an integer: the vertex printed as "True.False"
        (lambda: Vertex(2, (True, False)), "digit must be an integer, got True"),
        (lambda: TruncatedTree(2, True), "depth must be an integer, got True"),
        (lambda: SolveConfig(tol=True), "tol must be finite and positive, got True"),
        (lambda: is_convex_operator(TreeFunction.from_values(TruncatedTree(2, 2), np.zeros(7)),
                                    tol=False), "tol must be finite and non-negative, got False"),
        # a bool level gave vertex 1, and a float index failed on a digit 0.0
        (lambda: Vertex.from_level_index(2, True, 1), "level must be an integer, got True"),
        (lambda: Vertex.from_level_index(2, 2, 1.5), "index must be an integer, got 1.5"),
        # a bool level was the level 1, and a float level gave a float size
        (lambda: TruncatedTree(2, 3).level_size(True), "level must be an integer, got True"),
        (lambda: TruncatedTree(2, 3).level_size(1.0), "level must be an integer, got 1.0"),
        (lambda: TruncatedTree(2, 3).level_offset(False), "level must be an integer, got False"),
        (lambda: TruncatedTree(2, 3).vertex_at(3.0), "flat index must be an integer, got 3.0"),
    ])
    def test_wrapping_sizes_and_bools_are_refused(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    def test_numpy_levels_do_not_wrap(self):
        # 2**np.int64(64) is 0, so this index was refused as out of range
        v = Vertex.from_level_index(2, np.int64(64), 5)
        assert v.level == 64 and v.index == 5
        tree = TruncatedTree(2, 3)
        for got, want in [(tree.level_size(np.int64(2)), 4), (tree.level_offset(np.int32(3)), 7)]:
            assert got == want and type(got) is int
        assert tree.vertex_at(np.int64(14)) == Vertex(2, (1, 1, 1))

    @pytest.mark.parametrize("call,message", [
        (lambda t: t.vertex_at(-1), "flat index -1 out of range"),
        (lambda t: t.vertex_at(15), "flat index 15 out of range"),
        (lambda t: Vertex.from_level_index(2, 1, 2), "index 2 out of range for level 1"),
        (lambda t: Vertex.from_level_index(2, -1, 0), "index 0 out of range for level -1"),
        (lambda t: t.level_size(4), "level 4 outside [0, 3]"),
        (lambda t: t.level_size(-1), "level -1 outside [0, 3]"),
        (lambda t: t.level_offset(5), "level 5 outside [0, 4]"),
        (lambda t: TreeFunction.from_values(t, np.zeros(14)),
         "expected 15 values for m=2, depth=3, got shape (14,)"),
        (lambda t: TreeFunction.from_values(t, np.full(15, np.inf)),
         "tree function values must be finite"),
    ], ids=["flat-low", "flat-high", "index", "level", "size-high", "size-low", "offset",
            "values-shape", "values-finite"])
    def test_out_of_range_refused(self, call, message):
        with pytest.raises(ValueError) as exc:
            call(TruncatedTree(2, 3))
        assert str(exc.value) == message

    def test_vertex_budget(self, monkeypatch):
        with pytest.raises(ValueError, match="budget"):
            TruncatedTree(2, 30)
        monkeypatch.setattr(tree_module, "VERTEX_BUDGET", 40)
        with pytest.raises(ValueError, match="has 121 vertices, over the budget of 40$"):
            TruncatedTree(3, 4)
        TruncatedTree(3, 2)  # 13 vertices, within the lowered budget
        monkeypatch.setattr(tree_module, "VERTEX_BUDGET", 2**31)
        TruncatedTree(2, 30)

    def test_oversized_depth_refused_at_once(self):
        # refused by depth alone, without forming 7^(10^6) or printing it
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"more than 2\^1000000 vertices, over the budget"):
            TruncatedTree(7, 10**6)
        assert time.perf_counter() - start < 0.1
        # below that depth the count is formed and named
        with pytest.raises(ValueError, match="has 536870911 vertices, over the budget of 268435456"):
            TruncatedTree(2, 28)
