"""Tree addressing, metric, and interval tests."""

from __future__ import annotations

from collections import deque
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeconvex import (
    DyadicInterval,
    TruncatedTree,
    Vertex,
    common_ancestor,
    distance,
    interval,
    is_in_subtree,
    minimal_path,
    psi,
)


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
        for v in tree.vertices():
            assert Vertex.from_level_index(m, v.level, v.index) == v

    @given(st.sampled_from([2, 3, 5]), st.data())
    @settings(max_examples=200, derandomize=True)
    def test_level_index_roundtrip_random(self, m, data):
        v = data.draw(digit_vertices(m, 10))
        assert Vertex.from_level_index(m, v.level, v.index) == v

    def test_psi_equals_index_ratio(self):
        tree = TruncatedTree(2, 8)
        for v in tree.vertices():
            assert psi(v) == Fraction(v.index, 2**v.level)


class TestMetric:
    def test_distance_examples(self):
        assert distance(Vertex(2, (0, 1)), Vertex(2, (0,))) == Fraction(1, 4)
        assert distance(Vertex(2, (0,)), Vertex(2, (1,))) == 1
        assert distance(Vertex(3, (0, 2)), Vertex(3, (1, 0))) == Fraction(8, 9)

    def test_mismatched_m_rejected(self):
        with pytest.raises(ValueError):
            distance(Vertex(2, (0,)), Vertex(3, (0,)))

    def test_parent_edge_length(self):
        tree = TruncatedTree(3, 4)
        for v in tree.vertices():
            if not v.is_root:
                assert distance(v, v.parent) == Fraction(1, 3**v.level)

    @pytest.mark.parametrize("m", [2, 3])
    def test_metric_axioms_random(self, m):
        rng = np.random.default_rng(42 + m)
        tree = TruncatedTree(m, 6)
        verts = []
        for _ in range(1000):
            level = int(rng.integers(0, 7))
            index = int(rng.integers(0, m**level))
            verts.append(Vertex.from_level_index(m, level, index))
        for i in range(0, 999, 3):
            x, y, z = verts[i], verts[i + 1], verts[i + 2]
            assert distance(x, y) == distance(y, x)
            assert (distance(x, y) == 0) == (x == y)
            assert distance(x, z) <= distance(x, y) + distance(y, z)

    def test_path_examples(self):
        x = Vertex(2, (0, 0))
        assert minimal_path(x, x) == [x]
        assert minimal_path(x, Vertex(2, (0,))) == [x, Vertex(2, (0,))]
        path = minimal_path(Vertex(3, (0, 2, 1)), Vertex(3, (1, 0, 0)))
        expected = ["0.2.1", "0.2", "0", "root", "1", "1.0", "1.0.0"]
        assert [str(p) for p in path] == expected

    def test_path_properties_and_bfs_oracle(self):
        # for every pair in a small tree: distinct vertices, adjacency,
        # edge lengths summing to the distance, agreement with BFS
        m = 3
        tree = TruncatedTree(m, 3)
        verts = list(tree.vertices())
        adjacency = {v: set() for v in verts}
        for v in verts:
            if not v.is_root:
                adjacency[v].add(v.parent)
                adjacency[v.parent].add(v)

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
            path = minimal_path(x, y)
            assert len(set(path)) == len(path)
            total = Fraction(0)
            for u, v in zip(path, path[1:]):
                assert v in adjacency[u]
                total += Fraction(1, m ** max(u.level, v.level))
            assert total == distance(x, y)
            assert path == bfs_path(x, y)

    @given(st.data())
    @settings(max_examples=150, derandomize=True)
    def test_path_through_common_ancestor(self, data):
        m = data.draw(st.sampled_from([2, 3]))
        x = data.draw(digit_vertices(m, 6))
        y = data.draw(digit_vertices(m, 6))
        w = common_ancestor(x, y)
        path = minimal_path(x, y)
        assert w in path
        assert min(p.level for p in path) == w.level


class TestIntervals:
    def test_interval_examples(self):
        assert interval(Vertex(2, (1,))) == DyadicInterval(Fraction(1, 2), Fraction(1))
        assert interval(Vertex(4, ())) == DyadicInterval(Fraction(0), Fraction(1))
        assert interval(Vertex(3, (1, 2))) == DyadicInterval(Fraction(5, 9), Fraction(6, 9))

    def test_nesting_and_tiling(self):
        tree = TruncatedTree(3, 3)
        for v in tree.interior_vertices():
            parent_iv = interval(v)
            child_ivs = [interval(c) for c in v.children()]
            for iv in child_ivs:
                assert parent_iv.contains(iv)
            assert child_ivs[0].lo == parent_iv.lo
            assert child_ivs[-1].hi == parent_iv.hi
            for a, b in zip(child_ivs, child_ivs[1:]):
                assert a.hi == b.lo

    def test_subtree_examples(self):
        v = Vertex(3, (1, 0))
        assert is_in_subtree(v, v)
        assert is_in_subtree(Vertex(3, (1, 0, 2)), Vertex(3, (1, 0)))
        assert not is_in_subtree(Vertex(3, (2, 0)), Vertex(3, (1,)))

    def test_subtree_matches_interval_containment(self):
        # membership is equivalent to |x| >= |x0| plus interval containment
        tree = TruncatedTree(2, 4)
        x0 = Vertex(2, (0, 1))
        for v in tree.vertices():
            by_interval = v.level >= x0.level and interval(x0).contains(interval(v))
            assert is_in_subtree(v, x0) == by_interval


class TestTruncatedTree:
    def test_counts_and_layout(self):
        tree = TruncatedTree(3, 4)
        assert tree.vertex_count == (3**5 - 1) // 2 == 121
        assert tree.leaf_count == 81
        assert tree.interior_count == 40
        assert tree.level_offset(0) == 0
        assert tree.level_offset(2) == 4
        flats = [tree.flat_index(v) for v in tree.vertices()]
        assert flats == list(range(121))
        for flat in (0, 1, 40, 120):
            assert tree.flat_index(tree.vertex_at(flat)) == flat

    def test_interior_and_leaf_queries(self):
        tree = TruncatedTree(2, 3)
        assert tree.is_interior(Vertex(2, (0, 1)))
        assert tree.is_leaf(Vertex(2, (0, 1, 1)))
        with pytest.raises(ValueError):
            tree.is_leaf(Vertex(2, (0, 1, 1, 0)))
        with pytest.raises(ValueError):
            tree.flat_index(Vertex(3, (0,)))

    @pytest.mark.parametrize("m,depth", [(2, 1), (2, 6), (3, 1), (3, 4), (5, 3), (11, 2)])
    def test_labels_are_vertex_texts(self, m, depth):
        tree = TruncatedTree(m, depth)
        assert tree.labels() == [str(v) for v in tree.vertices()]

    def test_validation(self):
        with pytest.raises(ValueError):
            TruncatedTree(1, 3)
        with pytest.raises(ValueError):
            TruncatedTree(2, 0)

    def test_vertex_budget(self, monkeypatch):
        with pytest.raises(ValueError, match="budget"):
            TruncatedTree(2, 30)
        monkeypatch.setenv("TREECONVEX_BUDGET", "40")
        with pytest.raises(ValueError, match="budget"):
            TruncatedTree(3, 4)
        TruncatedTree(3, 2)  # 13 vertices, within the lowered budget
        monkeypatch.setenv("TREECONVEX_BUDGET", str(2**31))
        TruncatedTree(2, 30)
