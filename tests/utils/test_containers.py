"""Tests for UnionFind."""

from hypothesis import given, strategies as st

from repro.utils.unionfind import UnionFind


class TestUnionFind:
    def test_initially_disjoint(self):
        uf = UnionFind(["a", "b"])
        assert not uf.same("a", "b")

    def test_union_links(self):
        uf = UnionFind()
        uf.union("a", "b")
        uf.union("b", "c")
        assert uf.same("a", "c")
        assert not uf.same("a", "d")

    def test_classes_partition(self):
        uf = UnionFind()
        uf.union(1, 2)
        uf.union(3, 4)
        uf.add(5)
        classes = uf.classes()
        assert sorted(sorted(c) for c in classes) == [[1, 2], [3, 4], [5]]

    def test_contains_and_len(self):
        uf = UnionFind()
        uf.add("x")
        assert "x" in uf
        assert "y" not in uf
        assert len(uf) == 1

    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)), max_size=60))
    def test_transitive_closure_matches_reference(self, pairs):
        """Union-find must agree with a naive reachability computation."""
        uf = UnionFind()
        adjacency = {}
        for a, b in pairs:
            uf.union(a, b)
            adjacency.setdefault(a, set()).add(b)
            adjacency.setdefault(b, set()).add(a)

        def reachable(start):
            seen = {start}
            stack = [start]
            while stack:
                node = stack.pop()
                for nxt in adjacency.get(node, ()):
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            return seen

        for a, b in pairs:
            assert uf.same(a, b) == (b in reachable(a))
