"""Tree structure validation, canonical points, and exact path geometry."""

import math

import numpy as np
import pytest

import cat0feas as cf


class TestMetricTreeValidation:
    def test_rejects_cycle(self):
        with pytest.raises(cf.DomainError):
            cf.MetricTree(
                vertices=("A", "B", "C"),
                edges=(("A", "B", 1.0), ("B", "C", 1.0), ("C", "A", 1.0)),
            )

    def test_rejects_disconnected(self):
        with pytest.raises(cf.DomainError):
            cf.MetricTree(
                vertices=("A", "B", "C", "D"),
                edges=(("A", "B", 1.0), ("C", "D", 1.0), ("A", "B", 2.0)),
            )

    def test_rejects_nonpositive_length(self):
        with pytest.raises(cf.DomainError):
            cf.MetricTree(vertices=("A", "B"), edges=(("A", "B", 0.0),))

    def test_rejects_unknown_vertex(self):
        with pytest.raises(cf.DomainError):
            cf.MetricTree(vertices=("A", "B"), edges=(("A", "X", 1.0),))

    def test_path_tree_distance(self):
        # A--B--C with lengths 1, 1: endpoints are 2 apart.
        tree = cf.MetricTree(
            vertices=("A", "B", "C"), edges=(("A", "B", 1.0), ("B", "C", 1.0))
        )
        space = cf.TreeSpace(tree)
        assert space.distance(space.vertex("A"), space.vertex("C")) == 2.0


class TestCanonicalization:
    def test_vertex_offsets_canonicalize(self, tripod_space):
        # The center sits at offset 0 of each leg; all spellings coincide.
        tri = tripod_space
        assert tri.at(0, 0.0) == tri.at(1, 0.0) == tri.at(2, 0.0) == tri.vertex("O")

    def test_leaf_canonical(self, tripod_space):
        assert tripod_space.at(1, 1.0) == tripod_space.vertex("B")

    def test_interior_point_not_at_vertex(self, tripod_space):
        p = tripod_space.at(1, 0.25)
        assert tripod_space.vertex_name(p) is None

    def test_offset_domain(self, tripod_space):
        with pytest.raises(cf.DomainError):
            tripod_space.at(0, 1.5)
        with pytest.raises(cf.DomainError):
            tripod_space.at(0, -0.1)

    def test_caterpillar_shared_vertex(self, caterpillar):
        # B is incident to edges 0, 1, 3; canonical spelling uses edge 0.
        b = caterpillar.vertex("B")
        assert b.payload == (0, 2.0)
        assert caterpillar.at(1, 0.0) == b
        assert caterpillar.at(3, 0.0) == b


class TestTreeGeometry:
    def test_same_edge_interpolation(self):
        tree = cf.MetricTree(vertices=("A", "B"), edges=(("A", "B", 2.0),))
        space = cf.TreeSpace(tree)
        got = space.interpolate(space.vertex("A"), space.vertex("B"), 0.25)
        assert got.payload == (0, 0.5)

    def test_cross_edge_midpoint_is_center(self, tripod_space):
        tri = tripod_space
        mid = tri.interpolate(tri.vertex("A"), tri.vertex("B"), 0.5)
        assert mid == tri.vertex("O")

    def test_cross_edge_interpolation_quarter(self, tripod_space):
        tri = tripod_space
        got = tri.interpolate(tri.vertex("A"), tri.vertex("B"), 0.25)
        # a quarter of the 2-long path from A: still on leg A, offset 0.5.
        assert got.payload == (0, 0.5)

    def test_caterpillar_distances(self, caterpillar):
        sp = caterpillar
        # hand-computed path lengths
        assert sp.distance(sp.vertex("A"), sp.vertex("D")) == 3.5
        assert sp.distance(sp.vertex("E"), sp.vertex("D")) == 4.5
        p = sp.at(0, 0.5)  # on A--B, 0.5 from A
        q = sp.at(3, 1.0)  # on B--E, 1.0 from B
        assert sp.distance(p, q) == 2.5

    def test_caterpillar_geodesic_walks_through(self, caterpillar):
        sp = caterpillar
        p = sp.at(0, 0.5)
        q = sp.at(3, 1.0)
        d = sp.distance(p, q)
        # 1.5 of the way from p at t=0.6: past B, 1.5 - 1.5 = exactly at B
        assert sp.interpolate(p, q, 1.5 / d) == sp.vertex("B")
        got = sp.interpolate(p, q, 2.0 / d)
        assert got.payload == (3, 0.5)

    def test_distance_symmetry_exact(self, caterpillar, rng):
        sp = caterpillar
        for _ in range(200):
            x, y = sp.random_point(rng), sp.random_point(rng)
            assert sp.distance(x, y) == sp.distance(y, x)

    def test_serialization_roundtrip(self, caterpillar):
        from cat0feas.config import space_from_json

        doc = {
            "kind": "metric-tree",
            "vertices": ["A", "B", "C", "D", "E"],
            "edges": [["A", "B", 2.0], ["B", "C", 1.0], ["C", "D", 0.5], ["B", "E", 3.0]],
        }
        assert space_from_json(doc) == caterpillar


class TestBatchedKernel:
    # Lengths whose path sums depend on the summation order.
    ORDER_SENSITIVE = cf.MetricTree(
        vertices=("X", "A", "B", "C", "D", "Y", "E"),
        edges=(("X", "A", 0.4), ("A", "B", 0.1), ("B", "C", 0.2),
               ("C", "D", 0.3), ("D", "Y", 0.6), ("B", "E", 0.7)),
    )

    def test_table_is_symmetric(self):
        tree = self.ORDER_SENSITIVE
        assert (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)
        D = tree._bfs_tables[0]
        assert np.array_equal(D, D.T)
        a, d = tree.vertices.index("A"), tree.vertices.index("D")
        assert D[a, d] == pytest.approx(0.6, rel=1e-15)

    def test_pairwise_equals_distance(self, rng):
        # Every block entry, not only the minimum, is bit-equal to distance
        # in either argument order.
        space = cf.TreeSpace(self.ORDER_SENSITIVE)
        pts = [space.random_point(rng) for _ in range(40)]
        pts += [space.vertex(v) for v in self.ORDER_SENSITIVE.vertices]
        packed = space._pack([p.payload for p in pts])
        block = space._kernel_rows(packed[:30, None], packed[None, :])
        assert block.tolist() == [[space.distance(a, b) for b in pts] for a in pts[:30]]
        assert block.tolist() == [[space.distance(b, a) for b in pts] for a in pts[:30]]

    def test_scalar_tables_hold_python_floats(self):
        # Trace files write repr() of distances, which must not read np.float64(...).
        _, dist, next_edge = self.ORDER_SENSITIVE._bfs_tables
        assert type(dist[1][4]) is float and type(next_edge[1][4]) is int


class TestNonFiniteLengths:
    @pytest.mark.parametrize("length", [math.inf, math.nan, -math.inf])
    def test_rejects_non_finite_edge(self, length):
        with pytest.raises(cf.DomainError, match="positive finite length"):
            cf.MetricTree(vertices=("A", "B", "C"), edges=(("A", "B", 1.0), ("B", "C", length)))

    @pytest.mark.parametrize("lengths", [(1e308, 1e308), (1e308, 1.0)])
    def test_rejects_overflowing_total(self, lengths):
        # A route adds up to two arcs to a path, so twice the total must be finite.
        edges = (("A", "B", lengths[0]), ("B", "C", lengths[1]))
        with pytest.raises(cf.DomainError, match="overflows"):
            cf.MetricTree(vertices=("A", "B", "C"), edges=edges)

    def test_accepts_large_finite_total(self):
        edges = (("A", "B", 4e307), ("B", "C", 4e307))
        tree = cf.MetricTree(vertices=("A", "B", "C"), edges=edges)
        space = cf.TreeSpace(tree)
        assert space.distance(space.vertex("A"), space.vertex("C")) == 8e307
