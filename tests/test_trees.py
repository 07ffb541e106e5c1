"""Tree structure validation, canonical points, and exact path geometry."""

import importlib.util
import itertools
import math
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cat0feas as cf
from cat0feas.config import space_from_json


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

    @pytest.mark.parametrize("edge", [3, -1, 1.5, True, np.float64(2.9), math.nan, "1"])
    def test_edge_index_domain(self, tripod_space, edge):
        # Out of range, or not an integer: int() would truncate 1.5 and 2.9
        # and read True as 1.
        with pytest.raises(cf.DomainError, match="edge index"):
            tripod_space.at(edge, 0.25)

    @pytest.mark.parametrize("edge", [1, 1.0, np.int64(1), np.float64(1.0)])
    def test_integral_edge_index_reads_as_int(self, tripod_space, edge):
        p = tripod_space.at(edge, 0.25)
        assert p.payload == (1, 0.25) and type(p.payload[0]) is int

    def test_caterpillar_shared_vertex(self, caterpillar):
        # B is incident to edges 0, 1, 3; canonical spelling uses edge 0.
        b = caterpillar.vertex("B")
        assert b.payload == (0, 2.0)
        assert caterpillar.at(1, 0.0) == b
        assert caterpillar.at(3, 0.0) == b

    def test_draws_do_not_depend_on_a_compensated_builtin_sum(self, monkeypatch):
        # Python 3.12's built-in sum compensates floats.  A draw scales a
        # uniform number by the total edge length, so a total that rounds
        # differently would move every draw.
        rng = random.Random(3)
        lengths = [rng.uniform(0.1, 2.0) for _ in range(320)]
        assert math.fsum(lengths) != list(itertools.accumulate(lengths))[-1]
        names = [f"v{i}" for i in range(321)]
        edges = [(names[rng.randrange(i)], names[i], length) for i, length in enumerate(lengths, 1)]
        space = cf.TreeSpace(cf.MetricTree(vertices=tuple(names), edges=tuple(edges)))

        def draws():
            rng = random.Random(5)
            return [space.random_point(rng).payload for _ in range(2000)]

        before = draws()
        monkeypatch.setattr(cf.trees, "sum", lambda values, start=0: math.fsum(values) + start,
                            raising=False)
        assert draws() == before


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
        space = cf.TreeSpace(self.ORDER_SENSITIVE)
        a, b = (0, 0.1), (3, 0.1)  # on X--A and on C--D
        assert type(space._distance(a, b)) is float
        assert list(map(type, space._route(a, b))) == [float, int, int, float, float]
        # Halfway from X--A to C--D lies on A--B, an edge of the middle leg.
        edge, offset = space._interpolate(a, b, 0.5)
        assert edge == 1 and type(edge) is int and type(offset) is float

    @staticmethod
    def rank_order_tables(tree):
        """D and N built row by row in breadth-first rank order, then permuted
        to vertex order: the construction the tables must match bit for bit."""
        order = tree._bfs()
        n = len(order)
        D, N = np.zeros((n, n)), np.full((n, n), -1, dtype=np.intp)
        rank = {vertex: k for k, (vertex, _, _) in enumerate(order)}
        for k, (_, parent, edge) in enumerate(order[1:], start=1):
            p = rank[parent]
            D[k, :k] = D[p, :k] + tree.edges[edge][2]
            D[:k, k] = D[k, :k]
            N[k, :k] = edge
            N[:k, k] = N[:k, p]
            N[p, k] = edge
        back = np.array([rank[v] for v in range(n)])
        return D[np.ix_(back, back)], N[np.ix_(back, back)]

    @staticmethod
    def random_tree(seed, n):
        """A tree on n vertices whose names, edge order and edge directions
        are shuffled, so breadth-first rank and vertex index differ."""
        rng = random.Random(seed)
        names = [f"v{k}" for k in range(n)]
        edges = [(names[rng.randrange(k)], names[k], rng.uniform(0.05, 2.0)) for k in range(1, n)]
        edges = [(v, u, l) if rng.random() < 0.5 else (u, v, l) for u, v, l in edges]
        rng.shuffle(names)
        rng.shuffle(edges)
        return cf.MetricTree(tuple(names), tuple(edges))

    def test_tables_match_rank_order_and_walk_every_path(self, caterpillar):
        shuffled = self.random_tree(seed=7, n=60)
        assert [vertex for vertex, _, _ in shuffled._bfs()] != list(range(60))
        for tree in (self.ORDER_SENSITIVE, caterpillar.tree, shuffled):
            D, N = tree._bfs_tables
            want_D, want_N = self.rank_order_tables(tree)
            assert D.dtype == want_D.dtype and D.tobytes() == want_D.tobytes()
            assert N.dtype == want_N.dtype and N.tobytes() == want_N.tobytes()
            V, ends = len(tree.vertices), tree.edge_ends
            for i, j in itertools.product(range(V), repeat=2):
                p, steps = i, 0
                while p != j:
                    u, v, _ = ends[N.item(p, j)]
                    assert p in (u, v)
                    p, steps = (v if p == u else u), steps + 1
                    assert steps <= V - 1

    def test_tables_hold_each_entry_once(self):
        # Building the tables keeps D and N and nothing of their size beside.
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        )
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        doc = workloads.big_tree_config(1)["instances"][0]["space"]
        tree = space_from_json(doc).tree
        tracemalloc.start()
        try:
            D, N = tree._bfs_tables
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        budget = 1.25 * (D.nbytes + N.nbytes)
        assert D.shape == (320, 320)
        assert peak <= budget and retained <= budget


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


def scalar_rows(space, P, Q, t):
    """_interpolate one row at a time, packed: what _interp_rows must equal."""
    P, Q, t = np.broadcast_arrays(P, Q, t)
    pairs = zip(map(space._payload, P), map(space._payload, Q))
    return space._pack([space._interpolate(a, b, s) for (a, b), s in zip(pairs, t.tolist())])


def assert_same_rows(got, want):
    """Equal rows, every field to the bit (tolist alone equates 0.0 and -0.0)."""
    assert got.tolist() == want.tolist()
    assert got.tobytes() == want.tobytes()


def canonical_rows(space, rows):
    return space._pack([space._canonical(space._payload(row)) for row in rows])


class TestInterpRows:
    """TreeSpace._interp_rows walks every row's route in lockstep and must
    give each row the bits of the scalar _interpolate, in canonical form."""

    T = (0.0, 0.1, 0.25, 1.0 / 3.0, 0.5, 0.75, 1.0)

    def test_vertex_points(self, tripod_space, caterpillar):
        for space in (tripod_space, caterpillar):
            V = space._pack([space.vertex(v).payload for v in space.tree.vertices])
            P, Q = (np.array(rows) for rows in zip(*itertools.product(V, repeat=2)))
            for t in self.T:
                got = space._interp_rows(P, Q, t)
                assert_same_rows(got, scalar_rows(space, P, Q, t))
                assert_same_rows(got, canonical_rows(space, got))

    def test_midpoint_of_two_legs_is_the_canonical_center(self, tripod_space):
        # A and B on legs 0 and 1: halfway is O, which sits on leg 0.
        tri = tripod_space
        A, B = (tri._pack([tri.vertex(v).payload]) for v in "AB")
        got = tri._interp_rows(A, B, 0.5)
        assert got.tolist() == tri._pack([tri.vertex("O").payload]).tolist()
        assert got["edge"].tolist() == [0] and got["du"].tolist() == [0.0]

    def test_pairs_on_a_shared_edge(self, caterpillar):
        # B sits on edge 0 (canonical), so it shares that edge with A and
        # with interior points of A--B; edge 3 holds points beyond B.
        sp = caterpillar
        payloads = [(0, 0.0), (0, 0.5), (0, 1.25), (0, 2.0), (3, 0.0), (3, 1.5), (3, 3.0)]
        pts = sp._pack([sp._canonical(p) for p in payloads])
        P, Q = (np.array(rows) for rows in zip(*itertools.product(pts, repeat=2)))
        assert (P["edge"] == Q["edge"]).sum() > len(payloads)
        for t in self.T:
            got = sp._interp_rows(P, Q, t)
            assert_same_rows(got, scalar_rows(sp, P, Q, t))
            assert_same_rows(got, canonical_rows(sp, got))

    def test_t_at_the_ends(self, tripod_space, caterpillar):
        # At t = 1 the walk's sequential subtractions can leave more than the
        # last arc, which _interpolate cuts to it: from B to this point the
        # uncut offset would be 0.4030927323372038.
        tri = tripod_space
        B, q = tri._pack([tri.vertex("B").payload]), tri._pack([(0, 0.40309273233720366)])
        assert tri._interp_rows(B, q, 1.0).tolist() == q.tolist()
        for space in (tripod_space, caterpillar):
            rng = random.Random(41)
            V = space._pack([space.vertex(v).payload for v in space.tree.vertices])
            P = np.concatenate([space._sample_rows(rng, 200), np.repeat(V, 50)])
            Q = space._sample_rows(rng, len(P))
            for t in (0.0, 1.0):
                assert_same_rows(space._interp_rows(P, Q, t), scalar_rows(space, P, Q, t))

    def test_equal_length_routes_on_the_tripod(self, tripod_space):
        # a one ulp short of A, b at B: all four endpoint routes (out through
        # O or through A and back over the ulp, in at O or at B) sum to 2.0,
        # and their walks round differently.  Rows take the first least, as
        # _route does.
        tri = tripod_space
        a, b = (0, 1.0 - 2.0**-53), tri.vertex("B").payload
        ends = tri.tree.edge_ends
        D = tri.tree._bfs_tables[0]
        routes = [
            (da + db) + D.item(pa, pb)
            for pa, da in ((ends[0][0], a[1]), (ends[0][1], 1.0 - a[1]))
            for pb, db in ((ends[1][0], b[1]), (ends[1][1], 1.0 - b[1]))
        ]
        assert routes == [2.0] * 4
        t = np.array([0.1, 0.25, 0.5, 0.6, 0.7])
        P, Q = tri._pack([a]), tri._pack([b])
        want = [(0, 0.7999999999999998), (0, 0.4999999999999999), (1, 1.1102230246251565e-16),
                (1, 0.20000000000000007), (1, 0.4)]
        assert [tri._interpolate(a, b, s) for s in t.tolist()] == want
        assert_same_rows(tri._interp_rows(P, Q, t), tri._pack(want))

    def test_broadcasts_one_pair_over_many_t(self, caterpillar):
        sp = caterpillar
        a, b = sp._pack([(0, 0.5)]), sp._pack([(3, 1.0)])
        t = np.arange(1, 40) / 40
        assert_same_rows(sp._interp_rows(a, b, t), scalar_rows(sp, a, b, t))
        assert sp._interp_rows(a[:0], b[:0], 0.5).shape == (0,)


@st.composite
def random_trees(draw):
    """A tree on 2-8 vertices, each attached to an earlier one."""
    n = draw(st.integers(2, 8))
    lengths = st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.0, 2.5]) | st.floats(0.01, 10.0)
    edges = tuple(
        (f"v{draw(st.integers(0, k - 1))}", f"v{k}", draw(lengths)) for k in range(1, n)
    )
    return cf.TreeSpace(cf.MetricTree(tuple(f"v{k}" for k in range(n)), edges))


def tree_points(space, draw, count):
    """Packed canonical points: vertices, ends of edges, one ulp inside them,
    and interior points."""
    fractions = st.sampled_from([0.0, 1.0, 0.5]) | st.floats(0.0, 1.0)
    payloads = []
    for _ in range(count):
        edge = draw(st.integers(0, len(space.tree.edges) - 1))
        length = space.tree.edges[edge][2]
        offset = min(length * draw(fractions), length)
        if draw(st.booleans()):
            offset = math.nextafter(offset, draw(st.sampled_from([0.0, length])))
        payloads.append(space._canonical((edge, offset)))
    return space._pack(payloads)


class TestRowProperties:
    """On random trees, every row a tree row kernel returns is canonical and
    has the bits of the scalar result."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_interp_rows(self, data):
        space = data.draw(random_trees())
        P, Q = tree_points(space, data.draw, 12), tree_points(space, data.draw, 12)
        t = np.array(data.draw(st.lists(
            st.sampled_from([0.0, 1.0, 0.5]) | st.floats(0.0, 1.0), min_size=12, max_size=12,
        )))
        got = space._interp_rows(P, Q, t)
        assert_same_rows(got, canonical_rows(space, got))
        assert_same_rows(got, scalar_rows(space, P, Q, t))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_segment_and_subtree_rows(self, data):
        space = data.draw(random_trees())
        ends = tree_points(space, data.draw, 2)
        a, b = (cf.Point(space, space._payload(row)) for row in ends)
        # v0..vk induce a connected subtree: each vertex hangs from an earlier one.
        k = data.draw(st.integers(0, len(space.tree.vertices) - 1))
        sets_ = [cf.TreeSegment(space, a, b), cf.Subtree(space, tuple(f"v{i}" for i in range(k + 1)))]
        P = tree_points(space, data.draw, 12)
        for cset in sets_:
            got = cset._project_rows(P)
            assert_same_rows(got, canonical_rows(space, got))
            want = space._pack([cset.project(cf.Point(space, space._payload(p))).payload for p in P])
            assert_same_rows(got, want)
