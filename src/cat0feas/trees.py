"""Finite metric trees: an exact, nonlinear CAT(0) space.

A tree is a connected acyclic graph with positive edge lengths.  Points live
on edges as ``(edge_index, offset)`` with the offset measured from the edge's
first vertex.  Distances and geodesics are computed by path arithmetic on one
table of vertex distances, so projections and iteration residuals on trees
carry no discretization error.

The tables come from a single breadth-first search (`MetricTree._bfs_tables`),
one array each, indexed by vertex; scalar code reads them through ``item``.
The distance table is exactly symmetric, so the distance between two points is
one expression in the pair, (arc + arc) + vertex distance, that the scalar
``_distance`` and the batched ``_dist_rows`` evaluate alike: the same bits for
either argument order and for any block shape.

Canonical form: a point sitting exactly on a vertex is always represented on
the smallest-index incident edge (offset 0 if the vertex is that edge's first
endpoint, the full length otherwise), which makes structural equality decide
geometric equality.  ``_vertex_at`` and ``_vertex_rows`` say which vertex a
payload or a packed row sits on.

Geodesic points on packed rows (``_interp_rows``) walk every row's route in
lockstep: the route ``_route`` picks, then the first leg, whole edges through
the next-edge table and the last leg, with the scalar ``_interpolate``'s
subtractions, clamps and canonical form, so each row has the bits of the
scalar point.  The scalar code stays the path of single points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from .errors import DomainError
from .spaces import Point, Space, _gamma, _random_rows


@dataclass(frozen=True)
class MetricTree:
    """Combinatorial tree structure with positive edge lengths.

    Attributes:
        vertices: vertex identifiers (strings), unique.
        edges: triples ``(u, v, length)``; the graph must be connected and
            acyclic, each length positive and finite.  A route between two
            points sums at most twice the total length, so twice the total
            must be finite too.
    """

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, float], ...]

    def __post_init__(self):
        names = list(self.vertices)
        if len(set(names)) != len(names):
            raise DomainError("duplicate vertex ids in tree")
        if not names:
            raise DomainError("tree needs at least one vertex")
        vertex_set = set(names)
        norm_edges = []
        for e in self.edges:
            u, v, length = e
            if u not in vertex_set or v not in vertex_set:
                raise DomainError(f"edge {e} references unknown vertex")
            if u == v:
                raise DomainError(f"self-loop at vertex {u}")
            length = float(length)
            if not (length > 0.0 and math.isfinite(length)):
                raise DomainError(f"edge {e} must have a positive finite length")
            norm_edges.append((u, v, length))
        object.__setattr__(self, "edges", tuple(norm_edges))
        object.__setattr__(self, "vertices", tuple(names))
        if not self.edges:
            raise DomainError("tree needs at least one edge")
        if len(self.edges) != len(self.vertices) - 1:
            raise DomainError("edge count must be vertex count - 1 for a tree")
        total = sum(length for _, _, length in self.edges)
        if not math.isfinite(2.0 * total):
            raise DomainError(f"total edge length {total} overflows when doubled")
        if len(self._bfs()) != len(self.vertices):
            raise DomainError("tree graph is not connected")

    @cached_property
    def adjacency(self) -> dict[str, list[tuple[int, str, float]]]:
        """vertex -> list of (edge_index, other_endpoint, length)."""
        adj = {v: [] for v in self.vertices}
        for i, (u, v, length) in enumerate(self.edges):
            adj[u].append((i, v, length))
            adj[v].append((i, u, length))
        return adj

    @cached_property
    def _index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.vertices)}

    @cached_property
    def edge_ends(self) -> tuple[tuple[int, int, float], ...]:
        """Each edge's first and second vertex (as indices into vertices)
        and its length."""
        index = self._index
        return tuple((index[u], index[v], length) for u, v, length in self.edges)

    @cached_property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`edge_ends` as three arrays."""
        u, v, length = zip(*self.edge_ends)
        return np.array(u, dtype=np.intp), np.array(v, dtype=np.intp), np.array(length)

    def _bfs(self) -> list[tuple[int, int, int]]:
        """(vertex, parent, edge) as indices for each vertex reachable from
        vertices[0], in breadth-first order; the root's parent and edge are -1."""
        order = [(0, -1, -1)]
        seen = {0}
        for vertex, _, _ in order:  # the loop also visits what it appends
            for edge, other, _ in self.adjacency[self.vertices[vertex]]:
                child = self._index[other]
                if child not in seen:
                    seen.add(child)
                    order.append((child, vertex, edge))
        return order

    @cached_property
    def _bfs_tables(self):
        """Vertex distances D and next edges N from one breadth-first search.

        A vertex c found after the vertices W hangs from its parent p in W by
        an edge e of length l, and its path to each w in W runs through p.
        So D[c, w] = D[w, c] = D[p, w] + l, N[c, w] = e (the first edge from
        c toward w), and N[w, c] = N[w, p] except N[p, c] = e.  D is exactly
        symmetric, and each entry sums the positive lengths along its path.

        Returns D and N, one array each, indexed by vertex.  Scalar code reads
        them through `item`, which gives Python numbers.
        """
        order = self._bfs()
        n = len(order)
        D = np.zeros((n, n))
        N = np.full((n, n), -1, dtype=np.intp)
        found = np.array([vertex for vertex, _, _ in order])
        for k, (c, p, edge) in enumerate(order[1:], start=1):
            seen = found[:k]
            D[c, seen] = D[p, seen] + self.edges[edge][2]
            D[seen, c] = D[c, seen]
            N[c, seen] = edge
            N[seen, c] = N[seen, p]
            N[p, c] = edge
        return D, N


@dataclass(frozen=True)
class TreeSpace(Space):
    """A finite metric tree viewed as a geodesic space."""

    tree: MetricTree
    tolerance: ClassVar[float] = 1e-9
    kind = "metric-tree"

    # -- canonical payloads ---------------------------------------------------

    def _canonical(self, payload):
        edge, offset = payload
        if type(edge) is not int:
            # int() alone would truncate 1.5 to 1 and read True as 1.
            if not (isinstance(edge, np.integer) or isinstance(edge, float) and edge.is_integer()):
                raise DomainError(f"edge index must be an integer, got {edge!r}")
            edge = int(edge)
        if not 0 <= edge < len(self.tree.edges):
            raise DomainError(f"edge index {edge} out of range")
        length = self.tree.edges[edge][2]
        offset = float(offset)
        if not 0.0 <= offset <= length:
            raise DomainError(
                f"offset {offset} outside [0, {length}] on edge {edge}"
            )
        vertex = self._vertex_at((edge, offset))
        return (edge, offset) if vertex is None else self._vertex_payload(self.tree.vertices[vertex])

    def _vertex_payload(self, name):
        edge = min(i for i, _, _ in self.tree.adjacency[name])
        u, _, length = self.tree.edges[edge]
        return (edge, 0.0) if name == u else (edge, length)

    def vertex(self, name: str) -> Point:
        """The point sitting at a named vertex, in canonical form."""
        if name not in self.tree.adjacency:
            raise DomainError(f"unknown vertex {name}")
        return Point(self, self._vertex_payload(name))

    def at(self, edge: int, offset: float) -> Point:
        """Convenience constructor for the point (edge, offset)."""
        return self.point((edge, offset))

    def vertex_name(self, p: Point):
        """The vertex a point sits on, or None if it is interior to an edge."""
        vertex = self._vertex_at(p.payload)
        return None if vertex is None else self.tree.vertices[vertex]

    def _vertex_at(self, payload):
        """The index of the vertex a payload sits on, or None inside an edge."""
        edge, offset = payload
        u, v, length = self.tree.edge_ends[edge]
        return u if offset == 0.0 else v if offset == length else None

    def _vertex_rows(self, edge, offset):
        """`_vertex_at` elementwise: vertex indices, -1 inside an edge."""
        u, v, length = self.tree.edge_arrays
        return np.where(offset == 0.0, u[edge], np.where(offset == length[edge], v[edge], -1))

    # -- metric ----------------------------------------------------------------

    def _distance(self, a, b):
        if a[0] == b[0]:
            return abs(a[1] - b[1])
        return self._route(a, b)[0]

    def _route(self, a, b):
        """The shortest of the four endpoint routes between edge payloads:
        (length, exit vertex, entry vertex, arc to exit, arc from entry),
        with vertices as indices.  Each route is (arc + arc) + D[exit, entry],
        as in `_dist_rows`."""
        D = self.tree._bfs_tables[0]
        ends = self.tree.edge_ends
        ua, va, la = ends[a[0]]
        ub, vb, lb = ends[b[0]]
        best = None
        for pa, da in ((ua, a[1]), (va, la - a[1])):
            for pb, db in ((ub, b[1]), (vb, lb - b[1])):
                cand = (da + db) + D.item(pa, pb)
                if best is None or cand < best[0]:
                    best = (cand, pa, pb, da, db)
        return best

    def _pack(self, payloads):
        edge = np.array([p[0] for p in payloads], dtype=np.intp)
        offset = np.array([p[1] for p in payloads], dtype=float)
        return self._rows(edge, offset)

    def _payload(self, row):
        return (int(row["edge"]), float(row["du"]))

    def _rows(self, edge, offset):
        """Packed points at `offset` along edge `edge`, elementwise."""
        u, v, length = self.tree.edge_arrays
        P = np.empty(np.shape(edge), dtype=_PACKED_TREE_POINT)
        P["edge"], P["u"], P["du"] = edge, u[edge], offset
        P["v"], P["dv"] = v[edge], length[edge] - offset
        return P

    def _dist_rows(self, P, Q):
        # Exactly _distance: the least of the four endpoint routes, or the
        # offset gap on a shared edge.
        D = self.tree._bfs_tables[0]
        best = None
        for pa, da in (("u", "du"), ("v", "dv")):
            for pb, db in (("u", "du"), ("v", "dv")):
                route = (P[da] + Q[db]) + D[P[pa], Q[pb]]
                best = route if best is None else np.minimum(best, route)
        return np.where(P["edge"] == Q["edge"], np.abs(P["du"] - Q["du"]), best)

    _kernel_rows = _dist_rows  # the oracle ranks tree pairs by distance

    def _rounding_model(self, A, B):
        # With V vertices, a vertex distance in the table sums the at most
        # V - 1 lengths of its path, one at a time; an arc to an endpoint is an
        # offset or a length minus one, rounded once; a route (arc + arc) + D
        # rounds twice more.  So each route, and the least of them (or the
        # offset gap of a shared edge, rounded once), is x = d (1 + t) with
        # |t| <= gamma_{V+1}: error(x) = 2 gamma_{V+1} x.  The floor
        # l (1 - gamma_{V+4}) rounds three times, in the product and the
        # constant: least_value(l) = l (1 - gamma_{V+4}).
        V = len(self.tree.vertices)
        return (lambda x: 2.0 * _gamma(V + 1) * x), (lambda l: l * (1.0 - _gamma(V + 4)))

    def _interp_rows(self, P, Q, t):
        # _interpolate on every row at once, in its order of operations; P, Q
        # and t broadcast.  Each temporary holds one entry per row, so every
        # round of a walk reuses the blocks of memory of the round before.
        u, v, length = self.tree.edge_arrays
        D, N = self.tree._bfs_tables
        # Each row's route as _route picks it: argmin takes the first least of
        # the four, as _route's strict < does.
        ends_a, ends_b = ((P["u"], P["du"]), (P["v"], P["dv"])), ((Q["u"], Q["du"]), (Q["v"], Q["dv"]))
        routes = [(da + db) + D[pa, pb] for pa, da in ends_a for pb, db in ends_b]
        k = np.argmin(routes, axis=0)
        via_u, to_u = k < 2, k % 2 == 0
        exit_v, da = np.where(via_u, P["u"], P["v"]), np.where(via_u, P["du"], P["dv"])
        entry_v, db = np.where(to_u, Q["u"], Q["v"]), np.where(to_u, Q["du"], Q["dv"])
        s = t * np.choose(k, routes)
        # A shared edge, or the first leg: from the point along its own edge.
        shared = P["edge"] == Q["edge"]
        placed, edge = shared | (s <= da), P["edge"]
        offset = np.where(
            shared, P["du"] + t * (Q["du"] - P["du"]),
            np.where(exit_v == P["u"], P["du"] - s, P["du"] + s),
        )
        s = s - da
        # Middle legs: one whole edge per round, through the next-edge table,
        # for every row not yet placed and not yet at its entry vertex.
        p = exit_v
        walking = ~placed & (p != entry_v)
        while walking.any():
            e = N[p, entry_v]
            ue, le = u[e], length[e]
            from_u = p == ue
            stop = walking & (s <= le)
            edge = np.where(stop, e, edge)
            offset = np.where(stop, np.where(from_u, s, le - s), offset)
            placed, walking = placed | stop, walking & ~stop
            # s steps on for walking rows only (a row at its entry vertex keeps
            # it for the last leg); no other row's p is used again.
            s = np.where(walking, s - le, s)
            p = np.where(from_u, v[e], ue)
            walking &= p != entry_v
        # Last leg: from the entry vertex toward the target point.
        last = np.minimum(s, db)
        target = np.where(entry_v == Q["u"], last, length[Q["edge"]] - last)
        edge, offset = np.where(placed, edge, Q["edge"]), np.where(placed, offset, target)
        offset = np.minimum(np.maximum(offset, 0.0), length[edge])
        return self._canonical_rows(edge, offset)

    def _canonical_rows(self, edge, offset):
        """Packed rows of the canonical payloads of (edge, offset), elementwise,
        offsets within [0, length]: `_canonical` through per-vertex tables."""
        vertex = self._vertex_rows(edge, offset)
        at = vertex >= 0
        vertex_edge, vertex_offset = self._vertex_tables
        return self._rows(
            np.where(at, vertex_edge[vertex], edge), np.where(at, vertex_offset[vertex], offset)
        )

    @cached_property
    def _vertex_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Each vertex's canonical payload, as an edge array and an offset array."""
        edge, offset = zip(*map(self._vertex_payload, self.tree.vertices))
        return np.array(edge, dtype=np.intp), np.array(offset)

    def _sample_rows(self, rng, n):
        # As _sample: the edge proportional to its length, the offset uniform.
        length = self.tree.edge_arrays[2]
        ends = np.cumsum(length)
        r = _random_rows(rng, n) * ends[-1]
        edge = np.minimum(np.searchsorted(ends, r), len(length) - 1)
        offset = np.clip(r - (ends - length)[edge], 0.0, length[edge])
        return self._rows(edge, offset)

    def _interpolate(self, a, b, t):
        edges = self.tree.edge_ends
        if a[0] == b[0]:
            edge = a[0]
            length = edges[edge][2]
            offset = a[1] + t * (b[1] - a[1])
            return self._canonical((edge, min(max(offset, 0.0), length)))
        total, exit_v, entry_v, da, db = self._route(a, b)
        s = t * total
        # First leg: from the point to its exit vertex along its own edge.
        if s <= da:
            edge, offset = a
            u, _, length = edges[edge]
            new_offset = offset - s if exit_v == u else offset + s
            return self._canonical((edge, min(max(new_offset, 0.0), length)))
        s -= da
        # Middle legs: whole edges, following the next-edge table.
        next_edge = self.tree._bfs_tables[1]
        p = exit_v
        while p != entry_v:
            edge = next_edge.item(p, entry_v)
            u, v, length = edges[edge]
            if s <= length:
                offset = s if p == u else length - s
                return self._canonical((edge, min(max(offset, 0.0), length)))
            s -= length
            p = v if p == u else u
        # Last leg: from the entry vertex toward the target point.
        edge, offset = b
        u, _, length = edges[edge]
        s = min(s, db)
        new_offset = s if entry_v == u else length - s
        return self._canonical((edge, min(max(new_offset, 0.0), length)))

    def _sample(self, rng, scale):
        # Edge chosen proportionally to length, offset uniform along it.
        lengths = [e[2] for e in self.tree.edges]
        total = sum(lengths)
        r = rng.random() * total
        for i, length in enumerate(lengths):
            if r <= length or i == len(lengths) - 1:
                return self._canonical((i, min(r, length)))
            r -= length
        raise AssertionError("unreachable")

    def _reference(self):
        return self._vertex_payload(self.tree.vertices[0])


# A packed tree point: its edge, and each edge endpoint (a vertex index) with
# the arc length from the point to it.
_PACKED_TREE_POINT = np.dtype(
    [("edge", np.intp), ("u", np.intp), ("du", float), ("v", np.intp), ("dv", float)]
)


def tripod(leg: float = 1.0) -> TreeSpace:
    """The 3-spider: center O with three legs of equal length to A, B, C."""
    tree = MetricTree(
        vertices=("O", "A", "B", "C"),
        edges=(("O", "A", leg), ("O", "B", leg), ("O", "C", leg)),
    )
    return TreeSpace(tree)
