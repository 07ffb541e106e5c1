"""Finite metric trees: an exact, nonlinear CAT(0) space.

A tree is a connected acyclic graph with positive edge lengths.  Points live
on edges as ``(edge_index, offset)`` with the offset measured from the edge's
first vertex.  Distances and geodesics are computed by exact path arithmetic,
so projections and iteration residuals on trees carry no discretization error.

Canonical form: a point sitting exactly on a vertex is always represented on
the smallest-index incident edge (offset 0 if the vertex is that edge's first
endpoint, the full length otherwise), which makes structural equality decide
geometric equality.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from .errors import DomainError
from .spaces import Point, Space, _random_rows


@dataclass(frozen=True)
class MetricTree:
    """Combinatorial tree structure with positive edge lengths.

    Attributes:
        vertices: vertex identifiers (strings), unique.
        edges: triples ``(u, v, length)``; the graph must be connected and
            acyclic.
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
            if not length > 0.0:
                raise DomainError(f"edge {e} must have positive length")
            norm_edges.append((u, v, length))
        object.__setattr__(self, "edges", tuple(norm_edges))
        object.__setattr__(self, "vertices", tuple(names))
        if not self.edges:
            raise DomainError("tree needs at least one edge")
        if len(self.edges) != len(self.vertices) - 1:
            raise DomainError("edge count must be vertex count - 1 for a tree")
        if len(self._bfs(self.vertices[0])[0]) != len(self.vertices):
            raise DomainError("tree graph is not connected")

    @cached_property
    def adjacency(self) -> dict[str, list[tuple[int, str, float]]]:
        """vertex -> list of (edge_index, other_endpoint, length)."""
        adj = {v: [] for v in self.vertices}
        for i, (u, v, length) in enumerate(self.edges):
            adj[u].append((i, v, length))
            adj[v].append((i, u, length))
        return adj

    def _bfs(self, root: str):
        """Distance and predecessor maps of the vertices reachable from root."""
        dist = {root: 0.0}
        pred = {root: None}
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for _, other, length in self.adjacency[v]:
                if other not in dist:
                    dist[other] = dist[v] + length
                    pred[other] = v
                    queue.append(other)
        return dist, pred

    @cached_property
    def _bfs_tables(self):
        """Per-root distance and predecessor maps (trees here are desk scale)."""
        dist = {}
        pred = {}
        for root in self.vertices:
            dist[root], pred[root] = self._bfs(root)
        return dist, pred

    def vertex_distance(self, u: str, v: str) -> float:
        return self._bfs_tables[0][u][v]

    @cached_property
    def distance_matrix(self) -> np.ndarray:
        """D[i, j] = vertex_distance(vertices[i], vertices[j]).

        Row i is the BFS table rooted at vertex i; the tables need not be
        exactly symmetric in floating point, so D need not be either.
        """
        dist = self._bfs_tables[0]
        n = len(self.vertices)
        flat = (dist[u][v] for u in self.vertices for v in self.vertices)
        return np.fromiter(flat, dtype=float, count=n * n).reshape(n, n)

    @cached_property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each edge's first and second vertex (as indices into vertices)
        and its length."""
        index = {name: i for i, name in enumerate(self.vertices)}
        u, v, length = zip(*self.edges)
        return (
            np.array([index[name] for name in u], dtype=np.intp),
            np.array([index[name] for name in v], dtype=np.intp),
            np.array(length, dtype=float),
        )

    def vertex_path(self, u: str, v: str) -> list[str]:
        """Vertices along the unique path from u to v, inclusive."""
        pred = self._bfs_tables[1][u]
        path = [v]
        while path[-1] != u:
            path.append(pred[path[-1]])
        path.reverse()
        return path

    def edge_between(self, u: str, v: str) -> int:
        for i, other, _ in self.adjacency[u]:
            if other == v:
                return i
        raise DomainError(f"no edge between {u} and {v}")

    def incident_edges(self, v: str) -> list[int]:
        return sorted(i for i, _, _ in self.adjacency[v])


@dataclass(frozen=True)
class TreeSpace(Space):
    """A finite metric tree viewed as a geodesic space."""

    tree: MetricTree
    tolerance: ClassVar[float] = 1e-9
    kind = "metric-tree"

    # -- canonical payloads ---------------------------------------------------

    def _canonical(self, payload):
        edge, offset = payload
        edge = int(edge)
        if not 0 <= edge < len(self.tree.edges):
            raise DomainError(f"edge index {edge} out of range")
        u, v, length = self.tree.edges[edge]
        offset = float(offset)
        if not 0.0 <= offset <= length:
            raise DomainError(
                f"offset {offset} outside [0, {length}] on edge {edge}"
            )
        if offset == 0.0:
            return self._vertex_payload(u)
        if offset == length:
            return self._vertex_payload(v)
        return (edge, offset)

    def _vertex_payload(self, name):
        edge = self.tree.incident_edges(name)[0]
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
        edge, offset = p.payload
        u, v, length = self.tree.edges[edge]
        if offset == 0.0:
            return u
        if offset == length:
            return v
        return None

    # -- metric ----------------------------------------------------------------

    def _endpoint_offsets(self, payload):
        """((vertex, arc length to it), ...) for both endpoints of the edge."""
        edge, offset = payload
        u, v, length = self.tree.edges[edge]
        return ((u, offset), (v, length - offset))

    def _distance(self, a, b):
        if a[0] == b[0]:
            return abs(a[1] - b[1])
        return self._route(a, b)[0]

    def _route(self, a, b):
        """The shortest of the four endpoint routes between edge payloads:
        (length, exit vertex, entry vertex, arc to exit, arc from entry)."""
        dist = self.tree._bfs_tables[0]
        ends_b = self._endpoint_offsets(b)
        best = None
        for pa, da in self._endpoint_offsets(a):
            from_pa = dist[pa]
            for pb, db in ends_b:
                # fsum keeps the candidate sums symmetric in the arguments
                cand = math.fsum((da, from_pa[pb], db))
                if best is None or cand < best[0]:
                    best = (cand, pa, pb, da, db)
        return best

    def _pack(self, payloads):
        edge = np.array([p[0] for p in payloads], dtype=np.intp)
        offset = np.array([p[1] for p in payloads], dtype=float)
        return self._rows(edge, offset)

    def _rows(self, edge, offset):
        """Packed points at `offset` along edge `edge`, elementwise."""
        u, v, length = self.tree.edge_arrays
        P = np.empty(len(edge), dtype=_PACKED_TREE_POINT)
        P["edge"], P["u"], P["du"] = edge, u[edge], offset
        P["v"], P["dv"] = v[edge], length[edge] - offset
        return P

    def _pairwise(self, P, Q):
        return self._dist_rows(P[:, None], Q[None, :])

    def _dist_rows(self, P, Q):
        # Exactly _distance: the least of the four endpoint routes, each
        # summed with one rounding as math.fsum does, or the offset gap on a
        # shared edge.
        D = self.tree.distance_matrix
        best = None
        for pa, da in (("u", "du"), ("v", "dv")):
            for pb, db in (("u", "du"), ("v", "dv")):
                route = _sum3(P[da], D[P[pa], Q[pb]], Q[db])
                best = route if best is None else np.minimum(best, route)
        return np.where(P["edge"] == Q["edge"], np.abs(P["du"] - Q["du"]), best)

    def _interp_rows(self, P, Q, t):
        a = zip(P["edge"].tolist(), P["du"].tolist())
        b = zip(Q["edge"].tolist(), Q["du"].tolist())
        return self._pack([self._interpolate(*args) for args in zip(a, b, t.tolist())])

    def _sample_rows(self, rng, n):
        # As _sample: the edge proportional to its length, the offset uniform.
        length = self.tree.edge_arrays[2]
        ends = np.cumsum(length)
        r = _random_rows(rng, n) * ends[-1]
        edge = np.minimum(np.searchsorted(ends, r), len(length) - 1)
        offset = np.clip(r - (ends - length)[edge], 0.0, length[edge])
        return self._rows(edge, offset)

    def _interpolate(self, a, b, t):
        if a[0] == b[0]:
            edge = a[0]
            length = self.tree.edges[edge][2]
            offset = a[1] + t * (b[1] - a[1])
            return self._canonical((edge, min(max(offset, 0.0), length)))
        total, exit_v, entry_v, da, db = self._route(a, b)
        s = t * total
        # First leg: from the point to its exit vertex along its own edge.
        if s <= da:
            edge, offset = a
            u, _, length = self.tree.edges[edge]
            new_offset = offset - s if exit_v == u else offset + s
            return self._canonical((edge, min(max(new_offset, 0.0), length)))
        s -= da
        # Middle legs: whole edges along the vertex path.
        path = self.tree.vertex_path(exit_v, entry_v)
        for p, q in zip(path, path[1:]):
            edge = self.tree.edge_between(p, q)
            u, _, length = self.tree.edges[edge]
            if s <= length:
                offset = s if p == u else length - s
                return self._canonical((edge, min(max(offset, 0.0), length)))
            s -= length
        # Last leg: from the entry vertex toward the target point.
        edge, offset = b
        u, _, length = self.tree.edges[edge]
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


def _two_sum(a, b):
    """s = fl(a + b) and the exact rounding error e, so a + b = s + e."""
    s = a + b
    b_virtual = s - a
    return s, (a - (s - b_virtual)) + (b - b_virtual)


def _sum3(a, b, c):
    """Elementwise a + b + c rounded once, bit-equal to math.fsum((a, b, c))
    for nonnegative terms (path lengths here)."""
    s, e1 = _two_sum(a, b)
    t, e2 = _two_sum(s, c)
    e, e3 = _two_sum(e1, e2)
    hi, lo = _two_sum(t, e)
    # a + b + c = hi + lo + e3 exactly, and without cancellation |e3| is far
    # below an ulp of hi.  So hi is correctly rounded unless lo is exactly
    # half an ulp and e3 pushes past it; round away then, as fsum does.
    up = hi + 2.0 * lo
    past_half = ((lo > 0) & (e3 > 0)) | ((lo < 0) & (e3 < 0))
    return np.where(past_half & (up - hi == 2.0 * lo), up, hi)


def tripod(leg: float = 1.0) -> TreeSpace:
    """The 3-spider: center O with three legs of equal length to A, B, C."""
    tree = MetricTree(
        vertices=("O", "A", "B", "C"),
        edges=(("O", "A", leg), ("O", "B", leg), ("O", "C", leg)),
    )
    return TreeSpace(tree)
