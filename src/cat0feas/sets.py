"""Closed geodesically convex sets with metric projections.

Each set knows its owning space and writes an exact nearest-point map on
payloads, ``_project(payload)``, which may return a member's payload itself.
``ConvexSet.project`` wraps it once for every set: it checks that x is a
point of the space and makes the Point (x itself when ``_project`` returned
its payload).  A closed convex set is the fixed-point set of its projection
and d(x, C) = d(x, P_C x), so ``ConvexSet.contains(x, tol)`` is
d(x, P_C x) <= tol in the space's own metric, for every set, and a
negative or NaN tol admits no point.  Where it makes sense a set also has a
finite grid for brute-force oracles.

A grid is a `Grid` of packed rows of the set's space, which the oracle's
``_kernel_rows`` scores; only an item read from it becomes a Point.  Each row
is a canonical payload with the bits of the point's scalar construction.

Projection routes:
  * Euclidean half-spaces and affine flats: closed forms in plain Python on
    coordinate tuples, since a numpy call on a 2-vector costs more than the
    arithmetic; numpy builds their grids (and the flat's orthonormal basis,
    once) and their packed-row projections.
  * Balls in R^n and in the disk: one cut, keeping a member and otherwise
    cutting the geodesic from the center at the radius (`_Ball`).
  * Tree segments and subtrees: exact path arithmetic (the nearest point of a
    segment sits at the arc length given by the Gromov product; the gate into
    a subtree is always one of its vertices).
  * Disk geodesic segments: the foot of the perpendicular, in closed form after
    a Mobius map puts the segment on the real axis, clamped to the ends.
  * Product rectangles: componentwise; the weighted product metric decouples.
  * Diagonal of a product: closed form (c, c) with c = (1-lam)x1 + lam x2.

``_project_rows(P)`` projects packed rows of the set's space, as
``verify-mapping`` draws them.  Every set evaluates its closed form on whole
arrays, in the scalar ``_project``'s order and with its member test
(distances and geodesic points come from the space's row kernels), and
product rectangles project each factor's rows.  Tree segments, subtrees and
disk segments give each row the bits of ``project``.
"""

from __future__ import annotations

import math
import operator
from abc import ABC, abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, GridSizeError
from .product import ConvexCombinationSpace
from .spaces import (
    DISK_MAX_NORM, REL_TOL, EuclideanSpace, Point, Space, _mobius_rows, _mobius_shift,
    _quot_rows, _total,
)
from .trees import TreeSpace

# A grid larger than this raises instead of exhausting memory.
MAX_GRID_POINTS = 2_000_000

# What a grid samples of a region: "auto" its boundary where it can, "full" all of it.
SURFACES = ("auto", "full")


@dataclass(frozen=True)
class GridSpec:
    """Finite sampling request for brute-force oracles.

    h is the target arc/lattice step.  `window` bounds unbounded Euclidean
    sets (per-dimension (lo, hi) pairs).  `surface` "auto" samples only the
    boundary of a 2-D ball, disk ball or half-space, "full" the whole region.
    No grid may hold more than MAX_GRID_POINTS points.  A step that is not
    positive and finite, an unknown surface or an infinite or NaN window bound
    raises DomainError.
    """

    h: float = 1e-3
    window: tuple[tuple[float, float], ...] | None = None
    surface: str = "auto"

    def __post_init__(self):
        if not 0.0 < self.h < math.inf:
            raise DomainError(f"grid step h must be positive and finite, got {self.h}")
        if self.surface not in SURFACES:
            raise DomainError(f"unknown surface {self.surface!r}, expected one of {SURFACES}")
        if self.window is not None and not all(math.isfinite(b) for r in self.window for b in r):
            raise DomainError(f"window bounds must be finite, got {self.window}")

    def require_window(self, dim: int) -> tuple[tuple[float, float], ...]:
        if self.window is None:
            raise DomainError("grid sampling of an unbounded set needs a window")
        win = tuple((float(lo), float(hi)) for lo, hi in self.window)
        if len(win) == 1 and dim > 1:
            win = win * dim
        if len(win) != dim:
            raise DomainError(f"window has {len(win)} ranges, space has dim {dim}")
        return win


@dataclass(frozen=True, eq=False)
class Grid(Sequence):
    """A set's grid as packed rows of `space`; an item becomes a Point when read."""

    space: Space
    rows: np.ndarray

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, i):
        return Point(self.space, self.space._payload(self.rows[operator.index(i)]))


class ConvexSet(ABC):
    """A nonempty closed convex subset of a geodesic space, its `owner`."""

    kind: str
    owner: Space

    @property
    def space(self):
        return self.owner

    @abstractmethod
    def _project(self, payload):
        """The payload of the nearest point; a member's may come back itself."""

    def contains(self, x: Point, tol: float | None = None) -> bool:
        """d(x, P_C x) <= tol, the space's tolerance if tol is None; so a
        negative or NaN tol admits no point."""
        space = self.space
        space.require_member(x)
        p = x.payload
        q = self._project(p)
        d = 0.0 if q is p else space._distance(p, q)
        return d <= (space.tolerance if tol is None else tol)

    def project(self, x: Point) -> Point:
        self.space.require_member(x)
        p = self._project(x.payload)
        return x if p is x.payload else self._point(p)

    def _point(self, p) -> Point:
        """The Point of a payload that `_project` made."""
        return Point(self.space, p)

    @abstractmethod
    def _project_rows(self, P):
        """`_project` on packed rows of the space, as arrays."""

    def grid(self, spec: GridSpec) -> Grid:
        raise DomainError(f"grid sampling not supported for {self.kind}")


# -- Euclidean sets ------------------------------------------------------------


@dataclass(frozen=True)
class Halfspace(ConvexSet):
    """{x : <normal, x> <= offset} in a Euclidean space."""

    owner: EuclideanSpace
    normal: tuple[float, ...]
    offset: float
    kind = "halfspace"

    def __post_init__(self):
        n = _finite_coords(self.normal, self.owner.dim, "halfspace normal")
        offset = float(self.offset)
        if not math.isfinite(offset):
            raise DomainError(f"halfspace offset must be finite, got {offset}")
        if not any(n):
            raise DomainError("halfspace normal must be nonzero")
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "offset", offset)
        if not math.isfinite(self._unit[1]):
            raise DomainError("halfspace offset / |normal| overflows")

    @cached_property
    def _unit(self) -> tuple[tuple[float, ...], float]:
        # Dividing by the largest |component| first keeps the norm clear of
        # overflow and of subnormal rounding.
        big = max(map(abs, self.normal))
        scaled = [c / big for c in self.normal]
        norm = math.hypot(*scaled)
        return tuple(c / norm for c in scaled), self.offset / big / norm

    def _gap(self, coords) -> float:
        u, c = self._unit
        return _total(map(operator.mul, u, coords)) - c

    def _project(self, p):
        gap = self._gap(p)
        if gap <= 0.0:
            return p
        u, _ = self._unit
        return tuple([xi - gap * ui for xi, ui in zip(p, u)])

    def _project_rows(self, P):
        # _gap on the coordinate columns sums as it does on one point.
        gap = self._gap(P.T)[:, None]
        return np.where(gap <= 0.0, P, P - gap * np.array(self._unit[0]))

    def grid(self, spec):
        win = spec.require_window(self.space.dim)
        if spec.surface == "auto":
            # The boundary hyperplane, anchored at its foot c u so that
            # axis-aligned nearest points are sampled exactly.
            u, c = self._unit
            u = np.asarray(u)
            basis = np.linalg.svd(u.reshape(1, -1), full_matrices=True)[2][1:]
            return _flat_grid(self.space, c * u, basis, win, spec)
        pts = _box_lattice(win, spec)
        # _gap on the coordinate columns sums as it does on one point.
        return Grid(self.space, pts[self._gap(pts.T) <= 0.0])


@dataclass(frozen=True)
class AffineSubspace(ConvexSet):
    """anchor + span(basis); an empty basis gives the singleton {anchor}."""

    owner: EuclideanSpace
    anchor: tuple[float, ...]
    basis: tuple[tuple[float, ...], ...]
    kind = "affine-subspace"

    def __post_init__(self):
        dim = self.owner.dim
        object.__setattr__(self, "anchor", _finite_coords(self.anchor, dim, "affine anchor"))
        rows = tuple(_finite_coords(row, dim, "affine basis vector") for row in self.basis)
        object.__setattr__(self, "basis", rows)

    @cached_property
    def _orthonormal(self) -> np.ndarray:
        """Orthonormal rows spanning the direction space (possibly empty)."""
        if not self.basis:
            return np.zeros((0, self.owner.dim))
        mat = np.asarray(self.basis, dtype=float)
        u, s, vt = np.linalg.svd(mat, full_matrices=False)
        keep = s > 1e-12 * max(s[0], 1.0)
        return vt[: int(np.count_nonzero(keep))]

    @cached_property
    def _rows(self) -> tuple[tuple[float, ...], ...]:
        return tuple(map(tuple, self._orthonormal.tolist()))

    def _project(self, p):
        a, rows = self.anchor, self._rows
        diff = [xi - ai for xi, ai in zip(p, a)]
        coefs = [_total(map(operator.mul, q, diff)) for q in rows]
        return tuple([ai + _total([c * q[j] for c, q in zip(coefs, rows)]) for j, ai in enumerate(a)])

    def _project_rows(self, P):
        # _project's sums, with a coordinate column in place of each number.
        a, rows = self.anchor, self._rows
        diff = list((P - a).T)
        coefs = [_total(map(operator.mul, q, diff)) for q in rows]
        out = np.empty_like(P)
        for j, ai in enumerate(a):
            out[:, j] = ai + _total([c * q[j] for c, q in zip(coefs, rows)])
        return out

    def grid(self, spec):
        q = self._orthonormal
        if q.shape[0] == 0:
            return Grid(self.space, np.array([self.anchor]))
        win = spec.require_window(self.space.dim)
        return _flat_grid(self.space, np.asarray(self.anchor), q, win, spec)


@dataclass(frozen=True)
class _Ball(ConvexSet):
    """The closed ball of `radius` about `center`; subclasses validate both.
    Projection keeps a member and cuts the geodesic from the center at the
    radius otherwise."""

    owner: Space
    center: tuple[float, ...] | complex
    radius: float

    def _project(self, p):
        space, c, r = self.owner, self.center, self.radius
        d = space._distance(c, p)
        return p if d <= r else space._interpolate(c, p, r / d)

    def _project_rows(self, P):
        space, r = self.owner, self.radius
        C = np.asarray(self.center)  # one packed row, broadcast against P
        d = space._dist_rows(C, P)
        # A row distance can round apart from the scalar one (numpy's arctanh
        # is not math.atanh, nor a sum of squares math.dist), by far less than
        # REL_TOL of it, so the rows that near the radius take `_project`'s
        # scalar comparison.
        inside = d <= r
        for k in np.flatnonzero(np.abs(d - r) <= REL_TOL * r):
            inside[k] = space._distance(self.center, space._payload(P[k])) <= r
        # Members keep their row; the rest are cut at the radius.  (An R^n
        # row is a coordinate vector, so the mask gains an axis for it.)
        keep = inside.reshape((-1,) + (1,) * (P.ndim - 1))
        return np.where(keep, P, space._interp_rows(C, P, r / np.maximum(d, r)))


@dataclass(frozen=True)
class EuclideanBall(_Ball):
    """Closed ball {x : |x - center| <= radius}."""

    kind = "ball"

    def __post_init__(self):
        c = _finite_coords(self.center, self.owner.dim, "ball center")
        radius = float(self.radius)
        if not (radius > 0.0 and math.isfinite(radius)):
            raise DomainError(f"ball radius must be positive and finite, got {radius}")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", radius)

    def grid(self, spec):
        center = np.asarray(self.center)
        if self.owner.dim == 2 and spec.surface == "auto":
            # Even count keeps the sampling antipodally symmetric, so axis
            # directions toward a partner set are hit exactly.
            n = _even(max(8, _steps(2.0 * math.pi * self.radius, spec.h)))
            _cap(n, "ball boundary")
            theta = 2.0 * math.pi * np.arange(n) / n
            circle = np.stack([np.cos(theta), np.sin(theta)], axis=1)
            return Grid(self.space, center + self.radius * circle)
        win = tuple(
            (c - self.radius, c + self.radius) for c in self.center
        )
        pts = _box_lattice(win, spec)
        keep = np.linalg.norm(pts - center, axis=1) <= self.radius
        return Grid(self.space, pts[keep])


# -- geodesic segments --------------------------------------------------------------


@dataclass(frozen=True)
class _Segment(ConvexSet):
    """The geodesic segment between two points; subclasses supply `_project`."""

    owner: Space
    start: Point
    end: Point

    def __post_init__(self):
        self.owner.require_member(self.start)
        self.owner.require_member(self.end)

    @cached_property
    def length(self) -> float:
        return self.owner.distance(self.start, self.end)

    def _point(self, p):
        # The ends come back as the Points the segment was built from.
        if p is self.start.payload:
            return self.start
        return self.end if p is self.end.payload else Point(self.owner, p)

    def grid(self, spec):
        a, b = self.start.payload, self.end.payload
        n = max(1, _steps(self.length, spec.h))
        _cap(n + 1, "segment")
        A, B = self.space._pack([a]), self.space._pack([b])
        if not self.length:
            return Grid(self.space, A)
        # k / n for 0 < k < n, the interior points.
        inner = self.space._interp_rows(A, B, np.arange(1, n) / n)
        return Grid(self.space, np.concatenate([A, inner, B]))


class TreeSegment(_Segment):
    """The geodesic segment between two points of a metric tree."""

    kind = "tree-segment"

    def _project(self, p):
        a, b = self.start.payload, self.end.payload
        if self.length == 0.0:
            return a
        # Arc length of the nearest point from `start`, via the Gromov product.
        d = self.owner._distance
        s = 0.5 * (d(p, a) + self.length - d(p, b))
        return self.owner._between(a, b, min(max(s / self.length, 0.0), 1.0))

    def _project_rows(self, P):
        # _project on rows: _dist_rows has the bits of _distance, the ends
        # come back at t = 0 and t = 1 as _between returns them.
        space = self.owner
        A, B = space._pack([self.start.payload]), space._pack([self.end.payload])
        length = space._dist_rows(A, B)
        if length[0] == 0.0:
            return np.repeat(A, len(P))
        s = 0.5 * (space._dist_rows(P, A) + length - space._dist_rows(P, B))
        t = np.minimum(np.maximum(s / length, 0.0), 1.0)
        out = space._interp_rows(A, B, t)
        out[t == 0.0], out[t == 1.0] = A[0], B[0]
        return out


class DiskGeodesicSegment(_Segment):
    """A geodesic segment in the Poincare disk; projection drops the
    perpendicular to its geodesic and clamps the foot to the segment."""

    kind = "disk-geodesic-segment"

    def _project(self, p):
        a, b = self.start.payload, self.end.payload
        if self.length == 0.0:
            return a
        # The isometry w -> (w - a) / (1 - conj(a) w), followed by a rotation,
        # puts the segment on [0, r] of the real axis.
        e = (b - a) / (1.0 - a.conjugate() * b)
        r = abs(e)
        rot = e / r
        z = (p - a) / (1.0 - a.conjugate() * p) / rot
        # The foot of the perpendicular from z to the real axis: the Klein
        # abscissa k = 2 Re z / (1 + |z|^2) taken back to the disk,
        # k / (1 + sqrt(1 - k^2)), with 1 - k^2 written as a product so that
        # it does not cancel.
        s = 2.0 * z.real / (1.0 + abs(z) ** 2 + abs(1.0 - z) * abs(1.0 + z))
        # The distance grows monotonically away from the foot, so clamping
        # to the ends is exact.
        if s <= 0.0:
            return a
        if s >= r:
            return b
        return _mobius_shift(a, s * rot)

    def _project_rows(self, P):
        # _project's steps in real arithmetic, each as Python's complex
        # arithmetic rounds it (a float operand counts as x + 0j).
        a, b = self.start.payload, self.end.payload
        if self.length == 0.0:
            return np.full(P.shape, a)
        e = (b - a) / (1.0 - a.conjugate() * b)
        r = abs(e)
        rot = e / r
        ar, ai, pr, pi = a.real, a.imag, P.real, P.imag
        wr, wi = _quot_rows(pr - ar, pi - ai, 1.0 - (ar * pr + ai * pi), 0.0 - (ar * pi - ai * pr))
        zr, zi = _quot_rows(wr, wi, rot.real, rot.imag)
        # abs(z) ** 2 is C's pow, which can round apart from a product;
        # float_power calls pow too.
        m1, m2 = np.hypot(1.0 - zr, 0.0 - zi), np.hypot(1.0 + zr, 0.0 + zi)
        s = 2.0 * zr / (1.0 + np.float_power(np.hypot(zr, zi), 2.0) + m1 * m2)
        foot = _mobius_rows(ar, ai, s * rot.real - 0.0 * rot.imag, s * rot.imag + 0.0 * rot.real)
        return np.where(s <= 0.0, a, np.where(s >= r, b, foot))


# -- tree sets -------------------------------------------------------------------


@dataclass(frozen=True)
class Subtree(ConvexSet):
    """The union of all edges of a tree whose endpoints lie in a vertex set.

    The vertex set must induce a connected subgraph; a single vertex is
    allowed and denotes that point alone.
    """

    owner: TreeSpace
    vertex_names: tuple[str, ...]
    kind = "subtree"

    def __post_init__(self):
        names = tuple(sorted(set(self.vertex_names)))
        if not names:
            raise DomainError("subtree needs at least one vertex")
        tree = self.owner.tree
        for v in names:
            if v not in tree.adjacency:
                raise DomainError(f"unknown vertex {v}")
        member = set(names)
        inner_edges = [
            i for i, (u, v, _) in enumerate(tree.edges) if u in member and v in member
        ]
        # An induced subgraph of a tree is a forest, so it is connected iff
        # it has one edge fewer than vertices.
        if len(inner_edges) != len(names) - 1:
            raise DomainError("subtree vertex set does not induce a connected subgraph")
        object.__setattr__(self, "vertex_names", names)
        object.__setattr__(self, "_edges_in", tuple(inner_edges))

    def _member(self, p) -> bool:
        # Membership is exact: an edge of the subtree, or one of its vertices.
        inner, member_vertex = self._member_tables
        vertex = self.owner._vertex_at(p)
        return inner.item(p[0]) or (vertex is not None and member_vertex.item(vertex))

    @cached_property
    def _vertices(self) -> tuple[tuple[int, float], ...]:
        return tuple(map(self.owner._vertex_payload, self.vertex_names))

    def _project(self, p):
        if self._member(p):
            return p
        # The path from p enters the subtree at a vertex: the nearest one (the
        # first of equally near ones).
        d = self.owner._distance
        return min(self._vertices, key=lambda v: d(p, v))

    @cached_property
    def _member_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Whether each edge, and each vertex, of the tree is in the subtree."""
        tree, names = self.owner.tree, set(self.vertex_names)
        inner = np.zeros(len(tree.edges), dtype=bool)
        inner[list(self._edges_in)] = True
        return inner, np.array([name in names for name in tree.vertices])

    def _project_rows(self, P):
        # Members by _member's rule keep their row; the rest go to the first
        # nearest of _vertices, by a running strict < minimum as min() takes it.
        inner, member_vertex = self._member_tables
        vertex = self.owner._vertex_rows(P["edge"], P["du"])
        outside = ~(inner[P["edge"]] | ((vertex >= 0) & member_vertex[vertex]))
        rest, V = P[outside], self.owner._pack(self._vertices)
        best, nearest = np.full(len(rest), np.inf), np.zeros(len(rest), dtype=np.intp)
        for k in range(len(V)):
            d = self.owner._dist_rows(rest, V[k : k + 1])
            closer = d < best
            best, nearest = np.where(closer, d, best), np.where(closer, k, nearest)
        out = P.copy()
        out[outside] = V[nearest]
        return out

    def grid(self, spec):
        lengths = [self.owner.tree.edges[i][2] for i in self._edges_in]
        counts = [max(1, _steps(length, spec.h)) for length in lengths]
        _cap(len(self.vertex_names) + sum(counts) - len(counts), "subtree")
        # Canonical vertices, then inner offsets (length k) / n, 0 < k < n.
        edge, offset = zip(*self._vertices)
        edges = np.repeat([*edge, *self._edges_in], [1] * len(edge) + [n - 1 for n in counts])
        inner = [length * np.arange(1, n) / n for length, n in zip(lengths, counts)]
        return Grid(self.owner, self.owner._rows(edges, np.concatenate([offset, *inner])))


# -- disk sets --------------------------------------------------------------------


# Distance from 0 to modulus DISK_MAX_NORM, less 1e-6 so rounded moduli stay below it.
_DISK_EXTENT = 2.0 * math.atanh(DISK_MAX_NORM) - 1e-6


@dataclass(frozen=True)
class DiskBall(_Ball):
    """Closed hyperbolic ball about a disk point."""

    kind = "disk-ball"

    def __post_init__(self):
        center = self.owner._canonical(self.center)
        limit = _DISK_EXTENT - 2.0 * math.atanh(abs(center))
        if not 0.0 < self.radius <= limit:
            raise DomainError(f"disk ball radius {self.radius} not in (0, {limit:.6g}]")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", float(self.radius))

    def _ring(self, s: float, n: int):
        """The n points at distance s from the center at angles 2 pi k / n."""
        theta = 2.0 * math.pi * np.arange(n) / n
        w = math.tanh(0.5 * s) * (np.cos(theta) + 1j * np.sin(theta))
        return _mobius_rows(self.center.real, self.center.imag, w.real, w.imag)

    def grid(self, spec):
        if spec.surface == "auto":
            n = _even(max(8, _steps(2.0 * math.pi * math.sinh(self.radius), spec.h)))
            _cap(n, "disk ball boundary")
            return Grid(self.space, self._ring(self.radius, n))
        rings = max(1, _steps(self.radius, spec.h))
        _cap(1 + 8 * rings, "disk ball")  # every ring has at least 8 points
        radii = [self.radius * k / rings for k in range(1, rings + 1)]
        counts = [_even(max(8, _steps(2.0 * math.pi * math.sinh(s), spec.h))) for s in radii]
        _cap(1 + sum(counts), "disk ball")
        return Grid(self.space, np.concatenate([[self.center], *map(self._ring, radii, counts)]))


# -- product sets -----------------------------------------------------------------


@dataclass(frozen=True)
class ProductRectangle(ConvexSet):
    """A x B inside a weighted product space; projection decouples."""

    owner: ConvexCombinationSpace
    first: ConvexSet
    second: ConvexSet
    kind = "product-rectangle"

    def __post_init__(self):
        if self.first.space != self.owner.base or self.second.space != self.owner.base:
            raise DomainError("rectangle factors must live in the product's base space")

    def _project(self, p):
        return (self.first._project(p[0]), self.second._project(p[1]))

    def _project_rows(self, P):
        return (self.first._project_rows(P[0]), self.second._project_rows(P[1]))


@dataclass(frozen=True)
class DiagonalSet(ConvexSet):
    """The diagonal {(x, x)} of a weighted product space.

    Its metric projection has the closed form (c, c) with
    c = (1-lam) x1 + lam x2, and d(p, proj p)^2 = lam (1-lam) d(x1, x2)^2.
    """

    owner: ConvexCombinationSpace
    kind = "diagonal"

    def _project(self, p):
        c = self.owner.base._between(p[0], p[1], self.owner.lam)
        return (c, c)

    def _project_rows(self, P):
        c = self.owner.base._interp_rows(P[0], P[1], self.owner.lam)
        return (c, c)


# -- helpers ------------------------------------------------------------------------


def _finite_coords(values, dim: int, what: str) -> tuple[float, ...]:
    coords = tuple(float(c) for c in values)
    if len(coords) != dim:
        raise DomainError(f"{what} has {len(coords)} coordinates, space has dim {dim}")
    if not all(map(math.isfinite, coords)):
        raise DomainError(f"{what} must be finite, got {coords}")
    return coords


def _even(n: int) -> int:
    return n + (n % 2)


def _steps(length: float, h: float) -> int:
    """ceil(length / h), or MAX_GRID_POINTS + 1 if more (length / h may be inf,
    which ceil refuses).  np.arange(start, stop, h) has _steps(stop - start, h)."""
    q = length / h
    return math.ceil(q) if q <= MAX_GRID_POINTS else MAX_GRID_POINTS + 1


def _cap(count: int, what: str) -> None:
    """Raise before a grid of `count` points is built, if that is too many."""
    if count > MAX_GRID_POINTS:
        raise GridSizeError(f"{what} grid would hold over {MAX_GRID_POINTS} points; coarsen h")


def _box_lattice(window, spec: GridSpec) -> np.ndarray:
    _cap(math.prod(_steps(hi + spec.h - lo, spec.h) for lo, hi in window), "full")
    axes = [np.arange(lo, hi + spec.h, spec.h) for lo, hi in window]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _flat_grid(space, origin, basis, window, spec: GridSpec) -> Grid:
    """Lattice of step h through `origin` on origin + span(basis), clipped to
    the window; the rows of `basis` are orthonormal."""
    radius = math.hypot(*(max(abs(lo), abs(hi)) for lo, hi in window))
    _cap((2 * _steps(radius + spec.h, spec.h) - 1) ** len(basis), "flat")
    half = np.arange(0.0, radius + spec.h, spec.h)
    steps = np.concatenate([-half[:0:-1], half])
    mesh = np.meshgrid(*([steps] * len(basis)), indexing="ij")
    # A 0-dimensional flat (the boundary of a half-line) is its origin alone.
    params = np.stack([m.ravel() for m in mesh], axis=1) if mesh else np.zeros((1, 0))
    coords = origin + params @ basis
    lo, hi = np.array(window).T
    return Grid(space, coords[np.all((coords >= lo - 1e-12) & (coords <= hi + 1e-12), axis=1)])
