"""Closed geodesically convex sets with metric projections.

Each set knows its owning space and provides membership, an exact
nearest-point map, seeded member sampling, and (where it makes sense) finite
grid sampling for brute-force oracles.

Projection routes:
  * Euclidean half-spaces, affine flats and balls: closed forms in plain
    Python on coordinate tuples, since a numpy call on a 2-vector costs more
    than the arithmetic; numpy builds only their grids (and the flat's
    orthonormal basis, once).
  * Tree segments and subtrees: exact path arithmetic (the nearest point of a
    segment sits at the arc length given by the Gromov product; the gate into
    a subtree is always one of its vertices).
  * Disk balls: exact, by cutting the geodesic to the center at the radius.
  * Disk geodesic segments: the foot of the perpendicular, in closed form after
    a Mobius map puts the segment on the real axis, clamped to the ends.
  * Product rectangles: componentwise; the weighted product metric decouples.
  * Diagonal of a product: closed form (c, c) with c = (1-lam)x1 + lam x2.
"""

from __future__ import annotations

import cmath
import math
import operator
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError
from .product import ConvexCombinationSpace
from .spaces import EuclideanSpace, PoincareDiskSpace, Point, Space
from .trees import TreeSpace

# A grid larger than this raises instead of exhausting memory.
MAX_GRID_POINTS = 2_000_000


@dataclass(frozen=True)
class GridSpec:
    """Finite sampling request for brute-force oracles.

    h is the target arc/lattice step.  `window` bounds unbounded Euclidean
    sets (per-dimension (lo, hi) pairs).  `surface` selects full-region or
    boundary-only sampling; "auto" lets each set pick the cheapest faithful
    option (boundary for 2-D regions, full for 1-D sets).  No grid may hold
    more than MAX_GRID_POINTS points.
    """

    h: float = 1e-3
    window: tuple[tuple[float, float], ...] | None = None
    surface: str = "auto"

    def require_window(self, dim: int) -> tuple[tuple[float, float], ...]:
        if self.window is None:
            raise DomainError("grid sampling of an unbounded set needs a window")
        win = tuple((float(lo), float(hi)) for lo, hi in self.window)
        if len(win) == 1 and dim > 1:
            win = win * dim
        if len(win) != dim:
            raise DomainError(f"window has {len(win)} ranges, space has dim {dim}")
        return win


class ConvexSet(ABC):
    """A nonempty closed convex subset of a geodesic space."""

    kind: str

    @property
    @abstractmethod
    def space(self): ...

    @abstractmethod
    def contains(self, x: Point, tol: float | None = None) -> bool: ...

    @abstractmethod
    def project(self, x: Point) -> Point: ...

    def sample(self, rng, scale: float = 2.0) -> Point:
        """A member point; default draws an ambient point and projects it."""
        return self.project(self.space.random_point(rng, scale))

    def grid(self, spec: GridSpec) -> list[Point]:
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

    @property
    def space(self):
        return self.owner

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
        return sum(map(operator.mul, u, coords)) - c

    def contains(self, x, tol=None):
        self.space.require_member(x)
        tol = self.space.tolerance if tol is None else tol
        return self._gap(x.payload) <= tol

    def project(self, x):
        self.owner.require_member(x)
        gap = self._gap(x.payload)
        if gap <= 0.0:
            return x
        u, _ = self._unit
        return Point(self.owner, tuple([xi - gap * ui for xi, ui in zip(x.payload, u)]))

    def grid(self, spec):
        win = spec.require_window(self.space.dim)
        if spec.surface in ("auto", "boundary"):
            # The boundary hyperplane, anchored at its foot c u so that
            # axis-aligned nearest points are sampled exactly.
            u, c = self._unit
            u = np.asarray(u)
            basis = np.linalg.svd(u.reshape(1, -1), full_matrices=True)[2][1:]
            return _flat_grid(self.space, c * u, basis, win, spec)
        pts = map(tuple, _box_lattice(win, spec).tolist())
        return [Point(self.space, p) for p in pts if self._gap(p) <= 0.0]


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

    @property
    def space(self):
        return self.owner

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

    def project(self, x):
        self.owner.require_member(x)
        a, rows = self.anchor, self._rows
        diff = [xi - ai for xi, ai in zip(x.payload, a)]
        coefs = [sum(map(operator.mul, q, diff)) for q in rows]
        coords = [ai + sum([c * q[j] for c, q in zip(coefs, rows)]) for j, ai in enumerate(a)]
        return Point(self.owner, tuple(coords))

    def contains(self, x, tol=None):
        tol = self.space.tolerance if tol is None else tol
        return self.space.distance(x, self.project(x)) <= tol

    def grid(self, spec):
        q = self._orthonormal
        if q.shape[0] == 0:
            return [Point(self.space, self.anchor)]
        win = spec.require_window(self.space.dim)
        return _flat_grid(self.space, np.asarray(self.anchor), q, win, spec)


@dataclass(frozen=True)
class EuclideanBall(ConvexSet):
    """Closed ball {x : |x - center| <= radius}."""

    owner: EuclideanSpace
    center: tuple[float, ...]
    radius: float
    kind = "ball"

    def __post_init__(self):
        c = _finite_coords(self.center, self.owner.dim, "ball center")
        radius = float(self.radius)
        if not (radius > 0.0 and math.isfinite(radius)):
            raise DomainError(f"ball radius must be positive and finite, got {radius}")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", radius)

    @property
    def space(self):
        return self.owner

    def project(self, x):
        # The same norm as `contains`, so members come back unchanged.
        self.owner.require_member(x)
        c = self.center
        norm = math.dist(x.payload, c)
        if norm <= self.radius:
            return x
        s = self.radius / norm
        return Point(self.owner, tuple([ci + s * (xi - ci) for xi, ci in zip(x.payload, c)]))

    def contains(self, x, tol=None):
        self.space.require_member(x)
        tol = self.space.tolerance if tol is None else tol
        return math.dist(x.payload, self.center) <= self.radius + tol

    def sample(self, rng, scale: float = 2.0):
        direction = [rng.gauss(0.0, 1.0) for _ in range(self.owner.dim)]
        norm = math.hypot(*direction) or 1.0
        s = self.radius * rng.random() ** (1.0 / self.owner.dim) / norm
        return Point(self.owner, tuple([ci + s * di for ci, di in zip(self.center, direction)]))

    def grid(self, spec):
        if self.owner.dim == 2 and spec.surface in ("auto", "boundary"):
            # Even count keeps the sampling antipodally symmetric, so axis
            # directions toward a partner set are hit exactly.
            n = _even(max(8, math.ceil(2.0 * math.pi * self.radius / spec.h)))
            cx, cy = self.center
            return [
                Point(
                    self.space,
                    (
                        cx + self.radius * math.cos(2.0 * math.pi * k / n),
                        cy + self.radius * math.sin(2.0 * math.pi * k / n),
                    ),
                )
                for k in range(n)
            ]
        win = tuple(
            (c - self.radius, c + self.radius) for c in self.center
        )
        pts = _box_lattice(win, spec)
        center = np.asarray(self.center)
        keep = np.linalg.norm(pts - center, axis=1) <= self.radius
        return [Point(self.space, tuple(map(float, p))) for p in pts[keep]]


# -- geodesic segments --------------------------------------------------------------


@dataclass(frozen=True)
class _Segment(ConvexSet):
    """The geodesic segment between two points; subclasses supply `project`."""

    owner: Space
    start: Point
    end: Point

    def __post_init__(self):
        self.owner.require_member(self.start)
        self.owner.require_member(self.end)

    @property
    def space(self):
        return self.owner

    @cached_property
    def length(self) -> float:
        return self.owner.distance(self.start, self.end)

    def contains(self, x, tol=None):
        self.space.require_member(x)
        tol = self.space.tolerance if tol is None else tol
        detour = (
            self.space.distance(x, self.start)
            + self.space.distance(x, self.end)
            - self.length
        )
        return detour <= tol

    def sample(self, rng, scale: float = 2.0):
        return self.space.interpolate(self.start, self.end, rng.random())

    def grid(self, spec):
        if self.length == 0.0:
            return [self.start]
        n = max(1, math.ceil(self.length / spec.h))
        return [
            self.space.interpolate(self.start, self.end, k / n) for k in range(n + 1)
        ]


class TreeSegment(_Segment):
    """The geodesic segment between two points of a metric tree."""

    kind = "tree-segment"

    def project(self, x):
        self.space.require_member(x)
        if self.length == 0.0:
            return self.start
        # Arc length of the nearest point from `start`, via the Gromov product.
        s = 0.5 * (
            self.space.distance(x, self.start)
            + self.length
            - self.space.distance(x, self.end)
        )
        t = min(max(s / self.length, 0.0), 1.0)
        return self.space.interpolate(self.start, self.end, t)


class DiskGeodesicSegment(_Segment):
    """A geodesic segment in the Poincare disk; projection drops the
    perpendicular to its geodesic and clamps the foot to the segment."""

    kind = "disk-geodesic-segment"

    def project(self, x):
        self.space.require_member(x)
        if self.length == 0.0:
            return self.start
        # The isometry w -> (w - a) / (1 - conj(a) w), followed by a rotation,
        # puts the segment on [0, r] of the real axis.
        a = self.start.payload
        e = (self.end.payload - a) / (1.0 - a.conjugate() * self.end.payload)
        r = abs(e)
        rot = e / r
        z = (x.payload - a) / (1.0 - a.conjugate() * x.payload) / rot
        # The foot of the perpendicular from z to the real axis: the Klein
        # abscissa k = 2 Re z / (1 + |z|^2) taken back to the disk,
        # k / (1 + sqrt(1 - k^2)), with 1 - k^2 written as a product so that
        # it does not cancel.
        s = 2.0 * z.real / (1.0 + abs(z) ** 2 + abs(1.0 - z) * abs(1.0 + z))
        # The distance grows monotonically away from the foot, so clamping
        # to the ends is exact.
        if s <= 0.0:
            return self.start
        if s >= r:
            return self.end
        return Point(self.space, _mobius_shift(a, s * rot))


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
        inner = set(inner_edges)
        # connectivity of the induced subgraph
        reach = {names[0]}
        frontier = [names[0]]
        while frontier:
            v = frontier.pop()
            for i, other, _ in tree.adjacency[v]:
                if i in inner and other in member and other not in reach:
                    reach.add(other)
                    frontier.append(other)
        if reach != member:
            raise DomainError("subtree vertex set does not induce a connected subgraph")
        object.__setattr__(self, "vertex_names", names)
        object.__setattr__(self, "_edges_in", tuple(inner_edges))

    @property
    def space(self):
        return self.owner

    def contains(self, x, tol=None):
        self.space.require_member(x)
        edge, _ = x.payload
        if edge in self._edges_in:
            return True
        at_vertex = self.owner.vertex_name(x)
        return at_vertex is not None and at_vertex in self.vertex_names

    def project(self, x):
        if self.contains(x):
            return x
        # The path from x enters the subtree at a vertex: the nearest one.
        best = None
        for name in self.vertex_names:
            d = self.space.distance(x, self.owner.vertex(name))
            if best is None or d < best[0]:
                best = (d, name)
        return self.owner.vertex(best[1])

    def sample(self, rng, scale: float = 2.0):
        if not self._edges_in:
            return self.owner.vertex(self.vertex_names[0])
        lengths = [self.owner.tree.edges[i][2] for i in self._edges_in]
        r = rng.random() * sum(lengths)
        for i, length in zip(self._edges_in, lengths):
            if r <= length:
                return self.owner.at(i, min(r, length))
            r -= length
        return self.owner.at(self._edges_in[-1], lengths[-1])

    def grid(self, spec):
        points = [self.owner.vertex(v) for v in self.vertex_names]
        for i in self._edges_in:
            length = self.owner.tree.edges[i][2]
            n = max(1, math.ceil(length / spec.h))
            points.extend(self.owner.at(i, length * k / n) for k in range(1, n))
        return points


# -- disk sets --------------------------------------------------------------------


def _mobius_shift(c: complex, w: complex) -> complex:
    """The disk isometry sending 0 to c, applied to w."""
    return (w + c) / (1.0 + c.conjugate() * w)


@dataclass(frozen=True)
class DiskBall(ConvexSet):
    """Closed hyperbolic ball; projection cuts the geodesic to the center."""

    owner: PoincareDiskSpace
    center: complex
    radius: float
    kind = "disk-ball"

    def __post_init__(self):
        center = self.owner._canonical(self.center)
        if not self.radius > 0.0:
            raise DomainError("disk ball radius must be positive")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", float(self.radius))

    @property
    def space(self):
        return self.owner

    @cached_property
    def _center_point(self):
        return Point(self.owner, self.center)

    def project(self, x):
        self.space.require_member(x)
        d = self.space.distance(self._center_point, x)
        if d <= self.radius:
            return x
        return self.space.interpolate(self._center_point, x, self.radius / d)

    def contains(self, x, tol=None):
        self.space.require_member(x)
        tol = self.space.tolerance if tol is None else tol
        return self.space.distance(self._center_point, x) <= self.radius + tol

    def sample(self, rng, scale: float = 2.0):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        s = self.radius * math.sqrt(rng.random())
        w = math.tanh(0.5 * s) * cmath.exp(1j * theta)
        return Point(self.space, _mobius_shift(self.center, w))

    def boundary_points(self, n: int) -> list[Point]:
        rho = math.tanh(0.5 * self.radius)
        return [
            Point(
                self.space,
                _mobius_shift(self.center, rho * cmath.exp(2j * math.pi * k / n)),
            )
            for k in range(n)
        ]

    def grid(self, spec):
        circumference = 2.0 * math.pi * math.sinh(self.radius)
        if spec.surface in ("auto", "boundary"):
            n = _even(max(8, math.ceil(circumference / spec.h)))
            return self.boundary_points(n)
        points = [self._center_point]
        rings = max(1, math.ceil(self.radius / spec.h))
        for k in range(1, rings + 1):
            s = self.radius * k / rings
            n = _even(max(8, math.ceil(2.0 * math.pi * math.sinh(s) / spec.h)))
            rho = math.tanh(0.5 * s)
            points.extend(
                Point(
                    self.space,
                    _mobius_shift(self.center, rho * cmath.exp(2j * math.pi * j / n)),
                )
                for j in range(n)
            )
            if len(points) > MAX_GRID_POINTS:
                raise DomainError("disk ball grid exceeds MAX_GRID_POINTS; coarsen h")
        return points


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

    @property
    def space(self):
        return self.owner

    def project(self, x):
        self.space.require_member(x)
        x1, x2 = x.payload
        return Point(self.space, (self.first.project(x1), self.second.project(x2)))

    def contains(self, x, tol=None):
        self.space.require_member(x)
        x1, x2 = x.payload
        return self.first.contains(x1, tol) and self.second.contains(x2, tol)

    def sample(self, rng, scale: float = 2.0):
        return Point(self.space, (self.first.sample(rng, scale), self.second.sample(rng, scale)))


@dataclass(frozen=True)
class DiagonalSet(ConvexSet):
    """The diagonal {(x, x)} of a weighted product space.

    Its metric projection has the closed form (c, c) with
    c = (1-lam) x1 + lam x2, and d(p, proj p)^2 = lam (1-lam) d(x1, x2)^2.
    """

    owner: ConvexCombinationSpace
    kind = "diagonal"

    @property
    def space(self):
        return self.owner

    def project(self, x):
        self.space.require_member(x)
        x1, x2 = x.payload
        c = self.owner.base.interpolate(x1, x2, self.owner.lam)
        return Point(self.space, (c, c))

    def contains(self, x, tol=None):
        self.space.require_member(x)
        tol = self.space.tolerance if tol is None else tol
        x1, x2 = x.payload
        return self.owner.base.distance(x1, x2) <= tol

    def sample(self, rng, scale: float = 2.0):
        w = self.owner.base.random_point(rng, scale)
        return Point(self.space, (w, w))


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


def _box_lattice(window, spec: GridSpec) -> np.ndarray:
    axes = [np.arange(lo, hi + spec.h, spec.h) for lo, hi in window]
    count = math.prod(len(ax) for ax in axes)
    if count > MAX_GRID_POINTS:
        raise DomainError(
            f"full grid would hold {count} points (> {MAX_GRID_POINTS}); "
            "use boundary sampling or a coarser h"
        )
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _within_window(coords: np.ndarray, window) -> np.ndarray:
    keep = np.ones(len(coords), dtype=bool)
    for j, (lo, hi) in enumerate(window):
        keep &= (coords[:, j] >= lo - 1e-12) & (coords[:, j] <= hi + 1e-12)
    return keep


def _flat_grid(space, origin, basis, window, spec: GridSpec) -> list[Point]:
    """Lattice of step h through `origin` on origin + span(basis), clipped to
    the window; the rows of `basis` are orthonormal."""
    radius = math.sqrt(sum(max(abs(lo), abs(hi)) ** 2 for lo, hi in window))
    half = np.arange(0.0, radius + spec.h, spec.h)
    steps = np.concatenate([-half[:0:-1], half])
    if len(steps) ** len(basis) > MAX_GRID_POINTS:
        raise DomainError("flat grid exceeds MAX_GRID_POINTS; coarsen h")
    mesh = np.meshgrid(*([steps] * len(basis)), indexing="ij")
    params = np.stack([m.ravel() for m in mesh], axis=1)
    coords = origin + params @ basis
    inside = _within_window(coords, window)
    return [Point(space, tuple(map(float, c))) for c in coords[inside]]
