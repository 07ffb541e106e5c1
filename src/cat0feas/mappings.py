"""Self-maps built from projections, and the nonexpansivity checkers.

Mappings are immutable callables tagged with their space.  Each writes its
formula on payloads, as ``_step(payload) -> payload``, and ``Mapping.__call__``
is the one wrapper that checks membership and makes the Point (or returns x
itself when the step returned its payload).  Constructors cover metric
projections, composition, pointwise convex combination (the averaged map
``(1-lam) T1 + lam T2`` steps to the geodesic point between the two images),
identity, constants, the componentwise pair map on a product space, and the
diagonal projection.

The maps that ``verify-mapping`` samples (projections, pair maps, convex
combinations and the identity) also map packed rows of their space with
``_rows(P)``, through each set's ``_project_rows`` and the space's row
kernels; ``spaces._p2`` and ``spaces._firmly_nonexpansive`` judge the images.

The checkers return a ``spaces.CheckResult``: the verdict, the signed
residual and the scale the residual is judged against, as the curvature
checks do (a residual passes when it is at most REL_TOL times its scale):

  * firm nonexpansivity: d(Tx,Ty) <= d((1-t)x + tTx, (1-t)y + tTy) on a t-grid
    (``spaces.FN_T_GRID`` by default);
  * the quadratic variant ("property (P2)"):
      2 d^2(Tx,Ty) <= d^2(x,Ty) + d^2(y,Tx) - d^2(x,Tx) - d^2(y,Ty),
    which every metric projection in a CAT(0) space satisfies.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from .errors import DomainError
from .product import ConvexCombinationSpace
from .sets import ConvexSet, DiagonalSet
from .spaces import FN_T_GRID, CheckResult, Point, Space, _firmly_nonexpansive, _p2, _result


class Mapping(ABC):
    """An evaluable self-map of a space."""

    kind: str

    @property
    @abstractmethod
    def space(self) -> Space: ...

    @abstractmethod
    def _step(self, payload):
        """The payload of the image; a fixed payload may come back itself."""

    def __call__(self, x: Point) -> Point:
        space = self.space
        space.require_member(x)
        p = self._step(x.payload)
        return x if p is x.payload else Point(space, p)


@dataclass(frozen=True)
class ProjectionMap(Mapping):
    """Metric projection onto a convex set."""

    target: ConvexSet
    kind = "projection"

    @property
    def space(self):
        return self.target.space

    def _step(self, p):
        return self.target._project(p)

    def _rows(self, P):
        return self.target._project_rows(P)


@dataclass(frozen=True)
class ComposeMap(Mapping):
    """outer after inner."""

    outer: Mapping
    inner: Mapping
    kind = "compose"

    def __post_init__(self):
        if self.outer.space != self.inner.space:
            raise DomainError("composed mappings must share a space")

    @property
    def space(self):
        return self.outer.space

    def _step(self, p):
        return self.outer._step(self.inner._step(p))


@dataclass(frozen=True)
class ConvexCombinationMap(Mapping):
    """x -> (1-lam) T1(x) + lam T2(x), the geodesic point between the images."""

    first: Mapping
    second: Mapping
    lam: float
    kind = "convex-combination"

    def __post_init__(self):
        if self.first.space != self.second.space:
            raise DomainError("combined mappings must share a space")
        if not 0.0 < self.lam < 1.0:
            raise DomainError(f"combination weight must be in (0, 1), got {self.lam}")

    @property
    def space(self):
        return self.first.space

    def _step(self, p):
        return self.space._between(self.first._step(p), self.second._step(p), self.lam)

    def _rows(self, P):
        return self.space._interp_rows(self.first._rows(P), self.second._rows(P), self.lam)


@dataclass(frozen=True)
class IdentityMap(Mapping):
    owner: Space
    kind = "identity"

    @property
    def space(self):
        return self.owner

    def _step(self, p):
        return p

    def _rows(self, P):
        return P


@dataclass(frozen=True)
class ConstantMap(Mapping):
    value: Point
    kind = "constant"

    @property
    def space(self):
        return self.value.space

    def _step(self, p):
        return self.value.payload


@dataclass(frozen=True)
class PairMap(Mapping):
    """(x1, x2) -> (T1 x1, T2 x2) on a weighted product space.

    When T1 and T2 are projections onto A and B this is exactly the projection
    onto the rectangle A x B.
    """

    owner: ConvexCombinationSpace
    first: Mapping
    second: Mapping
    kind = "pair-map"

    def __post_init__(self):
        if self.first.space != self.owner.base or self.second.space != self.owner.base:
            raise DomainError("pair map factors must act on the product's base space")

    @property
    def space(self):
        return self.owner

    def _step(self, p):
        return (self.first._step(p[0]), self.second._step(p[1]))

    def _rows(self, P):
        return (self.first._rows(P[0]), self.second._rows(P[1]))


def diagonal_projection(cs: ConvexCombinationSpace) -> ProjectionMap:
    """The metric projection onto the diagonal of a product space."""
    return ProjectionMap(DiagonalSet(cs))


def averaged_projections(set_a: ConvexSet, set_b: ConvexSet, lam: float) -> ConvexCombinationMap:
    """The averaged-projection map (1-lam) P_A + lam P_B."""
    return ConvexCombinationMap(ProjectionMap(set_a), ProjectionMap(set_b), lam)


def fixed_point_residual(mapping: Mapping, x: Point) -> float:
    """d(x, Tx); zero exactly at fixed points."""
    return mapping.space.distance(x, mapping(x))


def check_p2(mapping: Mapping, x: Point, y: Point) -> CheckResult:
    """The quadratic firm-nonexpansivity inequality at (x, y): the residual
    2 d^2(Tx,Ty) - [d^2(x,Ty) + d^2(y,Tx) - d^2(x,Tx) - d^2(y,Ty)] is nonpositive
    when the mapping satisfies it; its scale is the sum of the five terms."""
    tx, ty = mapping(x), mapping(y)
    d = mapping.space._distance
    return _result(*_p2(d, x.payload, y.payload, tx.payload, ty.payload), None)


def check_firmly_nonexpansive(
    mapping: Mapping, x: Point, y: Point, t_grid=FN_T_GRID
) -> CheckResult:
    """Firm nonexpansivity at (x, y): the residual is the max over the t-grid of
    d(Tx,Ty) - d((1-t)x + tTx, (1-t)y + tTy), of degree 1 in distances, so its
    scale is the two distances of the worst term.  The default grid leaves out
    t = 1, whose term is 0 for every map, so the residual reports how firmly
    the map contracts."""
    space = mapping.space
    tx, ty = mapping(x).payload, mapping(y).payload
    worst, scale = _firmly_nonexpansive(
        space._distance, x.payload, y.payload, tx, ty, between=space._between, t_grid=t_grid
    )
    return _result(float(worst), float(scale), None)
