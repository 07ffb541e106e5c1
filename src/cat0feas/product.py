"""Weighted product of a space with itself, and the diagonal machinery.

For a base space (X, d) and a weight ``lam`` in (0, 1), the Cartesian square
X x X carries the metric

    D((x1,x2), (y1,y2)) = sqrt((1-lam) d(x1,y1)^2 + lam d(x2,y2)^2),

which is again geodesic (componentwise geodesics) and CAT(0) when the base is.
Averaging two self-maps on X reduces to composing two simple maps here: the
componentwise pair map followed by the metric projection onto the diagonal
{(x, x)}.  That projection has the closed form (c, c) with c = (1-lam)x1 +
lam x2, and the squared distance from any (x1, x2) to the diagonal equals
lam (1-lam) d(x1, x2)^2.

A product payload is a pair of base payloads, so every product formula calls
its base's payload primitives.  ``pair``, ``embed_diagonal``,
``extract_diagonal`` and ``lift_best_pair`` take and return Points; they make
or unwrap the base Points at that public boundary only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotDiagonalError
from .spaces import Point, Space


@dataclass(frozen=True)
class ConvexCombinationSpace(Space):
    """X x X with the lam-weighted quadratic-mean metric."""

    base: Space
    lam: float
    kind = "product"

    def __post_init__(self):
        if not 0.0 < self.lam < 1.0:
            raise DomainError(
                f"product weight must lie strictly in (0, 1), got {self.lam}"
            )

    @property
    def tolerance(self) -> float:
        return self.base.tolerance

    def _canonical(self, payload):
        first, second = payload
        return (self.base._canonical(first), self.base._canonical(second))

    def pair(self, first: Point, second: Point) -> Point:
        """Construct the product point (first, second)."""
        self.base.require_member(first)
        self.base.require_member(second)
        return Point(self, (first.payload, second.payload))

    def _distance(self, a, b):
        d1 = self.base._distance(a[0], b[0])
        d2 = self.base._distance(a[1], b[1])
        return math.sqrt((1.0 - self.lam) * d1 * d1 + self.lam * d2 * d2)

    def _interpolate(self, a, b, t):
        return (self.base._between(a[0], b[0], t), self.base._between(a[1], b[1], t))

    def _sample(self, rng, scale):
        return (self.base._sample(rng, scale), self.base._sample(rng, scale))

    def _reference(self):
        ref = self.base._reference()
        return (ref, ref)

    # Packed product points are pairs (P1, P2) of packed base points.

    def _pack(self, payloads):
        return (
            self.base._pack([a for a, _ in payloads]),
            self.base._pack([b for _, b in payloads]),
        )

    def _sample_rows(self, rng, n):
        return (self.base._sample_rows(rng, n), self.base._sample_rows(rng, n))

    def _dist_rows(self, P, Q):
        d1 = self.base._dist_rows(P[0], Q[0])
        d2 = self.base._dist_rows(P[1], Q[1])
        return np.sqrt((1.0 - self.lam) * d1 * d1 + self.lam * d2 * d2)

    def _interp_rows(self, P, Q, t):
        return (
            self.base._interp_rows(P[0], Q[0], t),
            self.base._interp_rows(P[1], Q[1], t),
        )


def embed_diagonal(cs: ConvexCombinationSpace, x: Point) -> Point:
    """The diagonal embedding x -> (x, x); it is an isometry onto the diagonal."""
    return cs.pair(x, x)


def extract_diagonal(cs: ConvexCombinationSpace, p: Point, rel_tol: float = 1e-8) -> Point:
    """Inverse of the diagonal embedding for numerically diagonal pairs.

    Accepts (x1, x2) only when d(x1, x2) <= rel_tol * (1 + d(x1, ref)); the
    scale-aware bound keeps the test meaningful far from the base point.
    """
    cs.require_member(p)
    base = cs.base
    first, second = p.payload
    gap = base._distance(first, second)
    scale = 1.0 + base._distance(first, base._reference())
    if gap > rel_tol * scale:
        raise NotDiagonalError(
            f"pair components are {gap:.3e} apart (allowed {rel_tol * scale:.3e})"
        )
    return Point(base, first)


def lift_best_pair(cs: ConvexCombinationSpace, a: Point, b: Point) -> tuple[Point, Point]:
    """Lift a base-space pair (a, b) to the product-space pair realizing the
    diagonal-to-rectangle distance: (((1-lam)a + lam b) twice, (a, b))."""
    u = cs.base.interpolate(a, b, cs.lam)
    return (cs.pair(u, u), cs.pair(a, b))


def reduction_deviations(
    cs: ConvexCombinationSpace, base_points: list[Point], product_points: list[Point]
) -> list[float]:
    """Product-metric gaps between a base iteration and its product-space twin.

    Entry n is D((x_n, x_n), p_n); the averaged iteration and its reduction
    agree exactly when both are computed with the same base arithmetic.
    """
    n = min(len(base_points), len(product_points))
    return [
        cs.distance(embed_diagonal(cs, base_points[i]), product_points[i])
        for i in range(n)
    ]
