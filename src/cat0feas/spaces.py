"""Geodesic metric spaces and the quadrilateral/comparison checks that certify
nonpositive curvature.

Every space exposes the same small surface: a distance, geodesic interpolation
written as ``(1-t)x + ty``, canonical point construction, and seeded random
sampling.  Concrete spaces implemented here are Euclidean R^n and the Poincare
disk (curvature -1); finite metric trees live in :mod:`cat0feas.trees` and the
weighted product construction in :mod:`cat0feas.product`.

Points are immutable values tagged with their owning space, so structural
equality is decidable and payloads can be hashed and serialized.

Batched callers and set grids work on packed arrays instead of Points.
``_pack`` turns payloads into the space's packed array (coordinate rows in
R^n, complex numbers on the disk, edge records on trees, a pair of its base's
for a product), and ``_payload`` turns one row back.  Row kernels act on such
arrays elementwise, broadcasting like numpy: ``_sample_rows(rng, n)`` draws
n points from a ``random.Random``, ``_dist_rows(P, Q)`` gives distances and
``_interp_rows(P, Q, t)`` the geodesic points (1-t)P + tQ, for one t or one
per row; ``verify-space`` and ``verify-mapping`` draw and reduce their samples
in blocks through them.  Each sampled inequality (four-point, CN, P2, firm
nonexpansivity) is written once, as a function of a distance function that
returns (residual, scale): the public checkers pass ``_distance`` and
payloads, the row checkers ``_dist_rows`` and packed rows.

A space with a grid oracle has one pair kernel ``_kernel_rows(P, Q)``,
monotone in the distance, from which ``_dist_rows`` is computed: the squared
distance summed one coordinate at a time in R^n, the Mobius quotient
tanh(d/2) on the disk, the distance itself on trees.  Its value depends only
on the pair, so it is exactly symmetric and the same for any block shape.
The best-pair oracle bounds chunks of grid rows with ``_dist_rows``, prunes
them by the rounding bounds of ``_rounding_model``, which sits next to the
kernel it describes, ranks pairs by ``_kernel_rows``, and makes Points of
the two winning rows only.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, ClassVar

import numpy as np

from .errors import DomainError, SpaceMismatchError

# Disk points must stay strictly inside the boundary; the metric diverges there.
DISK_MAX_NORM = 1.0 - 1e-9

# The Mobius quotient tanh(d / 2) of two interior disk points is below 1, but
# can round to 1 near the boundary; artanh is then taken of this instead.
_BELOW_ONE = math.nextafter(1.0, 0.0)

# Every sampled inequality is homogeneous in distances (the curvature and P2
# inequalities of degree 2, firm nonexpansivity of degree 1), so its rounding
# error scales with its terms.  A residual passes when it is at most REL_TOL
# (2^-44, 256 machine epsilons) times the sum of those terms, its scale.
REL_TOL = 2.0**-44

_UNIT = 2.0**-53  # unit roundoff of binary64

# The t-grid of the firm-nonexpansivity check.  It stops short of t = 1,
# where the term d(Tx,Ty) - d(Tx,Ty) is 0 for every map.
FN_T_GRID = (0.0, 0.25, 0.5, 0.75)


@dataclass(frozen=True, slots=True)
class Point:
    """A space-tagged element.

    The payload shape depends on the space: a coordinate tuple (Euclidean),
    an ``(edge_index, offset)`` pair (metric tree), a complex number with
    ``abs < 1`` (Poincare disk), or a pair of its base's payloads (product
    space).  Payloads hold no Points, so every formula reads them directly.
    """

    space: "Space"
    payload: Any

    def __repr__(self):
        return f"Point({self.space.kind}, {self.payload!r})"


@dataclass(frozen=True)
class CheckResult:
    """Outcome of an inequality check: verdict, signed residual, and its scale,
    the sum of the (squared) distance terms the residual was formed from."""

    ok: bool
    residual: float
    scale: float

    def __bool__(self):
        return self.ok


class Space(ABC):
    """A uniquely geodesic metric space.

    Subclasses implement the payload-level primitives; the public methods add
    membership checks and parameter validation.  ``_between`` returns a
    geodesic's endpoints exactly, for ``interpolate`` and the payload-level
    steps of sets and mappings.  The spaces shipped here also implement the
    row kernels of the module docstring.
    """

    kind: str
    tolerance: float

    # -- payload-level primitives -------------------------------------------

    @abstractmethod
    def _distance(self, a, b) -> float: ...

    @abstractmethod
    def _interpolate(self, a, b, t: float): ...

    @abstractmethod
    def _canonical(self, payload): ...

    @abstractmethod
    def _sample(self, rng, scale: float): ...

    @abstractmethod
    def _reference(self): ...

    # -- public surface ------------------------------------------------------

    def point(self, payload) -> Point:
        """Construct a canonical point of this space from a raw payload."""
        return Point(self, self._canonical(payload))

    def require_member(self, p: Point) -> None:
        if isinstance(p, Point) and (p.space is self or p.space == self):
            return
        raise SpaceMismatchError(
            f"point {p!r} does not belong to space {self.kind}"
        )

    def distance(self, x: Point, y: Point) -> float:
        # Points of this very space are the common case; require_member
        # decides the rest (equal spaces, and anything that is no Point).
        if not (type(x) is Point and type(y) is Point and x.space is self and y.space is self):
            self.require_member(x)
            self.require_member(y)
        return self._distance(x.payload, y.payload)

    def interpolate(self, x: Point, y: Point, t: float) -> Point:
        """The geodesic point (1-t)x + ty; endpoints are returned exactly."""
        if not (type(x) is Point and type(y) is Point and x.space is self and y.space is self):
            self.require_member(x)
            self.require_member(y)
        if not 0.0 <= t <= 1.0:
            raise DomainError(f"interpolation parameter {t} outside [0, 1]")
        p = self._between(x.payload, y.payload, t)
        return x if p is x.payload else y if p is y.payload else Point(self, p)

    def _between(self, a, b, t: float):
        """The payload of (1-t)a + tb for t in [0, 1]: `a` itself at t = 0 or
        when the payloads are equal, `b` itself at t = 1."""
        if t == 0.0 or a == b:
            return a
        if t == 1.0:
            return b
        return self._interpolate(a, b, t)

    def random_point(self, rng, scale: float = 1.0) -> Point:
        """A seeded random point; `scale` bounds its rough extent."""
        return Point(self, self._sample(rng, scale))

    def reference_point(self) -> Point:
        """A fixed base point, used for scale-aware tolerance comparisons."""
        return Point(self, self._reference())

    def _rounding_model(self, A, B):
        """(error, least_value) for the grid oracle's pruning on packed grids
        A, B, derived from how this space's ``_kernel_rows`` rounds.

        error(x) bounds |x - d| for a distance x that ``_dist_rows`` computed in
        place of the exact distance d of two grid points; it grows with x, so a
        chunk's true radius is at most rho + error(rho).  least_value(l) is at
        most the value ``_kernel_rows`` computes for any grid pair at exact
        distance >= l.  The derivations use u = 2^-53 and gamma_n as in
        `_gamma`.  A space without a grid oracle raises."""
        raise DomainError(f"no grid oracle for {self.kind} spaces")


@dataclass(frozen=True)
class EuclideanSpace(Space):
    """R^dim with the Euclidean metric; geodesics are straight segments."""

    dim: int
    tolerance: ClassVar[float] = 1e-9
    kind = "euclidean"

    def __post_init__(self):
        if self.dim < 1:
            raise DomainError(f"euclidean dimension must be >= 1, got {self.dim}")

    def _canonical(self, payload):
        coords = tuple(float(c) for c in payload)
        if len(coords) != self.dim:
            raise DomainError(
                f"expected {self.dim} coordinates, got {len(coords)}"
            )
        if not all(map(math.isfinite, coords)):
            raise DomainError(f"coordinates {coords} are not all finite")
        return coords

    def _distance(self, a, b):
        return math.dist(a, b)

    def _interpolate(self, a, b, t):
        return tuple(ai + t * (bi - ai) for ai, bi in zip(a, b))

    def _sample(self, rng, scale):
        return tuple(rng.uniform(-scale, scale) for _ in range(self.dim))

    def _pack(self, payloads):
        return np.asarray(payloads, dtype=float)

    def _payload(self, row):
        return tuple(row.tolist())

    def _kernel_rows(self, P, Q):
        # Squared distances, one coordinate at a time.
        total = 0.0
        for k in range(self.dim):
            diff = P[..., k] - Q[..., k]
            total = total + diff * diff
        return total

    def _rounding_model(self, A, B):
        # The kernel rounds each of the n differences and squares and each of
        # the n - 1 sums of nonnegative terms, so it is d^2 (1 + t) with
        # |t| <= gamma_{n+2}; _dist_rows takes its square root, one more
        # rounding, so x = d (1 + t') with |t'| <= gamma_{n+2} as well, and
        # error(x) = 2 gamma_{n+2} x.  Squaring l, scaling it and forming the
        # constant round four times more, which gamma_{n+6} covers:
        # least_value(l) = l^2 (1 - gamma_{n+6}), zero for l <= 0.
        eta, floor = _gamma(self.dim + 2), 1.0 - _gamma(self.dim + 6)
        return (lambda x: 2.0 * eta * x), (lambda l: np.maximum(l, 0.0) ** 2 * floor)

    def _sample_rows(self, rng, n):
        return 2.0 * _random_rows(rng, n * self.dim).reshape(n, self.dim) - 1.0

    def _dist_rows(self, P, Q):
        return np.sqrt(self._kernel_rows(P, Q))

    def _interp_rows(self, P, Q, t):
        return P + np.asarray(t)[..., None] * (Q - P)

    def _reference(self):
        return (0.0,) * self.dim


def _mobius_shift(c, w):
    """The disk isometry sending 0 to c, applied to w."""
    return (w + c) / (1.0 + c.conjugate() * w)


def _quot_rows(ar, ai, br, bi):
    """(ar + i ai) / (br + i bi) on real arrays, rounded as Python's complex
    quotient rounds: Smith's method, dividing through by the larger of |br|
    and |bi|.  (numpy's complex quotient multiplies by a reciprocal instead.)"""
    by_real = np.abs(br) >= np.abs(bi)
    big, small = np.where(by_real, br, bi), np.where(by_real, bi, br)
    ratio = small / big
    denom = big + small * ratio
    return (
        np.where(by_real, ar + ai * ratio, ar * ratio + ai) / denom,
        np.where(by_real, ai - ar * ratio, ai * ratio - ar) / denom,
    )


def _mobius_rows(cr, ci, wr, wi):
    """_mobius_shift(c, w) on real arrays, c = cr + i ci and w = wr + i wi:
    (w + c) / (1 + conj(c) w), the quotient rounded as Python's."""
    sr, si = _quot_rows(wr + cr, wi + ci, 1.0 + (cr * wr + ci * wi), cr * wi - ci * wr)
    return sr + 1j * si


@dataclass(frozen=True)
class PoincareDiskSpace(Space):
    """The open unit disk with the curvature -1 hyperbolic metric.

    Payloads are complex numbers u with |u| <= 1 - 1e-9; constructing a point
    closer to the boundary raises, since distances blow up there.  Distances
    use d(u,v) = 2 artanh |(u-v)/(1 - conj(u) v)|, which is better conditioned
    near u = v than the equivalent arccosh form.
    """

    tolerance: ClassVar[float] = 1e-7
    kind = "poincare-disk"

    def _canonical(self, payload):
        if isinstance(payload, complex):
            u = payload
        else:
            x, y = payload
            u = complex(float(x), float(y))
        if not abs(u) <= DISK_MAX_NORM:  # also refuses NaN coordinates
            raise DomainError(
                f"disk point {u} has norm {abs(u):.12f} > {DISK_MAX_NORM}"
            )
        return u

    def _distance(self, a, b):
        num = abs(a - b)
        if num == 0.0:
            return 0.0
        den = abs(1.0 - a.conjugate() * b)
        delta = num / den
        if delta >= 1.0:
            delta = _BELOW_ONE
        return 2.0 * math.atanh(delta)

    def _interpolate(self, a, b, t):
        # Translate a to the origin (a Mobius isometry), move along the radial
        # geodesic by the right fraction of arc length, translate back.
        z = (b - a) / (1.0 - a.conjugate() * b)
        m = abs(z)
        if m == 0.0:
            return a
        w = math.tanh(t * math.atanh(m if m < 1.0 else _BELOW_ONE)) * (z / m)
        return _mobius_shift(a, w)

    def _sample(self, rng, scale):
        # Stay well inside the boundary so sampled distances remain O(1).
        rmax = 0.9 * min(1.0, scale)
        r = rmax * math.sqrt(rng.random())
        theta = rng.uniform(0.0, 2.0 * math.pi)
        return complex(r * math.cos(theta), r * math.sin(theta))

    def _pack(self, payloads):
        return np.asarray(payloads, dtype=complex)

    def _payload(self, row):
        return complex(row)

    def _sample_rows(self, rng, n):
        # _sample's draws in its order: the radius, then the angle.
        u, v = _random_rows(rng, 2 * n).reshape(n, 2).T
        r, theta = 0.9 * np.sqrt(u), 2.0 * math.pi * v
        return r * np.cos(theta) + 1j * (r * np.sin(theta))

    def _kernel_rows(self, P, Q):
        # _distance's Mobius quotient delta = tanh(d / 2) in real arithmetic,
        # so that it rounds as Python's complex abs and product do (numpy's
        # differ in the last bit, and artanh near 1 magnifies that bit some
        # 30 times).
        diff = P - Q
        cross_re = P.real * Q.real + P.imag * Q.imag  # conj(P) Q
        cross_im = P.real * Q.imag - P.imag * Q.real
        return np.hypot(diff.real, diff.imag) / np.hypot(1.0 - cross_re, cross_im)

    def _rounding_model(self, A, B):
        # The kernel is the Mobius quotient delta = |a - b| / |1 - conj(a) b|
        # = tanh(d / 2).  The numerator rounds as gamma_2.  The two parts of
        # conj(a) b each round two products and a sum, an error of modulus at
        # most sqrt(2) gamma_2 |a| |b| <= 3 u M^2 together, M the largest
        # modulus on the grids.  The exact 1 - conj(a) b has modulus at least
        # 1 - M^2, so that is a relative 3 u M^2 / (1 - M^2), and the
        # subtraction, hypot and the division round three times more.  So
        # delta has relative error at most 5 u + 3 u M^2 / (1 - M^2)
        # <= 5 u / (1 - M^2), and eta = gamma_6 / (1 - M^2) keeps one unit for
        # computing M^2.  Through x = 2 artanh(delta), whose slope is
        # 2 / (1 - delta^2) = 2 cosh^2(x / 2), that is at most eta sinh(x),
        # plus gamma_3 x for artanh and the clamp; twice that bounds the error
        # in both directions while 6 eta cosh^2(x / 2) <= 1, and beyond it
        # error(x) is infinite (such chunk pairs are never pruned).
        # least_value(l) = tanh(l / 2) (1 - 2 eta).
        M = max(np.abs(A).max(), np.abs(B).max())
        eta = _gamma(6) / (1.0 - M * M)

        def error(x):
            bound = 2.0 * (eta * np.sinh(x) + _gamma(3) * x)
            return np.where(6.0 * eta * np.cosh(0.5 * x) ** 2 <= 1.0, bound, np.inf)

        return error, (lambda l: np.tanh(0.5 * l) * (1.0 - 2.0 * eta))

    def _dist_rows(self, P, Q):
        delta = self._kernel_rows(P, Q)
        return 2.0 * np.arctanh(np.minimum(delta, _BELOW_ONE))

    def _interp_rows(self, P, Q, t):
        # _interpolate's steps in real arithmetic, as _kernel_rows is written:
        # z = (Q - P) / (1 - conj(P) Q), w = tanh(t artanh|z|) z / |z|, and the
        # Mobius shift (w + P) / (1 + conj(P) w), each quotient as Python's.
        pr, pi, qr, qi = P.real, P.imag, Q.real, Q.imag
        zr, zi = _quot_rows(qr - pr, qi - pi, 1.0 - (pr * qr + pi * qi), -(pr * qi - pi * qr))
        m = np.hypot(zr, zi)
        # m = 0 gives w = 0 and so P itself, as _interpolate does.
        f, safe = np.tanh(t * np.arctanh(np.minimum(m, _BELOW_ONE))), np.where(m > 0.0, m, 1.0)
        return _mobius_rows(pr, pi, f * (zr / safe), f * (zi / safe))

    def _reference(self):
        return 0j


def _gamma(n):
    """Higham's gamma_n = n u / (1 - n u), the relative error of n roundings
    (Accuracy and Stability of Numerical Algorithms, 2002, sec. 3.1)."""
    return n * _UNIT / (1.0 - n * _UNIT)


def _random_rows(rng, n):
    """n successive rng.random() draws as an array, bit for bit.

    CPython's random() builds each double from two 32-bit Mersenne Twister
    outputs a, b as ((a >> 5) 2^26 + (b >> 6)) / 2^53, and getrandbits(64 n)
    packs the next 2n outputs into one integer, least significant first.
    """
    words = np.frombuffer(rng.getrandbits(64 * n).to_bytes(8 * n, "little"), dtype="<u4")
    return ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) * (1.0 / 9007199254740992.0)


# -- module-level operation surface ------------------------------------------


def distance(space: Space, x: Point, y: Point) -> float:
    return space.distance(x, y)


def interpolate(space: Space, x: Point, y: Point, t: float) -> Point:
    return space.interpolate(x, y, t)


def check_cn_inequality(
    space: Space, z: Point, x: Point, y: Point, t: float, tol: float | None = None
) -> CheckResult:
    """Comparison (CN) inequality at the geodesic point g = (1-t)x + ty.

    Evaluates d^2(z,g) - [(1-t) d^2(z,x) + t d^2(z,y) - t(1-t) d^2(x,y)];
    nonpositive residual (up to tol) certifies the CAT(0) comparison at this
    configuration.  Euclidean space attains equality.  With tol None the bound
    is REL_TOL times the sum of the four terms.
    """
    space.require_member(z)
    g = space.interpolate(x, y, t).payload
    return _result(*_cn(space._distance, z.payload, x.payload, y.payload, g, t), tol)


def check_four_point(
    space: Space, x: Point, y: Point, z: Point, w: Point, tol: float | None = None
) -> CheckResult:
    """Quadrilateral inequality equivalent to the CAT(0) condition.

    Evaluates d^2(x,z) + d^2(y,w) - [d^2(x,y) + d^2(y,z) + d^2(z,w) + d^2(w,x)]
    and passes when it is <= tol; with tol None the bound is REL_TOL times the
    sum of the six squared distances.
    """
    for p in (x, y, z, w):
        space.require_member(p)
    d = space._distance
    return _result(*_four_point(d, x.payload, y.payload, z.payload, w.payload), tol)


def _four_point(d, x, y, z, w):
    xz, yw = d(x, z) ** 2, d(y, w) ** 2
    xy, yz, zw, wx = d(x, y) ** 2, d(y, z) ** 2, d(z, w) ** 2, d(w, x) ** 2
    return xz + yw - xy - yz - zw - wx, xz + yw + xy + yz + zw + wx


def _cn(d, z, x, y, g, t):
    """The CN inequality at g, the geodesic point (1-t)x + ty."""
    zg = d(z, g) ** 2
    zx = (1.0 - t) * d(z, x) ** 2
    zy = t * d(z, y) ** 2
    xy = t * (1.0 - t) * d(x, y) ** 2
    return zg - (zx + zy - xy), zg + zx + zy + xy


def _p2(d, x, y, tx, ty):
    """Property (P2) at x, y and their images tx, ty."""
    lhs = 2.0 * d(tx, ty) ** 2
    xty, ytx = d(x, ty) ** 2, d(y, tx) ** 2
    xtx, yty = d(x, tx) ** 2, d(y, ty) ** 2
    return lhs - (xty + ytx - xtx - yty), lhs + (xty + ytx + xtx + yty)


def _firmly_nonexpansive(d, between, x, y, tx, ty, t_grid=FN_T_GRID):
    """Firm nonexpansivity at x, y and their images tx, ty: the worst t-grid
    term and its scale, with between(a, b, t) the geodesic point (1-t)a + tb."""
    base = d(tx, ty)
    worst, scale = -np.inf, 0.0
    for t in t_grid:
        if not 0.0 <= t <= 1.0:
            raise DomainError(f"firm-nonexpansivity grid value {t} outside [0, 1]")
        # The geodesic point at t = 0 is the start itself.
        dt = d(x, y) if t == 0.0 else d(between(x, tx, t), between(y, ty, t))
        lhs = base - dt
        worse = (lhs > worst) | np.isnan(lhs)  # nothing exceeds a NaN, so it stays
        worst, scale = np.where(worse, lhs, worst), np.where(worse, base + dt, scale)
    return worst, scale


def _four_point_rows(space: Space, X, Y, Z, W):
    """check_four_point on packed rows: (residuals, scales) as arrays."""
    return _four_point(space._dist_rows, X, Y, Z, W)


def _cn_rows(space: Space, Z, X, Y, t):
    """check_cn_inequality on packed rows: (residuals, scales) as arrays."""
    return _cn(space._dist_rows, Z, X, Y, space._interp_rows(X, Y, t), t)


def _p2_rows(space: Space, X, Y, TX, TY):
    """mappings.check_p2 on packed rows and their images TX, TY:
    (residuals, scales) as arrays."""
    return _p2(space._dist_rows, X, Y, TX, TY)


def _fn_rows(space: Space, X, Y, TX, TY):
    """mappings.check_firmly_nonexpansive on packed rows and their images
    TX, TY, over FN_T_GRID: (residuals, scales) as arrays."""
    return _firmly_nonexpansive(space._dist_rows, space._interp_rows, X, Y, TX, TY)


def _result(residual: float, scale: float, tol: float | None) -> CheckResult:
    bound = REL_TOL * scale if tol is None else tol
    return CheckResult(residual <= bound, residual, scale)
