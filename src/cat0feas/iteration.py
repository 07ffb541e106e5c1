"""Picard iteration, explicit asymptotic-regularity rates, and certification.

The rate formulas are uniform: they depend only on a bound b on the distance
from the start to a fixed point (and, for the projection-gap rate, on a bound
M to the lifted best pair).  With

    k_b(eps) = ceil(2 b / eps)

the averaged map (1-lam) T1 + lam T2 of two quadratically firmly nonexpansive
maps satisfies d(x_n, x_{n+1}) <= eps for every

    n >= k_b(eps) * ceil(2 b (1 + 2^{k_b(eps)}) / eps) + 1,

and for averaged projections the gap d(P_A x_n, P_B x_n) is within eps of the
set distance once n >= floor(64 M^2 b / (eps^4 lam (1-lam))) + 2.

All rate arithmetic is exact: float arguments are read as the decimal literal
of their shortest repr, so floor/ceil at decimal boundaries (eps = 0.1, ...)
match hand arithmetic, and the power 2^k is an arbitrary-precision integer.

A certificate checks a recorded trace against a bound.  A finite trace can
only falsify the bound beyond its horizon, with one exception: when the
iteration reaches an exact fixed point (consecutive iterates structurally
equal), the trace's infinite extension is the constant tail, every later
residual is exactly zero, and the bound is decided for all n.  Traces that
are both shorter than the bound and not stationary yield the distinct
"inconclusive" status.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

from .errors import DomainError, NumericError
from .mappings import Mapping
from .spaces import Point, Space


# -- rate formulas ---------------------------------------------------------------


def _exact(x) -> Fraction:
    """Exact rational value of a numeric argument, decimal-literal semantics."""
    if isinstance(x, float):
        if not math.isfinite(x):
            raise DomainError(f"rate argument must be finite, got {x}")
        return Fraction(repr(x))
    return Fraction(x)


def regularity_stage_count(b: float, eps: float) -> int:
    """ceil(2 b / eps); the stage count entering the regularity rate.  b may be
    0, the strongest form of the hypothesis d(x0, p) <= b."""
    b_, eps_ = _exact(b), _exact(eps)
    if b_ < 0 or eps_ <= 0:
        raise DomainError("rate arguments need b >= 0 and eps > 0")
    return math.ceil(2 * b_ / eps_)


def asymptotic_regularity_rate(b: float, eps: float) -> int:
    """Iterations after which the step size d(x_n, x_{n+1}) stays <= eps.

    Valid for Picard iterations of an averaged pair of quadratically firmly
    nonexpansive maps started within distance b of a fixed point.  Grows
    exponentially in 1/eps; the result is an exact (possibly huge) integer.
    At b = 0 the start is the fixed point, every residual is 0, and the
    rate is 1.
    """
    k = regularity_stage_count(b, eps)
    b_, eps_ = _exact(b), _exact(eps)
    return k * math.ceil(2 * b_ * (1 + 2**k) / eps_) + 1


def _regularity_rate_log2(k: int, b: float, eps: float) -> float | None:
    """log2 of asymptotic_regularity_rate(b, eps) at its stage count k, in
    closed form, for k large enough that 2^-k is below a float's precision:
    the rate is k ceil(c (1 + 2^k)) + 1 with c = 2 b / eps, whose log2 is
    k + log2(k c) up to about 2^-k.  None when it overflows a float."""
    c = 2 * _exact(b) / _exact(eps)
    try:
        return float(k) + math.log2(k * c.numerator) - math.log2(c.denominator)
    except OverflowError:
        return None


def averaged_projection_gap_rate(M: float, b: float, eps: float, lam: float) -> int:
    """Iterations after which d(P_A x_n, P_B x_n) <= d(A,B) + eps.

    Hypotheses: d(x0, u*) <= M for the lam-combination u* of some best pair,
    and d(P_A x0, P_B x0)^2 <= b.

    A constant of 0 is the strongest form of its hypothesis, and the rate is
    then 2.  At b = 0, P_A x0 = P_B x0 lies in both sets, so x_1 is fixed and
    every later gap is 0 = d(A, B).  At M = 0, x0 = u* is fixed, and its gap
    is constantly d(a*, b*).
    """
    M_, b_, eps_ = _exact(M), _exact(b), _exact(eps)
    lam_ = _exact(lam)
    if M_ < 0 or b_ < 0 or eps_ <= 0:
        raise DomainError("rate arguments need M >= 0, b >= 0 and eps > 0")
    if not 0 < lam_ < 1:
        raise DomainError(f"combination weight must be in (0, 1), got {lam}")
    return math.floor(64 * M_**2 * b_ / (eps_**4 * lam_ * (1 - lam_))) + 2


def composed_projection_gap_rate(M: float, b: float, eps: float) -> int:
    """Iterations after which d^2(x_n, P_B x_n) <= d^2(A,B) + eps for the
    composition P_A P_B, started within M of a best-pair endpoint and with
    d^2(P_A P_B x0, P_B x0) <= b.

    A constant of 0 is the strongest form of its hypothesis, and the rate is
    then 2.  At b = 0, P_B x0 lies in both sets, so x_1 is fixed and every
    later value is 0 = d^2(A, B).  At M = 0, x0 is the best-pair endpoint in
    A, which P_A P_B fixes, and its value is constantly d^2(A, B)."""
    M_, b_, eps_ = _exact(M), _exact(b), _exact(eps)
    if M_ < 0 or b_ < 0 or eps_ <= 0:
        raise DomainError("rate arguments need M >= 0, b >= 0 and eps > 0")
    return math.floor(4 * M_**2 * b_ / eps_**2) + 2


# -- traces -----------------------------------------------------------------------


@dataclass
class IterationTrace:
    """Recorded Picard iterates, as payloads, and their step residuals.

    residuals[n] = d(x_n, x_{n+1}).  ``stationary_from`` is the first index at
    which the next iterate equals the current one structurally; from there on
    the infinite extension of the trace is constant.  ``points`` wraps the
    payloads in Points the first time it is read.
    """

    space: Space
    payloads: list
    residuals: list[float] = field(default_factory=list)
    stationary_from: int | None = None

    def __post_init__(self):
        if len(self.residuals) != max(len(self.payloads) - 1, 0):
            raise DomainError("residual count must be iterate count - 1")
        _require_nonnegative("residual", self.residuals)

    @cached_property
    def points(self) -> list[Point]:
        """The iterates as Points of the trace's space."""
        return [Point(self.space, p) for p in self.payloads]

    @property
    def horizon(self) -> int:
        """Number of recorded residual indices."""
        return len(self.residuals)


def _require_nonnegative(name, values):
    for v in values:
        if not (math.isfinite(v) and v >= 0.0):
            raise DomainError(f"non-finite or negative {name} value {v}")


def picard(mapping: Mapping, start: Point, n_max: int) -> IterationTrace:
    """Run x_{k+1} = T(x_k) for up to n_max steps and record the orbit.

    There is no residual-based early stop, so rate certification sees the full
    horizon.  The loop ends at the first exact fixed point (equal payloads),
    since every later iterate is structurally identical.  It steps payloads
    through ``mapping._step`` and records the payloads; no Point is made
    unless the trace's ``points`` is read.
    """
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    space = mapping.space
    space.require_member(start)
    step_payload, distance = mapping._step, space._distance

    payloads = [start.payload]
    residuals: list[float] = []
    stationary_from = None

    current = start.payload
    for step in range(n_max):
        nxt = step_payload(current)
        residual = distance(current, nxt)
        if not math.isfinite(residual):
            raise NumericError(f"non-finite iterate at step {step + 1}", step=step + 1)
        payloads.append(nxt)
        residuals.append(residual)
        if nxt == current:
            stationary_from = step
            break
        current = nxt

    return IterationTrace(
        space=space, payloads=payloads, residuals=residuals, stationary_from=stationary_from
    )


# -- certificates ------------------------------------------------------------------


# 13,000 bits is at most 3,914 decimal digits.
_MAX_JSON_BOUND_BITS = 13_000

# A certified value passes at eps plus this slack, which absorbs rounding.
_REGULARITY_SLACK = 1e-10  # step residuals d(x_n, x_{n+1})
_GAP_SLACK = 1e-8  # projection gaps minus the set distance


@dataclass(frozen=True)
class RateCertificate:
    """Verdict that a certified quantity stayed <= its target past a bound.

    status is "pass", "fail", or "inconclusive" (trace too short to see the
    bound and not stationary).  `passed` implies that the certified quantity
    is <= epsilon (+ slack) at every checked index n >= bound_n, including the
    constant extension of a stationary trace.  A bound_n of None is a bound
    too long to build, past any trace's horizon; bound_n_log2 then holds its
    log2, or None when that overflows a float.
    """

    epsilon: float
    bound_n: int | None
    observed_first_n: int | None
    status: str
    horizon: int
    stationary: bool
    bound_n_log2: float | None = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        # Python refuses int -> decimal string conversions past 4300 digits,
        # so a longer bound is written as its log2 instead.
        if self.bound_n is None:
            bound = {"bound_n": None, "bound_n_log2": self.bound_n_log2}
        elif self.bound_n.bit_length() <= _MAX_JSON_BOUND_BITS:
            bound = {"bound_n": self.bound_n}
        else:
            bound = {"bound_n": None, "bound_n_log2": math.log2(self.bound_n)}
        return {
            "epsilon": self.epsilon,
            **bound,
            "observed_first_n": self.observed_first_n,
            "pass": self.passed,
            "status": self.status,
        }


def _certify_values(values, stationary_value, bound, eps, slack, stationary, bound_log2=None):
    """Shared certificate logic over a recorded sequence of nonneg values.  A
    bound of None lies past the horizon, with log2 `bound_log2`."""
    target = eps + slack
    first = len(values) if bound is None else bound
    violation = any(v > target for v in values[first:])
    observed = next((n for n, v in enumerate(values) if v <= eps), None)
    if observed is None and stationary and stationary_value <= eps:
        observed = len(values)
    if violation:
        status = "fail"
    elif len(values) > first:
        status = "pass"
    elif stationary:
        # The constant extension decides the bound at every n >= bound.
        status = "pass" if stationary_value <= target else "fail"
    else:
        status = "inconclusive"
    return RateCertificate(
        epsilon=eps,
        bound_n=bound,
        observed_first_n=observed,
        status=status,
        horizon=len(values),
        stationary=stationary,
        bound_n_log2=bound_log2,
    )


def certify_asymptotic_regularity(
    trace: IterationTrace, b: float, eps_grid
) -> list[RateCertificate]:
    """Check d(x_n, x_{n+1}) <= eps for all checkable n >= the regularity rate.

    Precondition (caller's responsibility): the trace starts within distance b
    of some fixed point of its mapping.

    The rate is at least 2^k at stage count k >= 1, so from k =
    _MAX_JSON_BOUND_BITS on it is longer than any JSON bound and lies past any
    trace's horizon: it is not built (2^k alone would take k bits), and its
    certificate carries the closed-form log2 instead.
    """
    certs = []
    stationary = trace.stationary_from is not None
    for eps in eps_grid:
        k = regularity_stage_count(b, eps)
        if k < _MAX_JSON_BOUND_BITS:
            bound, log2 = asymptotic_regularity_rate(b, eps), None
        else:
            bound, log2 = None, _regularity_rate_log2(k, b, eps)
        certs.append(
            _certify_values(trace.residuals, 0.0, bound, eps, _REGULARITY_SLACK, stationary, log2)
        )
    return certs


def certify_best_approx_rate(
    trace: IterationTrace,
    gaps: list[float],
    M: float,
    b: float,
    r: float,
    eps_grid,
    lam: float,
) -> list[RateCertificate]:
    """Check d(P_A x_n, P_B x_n) <= r + eps past the projection-gap rate.

    gaps[n] = d(P_A x_n, P_B x_n) for every recorded iterate x_n of the trace.
    Preconditions: d(x0, u*) <= M for the lifted best pair;
    d(P_A x0, P_B x0)^2 <= b.
    """
    if len(gaps) != len(trace.payloads):
        raise DomainError("gap count must be iterate count")
    _require_nonnegative("gap", gaps)
    certs = []
    stationary = trace.stationary_from is not None
    shifted = [v - r for v in gaps]
    for eps in eps_grid:
        bound = averaged_projection_gap_rate(M, b, eps, lam)
        certs.append(_certify_values(shifted, shifted[-1], bound, eps, _GAP_SLACK, stationary))
    return certs
