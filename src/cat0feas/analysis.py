"""Set distances, best-approximation-pair oracles, and limit diagnostics.

Two independent routes to the distance between convex sets are provided and
cross-checked in tests: alternating projections (fast, upper bounds shrinking
monotonically to the set distance) and exhaustive minimization over finite
grids (slow, resolution-limited, but fully independent of the projection
code).  The asymptotic-center estimator and the tail-window limit check give
a finite-dimensional, machine-checkable stand-in for weak-style convergence:
in the proper spaces shipped here, a bounded Fejer-monotone Picard sequence
converges to its asymptotic center, so checking the tail against a claimed
point decides the limit up to tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InconclusiveError
from .iteration import IterationTrace
from .sets import ConvexSet, GridSpec
from .spaces import Point

_BLOCK = 8192  # max entries of one pairwise block
_PATIENCE = 10  # quiet alternating-projection rounds before set_distance stops


@dataclass(frozen=True)
class BestPairResult:
    """A pair (a in A, b in B) realizing (approximately) the set distance."""

    a: Point
    b: Point
    dist: float
    method: str


@dataclass(frozen=True)
class AsymptoticCenterEstimate:
    """Minimizer of y -> max_{x in tail} d(y, x) over a finite candidate set."""

    center: Point
    radius: float
    tail_start: int
    candidate_count: int


@dataclass(frozen=True)
class DeltaLimitCheck:
    """Verdict of the tail-window limit proxy; truthy iff the check passed."""

    ok: bool
    max_tail_distance: float
    center_distance: float
    diverging: bool
    tail_start: int
    note: str = ""

    def __bool__(self):
        return self.ok


def set_distance(
    set_a: ConvexSet,
    set_b: ConvexSet,
    tol: float = 1e-9,
    max_iter: int = 50_000,
) -> float:
    """Distance between two convex sets via alternating projections.

    Starting from P_A of the space's reference point, the gap d(x_n, P_B x_n)
    with x_n in A is a nonincreasing upper bound converging to d(A, B);
    iteration stops once the bound stabilizes below tol-level improvements.
    Raises InconclusiveError (carrying the best bracket seen) if the budget
    runs out first.
    """
    if set_a.space != set_b.space:
        raise DomainError("sets must live in the same space")
    space = set_a.space
    x = set_a.project(space.reference_point())
    gap = None
    quiet = 0
    for _ in range(max_iter):
        y = set_b.project(x)
        new_gap = space.distance(x, y)
        if gap is not None:
            improvement = gap - new_gap
            if improvement <= 0.1 * tol:
                quiet += 1
                if quiet >= _PATIENCE:
                    return new_gap
            else:
                quiet = 0
        gap = new_gap
        if gap <= 0.1 * tol:
            return gap
        x = set_a.project(y)
    raise InconclusiveError(
        f"alternating projections did not stabilize within {max_iter} iterations",
        bracket=(0.0, gap),
    )


def best_pair_bruteforce(
    set_a: ConvexSet, set_b: ConvexSet, grid_spec: GridSpec | None = None
) -> BestPairResult:
    """Exhaustive nearest-pair search over finite grid samples of both sets.

    Independent of the projection implementations; the reported distance is
    within one grid step per set of the true set distance for sets whose
    nearest pair lies on the sampled region (boundaries suffice for distinct,
    non-nested convex sets).  The space's batched kernel scores the grid
    pairs in blocks of at most ``_BLOCK`` entries; the winning pair's
    distance is reported as ``space.distance`` gives it.
    """
    if set_a.space != set_b.space:
        raise DomainError("sets must live in the same space")
    spec = grid_spec if grid_spec is not None else GridSpec()
    pts_a = set_a.grid(spec)
    pts_b = set_b.grid(spec)
    if not pts_a or not pts_b:
        raise DomainError("empty grid; widen the window or refine the grid step")
    space = set_a.space
    A = space._pack([p.payload for p in pts_a])
    B = space._pack([p.payload for p in pts_b])
    # Blocks of whole rows, or slices of one row when B alone exceeds the
    # block; argmin takes the first minimum in row-major order and later
    # blocks must be strictly smaller, so ties go to the first pair overall.
    rows = max(1, _BLOCK // len(B))
    cols = min(len(B), _BLOCK)
    best = (math.inf, 0, 0)
    for lo in range(0, len(A), rows):
        for col in range(0, len(B), cols):
            block = space._pairwise(A[lo : lo + rows], B[col : col + cols])
            i, j = divmod(int(np.argmin(block)), block.shape[1])
            if block[i, j] < best[0]:
                best = (block[i, j], lo + i, col + j)
    _, i, j = best
    a, b = pts_a[i], pts_b[j]
    return BestPairResult(a=a, b=b, dist=space.distance(a, b), method="brute-force-grid")


def _point_sort_key(p: Point):
    """Deterministic total order on payloads, for argmin tie-breaking."""
    payload = p.payload
    if isinstance(payload, complex):
        return (payload.real, payload.imag)
    if isinstance(payload, tuple) and payload and isinstance(payload[0], Point):
        return _point_sort_key(payload[0]) + _point_sort_key(payload[1])
    return tuple(payload) if isinstance(payload, tuple) else (payload,)


def estimate_asymptotic_center(
    tail: list[Point], tail_start: int = 0
) -> AsymptoticCenterEstimate:
    """Smallest-enclosing-radius point of a sequence tail, over candidates.

    The candidates are the tail points themselves plus the geodesic
    midpoints of all tail pairs; the max-distance objective is convex along
    geodesics, so one midpoint refinement already locates desk-scale centers
    well.  Ties break on a canonical payload order, so the result is invariant
    under candidate permutation.
    """
    if not tail:
        raise DomainError("tail must be nonempty")
    space = tail[0].space
    candidates = list(tail)
    seen = set(candidates)
    for i in range(len(tail)):
        for j in range(i + 1, len(tail)):
            mid = space.interpolate(tail[i], tail[j], 0.5)
            if mid not in seen:
                seen.add(mid)
                candidates.append(mid)
    best = None
    for cand in candidates:
        radius = max(space.distance(cand, x) for x in tail)
        key = (radius, _point_sort_key(cand))
        if best is None or key < best[0]:
            best = (key, cand, radius)
    return AsymptoticCenterEstimate(
        center=best[1],
        radius=best[2],
        tail_start=tail_start,
        candidate_count=len(candidates),
    )


def default_tail_window(n_points: int) -> int:
    """Start index of the stabilized tail: last max(50, 10%) of the trace."""
    return max(0, n_points - max(50, math.ceil(0.1 * n_points)))


def check_delta_limit(
    trace: IterationTrace, claimed: Point, tol: float = 1e-4
) -> DeltaLimitCheck:
    """Tail-window proxy for convergence of the iteration to a claimed point.

    Passes iff the final window sits within tol of the claimed point and the
    estimated asymptotic center of that window is within tol of it.  A trace
    whose distance to the claimed point grows is reported as diverging.
    """
    space = trace.space
    space.require_member(claimed)
    n = len(trace.points)
    if trace.stationary_from is not None:
        # The recorded trace ends in an exact fixed point; its extension is
        # constant, so the meaningful tail starts there.
        start = trace.stationary_from
    else:
        start = default_tail_window(n)
    tail = trace.points[start:]
    dists = [space.distance(p, claimed) for p in trace.points]
    head_max = max(dists[: max(1, n - len(tail))] or dists[:1])
    tail_max = max(dists[start:])
    diverging = tail_max > 1.5 * head_max + 1.0 and tail_max > tol
    # Cap the candidate set so the quadratic midpoint enrichment stays cheap.
    window = tail if len(tail) <= 80 else tail[:: math.ceil(len(tail) / 80)]
    center_est = estimate_asymptotic_center(window, tail_start=start)
    center_distance = space.distance(center_est.center, claimed)
    ok = (not diverging) and tail_max <= tol and center_distance <= tol
    note = "diverging trace" if diverging else ""
    return DeltaLimitCheck(
        ok=ok,
        max_tail_distance=tail_max,
        center_distance=center_distance,
        diverging=diverging,
        tail_start=start,
        note=note,
    )
