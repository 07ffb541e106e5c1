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
from .product import ConvexCombinationSpace
from .sets import ConvexSet, GridSpec
from .spaces import Point, _gamma

_CHUNK = 64  # consecutive grid points per chunk of the pruned oracle
_PATIENCE = 10  # quiet alternating-projection rounds before set_distance stops


@dataclass(frozen=True)
class BestPairResult:
    """A pair (a in A, b in B) realizing (approximately) the set distance."""

    a: Point
    b: Point
    dist: float
    method: str
    pairs_scored: int  # grid pairs whose kernel value the search computed


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


def squared_diagonal_gap(cs: ConvexCombinationSpace, set_a, set_b, tol: float = 1e-9) -> float:
    """Squared distance from the diagonal to A x B: lam (1-lam) d(A, B)^2."""
    r = set_distance(set_a, set_b, tol=tol)
    return cs.lam * (1.0 - cs.lam) * r * r


def best_pair_bruteforce(
    set_a: ConvexSet, set_b: ConvexSet, grid_spec: GridSpec | None = None
) -> BestPairResult:
    """Exhaustive nearest-pair search over finite grid samples of both sets.

    Independent of the projection implementations; the reported distance is
    within one grid step per set of the true set distance for sets whose
    nearest pair lies on the sampled region (boundaries suffice for distinct,
    non-nested convex sets).  The winner is the pair with the least kernel
    value (the space's ``_kernel_rows``), ties going to the first pair in
    row-major order; its distance is reported as ``space.distance`` gives it.

    The search is exact but pruned, as metric-tree nearest-neighbour searches
    are (Uhlmann 1991, Yianilos 1993).  Each grid is cut into chunks of at
    most ``_CHUNK`` consecutive points (`_chunks`), each with a middle member
    as centre c and a radius rho.  Every pair between two chunks lies at
    distance at least d(c_A, c_B) - rho_A - rho_B.  Chunk pairs are scored in
    order of that bound, lowered by the rounding error of the distances it is
    made of and turned into the least kernel value any of its pairs can take
    (the space's ``_rounding_model``).  The scan stops at the first chunk pair
    whose least value exceeds the best value so far: no later pair can win or
    tie.
    """
    if set_a.space != set_b.space:
        raise DomainError("sets must live in the same space")
    spec = grid_spec if grid_spec is not None else GridSpec()
    grid_a, grid_b = set_a.grid(spec), set_b.grid(spec)
    if not grid_a or not grid_b:
        raise DomainError("empty grid; widen the window or refine the grid step")
    space = set_a.space
    A, B = grid_a.rows, grid_b.rows
    error, least_value = space._rounding_model(A, B)
    starts_a, sizes_a, centres_a, radii_a = _chunks(space, A, spec.h)
    starts_b, sizes_b, centres_b, radii_b = _chunks(space, B, spec.h)
    d = space._dist_rows(centres_a[:, None], centres_b[None, :])
    ra, rb = radii_a[:, None], radii_b[None, :]
    # gamma_4 covers rounding the sums and differences below.
    slack = error(d) + error(ra) + error(rb) + _gamma(4) * (d + ra + rb)
    floor = least_value(d - ra - rb - slack).ravel()
    best = (math.inf, 0, 0)
    scored = 0
    for k in np.argsort(floor, kind="stable"):
        if floor[k] > best[0]:
            break
        ia, ib = divmod(int(k), len(starts_b))
        lo_a, lo_b = starts_a[ia], starts_b[ib]
        rows_a, rows_b = A[lo_a : lo_a + sizes_a[ia]], B[lo_b : lo_b + sizes_b[ib]]
        block = space._kernel_rows(rows_a[:, None], rows_b[None, :])
        scored += block.size
        # argmin takes the block's first minimum, which is its least (i, j).
        i, j = divmod(int(np.argmin(block)), block.shape[1])
        best = min(best, (block[i, j], lo_a + i, lo_b + j))
    _, i, j = best
    a, b = grid_a[i], grid_b[j]
    return BestPairResult(
        a=a, b=b, dist=space.distance(a, b), method="brute-force-grid", pairs_scored=scored
    )


def _chunks(space, P, h):
    """Starts, sizes, centres (middle members) and radii of P's chunks.

    A grid follows its curves in steps of at most h, so a step longer than
    2h ends a run (a jump between edges, rows or separate vertices); runs are
    cut into chunks of at most _CHUNK consecutive points.  Any cut keeps the
    search exact; these keep the radii small.
    """
    jumps = np.flatnonzero(space._dist_rows(P[:-1], P[1:]) > 2.0 * h) + 1
    runs = np.concatenate(([0], jumps, [len(P)]))
    run_start = np.repeat(runs[:-1], np.diff(runs))
    starts = np.flatnonzero((np.arange(len(P)) - run_start) % _CHUNK == 0)
    sizes = np.diff(np.append(starts, len(P)))
    centres = starts + (sizes - 1) // 2
    radii = np.maximum.reduceat(space._dist_rows(P[np.repeat(centres, sizes)], P), starts)
    return starts, sizes, P[centres], radii


def _sort_key(payload):
    """Deterministic total order on payloads, for argmin tie-breaking: the
    payload's numbers as one flat tuple (complex numbers do not order, so a
    disk payload gives its two parts, and a product's pair is flattened)."""
    if isinstance(payload, complex):
        return (payload.real, payload.imag)
    if isinstance(payload, tuple):
        return sum(map(_sort_key, payload), ())
    return (payload,)


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
        key = (radius, _sort_key(cand.payload))
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
    payloads = trace.payloads
    if trace.stationary_from is not None:
        # The recorded trace ends in an exact fixed point; its extension is
        # constant, so the meaningful tail starts there.
        start = trace.stationary_from
    else:
        start = default_tail_window(len(payloads))
    tail = payloads[start:]
    dists = [space._distance(p, claimed.payload) for p in payloads]
    head_max = max(dists[: max(1, start)])
    tail_max = max(dists[start:])
    diverging = tail_max > 1.5 * head_max + 1.0 and tail_max > tol
    # Cap the candidate set so the quadratic midpoint enrichment stays cheap;
    # only this window becomes Points.
    window = tail if len(tail) <= 80 else tail[:: math.ceil(len(tail) / 80)]
    center_est = estimate_asymptotic_center([Point(space, p) for p in window], tail_start=start)
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
