"""Set-distance routes, best-pair oracles, asymptotic centers, limit checks."""

import importlib.util
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cat0feas as cf
from cat0feas import GridSpec, analysis
from cat0feas.config import config_from_json
from cat0feas.sets import Grid


class TestSetDistance:
    def test_parallel_lines(self, e2):
        a = cf.AffineSubspace(e2, (0.0, 0.0), ((1.0, 0.0),))
        b = cf.AffineSubspace(e2, (0.0, 1.0), ((1.0, 0.0),))
        assert cf.set_distance(a, b) == pytest.approx(1.0, abs=1e-9)

    def test_identical_sets(self, e2):
        ball = cf.EuclideanBall(e2, (0.0, 0.0), 1.0)
        assert cf.set_distance(ball, ball) == pytest.approx(0.0, abs=1e-9)

    def test_ball_halfspace(self, e2):
        a = cf.EuclideanBall(e2, (0.0, 0.0), 1.0)
        b = cf.Halfspace(e2, (-1.0, 0.0), -2.0)
        assert cf.set_distance(a, b) == pytest.approx(1.0, abs=1e-9)

    def test_tripod_segments(self, tripod_space):
        tri = tripod_space
        a = cf.TreeSegment(tri, tri.at(0, 0.5), tri.at(0, 1.0))
        b = cf.TreeSegment(tri, tri.at(1, 0.5), tri.at(1, 1.0))
        assert cf.set_distance(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_disk_balls(self, disk):
        a = cf.DiskBall(disk, complex(-0.5, 0), 0.4)
        b = cf.DiskBall(disk, complex(0.5, 0), 0.4)
        # 1-D hyperbolic oracle: centers are 2 artanh(0.8) apart on the axis
        expected = 2.0 * math.atanh(0.8) - 0.8
        assert cf.set_distance(a, b) == pytest.approx(expected, abs=1e-9)

    def test_space_mismatch(self, e2, e5):
        with pytest.raises(cf.DomainError):
            cf.set_distance(
                cf.EuclideanBall(e2, (0.0, 0.0), 1.0),
                cf.EuclideanBall(e5, (0.0,) * 5, 1.0),
            )

    def test_budget_exhaustion_carries_bracket(self, e2):
        a = cf.EuclideanBall(e2, (0.0, 0.0), 1.0)
        b = cf.Halfspace(e2, (-1.0, 0.0), -2.0)
        with pytest.raises(cf.InconclusiveError) as err:
            cf.set_distance(a, b, max_iter=1)
        lo, hi = err.value.bracket
        assert lo <= 1.0 <= hi  # the true distance sits inside the bracket


class TestBruteforce:
    def test_ball_halfspace_pair(self, e2):
        a = cf.EuclideanBall(e2, (0.0, 0.0), 1.0)
        b = cf.Halfspace(e2, (-1.0, 0.0), -2.0)
        spec = GridSpec(h=1e-3, window=((-2.0, 3.0), (-3.0, 3.0)))
        result = cf.best_pair_bruteforce(a, b, spec)
        assert result.dist == pytest.approx(1.0, abs=2e-3)
        assert result.a.payload == pytest.approx((1.0, 0.0), abs=2e-3)
        assert result.b.payload == pytest.approx((2.0, 0.0), abs=2e-3)
        assert result.method == "brute-force-grid"
        # Members of the unit ball and of x1 >= 2, judged by their formulas.
        assert math.hypot(*result.a.payload) <= 1.0 + 1e-7
        assert result.b.payload[0] >= 2.0 - 1e-7

    def test_overlapping_sets_near_zero(self, e2):
        a = cf.EuclideanBall(e2, (0.0, 0.0), 1.0)
        b = cf.EuclideanBall(e2, (1.0, 0.0), 1.0)
        result = cf.best_pair_bruteforce(a, b, GridSpec(h=1e-3))
        assert result.dist <= 2e-3
        assert e2.distance(result.a, result.b) == result.dist

    def test_tripod_pair(self, tripod_space):
        tri = tripod_space
        a = cf.TreeSegment(tri, tri.at(0, 0.5), tri.at(0, 1.0))
        b = cf.TreeSegment(tri, tri.at(1, 0.5), tri.at(1, 1.0))
        result = cf.best_pair_bruteforce(a, b, GridSpec(h=1e-3))
        assert result.dist == pytest.approx(1.0, abs=2e-3)
        assert result.a == tri.at(0, 0.5)
        assert result.b == tri.at(1, 0.5)

    def test_agreement_with_alternating(self, e2, disk, tripod_space):
        cases = []
        cases.append(
            (
                cf.EuclideanBall(e2, (0.0, 0.0), 1.0),
                cf.EuclideanBall(e2, (4.0, 0.0), 1.0),
                GridSpec(h=1e-3),
            )
        )
        cases.append(
            (
                cf.DiskBall(disk, complex(-0.5, 0), 0.4),
                cf.DiskBall(disk, complex(0.5, 0), 0.4),
                GridSpec(h=1e-3),
            )
        )
        tri = tripod_space
        cases.append(
            (
                cf.TreeSegment(tri, tri.at(0, 0.5), tri.at(0, 1.0)),
                cf.TreeSegment(tri, tri.at(1, 0.5), tri.at(1, 1.0)),
                GridSpec(h=1e-3),
            )
        )
        for a, b, spec in cases:
            r_alt = cf.set_distance(a, b)
            r_grid = cf.best_pair_bruteforce(a, b, spec).dist
            assert abs(r_alt - r_grid) <= 2.0 * spec.h

    def test_lift_transfer_identity(self, e2):
        # the lifted brute-force pair realizes sqrt(lam(1-lam)) * dist
        a = cf.EuclideanBall(e2, (0.0, 0.0), 1.0)
        b = cf.Halfspace(e2, (-1.0, 0.0), -2.0)
        spec = GridSpec(h=1e-3, window=((-2.0, 3.0), (-3.0, 3.0)))
        result = cf.best_pair_bruteforce(a, b, spec)
        cs = cf.ConvexCombinationSpace(e2, 0.5)
        lifted, pair = cf.lift_best_pair(cs, result.a, result.b)
        expected = math.sqrt(0.25) * result.dist
        assert cs.distance(lifted, pair) == pytest.approx(expected, abs=1e-8)

    @pytest.mark.parametrize("offset", [1e6, 1e7])
    def test_far_from_origin(self, e2, offset):
        # Expanded on raw coordinates, |a|^2 + |b|^2 - 2ab cancelled at the
        # size of the offset and returned 2.000042988 at 1e6.
        a = cf.EuclideanBall(e2, (offset, offset), 1.0)
        b = cf.EuclideanBall(e2, (offset + 4.0, offset), 1.0)
        result = cf.best_pair_bruteforce(a, b, GridSpec(h=1e-3))
        assert result.dist == 2.0
        assert result.a.payload == (offset + 1.0, offset)
        assert result.b.payload == (offset + 3.0, offset)

    def test_empty_grid_error(self, e2):
        a = cf.Halfspace(e2, (1.0, 0.0), 0.0)
        with pytest.raises(cf.DomainError):
            cf.best_pair_bruteforce(a, a, GridSpec(h=1e-3))  # no window given


def loop_best_pair(space, pts_a, pts_b):
    """Reference oracle: the first closest pair of a plain double loop."""
    best = (math.inf, None, None)
    for a in pts_a:
        for b in pts_b:
            d = space.distance(a, b)
            if d < best[0]:
                best = (d, a, b)
    return best


def full_scan(set_a, set_b, spec):
    """The unpruned scan: the first pair of least kernel value."""
    space = set_a.space
    grid_a, grid_b = set_a.grid(spec), set_b.grid(spec)
    values = space._kernel_rows(grid_a.rows[:, None], grid_b.rows[None, :])
    i, j = np.unravel_index(np.argmin(values), values.shape)
    return grid_a[i], grid_b[j]


def check_against_loop(set_a, set_b, spec, same_pair):
    """The pruned oracle, at several chunk sizes, against the double loop.

    Chunks of one point have radius 0; chunks of three split the grid runs,
    so ties are also resolved across chunk boundaries.  Every chunk size must
    pick the pair of the unpruned scan.  The loop ranks by `space.distance`,
    so its pair is required only where the kernel values are exact too.
    """
    space = set_a.space
    pts_a, pts_b = set_a.grid(spec), set_b.grid(spec)
    dist, a, b = loop_best_pair(space, pts_a, pts_b)
    full = full_scan(set_a, set_b, spec)
    for chunk in (1, 3, analysis._CHUNK):
        with mock.patch.object(analysis, "_CHUNK", chunk):
            result = cf.best_pair_bruteforce(set_a, set_b, spec)
        assert (result.a, result.b) == full
        assert result.dist == space.distance(result.a, result.b)
        assert abs(result.dist - dist) <= 1e-12
        assert 0 < result.pairs_scored <= len(pts_a) * len(pts_b)
        if same_pair:
            assert (result.a, result.b) == (a, b)
    return result


@st.composite
def tree_set_pairs(draw):
    """A random small tree with a segment A and a segment or subtree B.

    Offsets are often 0, a quarter, a half or the full edge, so grids hold
    vertex points and exact ties; B's segment often starts on A's edge.
    """
    n = draw(st.integers(2, 7))
    names = tuple(f"v{i}" for i in range(n))
    edges = tuple(
        (names[draw(st.integers(0, i - 1))], names[i],
         draw(st.sampled_from([0.25, 0.3, 0.5, 0.7, 1.0, 1.1])))
        for i in range(1, n)
    )
    space = cf.TreeSpace(cf.MetricTree(names, edges))
    fraction = st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)

    def point(edge=None):
        if edge is None:
            edge = draw(st.integers(0, n - 2))
        return space.at(edge, draw(fraction) * edges[edge][2])

    start = point()
    set_a = cf.TreeSegment(space, start, point())
    kind = draw(st.sampled_from(["segment", "same-edge-segment", "subtree", "vertex"]))
    if kind == "segment":
        set_b = cf.TreeSegment(space, point(), point())
    elif kind == "same-edge-segment":
        set_b = cf.TreeSegment(space, point(start.payload[0]), point())
    elif kind == "subtree":
        # Every vertex's parent has a smaller index, so a prefix is connected.
        set_b = cf.Subtree(space, names[: draw(st.integers(2, n))])
    else:
        set_b = cf.Subtree(space, (draw(st.sampled_from(names)),))
    spec = GridSpec(h=draw(st.sampled_from([0.1, 0.13, 0.25])))
    return set_a, set_b, spec


class TestBatchedKernels:
    @settings(max_examples=80, deadline=None)
    @given(tree_set_pairs())
    def test_tree_kernel_matches_loop(self, case):
        # Tree kernel values are bit-equal to TreeSpace.distance, so even the
        # tie-broken pair is the loop's.
        check_against_loop(*case, same_pair=True)

    @settings(max_examples=40, deadline=None)
    @given(
        dim=st.sampled_from([2, 3]),
        centers=st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6),
        radii=st.tuples(st.floats(0.3, 1.0), st.floats(0.3, 1.0)),
        h=st.sampled_from([0.1, 0.15, 0.2]),
    )
    # Here a kernel whose rounding depended on the block shape picked, with
    # chunks of three, another pair than the full scan.
    @example(
        dim=3,
        centers=[-1.5952009568966883, 0, 0, -1.8358497564916174, 0.84375, -1.0],
        radii=(0.368240393946215, 0.8443392306364956),
        h=0.1,
    )
    def test_euclidean_kernel_matches_loop(self, dim, centers, radii, h):
        space = cf.EuclideanSpace(dim)
        ca, cb = centers[:dim], centers[3 : 3 + dim]
        set_a = cf.EuclideanBall(space, ca, radii[0])
        set_b = cf.EuclideanBall(space, cb, radii[1])
        # In 3-D the grid fills the ball; a step no longer than the radius
        # keeps a lattice point inside, and a coarse one keeps the loop short.
        spec = GridSpec(h=h) if dim == 2 else GridSpec(h=0.3, surface="full")
        check_against_loop(set_a, set_b, spec, same_pair=False)

    @settings(max_examples=40, deadline=None)
    @given(
        coords=st.lists(st.floats(-0.6, 0.6), min_size=6, max_size=6),
        radius=st.floats(0.1, 1.0),
        h=st.sampled_from([0.05, 0.1, 0.2]),
    )
    def test_disk_kernel_matches_loop(self, coords, radius, h):
        disk = cf.PoincareDiskSpace()
        u, v, w = (complex(coords[k], coords[k + 1]) for k in (0, 2, 4))
        set_a = cf.DiskBall(disk, u, radius)
        set_b = cf.DiskGeodesicSegment(disk, disk.point(v), disk.point(w))
        check_against_loop(set_a, set_b, GridSpec(h=h), same_pair=False)


class TestKernelBlocks:
    """A kernel value depends only on its pair, so every block the pruned
    scan scores holds the bits of the full block, and the transposed block
    holds them too."""

    @pytest.mark.parametrize(
        "name",
        ["line-line", "ball-halfspace", "ball-ball", "tripod-legs", "disk-overlap",
         "disk-disjoint"],
    )
    def test_sub_blocks_equal_full_block(self, instances, name):
        inst = instances[name]
        kernel = inst.space._kernel_rows
        A, B = (s.grid(inst.grid).rows[:1500] for s in (inst.set_a, inst.set_b))
        full = kernel(A[:, None], B[None, :])
        assert np.array_equal(kernel(B[:, None], A[None, :]).T, full)
        for rows, cols in ((64, 64), (37, 101), (1, len(B))):
            for i in range(0, len(A), rows):
                for j in range(0, len(B), cols):
                    block = kernel(A[i : i + rows, None], B[None, j : j + cols])
                    assert np.array_equal(block, full[i : i + rows, j : j + cols])


class Cloud(cf.ConvexSet):
    """A finite point list posing as a set; the oracle reads only its grid."""

    kind = "cloud"

    def __init__(self, points):
        self.points = points

    @property
    def space(self):
        return self.points[0].space

    def _project(self, p):
        raise NotImplementedError

    def _project_rows(self, P):
        raise NotImplementedError

    def grid(self, spec):
        return Grid(self.space, self.space._pack([p.payload for p in self.points]))


@st.composite
def clouds(draw):
    """Two small point lists in R^1..3, at a possibly large offset, or on a
    small tree, and a grid step.  Euclidean coordinates are multiples of 1/8, so the kernel
    values are exact and ties (repeated points among them) are exact too."""
    if draw(st.booleans()):
        dim = draw(st.integers(1, 3))
        space = cf.EuclideanSpace(dim)
        offset = draw(st.sampled_from([0.0, -3.0, 1e6]))
        coord = st.integers(-24, 24).map(lambda k: offset + k / 8)
        point = st.tuples(*[coord] * dim).map(space.point)
    else:
        tree = cf.MetricTree(
            ("a", "b", "c", "d"), (("a", "b", 1.0), ("b", "c", 0.3), ("b", "d", 2.5))
        )
        space = cf.TreeSpace(tree)
        point = st.builds(
            lambda e, f: space.at(e, f * tree.edges[e][2]),
            st.integers(0, 2),
            st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0),
        )
    pts = st.lists(point, min_size=1, max_size=40)
    # A step of 100 never ends a run, so chunks hold scattered points; a step
    # of 1e-3 makes most points a chunk of their own.
    spec = GridSpec(h=draw(st.sampled_from([1e-3, 100.0])))
    return Cloud(draw(pts)), Cloud(draw(pts)), spec


class TestPrunedOracle:
    """The chunked search returns the pair of the double loop."""

    def test_parallel_lines_tie(self, e2):
        # Every aligned pair is at distance exactly 1; the first one wins.
        a = cf.AffineSubspace(e2, (0.0, 0.0), ((1.0, 0.0),))
        b = cf.AffineSubspace(e2, (0.0, 1.0), ((1.0, 0.0),))
        spec = GridSpec(h=0.125, window=((-2.0, 2.0), (-2.0, 2.0)))
        result = check_against_loop(a, b, spec, same_pair=True)
        assert result.a.payload == (-2.0, 0.0) and result.dist == 1.0

    def test_overlapping_lattices(self, e2):
        # x <= 0.5 and x >= 0 share five lattice columns: ties at distance 0.
        a = cf.Halfspace(e2, (1.0, 0.0), 0.5)
        b = cf.Halfspace(e2, (-1.0, 0.0), 0.0)
        spec = GridSpec(h=0.125, window=((-1.0, 1.0), (-1.0, 1.0)), surface="full")
        result = check_against_loop(a, b, spec, same_pair=True)
        assert result.dist == 0.0

    def test_overlapping_trees(self, caterpillar):
        a = cf.TreeSegment(caterpillar, caterpillar.at(0, 0.5), caterpillar.at(3, 1.0))
        b = cf.Subtree(caterpillar, ("B", "C", "D"))
        result = check_against_loop(a, b, GridSpec(h=0.1), same_pair=True)
        assert result.dist == 0.0

    @pytest.mark.parametrize("h, exact", [(0.125, True), (0.1, False)])
    def test_full_lattices(self, e2, h, exact):
        # Lattice chunks wrap from one column to the next, so their radii are
        # far larger than a run along a curve.
        a = cf.Halfspace(e2, (1.0, 0.0), 0.0)
        b = cf.Halfspace(e2, (-1.0, -0.25), -0.5)
        spec = GridSpec(h=h, window=((-1.0, 1.0), (-1.0, 1.0)), surface="full")
        check_against_loop(a, b, spec, same_pair=exact)

    def test_disk_balls_near_boundary(self, disk):
        # Moduli up to 1 - 4e-9: the Mobius quotient's rounding grows like
        # 1 / (1 - M^2).  The nearest pair lies on the real axis.
        a = cf.DiskBall(disk, complex(1.0 - 1e-8, 0.0), 1.0)
        b = cf.DiskBall(disk, complex(1.0 - 1e-6, 0.0), 1.0)
        assert max(abs(p.payload) for p in a.grid(GridSpec(h=0.1))) > 1.0 - 4e-9
        check_against_loop(a, b, GridSpec(h=0.1), same_pair=True)

    def test_disk_balls_far_apart_near_boundary(self, disk):
        # Distances near 34, where the quotient rounds to within 1e-15 of 1:
        # the distance bounds are unusable, so no chunk pair is pruned, and
        # the pair is still the unpruned scan's.
        a = cf.DiskBall(disk, complex(1.0 - 1e-8, 0.0), 1.0)
        b = cf.DiskBall(disk, complex(1.0 - 1e-8, 0.0) * complex(0.8, 0.6), 1.0)
        spec = GridSpec(h=0.1)
        full = full_scan(a, b, spec)
        for chunk in (1, 3, analysis._CHUNK):
            with mock.patch.object(analysis, "_CHUNK", chunk):
                result = cf.best_pair_bruteforce(a, b, spec)
            assert (result.a, result.b) == full

    def test_tree_with_long_edges(self):
        tree = cf.MetricTree(
            ("r", "x", "y", "z", "w"),
            (("r", "x", 1000.0), ("r", "y", 0.001), ("y", "z", 750.0), ("y", "w", 1e-3)),
        )
        space = cf.TreeSpace(tree)
        a = cf.TreeSegment(space, space.at(0, 10.0), space.at(0, 1000.0))
        b = cf.Subtree(space, ("y", "z", "w"))
        result = check_against_loop(a, b, GridSpec(h=7.5), same_pair=True)
        assert result.a == space.at(0, 10.0) and result.b == space.vertex("y")

    @pytest.mark.parametrize("ratio, scored", [(4.0, 1), (0.5, 2)])
    def test_near_tie_at_the_margin(self, e2, ratio, scored):
        # p sits eps off the bisector of the lattice points q1 = (0, 0) and
        # q2 = (h, 0), nearer q2; d(p, q1)^2 - d(p, q2)^2 = 2 h eps = ratio m,
        # with m the margin by which the least kernel value the oracle
        # allows q1 falls below d(p, q1)^2.  With one point per chunk, q2 is
        # scored first; q1 is pruned when the gap is four times the margin,
        # and scored when it is half of it.
        h = 0.125
        line = cf.AffineSubspace(e2, (0.0, 0.0), ((1.0, 0.0),))
        spec = GridSpec(h=h, window=((-1.0, 1.0), (-1.0, 1.0)))
        error, least_value = e2._rounding_model(None, None)
        d = math.hypot(h / 2, 1.0)
        margin = d * d - least_value(d - error(d) - analysis._gamma(4) * d)
        a = cf.AffineSubspace(e2, (h / 2 + ratio * margin / (2 * h), 1.0), ())
        with mock.patch.object(analysis, "_CHUNK", 1):
            result = cf.best_pair_bruteforce(a, line, spec)
        assert result.b.payload == (h, 0.0)
        assert result.pairs_scored == scored
        check_against_loop(a, line, spec, same_pair=True)

    @settings(max_examples=150, deadline=None)
    @given(clouds())
    def test_random_clouds(self, case):
        # Unordered points: chunks are not runs along a curve, their radii
        # are large, and repeated points make exact ties.
        check_against_loop(*case, same_pair=True)


class TestPrunedWork:
    """Deterministic work counts: the pruning really cuts the scan."""

    def test_default_ball_ball(self, instances):
        inst = instances["ball-ball"]
        result = cf.best_pair_bruteforce(inst.set_a, inst.set_b, inst.grid)
        pairs = len(inst.set_a.grid(inst.grid)) * len(inst.set_b.grid(inst.grid))
        assert result.pairs_scored < 0.05 * pairs

    def test_big_tree_seed_3(self):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        (inst,) = config_from_json(workloads.big_tree_config(3)).instances
        result = cf.best_pair_bruteforce(inst.set_a, inst.set_b, inst.grid)
        pairs = len(inst.set_a.grid(inst.grid)) * len(inst.set_b.grid(inst.grid))
        assert pairs > 500_000
        assert result.pairs_scored < 0.05 * pairs


class TestAsymptoticCenter:
    def test_constant_sequence(self, e2):
        p = e2.point((0.3, 0.4))
        est = cf.estimate_asymptotic_center([p] * 10)
        assert est.center == p
        assert est.radius == 0.0

    def test_alternating_pair_midpoint(self, e1):
        tail = [e1.point((-1.0,)), e1.point((1.0,))] * 5
        est = cf.estimate_asymptotic_center(tail)
        assert est.center.payload == (0.0,)
        assert est.radius == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("base_name", ["disk", "tripod_space"])
    @pytest.mark.parametrize("product", [False, True], ids=["base", "product"])
    def test_alternating_pair_midpoint_in_every_space(self, request, base_name, product):
        # p and q tie in radius, so their payload keys are compared; a disk
        # product's keys come from two complex numbers, which do not order.
        base = request.getfixturevalue(base_name)
        if base_name == "disk":
            p, q = base.point((-0.5, 0.0)), base.point((0.5, 0.2))
        else:
            p, q = base.at(0, 0.5), base.at(1, 0.25)
        space = base
        if product:
            space = cf.ConvexCombinationSpace(base, 0.5)
            p, q = space.pair(p, q), space.pair(q, p)
        est = cf.estimate_asymptotic_center([p, q] * 5)
        assert space.distance(est.center, space.interpolate(p, q, 0.5)) <= 1e-12
        assert est.radius == pytest.approx(0.5 * space.distance(p, q), abs=1e-12)

    def test_permutation_invariance(self, e2, rng):
        tail = [e2.random_point(rng) for _ in range(12)]
        est1 = cf.estimate_asymptotic_center(tail)
        shuffled = list(tail)
        rng.shuffle(shuffled)
        est2 = cf.estimate_asymptotic_center(shuffled)
        assert est1.center == est2.center

    def test_convergent_tail_near_limit(self, e2):
        a = cf.EuclideanBall(e2, (0.0, 0.0), 1.0)
        b = cf.Halfspace(e2, (-1.0, 0.0), -2.0)
        trace = cf.picard(cf.averaged_projections(a, b, 0.5), e2.point((5, 5)), 400)
        est = cf.estimate_asymptotic_center(trace.points[-50:])
        assert e2.distance(est.center, e2.point((1.5, 0.0))) <= 1e-4

    def test_empty_tail_rejected(self):
        with pytest.raises(cf.DomainError):
            cf.estimate_asymptotic_center([])


class TestDeltaLimit:
    def test_line_line_positive(self, e2):
        a = cf.AffineSubspace(e2, (0.0, 0.0), ((1.0, 0.0),))
        b = cf.AffineSubspace(e2, (0.0, 1.0), ((1.0, 0.0),))
        trace = cf.picard(cf.averaged_projections(a, b, 0.5), e2.point((0, 4)), 100)
        verdict = cf.check_delta_limit(trace, e2.point((0.0, 0.5)), tol=1e-4)
        assert verdict
        assert verdict.max_tail_distance == 0.0

    def test_ball_halfspace_positive_and_negative(self, e2):
        a = cf.EuclideanBall(e2, (0.0, 0.0), 1.0)
        b = cf.Halfspace(e2, (-1.0, 0.0), -2.0)
        trace = cf.picard(cf.averaged_projections(a, b, 0.5), e2.point((5, 5)), 20_000)
        good = cf.check_delta_limit(trace, e2.point((1.5, 0.0)), tol=1e-4)
        assert good.ok
        wrong = cf.check_delta_limit(trace, e2.point((0.0, 0.0)), tol=1e-4)
        assert not wrong.ok

    def test_diverging_trace_flagged(self, e1):
        # doubling map walks away from the claimed point
        class Doubler(cf.Mapping):
            kind = "doubler"

            def __init__(self, space):
                self._space = space

            @property
            def space(self):
                return self._space

            def _step(self, p):
                return (2.0 * p[0] + 1.0,)

        trace = cf.picard(Doubler(e1), e1.point((1.0,)), 40)
        verdict = cf.check_delta_limit(trace, e1.point((0.0,)), tol=1e-4)
        assert not verdict.ok
        assert verdict.diverging
