"""Projection correctness for every convex-set kind.

Closed-form expectations are written inline with independent arithmetic;
the scalar Euclidean projections are also compared with numpy formulas;
disk-segment projections are also cross-checked against dense parameter
scans, and tree projections against a fine brute-force grid that
uses only the distance function.
"""

import cmath
import itertools
import math
import random

import numpy as np
import pytest

import cat0feas as cf
from cat0feas import GridSpec, Point, sets
from cat0feas.spaces import DISK_MAX_NORM, REL_TOL


def euclidean_sets(e2):
    return [
        cf.Halfspace(e2, (1.0, 0.0), 0.0),
        cf.AffineSubspace(e2, (0.0, 1.0), ((1.0, 0.0),)),
        cf.EuclideanBall(e2, (0.0, 0.0), 1.0),
    ]


def tree_sets(tri):
    return [
        cf.TreeSegment(tri, tri.at(0, 0.5), tri.at(0, 1.0)),
        cf.Subtree(tri, ("O", "A")),
    ]


def disk_sets(disk):
    return [
        cf.DiskGeodesicSegment(disk, disk.point((-0.3, 0.2)), disk.point((0.4, 0.1))),
        cf.DiskBall(disk, complex(0.1, -0.1), 0.6),
    ]


class TestEuclideanProjections:
    def test_halfspace_boundary_foot(self, e2):
        hs = cf.Halfspace(e2, (1.0, 0.0), 0.0)  # x1 <= 0
        assert hs.project(e2.point((2, 0))).payload == (0.0, 0.0)
        inside = e2.point((-1, 3))
        assert hs.project(inside) == inside

    def test_halfspace_unnormalized_normal(self, e2):
        hs = cf.Halfspace(e2, (2.0, 0.0), 4.0)  # 2 x1 <= 4, i.e. x1 <= 2
        got = hs.project(e2.point((5, 1)))
        assert got.payload == pytest.approx((2.0, 1.0))

    def test_ball_radial(self, e2):
        ball = cf.EuclideanBall(e2, (0.0, 0.0), 1.0)
        assert ball.project(e2.point((2, 0))).payload == (1.0, 0.0)
        inside = e2.point((0.2, -0.3))
        assert ball.project(inside) == inside

    def test_affine_line(self, e2):
        line = cf.AffineSubspace(e2, (0.0, 1.0), ((1.0, 0.0),))
        assert line.project(e2.point((3, 5))).payload == pytest.approx((3.0, 1.0))

    def test_affine_point_set(self, e2):
        singleton = cf.AffineSubspace(e2, (2.0, -1.0), ())
        assert singleton.project(e2.point((9, 9))).payload == (2.0, -1.0)

    def test_affine_dependent_basis(self, e5):
        # two parallel basis rows span a line
        line = cf.AffineSubspace(
            e5, (0.0,) * 5, ((1.0, 0, 0, 0, 0), (2.0, 0, 0, 0, 0))
        )
        got = line.project(e5.point((3, 1, 1, 1, 1)))
        assert got.payload == pytest.approx((3.0, 0, 0, 0, 0))

    def test_invalid_constructions(self, e2):
        with pytest.raises(cf.DomainError):
            cf.Halfspace(e2, (0.0, 0.0), 1.0)
        with pytest.raises(cf.DomainError):
            cf.EuclideanBall(e2, (0.0, 0.0), 0.0)

    @pytest.mark.parametrize(
        "make",
        [
            lambda e2: cf.Halfspace(e2, (math.inf, 0.0), 1.0),
            lambda e2: cf.Halfspace(e2, (1.0, math.nan), 1.0),
            lambda e2: cf.Halfspace(e2, (1.0, 0.0), -math.inf),
            lambda e2: cf.Halfspace(e2, (1e-320, 0.0), 2.0),  # offset / |normal| overflows
            lambda e2: cf.AffineSubspace(e2, (0.0, math.inf), ((1.0, 0.0),)),
            lambda e2: cf.AffineSubspace(e2, (0.0, 0.0), ((1.0, 0.0), (math.nan, 1.0))),
            lambda e2: cf.EuclideanBall(e2, (-math.inf, 0.0), 1.0),
            lambda e2: cf.EuclideanBall(e2, (0.0, 0.0), math.inf),
        ],
    )
    def test_non_finite_parameters_rejected(self, e2, make):
        with pytest.raises(cf.DomainError, match="finite|overflows"):
            make(e2)

    @pytest.mark.parametrize(
        "normal, offset, reference",
        [
            # math.hypot and the max-component scaling keep these exact; the
            # norm of the unscaled vector overflows or underflows.
            ((1e308, 1e308), 1e308, ((1.0, 1.0), 1.0)),
            ((1e308, 1e308), 0.0, ((1.0, 1.0), 0.0)),
            ((1e-320, 0.0), 2 * 1e-320, ((1.0, 0.0), 2.0)),
            ((1e-320, 0.0), 0.0, ((1.0, 0.0), 0.0)),
            ((1e-320, 1e-320), 0.0, ((1.0, 1.0), 0.0)),
        ],
    )
    def test_normal_scale_does_not_matter(self, e2, normal, offset, reference):
        hs, ref = cf.Halfspace(e2, normal, offset), cf.Halfspace(e2, *reference)
        rng = random.Random(2)
        for _ in range(50):
            x = e2.random_point(rng, 4.0)
            assert hs.project(x) == ref.project(x)
            assert hs.contains(x, tol=0.0) == ref.contains(x, tol=0.0)


def _numpy_halfspace(hs, x):
    n = np.asarray(hs.normal)
    norm = float(np.linalg.norm(n))
    u, c = n / norm, hs.offset / norm
    gap = float(np.dot(u, x)) - c
    if gap <= 0.0:
        return x
    return tuple(float(v) for v in np.asarray(x) - gap * u)


def _numpy_affine(flat, x):
    q, a = flat._orthonormal, np.asarray(flat.anchor)
    return tuple(float(v) for v in a + q.T @ (q @ (np.asarray(x) - a)))


def _numpy_ball(ball, x):
    diff = np.asarray(x) - np.asarray(ball.center)
    norm = float(np.linalg.norm(diff))
    if norm <= ball.radius:
        return x
    return tuple(float(v) for v in np.asarray(ball.center) + (ball.radius / norm) * diff)


def _euclidean_cases(dim, shift, rng):
    """Seeded sets of every Euclidean kind near `shift`, each with test points:
    random ones, ones on the boundary, and ones inside."""
    space = cf.EuclideanSpace(dim)
    base = [shift] * dim

    def near(spread):
        return tuple(b + rng.uniform(-spread, spread) for b in base)

    normal = tuple(rng.gauss(0.0, 1.0) for _ in range(dim))
    foot = near(1.0)
    hs = cf.Halfspace(space, normal, sum(n * f for n, f in zip(normal, foot)))
    axis = cf.Halfspace(space, (1.0,) + (0.0,) * (dim - 1), foot[0])
    rows = tuple(tuple(rng.gauss(0.0, 1.0) for _ in range(dim)) for _ in range(max(dim - 2, 1)))
    flat = cf.AffineSubspace(space, near(1.0), rows)
    point_set = cf.AffineSubspace(space, near(1.0), ())
    ball = cf.EuclideanBall(space, near(1.0), rng.uniform(0.5, 2.0))
    cases = []
    for cset in (hs, axis, flat, point_set, ball):
        pts = [near(3.0) for _ in range(40)]
        pts += [cset.project(space.point(p)).payload for p in pts[:20]]
        if cset is ball:
            for _ in range(20):
                d = [rng.gauss(0.0, 1.0) for _ in range(dim)]
                s = ball.radius / math.hypot(*d)
                pts.append(tuple(c + s * v for c, v in zip(ball.center, d)))
        if cset is axis:
            pts += [(foot[0],) + near(3.0)[1:] for _ in range(10)]
        cases.append((cset, [space.point(p) for p in pts]))
    return cases


NUMPY_FORMS = {
    cf.Halfspace: _numpy_halfspace,
    cf.AffineSubspace: _numpy_affine,
    cf.EuclideanBall: _numpy_ball,
}


class TestEuclideanScalarForms:
    """The plain-Python projections against the numpy formulas they replace."""

    @pytest.mark.parametrize("dim", [1, 2, 5])
    @pytest.mark.parametrize("shift", [0.0, 1e6])
    def test_projections_match_numpy(self, dim, shift):
        rng = random.Random(f"scalar:{dim}:{shift}")
        for cset, points in _euclidean_cases(dim, shift, rng):
            for x in points:
                got = cset.project(x).payload
                want = NUMPY_FORMS[type(cset)](cset, x.payload)
                mag = max(1.0, *map(abs, x.payload), *map(abs, want))
                for g, w in zip(got, want):
                    assert abs(g - w) <= 8 * math.ulp(mag), (cset, x, got, want)

    @pytest.mark.parametrize("dim", [1, 2, 5])
    @pytest.mark.parametrize("shift", [0.0, 1e6])
    def test_members_come_back_unchanged(self, dim, shift):
        rng = random.Random(f"members:{dim}:{shift}")
        for cset, points in _euclidean_cases(dim, shift, rng):
            if isinstance(cset, cf.AffineSubspace):
                continue
            members = 0
            for x in points:
                inside = cset.contains(x, tol=0.0)
                members += inside
                assert (cset.project(x) is x) == inside
            assert members >= 10

    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_p2_residual_within_relative_tolerance(self, dim):
        # P2 holds exactly for a metric projection; the residual is rounding,
        # bounded relative to the sum of its squared-distance terms.  The
        # points sit near the sets, at the scale of their distances.
        rng = random.Random(f"p2:{dim}")
        for cset, points in _euclidean_cases(dim, 0.0, rng):
            space, proj = cset.space, cf.ProjectionMap(cset)
            for x, y in zip(points, reversed(points)):
                tx, ty = proj(x), proj(y)
                d2 = [space.distance(a, b) ** 2 for a, b in ((x, ty), (y, tx), (x, tx), (y, ty))]
                scale = 2.0 * space.distance(tx, ty) ** 2 + sum(d2)
                res = cf.check_p2(proj, x, y)
                assert res.ok and res.scale == scale
                assert res.residual <= REL_TOL * scale

    def test_payloads_are_float_tuples(self, e2, e5):
        rng = random.Random(4)
        spec = GridSpec(h=0.25, window=((-1.0, 1.0),) * 2)
        payloads = []
        for cset in euclidean_sets(e2) + [cf.Halfspace(e2, (1.0, 1.0), 0.5)]:
            for surface in ("auto", "full"):
                payloads += [p.payload for p in cset.grid(GridSpec(spec.h, spec.window, surface))]
            for _ in range(20):
                payloads.append(cset.project(e2.random_point(rng, 2.0)).payload)
                payloads.append(cset.project(e2.random_point(rng, 3.0)).payload)
        for cset, _ in _euclidean_cases(5, 0.0, rng):
            payloads += [cset.project(e5.random_point(rng, 2.0)).payload for _ in range(5)]
            payloads += [cset.project(e5.random_point(rng, 3.0)).payload for _ in range(5)]
        assert len(payloads) > 400
        for p in payloads:
            assert type(p) is tuple and all(type(c) is float for c in p), p


class TestTreeProjections:
    def test_subtree_gate_is_center(self, tripod_space):
        tri = tripod_space
        # from leg B at arc 1, the path into the A-leg subtree enters at O
        sub = cf.Subtree(tri, ("O", "A"))
        assert sub.project(tri.at(1, 1.0)) == tri.vertex("O")

    def test_subtree_interior_fixed(self, tripod_space):
        tri = tripod_space
        sub = cf.Subtree(tri, ("O", "A"))
        p = tri.at(0, 0.7)
        assert sub.project(p) == p

    def test_single_vertex_subtree(self, tripod_space):
        tri = tripod_space
        sub = cf.Subtree(tri, ("A",))
        assert sub.project(tri.at(1, 0.25)) == tri.vertex("A")

    def test_disconnected_subtree_rejected(self, tripod_space):
        with pytest.raises(cf.DomainError):
            cf.Subtree(tripod_space, ("A", "B"))

    def test_connectivity_matches_a_search_on_every_vertex_subset(self):
        # A 7-vertex tree with a branch point of degree 3 and one of degree 2.
        edges = (("A", "B"), ("B", "C"), ("B", "D"), ("D", "E"), ("E", "F"), ("E", "G"))
        tree = cf.MetricTree(vertices=tuple("ABCDEFG"), edges=[(u, v, 1.0) for u, v in edges])
        space = cf.TreeSpace(tree)
        for size in range(1, 8):
            for subset in itertools.combinations("ABCDEFG", size):
                reach, frontier = {subset[0]}, [subset[0]]
                while frontier:
                    v = frontier.pop()
                    for u, w in edges:
                        for a, b in ((u, w), (w, u)):
                            if a == v and b in subset and b not in reach:
                                reach.add(b)
                                frontier.append(b)
                if len(reach) == size:
                    assert cf.Subtree(space, subset).vertex_names == subset
                else:
                    with pytest.raises(cf.DomainError, match="connected subgraph"):
                        cf.Subtree(space, subset)

    def test_segment_projection_clamps(self, tripod_space):
        tri = tripod_space
        seg = cf.TreeSegment(tri, tri.at(0, 0.5), tri.at(0, 1.0))
        # from another leg, the closest segment point is the inner endpoint
        assert seg.project(tri.at(1, 1.0)) == tri.at(0, 0.5)
        # from beyond the far endpoint it is the far endpoint, i.e. vertex A
        assert seg.project(tri.vertex("A")) == tri.vertex("A")

    def test_against_bruteforce_grid(self, caterpillar, rng):
        sp = caterpillar
        sets = [
            cf.TreeSegment(sp, sp.at(0, 0.25), sp.at(3, 1.5)),
            cf.Subtree(sp, ("B", "C", "E")),
        ]
        for cset in sets:
            fine = cset.grid(GridSpec(h=1e-3))
            for _ in range(25):
                x = sp.random_point(rng)
                got = cset.project(x)
                assert cset.contains(got)
                d_grid = min(sp.distance(x, g) for g in fine)
                assert sp.distance(x, got) <= d_grid + 1e-9


class TestDiskProjections:
    def test_ball_along_geodesic(self, disk):
        ball = cf.DiskBall(disk, 0j, 2.0 * math.atanh(0.5))
        # radial point at Euclidean 0.9 projects to Euclidean 0.5
        got = ball.project(disk.point((0.9, 0.0)))
        assert got.payload.real == pytest.approx(0.5, abs=1e-12)
        inside = disk.point((0.1, 0.2))
        assert ball.project(inside) == inside

    def test_segment_against_dense_scan(self, disk, rng):
        seg = disk_sets(disk)[0]
        ts = [k / 10_000 for k in range(10_001)]
        marks = [disk.interpolate(seg.start, seg.end, t) for t in ts]
        for _ in range(15):
            x = disk.random_point(rng)
            got = seg.project(x)
            best = min(disk.distance(x, m) for m in marks)
            assert disk.distance(x, got) <= best + 1e-6

    def test_segment_endpoints_project_to_themselves(self, disk):
        seg = disk_sets(disk)[0]
        assert disk.distance(seg.project(seg.start), seg.start) <= 1e-9

    @pytest.mark.parametrize("y", [0.5, 0.9, -0.3])
    def test_segment_symmetric_foot_is_exact(self, disk, y):
        # The real axis and the imaginary axis meet at right angles in 0, so
        # the nearest point of [-0.5, 0.5] to iy is the origin.
        seg = cf.DiskGeodesicSegment(disk, disk.point((-0.5, 0.0)), disk.point((0.5, 0.0)))
        assert abs(seg.project(disk.point((0.0, y))).payload) <= 1e-14

    def test_segment_foot_is_nearest_point_on_segment(self, disk):
        rng = random.Random(2718)
        ts = [k / 2000 for k in range(2001)]
        for _ in range(10):
            seg = cf.DiskGeodesicSegment(disk, disk.random_point(rng), disk.random_point(rng))
            marks = [disk.interpolate(seg.start, seg.end, t) for t in ts]
            for _ in range(10):
                x = disk.random_point(rng)
                got = seg.project(x)
                assert seg.contains(got, tol=1e-12)
                dx = disk.distance(x, got)
                assert all(dx <= disk.distance(x, m) + 1e-12 for m in marks)

    def test_segment_foot_beyond_an_end_returns_that_end(self, disk):
        seg = cf.DiskGeodesicSegment(disk, disk.point((-0.5, 0.0)), disk.point((0.5, 0.0)))
        assert seg.project(disk.point((0.8, 0.1))) is seg.end
        assert seg.project(disk.point((-0.7, -0.4))) is seg.start
        assert seg.project(seg.end) is seg.end


class TestProductSetProjections:
    def test_rectangle_componentwise(self, e2):
        ball = cf.EuclideanBall(e2, (0.0, 0.0), 1.0)
        half = cf.Halfspace(e2, (-1.0, 0.0), -2.0)
        cs = cf.ConvexCombinationSpace(e2, 0.5)
        rect = cf.ProductRectangle(cs, ball, half)
        p = cs.pair(e2.point((2, 0)), e2.point((0, 7)))
        got = rect.project(p)
        assert got.payload[0] == (1.0, 0.0)
        assert got.payload[1] == (2.0, 7.0)

    def test_rectangle_requires_base_sets(self, e2, e5):
        cs = cf.ConvexCombinationSpace(e2, 0.5)
        with pytest.raises(cf.DomainError):
            cf.ProductRectangle(cs, cf.EuclideanBall(e5, (0.0,) * 5, 1.0),
                                cf.EuclideanBall(e2, (0.0, 0.0), 1.0))


class TestProjectionProperties:
    def all_sets(self):
        e2 = cf.EuclideanSpace(2)
        tri = cf.tripod()
        disk = cf.PoincareDiskSpace()
        cases = [(s, e2) for s in euclidean_sets(e2)]
        cases += [(s, tri) for s in tree_sets(tri)]
        cases += [(s, disk) for s in disk_sets(disk)]
        cs = cf.ConvexCombinationSpace(e2, 0.5)
        cases.append((cf.ProductRectangle(cs, euclidean_sets(e2)[2], euclidean_sets(e2)[0]), cs))
        cases.append((cf.DiagonalSet(cs), cs))
        return cases

    def test_idempotence_membership_minimality(self):
        rng = random.Random(31337)
        for cset, space in self.all_sets():
            for _ in range(20):
                x = space.random_point(rng, 2.0)
                px = cset.project(x)
                assert cset.contains(px, tol=1e-7)
                # idempotence
                assert space.distance(cset.project(px), px) <= 1e-9
                # nonexpansiveness against a second point
                y = space.random_point(rng, 2.0)
                py = cset.project(y)
                assert space.distance(px, py) <= space.distance(x, y) + 1e-9
                # minimality against sampled members
                dx = space.distance(x, px)
                for _ in range(25):
                    w = cset.project(space.random_point(rng, 2.0))
                    assert dx <= space.distance(x, w) + 1e-7

    def test_grid_points_are_members(self):
        for cset, space in self.all_sets():
            if isinstance(cset, (cf.ProductRectangle, cf.DiagonalSet)):
                continue
            spec = GridSpec(h=0.05, window=((-3.0, 3.0),) * 2)
            for g in itertools.islice(cset.grid(spec), 200):
                assert cset.contains(g, tol=1e-7)

    def test_geodesic_convexity_sampled(self):
        rng = random.Random(11)
        for cset, space in self.all_sets():
            for _ in range(10):
                y = cset.project(space.random_point(rng, 2.0))
                z = cset.project(space.random_point(rng, 2.0))
                for t in (0.25, 0.5, 0.75):
                    assert cset.contains(space.interpolate(y, z, t), tol=1e-7)


def grid_sets():
    """One set per grid route, and the surface its grid is asked for."""
    e2, disk, tri = cf.EuclideanSpace(2), cf.PoincareDiskSpace(), cf.tripod()
    return [
        (cf.EuclideanBall(e2, (0.0, 0.0), 1.0), "auto"),
        (cf.EuclideanBall(e2, (0.0, 0.0), 1.0), "full"),
        (cf.Halfspace(e2, (1.0, 0.0), 0.0), "auto"),
        (cf.Halfspace(e2, (1.0, 0.0), 0.0), "full"),
        (cf.AffineSubspace(e2, (0.0, 0.0), ((1.0, 1.0),)), "auto"),
        (cf.TreeSegment(tri, tri.vertex("A"), tri.vertex("B")), "auto"),
        (cf.DiskGeodesicSegment(disk, disk.point((0.0, 0.0)), disk.point((0.5, 0.0))), "auto"),
        (cf.Subtree(tri, ("O", "A", "B")), "auto"),
        (cf.DiskBall(disk, 0j, 1.0), "auto"),
        (cf.DiskBall(disk, 0j, 1.0), "full"),
    ]


def _flat_payloads(origin, basis, window, h):
    """A flat's lattice as one point at a time, with the radius as a sum of
    squares and the window test one coordinate at a time."""
    radius = math.sqrt(sum(max(abs(lo), abs(hi)) ** 2 for lo, hi in window))
    half = np.arange(0.0, radius + h, h)
    steps = np.concatenate([-half[:0:-1], half])
    mesh = np.meshgrid(*([steps] * len(basis)), indexing="ij")
    coords = origin + np.stack([m.ravel() for m in mesh], axis=1) @ basis
    return [
        tuple(map(float, c))
        for c in coords
        if all(lo - 1e-12 <= x <= hi + 1e-12 for x, (lo, hi) in zip(c, window))
    ]


def scalar_grid(cset, spec):
    """The payloads of cset's grid, built one point at a time from the scalar
    operations: interpolate, vertex and at, math.cos and sin, _mobius_shift."""
    h, auto = spec.h, spec.surface == "auto"
    space = cset.space
    if isinstance(cset, cf.EuclideanBall) and auto:
        (cx, cy), r = cset.center, cset.radius
        n = sets._even(max(8, sets._steps(2.0 * math.pi * r, h)))
        return [
            (cx + r * math.cos(2.0 * math.pi * k / n), cy + r * math.sin(2.0 * math.pi * k / n))
            for k in range(n)
        ]
    if isinstance(cset, cf.EuclideanBall):
        win = tuple((c - cset.radius, c + cset.radius) for c in cset.center)
        pts = sets._box_lattice(win, spec)
        keep = np.linalg.norm(pts - np.array(cset.center), axis=1) <= cset.radius
        return [tuple(map(float, p)) for p in pts[keep]]
    if isinstance(cset, cf.Halfspace) and auto:
        u, c = cset._unit
        basis = np.linalg.svd(np.array([u]), full_matrices=True)[2][1:]
        return _flat_payloads(c * np.array(u), basis, spec.window, h)
    if isinstance(cset, cf.Halfspace):
        pts = map(tuple, sets._box_lattice(spec.window, spec).tolist())
        return [p for p in pts if cset._gap(p) <= 0.0]
    if isinstance(cset, cf.AffineSubspace):
        if not cset.basis:
            return [cset.anchor]
        return _flat_payloads(np.array(cset.anchor), cset._orthonormal, spec.window, h)
    if isinstance(cset, (cf.TreeSegment, cf.DiskGeodesicSegment)):
        if cset.length == 0.0:
            return [cset.start.payload]
        n = max(1, sets._steps(cset.length, h))
        return [space.interpolate(cset.start, cset.end, k / n).payload for k in range(n + 1)]
    if isinstance(cset, cf.Subtree):
        payloads = [space.vertex(v).payload for v in cset.vertex_names]
        for i in cset._edges_in:
            length = space.tree.edges[i][2]
            n = max(1, sets._steps(length, h))
            payloads += [space.at(i, length * k / n).payload for k in range(1, n)]
        return payloads
    if isinstance(cset, cf.DiskBall):
        rings = 1 if auto else max(1, sets._steps(cset.radius, h))
        payloads = [] if auto else [cset.center]
        for s in (cset.radius * k / rings for k in range(1, rings + 1)):
            n = sets._even(max(8, sets._steps(2.0 * math.pi * math.sinh(s), h)))
            rho = math.tanh(0.5 * s)
            payloads += [
                sets._mobius_shift(cset.center, rho * cmath.exp(2j * math.pi * k / n))
                for k in range(n)
            ]
        return payloads
    raise AssertionError(f"no scalar grid for {cset.kind}")


class TestGridRows:
    """A grid is packed rows; its items are the Points the scalar
    constructions give, bit for bit, and canonical."""

    @pytest.mark.parametrize(
        "cset, surface",
        grid_sets()
        + [
            (cf.AffineSubspace(cf.EuclideanSpace(2), (0.5, -0.25), ()), "auto"),
            (cf.TreeSegment(cf.tripod(), cf.tripod().vertex("A"), cf.tripod().vertex("A")),
             "auto"),
            (cf.DiskBall(cf.PoincareDiskSpace(), complex(-0.6, 0.3), 2.5), "auto"),
            (cf.DiskBall(cf.PoincareDiskSpace(), complex(0.2, 0.7), 0.9), "full"),
        ],
    )
    def test_rows_are_the_scalar_construction(self, cset, surface):
        spec = GridSpec(h=0.01, window=((-1.0, 1.0),) * 2, surface=surface)
        grid = cset.grid(spec)
        got, want = [p.payload for p in grid], scalar_grid(cset, spec)
        if isinstance(cset, cf.DiskGeodesicSegment):
            # The inner points come from the disk's _interp_rows, whose numpy
            # tanh and arctanh round apart from the math module's, within the
            # bound of test_spaces' test_interp_rows_match_interpolate; the
            # ends are the segment's own.
            assert len(got) == len(want) and all(type(g) is complex for g in got)
            assert repr([got[0], got[-1]]) == repr([want[0], want[-1]])
            bound = 256 * np.finfo(float).eps * (1.0 + cset.length)
            assert max(map(cset.space._distance, got, want)) <= bound
        else:
            # repr tells every float apart (the sign of zero too) and names
            # numpy scalar types, which a payload must not hold.
            assert repr(got) == repr(want)
        assert len(grid) == len(grid.rows) == len(got)
        for p in itertools.islice(grid, 0, None, 97):
            assert cset.space.point(p.payload) == p

    def test_half_line_boundary_is_its_foot(self):
        # The boundary of a half-line is a 0-dimensional flat: one point.
        E = cf.EuclideanSpace(1)
        half_line = cf.Halfspace(E, (1.0,), 0.0)
        spec = GridSpec(h=0.01, window=((-2.0, 2.0),))
        assert half_line.grid(spec).rows.tolist() == [[0.0]]
        result = cf.best_pair_bruteforce(half_line, cf.EuclideanBall(E, (3.0,), 1.0), spec)
        assert result.dist == 2.0
        assert (result.a.payload, result.b.payload) == ((0.0,), (2.0,))

    def test_tracer_sees_each_grid_once(self, monkeypatch):
        # A tracer wraps `grid` in each ConvexSet subclass that defines it and
        # counts len(result); each grid call must pass through exactly one
        # wrapper, and its result must answer len and `Point in`.
        calls = []

        def wrap(method):
            def traced(self, spec):
                result = method(self, spec)
                calls.append(len(result))
                return result

            return traced

        todo, found = [cf.ConvexSet], []
        while todo:
            cls = todo.pop()
            found.append(cls)
            todo.extend(cls.__subclasses__())
        for cls in found:
            if cls is not cf.ConvexSet and "grid" in vars(cls):
                monkeypatch.setattr(cls, "grid", wrap(vars(cls)["grid"]))
        for cset, surface in grid_sets():
            grid = cset.grid(GridSpec(h=0.05, window=((-1.0, 1.0),) * 2, surface=surface))
            assert calls == [len(grid)]
            calls.clear()
            assert grid[len(grid) // 2] in grid and grid[-1] in grid
            assert cset.space.random_point(random.Random(3), 5.0) not in grid

    @pytest.mark.parametrize("h", [0.05, 0.3])
    def test_oracle_winners_are_canonical(self, instances, tripod_space, h):
        tri = tripod_space
        cases = [(i.set_a, i.set_b, i.grid.window) for i in instances.values() if i.set_a]
        # A vertex winner: O, on the subtree, nearest the segment from B.
        cases.append(
            (cf.Subtree(tri, ("O", "A")), cf.TreeSegment(tri, tri.vertex("B"), tri.at(1, 0.5)),
             None)
        )
        for set_a, set_b, window in cases:
            result = cf.best_pair_bruteforce(set_a, set_b, GridSpec(h=h, window=window))
            for w in (result.a, result.b):
                assert repr(w.space.point(w.payload)) == repr(w)
        assert result.a == tri.vertex("O") and result.b == tri.at(1, 0.5)


class TestGridCap:
    """Every grid counts its points before it builds them."""

    @pytest.mark.parametrize("cset, surface", grid_sets())
    def test_cap_holds_for_every_grid(self, cset, surface, monkeypatch):
        spec = GridSpec(h=0.01, window=((-1.0, 1.0),) * 2, surface=surface)
        assert len(cset.grid(spec)) > 50
        monkeypatch.setattr(sets, "MAX_GRID_POINTS", 50)
        with pytest.raises(cf.DomainError, match="grid would hold over 50 points"):
            cset.grid(spec)

    @pytest.mark.parametrize("cset, surface", grid_sets())
    def test_tiny_step_is_refused(self, cset, surface):
        # length / 5e-324 overflows to inf, which math.ceil refuses.
        spec = GridSpec(h=5e-324, window=((-1.0, 1.0),) * 2, surface=surface)
        with pytest.raises(cf.DomainError, match="grid would hold over"):
            cset.grid(spec)

    @pytest.mark.parametrize(
        "cset",
        [
            cf.Halfspace(cf.EuclideanSpace(2), (1.0, 0.0), 0.0),
            cf.AffineSubspace(cf.EuclideanSpace(2), (0.0, 0.0), ((1.0, 1.0),)),
        ],
    )
    def test_wide_window_is_refused(self, cset):
        # Squaring 1e200 overflowed to a raw OverflowError.
        spec = GridSpec(h=1.0, window=((-1e200, 1e200), (-1.0, 1.0)))
        with pytest.raises(cf.DomainError, match="flat grid would hold over"):
            cset.grid(spec)


class TestGridSpecRejects:
    """A spec no grid can honour is refused when it is made, before any oracle
    scores a pair of two unit balls 3 apart."""

    @pytest.mark.parametrize(
        "spec, match",
        [
            # a raw ZeroDivisionError
            ({"h": 0.0}, "grid step h"),
            # 8-point circles, one pair scored
            ({"h": -0.01}, "grid step h"),
            # the full lattice, silently
            ({"h": 0.01, "surface": "ful"}, "unknown surface 'ful'"),
            # a GridSizeError asking to coarsen h
            ({"h": math.nan}, "grid step h"),
            ({"h": 0.01, "window": ((-1.0, math.nan), (-1.0, 1.0))}, "window bounds"),
            ({"h": 0.01, "window": ((-math.inf, 1.0),)}, "window bounds"),
        ],
        ids=["zero-step", "negative-step", "unknown-surface", "nan-step", "nan-window",
             "infinite-window"],
    )
    def test_unusable_spec_is_a_domain_error(self, spec, match):
        e2 = cf.EuclideanSpace(2)
        a, b = cf.EuclideanBall(e2, (0.0, 0.0), 1.0), cf.EuclideanBall(e2, (3.0, 0.0), 1.0)
        with pytest.raises(cf.DomainError, match=match):
            cf.best_pair_bruteforce(a, b, GridSpec(**spec))


class TestDiskBallRadius:
    """A disk ball lies in the representable disk: 2 artanh|c| + r stays
    within 2 artanh(DISK_MAX_NORM) (about 21.42), less 1e-6."""

    @pytest.mark.parametrize(
        "radius", [math.inf, math.nan, 1e300, 709.0, 0.0, -1.0, 40.0, 21.42]
    )
    def test_rejects_radius_without_finite_circumference(self, disk, radius):
        with pytest.raises(cf.DomainError, match="disk ball radius"):
            cf.DiskBall(disk, 0j, radius)

    @pytest.mark.parametrize("modulus", [0.0, 0.5, 0.99, 1.0 - 1e-6, 1.0 - 1e-8])
    def test_largest_ball_stays_in_the_representable_disk(self, disk, modulus):
        center = modulus * cmath.exp(0.7j)
        radius = sets._DISK_EXTENT - 2.0 * math.atanh(abs(center))
        while True:
            try:
                ball = cf.DiskBall(disk, center, radius)
                break
            except cf.DomainError:
                radius = math.nextafter(radius, 0.0)
        with pytest.raises(cf.DomainError, match="disk ball radius"):
            cf.DiskBall(disk, center, radius * (1.0 + 1e-9))
        rng = random.Random(5)
        # Points at the edge of the representable disk project onto the
        # ball's boundary, or are members themselves.
        edge = [disk.point(cmath.rect(1.0 - 2e-9, rng.uniform(0.0, 2.0 * math.pi)))
                for _ in range(2000)]
        moduli = [abs(ball.project(x).payload) for x in edge]
        for spec in (GridSpec(h=1e7), GridSpec(h=1e8, surface="full")):
            moduli += np.abs(ball.grid(spec).rows).tolist()
        assert max(moduli) <= DISK_MAX_NORM


def nine_kinds():
    """One set of each kind, keyed by kind."""
    e2, tri, disk = cf.EuclideanSpace(2), cf.tripod(), cf.PoincareDiskSpace()
    cs = cf.ConvexCombinationSpace(e2, 0.5)
    rect = cf.ProductRectangle(cs, euclidean_sets(e2)[2], euclidean_sets(e2)[0])
    every = euclidean_sets(e2) + tree_sets(tri) + disk_sets(disk) + [rect, cf.DiagonalSet(cs)]
    return {cset.kind: cset for cset in every}


SETS = nine_kinds()


class TestWrappers:
    """`ConvexSet.project` and `ConvexSet.contains` are each written once: the
    sets write only their payload formulas `_project` and `_contains`."""

    def test_no_set_defines_a_wrapper(self):
        assert len(SETS) == 9
        for cset in SETS.values():
            for cls in type(cset).__mro__[:-3]:  # up to ConvexSet, ABC, object
                assert not {"project", "contains", "sample"} & set(vars(cls)), cls

    @pytest.mark.parametrize("kind", sorted(SETS))
    def test_foreign_point_raises(self, kind):
        cset = SETS[kind]
        own = cset.space.reference_point()
        foreign = [
            cf.EuclideanSpace(3).point((0.0, 0.0, 0.0)),
            cf.tripod(2.0).vertex("O"),
            cf.PoincareDiskSpace().point(0j),
            cf.ConvexCombinationSpace(cf.EuclideanSpace(2), 0.25).reference_point(),
            own.payload,  # a payload is no Point
        ]
        for x in foreign:
            if isinstance(x, cf.Point) and x.space == cset.space:
                continue
            with pytest.raises(cf.SpaceMismatchError):
                cset.project(x)
            with pytest.raises(cf.SpaceMismatchError):
                cset.contains(x)

    @pytest.mark.parametrize("kind", ["halfspace", "ball", "disk-ball", "subtree"])
    def test_member_comes_back_itself(self, kind):
        cset = SETS[kind]
        space, rng = cset.space, random.Random(23)
        points = [space.random_point(rng, 2.0) for _ in range(200)]
        points += [cset.project(x) for x in points]
        kept = 0
        for x in points:
            # project keeps exactly the points its own member test admits.
            assert (cset.project(x) is x) == cset.contains(x, tol=0.0)
            kept += cset.project(x) is x
        assert kept >= 50

    def test_segment_ends_come_back_as_built(self, tripod_space, disk):
        tri = tripod_space
        cases = [
            # From leg A through O into leg B; beyond each end on its leg.
            (cf.TreeSegment(tri, tri.at(0, 0.5), tri.at(1, 0.25)), tri.at(0, 0.9), tri.at(1, 0.9)),
            (disk_sets(disk)[0], disk.point((-0.7, 0.26)), disk.point((0.8, 0.05))),
        ]
        for seg, before, beyond in cases:
            assert seg.project(before) is seg.start and seg.project(beyond) is seg.end
            assert seg.project(seg.start) is seg.start and seg.project(seg.end) is seg.end

    def test_rows_project_as_the_scalar_wrapper(self, tripod_space, caterpillar, disk):
        tri, cat = tripod_space, caterpillar
        a, b = disk.point((-0.3, 0.2)), disk.point((0.4, 0.1))
        cases = [
            cf.TreeSegment(tri, tri.at(0, 0.5), tri.at(0, 1.0)),
            cf.TreeSegment(tri, tri.at(0, 0.5), tri.at(1, 0.25)),
            cf.TreeSegment(tri, tri.at(1, 0.25), tri.at(1, 0.25)),  # zero length
            cf.TreeSegment(cat, cat.vertex("A"), cat.vertex("D")),
            cf.Subtree(tri, ("O", "A")),
            cf.Subtree(tri, ("A",)),
            cf.Subtree(cat, ("B", "C", "E")),
            cf.DiskGeodesicSegment(disk, a, b),
            cf.DiskGeodesicSegment(disk, a, a),  # zero length
        ]
        rng = random.Random(8)
        for cset in cases:
            space = cset.space
            points = [space.random_point(rng, 2.0) for _ in range(200)]
            if space.kind == "metric-tree":
                points += [space.vertex(v) for v in space.tree.vertices]
            else:
                # Beyond either end (t clamped to 0 or 1), and along the geodesic.
                points += [disk.point(p) for p in (-0.7 + 0.26j, 0.8 + 0.05j, 0.05 + 0.15j)]
            points += [cset.start, cset.end] if isinstance(cset, sets._Segment) else []
            images = [cset.project(x) for x in points]
            if isinstance(cset, sets._Segment) and cset.length > 0.0:
                # Some images sit at the ends: t in {0, 1}.
                assert {cset.start.payload, cset.end.payload} <= {y.payload for y in images}
            P = space._pack([x.payload for x in points])
            want = space._pack([y.payload for y in images])
            assert np.array_equal(cset._project_rows(P), want), cset


def scalar_projection_rows(cset, P):
    """`project` one row at a time, packed: what `_project_rows` must equal."""
    space = cset.space
    return space._pack([cset.project(Point(space, space._payload(p))).payload for p in P])


def assert_same_rows(got, want):
    """Equal rows, every field to the bit (tolist alone equates 0.0 and -0.0)."""
    assert got.tolist() == want.tolist()
    assert got.tobytes() == want.tobytes()


class TestRowProjections:
    """Tree segments, subtrees and disk segments project rows with the bits
    of `project`, at the cases random draws rarely reach."""

    def test_tree_segment_ends_vertices_and_zero_length(self, tripod_space, caterpillar):
        tri, cat = tripod_space, caterpillar
        cases = [
            cf.TreeSegment(tri, tri.vertex("A"), tri.vertex("B")),
            cf.TreeSegment(tri, tri.at(0, 0.5), tri.at(1, 0.25)),
            cf.TreeSegment(tri, tri.vertex("O"), tri.vertex("O")),  # zero length, at a vertex
            cf.TreeSegment(tri, tri.at(2, 0.5), tri.at(2, 0.5)),  # zero length, inside an edge
            cf.TreeSegment(cat, cat.at(0, 0.5), cat.at(0, 1.5)),  # on one edge
            cf.TreeSegment(cat, cat.vertex("A"), cat.at(2, 0.25)),
            # _interpolate(C, end, 1.0) walks to (0, 0.013689346782219447),
            # 4 ulps short of the end; points beyond the end must get it.
            cf.TreeSegment(cat, cat.vertex("C"), cat.at(0, 0.013689346782219503)),
        ]
        for cset in cases:
            space = cset.space
            vertices = [space.vertex(v).payload for v in space.tree.vertices]
            # Every vertex, and points of every edge at its ends, a quarter
            # and halfway: the feet hit both ends (t clamped to 0 and 1) and
            # vertices inside the segment.
            payloads = vertices + [
                space._canonical((e, f * length))
                for e, (_, _, length) in enumerate(space.tree.edges)
                for f in (0.0, 0.25, 0.5, 1.0)
            ]
            P = space._pack(payloads)
            got = cset._project_rows(P)
            assert_same_rows(got, scalar_projection_rows(cset, P))
            if cset.length > 0.0:
                ends = {cset.start.payload, cset.end.payload}
                assert ends <= set(map(space._payload, got))

    def test_subtree_rows_equally_near_two_vertices(self):
        # The path from p to the subtree {A, X} enters at X, but the edge X--A
        # is below the rounding of d(p, X), so A is as near: both project to
        # the first of the nearest, A (the names sort A, X).
        tree = cf.MetricTree(("P", "X", "A"), (("P", "X", 1.0), ("X", "A", 1e-17)))
        space = cf.TreeSpace(tree)
        sub = cf.Subtree(space, ("X", "A"))
        P = space._pack([(0, 0.0), (0, 0.25), (0, 0.5)])
        d = space._dist_rows
        for k in range(len(P)):
            assert d(P[k : k + 1], space._pack([space.vertex("A").payload])) == d(
                P[k : k + 1], space._pack([space.vertex("X").payload])
            )
        got = sub._project_rows(P)
        assert_same_rows(got, scalar_projection_rows(sub, P))
        assert got.tolist() == space._pack([space.vertex("A").payload] * 3).tolist()

    def test_subtree_members_by_the_exact_rule(self, caterpillar):
        # Vertices of the subtree sit on edges outside it (B is canonical on
        # edge 0), and keep their rows; a point on such an edge does not.
        cat = caterpillar
        sub = cf.Subtree(cat, ("B", "C", "E"))
        payloads = [cat.vertex(v).payload for v in "ABCDE"] + [(0, 1.0), (1, 0.5), (2, 0.25)]
        P = cat._pack(payloads)
        got = sub._project_rows(P)
        assert_same_rows(got, scalar_projection_rows(sub, P))
        kept = [p == g for p, g in zip(P.tolist(), got.tolist())]
        assert kept == [False, True, True, False, True, False, True, False]

    def test_disk_segment_on_random_draws(self, disk):
        rng = random.Random(29)
        for _ in range(200):
            a, b = disk._sample(rng, 1.0), disk._sample(rng, 1.0)
            seg = cf.DiskGeodesicSegment(disk, disk.point(a), disk.point(b))
            P = disk._pack([disk._sample(rng, 1.0) for _ in range(10)])
            assert_same_rows(seg._project_rows(P), scalar_projection_rows(seg, P))

    def test_disk_segment_on_the_axes(self, disk):
        # Zero parts of either sign: Python's complex arithmetic takes a
        # float operand as x + 0j, which the rows must round alike.
        axis = [0j, 0.5 + 0j, -0.5 + 0j, 0.5j, -0.5j, complex(-0.0, 0.4), complex(0.3, -0.0),
                complex(-0.0, -0.0)]
        P = disk._pack(axis + [0.1 + 0.1j, -0.7 + 0j, 0.8j])
        for a, b in itertools.product(axis, repeat=2):
            seg = cf.DiskGeodesicSegment(disk, disk.point(a), disk.point(b))
            assert_same_rows(seg._project_rows(P), scalar_projection_rows(seg, P))
