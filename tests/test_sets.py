"""Projection correctness for every convex-set kind.

Closed-form expectations are written inline with independent arithmetic;
the scalar Euclidean projections are also compared with numpy formulas;
disk-segment projections are also cross-checked against dense parameter
scans, and tree projections against a fine brute-force grid that
uses only the distance function.
"""

import math
import random

import numpy as np
import pytest

import cat0feas as cf
from cat0feas import GridSpec
from cat0feas.spaces import REL_TOL


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


def _numpy_ball_sample(ball, rng):
    direction = np.array([rng.gauss(0.0, 1.0) for _ in range(len(ball.center))])
    norm = float(np.linalg.norm(direction)) or 1.0
    r = ball.radius * rng.random() ** (1.0 / len(ball.center))
    return tuple(float(v) for v in np.asarray(ball.center) + (r / norm) * direction)


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
                assert cf.check_p2(proj, x, y) <= REL_TOL * scale

    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_ball_sample_keeps_the_random_stream(self, dim):
        space = cf.EuclideanSpace(dim)
        ball = cf.EuclideanBall(space, tuple(0.5 * k for k in range(dim)), 1.5)
        ours, theirs = random.Random(9), random.Random(9)
        for _ in range(200):
            got = ball.sample(ours).payload
            want = _numpy_ball_sample(ball, theirs)
            for g, w in zip(got, want):
                assert abs(g - w) <= 8 * math.ulp(max(1.0, abs(w)))
            assert ours.getstate() == theirs.getstate()

    def test_payloads_are_float_tuples(self, e2, e5):
        rng = random.Random(4)
        spec = GridSpec(h=0.25, window=((-1.0, 1.0),) * 2)
        payloads = []
        for cset in euclidean_sets(e2) + [cf.Halfspace(e2, (1.0, 1.0), 0.5)]:
            for surface in ("boundary", "full"):
                payloads += [p.payload for p in cset.grid(GridSpec(spec.h, spec.window, surface))]
            for _ in range(20):
                payloads.append(cset.sample(rng).payload)
                payloads.append(cset.project(e2.random_point(rng, 3.0)).payload)
        for cset, _ in _euclidean_cases(5, 0.0, rng):
            payloads += [cset.sample(rng).payload for _ in range(5)]
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
        assert got.payload[0].payload == (1.0, 0.0)
        assert got.payload[1].payload == (2.0, 7.0)

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
                    w = cset.sample(rng)
                    assert dx <= space.distance(x, w) + 1e-7

    def test_grid_points_are_members(self):
        for cset, space in self.all_sets():
            if isinstance(cset, (cf.ProductRectangle, cf.DiagonalSet)):
                continue
            spec = GridSpec(h=0.05, window=((-3.0, 3.0),) * 2)
            for g in cset.grid(spec)[:200]:
                assert cset.contains(g, tol=1e-7)

    def test_geodesic_convexity_sampled(self):
        rng = random.Random(11)
        for cset, space in self.all_sets():
            for _ in range(10):
                y, z = cset.sample(rng), cset.sample(rng)
                for t in (0.25, 0.5, 0.75):
                    assert cset.contains(space.interpolate(y, z, t), tol=1e-7)
