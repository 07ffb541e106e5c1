"""Metric and geodesic behavior of the concrete spaces."""

import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cat0feas as cf
from cat0feas import cli
from cat0feas.spaces import (
    DISK_MAX_NORM,
    REL_TOL,
    _cn,
    _four_point,
    _quot_rows,
    _random_rows,
)

T_GRID = [k / 10 for k in range(11)]

coord = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
disk_coord = st.floats(min_value=-0.6, max_value=0.6, allow_nan=False)


def spaces_under_test(rng_seed=7):
    rng = random.Random(rng_seed)
    e2 = cf.EuclideanSpace(2)
    e5 = cf.EuclideanSpace(5)
    tri = cf.tripod()
    disk = cf.PoincareDiskSpace()
    out = []
    for space, geo_tol in ((e2, 1e-9), (e5, 1e-9), (tri, 1e-9), (disk, 1e-7)):
        pts = [space.random_point(rng) for _ in range(12)]
        out.append((space, pts, geo_tol))
    return out


class TestDistance:
    def test_euclidean_pythagoras(self, e2):
        assert cf.distance(e2, e2.point((0, 0)), e2.point((3, 4))) == 5.0

    def test_disk_radial_log3(self, disk):
        # Independent oracle: the radial distance to 0.5 is 2 artanh(1/2).
        expected = 2.0 * math.atanh(0.5)
        got = cf.distance(disk, disk.point((0, 0)), disk.point((0.5, 0)))
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(math.log(3), abs=1e-12)

    def test_disk_matches_acosh_form(self, disk, rng):
        # Cross-check the artanh route against the arccosh formula.
        for _ in range(200):
            x, y = disk.random_point(rng), disk.random_point(rng)
            u, v = x.payload, y.payload
            num = 2.0 * abs(u - v) ** 2
            den = (1.0 - abs(u) ** 2) * (1.0 - abs(v) ** 2)
            expected = math.acosh(1.0 + num / den)
            assert disk.distance(x, y) == pytest.approx(expected, abs=1e-9)

    def test_tree_path_length(self, tripod_space):
        a = tripod_space.vertex("A")
        c = tripod_space.vertex("C")
        assert tripod_space.distance(a, c) == 2.0

    def test_space_mismatch_rejected(self, e2, e5):
        with pytest.raises(cf.SpaceMismatchError):
            cf.distance(e2, e2.point((0, 0)), e5.point((0,) * 5))

    def test_membership_beyond_the_identity_test(self, e2, e5):
        # A point of an equal space is a member; nothing else is, whatever
        # its `space` attribute says.
        twin = cf.EuclideanSpace(2)
        x, y = e2.point((0, 0)), twin.point((3, 4))
        assert e2.distance(x, y) == 5.0
        assert e2.interpolate(x, y, 0.5).payload == (1.5, 2.0)
        for bad in (e5.point((0,) * 5), (0.0, 0.0), cf.IdentityMap(e2)):
            for args in ((x, bad), (bad, x)):
                with pytest.raises(cf.SpaceMismatchError):
                    e2.distance(*args)
                with pytest.raises(cf.SpaceMismatchError):
                    e2.interpolate(*args, 0.5)

    def test_disk_boundary_rejected(self, disk):
        with pytest.raises(cf.DomainError):
            disk.point((1.0, 0.0))
        # just inside the cap is fine
        disk.point((DISK_MAX_NORM - 1e-12, 0.0))

    @given(ax=coord, ay=coord, bx=coord, by=coord)
    def test_euclidean_symmetry(self, ax, ay, bx, by):
        e2 = cf.EuclideanSpace(2)
        x, y = e2.point((ax, ay)), e2.point((bx, by))
        assert e2.distance(x, y) == e2.distance(y, x)

    @given(ax=disk_coord, ay=disk_coord, bx=disk_coord, by=disk_coord)
    def test_disk_symmetry_and_identity(self, ax, ay, bx, by):
        disk = cf.PoincareDiskSpace()
        x, y = disk.point((ax, ay)), disk.point((bx, by))
        assert disk.distance(x, y) == disk.distance(y, x)
        assert disk.distance(x, x) == 0.0

    def test_metric_axioms_sampled(self):
        for space, pts, _ in spaces_under_test():
            for i in range(len(pts)):
                assert space.distance(pts[i], pts[i]) == pytest.approx(0.0, abs=1e-12)
                for j in range(len(pts)):
                    dij = space.distance(pts[i], pts[j])
                    assert dij >= 0.0
                    assert dij == pytest.approx(space.distance(pts[j], pts[i]), abs=1e-12)
                    for k in range(len(pts)):
                        dik = space.distance(pts[i], pts[k])
                        dkj = space.distance(pts[k], pts[j])
                        assert dij <= dik + dkj + 1e-12


class TestInterpolate:
    def test_euclidean_affine(self, e2):
        got = cf.interpolate(e2, e2.point((0, 0)), e2.point((2, 0)), 0.25)
        assert got.payload == (0.5, 0.0)

    def test_endpoints_exact(self, disk, rng):
        for _ in range(20):
            x, y = disk.random_point(rng), disk.random_point(rng)
            assert disk.interpolate(x, y, 0.0) == x
            assert disk.interpolate(x, y, 1.0) == y

    def test_disk_radial_half(self, disk):
        # Hand value: the radial geodesic midpoint is tanh(artanh(0.5)/2).
        got = disk.interpolate(disk.point((0, 0)), disk.point((0.5, 0)), 0.5)
        expected = math.tanh(0.5 * math.atanh(0.5))
        assert got.payload.real == pytest.approx(expected, abs=1e-14)
        assert got.payload.imag == pytest.approx(0.0, abs=1e-15)

    def test_parameter_domain(self, e2):
        with pytest.raises(cf.DomainError):
            e2.interpolate(e2.point((0, 0)), e2.point((1, 0)), 1.5)
        with pytest.raises(cf.DomainError):
            e2.interpolate(e2.point((0, 0)), e2.point((1, 0)), -0.1)

    def test_geodesic_law_all_spaces(self):
        for space, pts, tol in spaces_under_test():
            for x, y in zip(pts, pts[1:]):
                d = space.distance(x, y)
                marks = {t: space.interpolate(x, y, t) for t in T_GRID}
                for t in T_GRID:
                    for s in T_GRID:
                        got = space.distance(marks[t], marks[s])
                        assert got == pytest.approx(abs(t - s) * d, abs=tol)

    def test_distance_split_within_tolerance(self):
        for space, pts, tol in spaces_under_test():
            x, y = pts[0], pts[1]
            d = space.distance(x, y)
            for t in (0.25, 0.5, 0.75):
                m = space.interpolate(x, y, t)
                assert space.distance(x, m) == pytest.approx(t * d, abs=tol)
                assert space.distance(m, y) == pytest.approx((1 - t) * d, abs=tol)


class TestCurvatureChecks:
    def test_cn_euclidean_is_equality(self, e2, rng):
        for _ in range(100):
            z, x, y = (e2.random_point(rng) for _ in range(3))
            res = cf.check_cn_inequality(e2, z, x, y, rng.random(), tol=1e-10)
            assert res.ok
            assert res.residual == pytest.approx(0.0, abs=1e-10)

    def test_cn_tripod_hand_value(self, tripod_space):
        # z, x, y on distinct legs at arc 1 from the center; the geodesic
        # midpoint of x, y is the center itself, so the comparison slack is
        # 1 - (2 + 2 - 1) = -2.
        tri = tripod_space
        res = cf.check_cn_inequality(
            tri, tri.vertex("C"), tri.vertex("A"), tri.vertex("B"), 0.5, tol=1e-12
        )
        assert res.ok
        assert res.residual == pytest.approx(-2.0, abs=1e-12)

    def test_four_point_unit_square(self, e2):
        x, y, z, w = (e2.point(c) for c in ((0, 0), (1, 0), (1, 1), (0, 1)))
        res = cf.check_four_point(e2, x, y, z, w, tol=1e-12)
        assert res.ok
        assert res.residual == pytest.approx(0.0, abs=1e-12)

    def test_four_point_degenerate(self, e2):
        p = e2.point((0.3, -0.7))
        res = cf.check_four_point(e2, p, p, p, p, tol=0.0)
        assert res.ok and res.residual == 0.0

    def test_checks_pass_on_samples_everywhere(self):
        for space, pts, _ in spaces_under_test():
            tol = 1e-8 if isinstance(space, cf.PoincareDiskSpace) else 1e-12
            rng = random.Random(99)
            for _ in range(300):
                x, y, z, w = (space.random_point(rng) for _ in range(4))
                assert cf.check_four_point(space, x, y, z, w, tol).ok
                assert cf.check_cn_inequality(space, z, x, y, rng.random(), tol).ok


class TestPointBasics:
    def test_point_equality_and_hash(self, e2):
        assert e2.point((1, 2)) == e2.point((1.0, 2.0))
        assert hash(e2.point((1, 2))) == hash(e2.point((1.0, 2.0)))

    def test_dimension_checked(self, e2):
        with pytest.raises(cf.DomainError):
            e2.point((1.0,))

    def test_reference_points(self, e2, disk, tripod_space):
        assert e2.reference_point().payload == (0.0, 0.0)
        assert disk.reference_point().payload == 0j
        assert tripod_space.reference_point() == tripod_space.vertex("O")


class SphericalCap(cf.Space):
    """The cap of angular radius 1.2 about the north pole of the unit sphere.

    Curvature +1, so it is not CAT(0): the comparison checks must reject it.
    """

    kind = "spherical-cap"
    tolerance = 1e-9

    def _canonical(self, payload):
        v = tuple(float(c) for c in payload)
        norm = math.sqrt(sum(c * c for c in v))
        return tuple(c / norm for c in v)

    def _distance(self, a, b):
        cross = (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])
        return math.atan2(math.hypot(*cross), sum(x * y for x, y in zip(a, b)))

    def _interpolate(self, a, b, t):
        theta = self._distance(a, b)
        wa, wb = math.sin((1 - t) * theta), math.sin(t * theta)
        return self._canonical(wa * x + wb * y for x, y in zip(a, b))

    def _sample(self, rng, scale):
        polar, azimuth = rng.uniform(0.0, 1.2), rng.uniform(0.0, 2.0 * math.pi)
        return (
            math.sin(polar) * math.cos(azimuth),
            math.sin(polar) * math.sin(azimuth),
            math.cos(polar),
        )

    def _reference(self):
        return (0.0, 0.0, 1.0)


class TestNegativeControls:
    def test_spherical_cap_fails_comparison(self):
        cap = SphericalCap()
        rng = random.Random(11)
        cn_fails = fp_fails = 0
        for _ in range(200):
            x, y, z, w = (cap.random_point(rng) for _ in range(4))
            cn_fails += not cf.check_cn_inequality(cap, z, x, y, rng.random()).ok
            fp_fails += not cf.check_four_point(cap, x, y, z, w).ok
        assert cn_fails > 0 and fp_fails > 0

    def test_spherical_cap_geodesics(self):
        # The control is a geodesic space: its midpoints split distances.
        cap = SphericalCap()
        rng = random.Random(12)
        for _ in range(20):
            x, y = cap.random_point(rng), cap.random_point(rng)
            m = cap.interpolate(x, y, 0.5)
            assert cap.distance(x, m) == pytest.approx(0.5 * cap.distance(x, y), abs=1e-12)


class PerturbedPlane(cf.EuclideanSpace):
    """R^2 with every distance off by a relative amount of at most 1e-10."""

    def _distance(self, a, b):
        return math.dist(a, b) * (1.0 + 1e-10 * math.sin(sum(a) + sum(b)))

    def _dist_rows(self, P, Q):
        return np.linalg.norm(P - Q, axis=-1) * (1.0 + 1e-10 * np.sin(P.sum(-1) + Q.sum(-1)))


class NaNPlane(cf.EuclideanSpace):
    """R^2 whose row kernel gives NaN for one pair of a block shorter than
    verify-space's blocks, that is, only in the last block of a row."""

    def _dist_rows(self, P, Q):
        d = super()._dist_rows(P, Q)
        if len(d) < cli._BLOCK:
            d[7] = math.nan
        return d


class TestRelativeBound:
    def test_scale_is_the_sum_of_squared_terms(self, e2):
        x, y, z, w = (e2.point(c) for c in ((0, 0), (1, 0), (1, 1), (0, 1)))
        fp = cf.check_four_point(e2, x, y, z, w)
        assert fp.ok and fp.scale == 8.0
        # g = (0.5, 0); the terms are 1.25, 0.5 * 2, 0.5 * 1 and 0.25 * 1.
        cn = cf.check_cn_inequality(e2, z, x, y, 0.5)
        assert cn.ok and cn.scale == pytest.approx(3.0)

    def test_long_edges_pass(self):
        # Legs of length 100 put CN rounding above 1e-12, so a fixed bound
        # that small would fail this CAT(0) space from rounding alone.
        tree = cf.TreeSpace(
            cf.MetricTree(
                vertices=("O", "A", "B", "C"),
                edges=(("O", "A", 100.0), ("O", "B", 100.0), ("O", "C", 100.0)),
            )
        )
        rng = random.Random(7)
        worst = -math.inf
        for _ in range(300):
            x, y, z, w = (tree.random_point(rng) for _ in range(4))
            assert cf.check_four_point(tree, x, y, z, w).ok
            cn = cf.check_cn_inequality(tree, z, x, y, rng.random())
            assert cn.ok
            worst = max(worst, cn.residual)
        assert worst > 1e-12

    def test_relative_perturbation_fails(self):
        plane = PerturbedPlane(2)
        rng = random.Random(3)
        fails = 0
        worst = 0.0
        for _ in range(200):
            z, x, y = (plane.random_point(rng) for _ in range(3))
            cn = cf.check_cn_inequality(plane, z, x, y, rng.random())
            fails += not cn.ok
            worst = max(worst, cn.residual / cn.scale)
        assert fails > 0
        assert worst > 100 * REL_TOL

    def test_relative_perturbation_fails_a_verify_space_row(self):
        row = cli._verify_one_space("perturbed", PerturbedPlane(2), 200, 3)
        assert row["status"] == "fail"
        assert row["max_cn_residual"] > row["tolerance"]

    def test_nan_residual_fails_a_verify_space_row(self):
        # The first block is clean; a running max that dropped NaN would pass.
        row = cli._verify_one_space("nan", NaNPlane(2), cli._BLOCK + 10, 3)
        assert row["status"] == "fail"
        assert math.isnan(row["max_four_point_residual"])
        assert math.isnan(row["max_cn_residual"])


# -- row kernels -------------------------------------------------------------


def _row_points(space, rows):
    """The points packed in `rows`; space.point canonicalizes (and so
    validates) each payload."""
    if isinstance(space, cf.ConvexCombinationSpace):
        firsts, seconds = (_row_points(space.base, r) for r in rows)
        return [space.pair(a, b) for a, b in zip(firsts, seconds)]
    if isinstance(space, cf.TreeSpace):
        payloads = zip(rows["edge"].tolist(), rows["du"].tolist())
    else:
        payloads = rows.tolist()
    return [space.point(p) for p in payloads]


def _leaves(rows):
    """The packed arrays in `rows`, with product pairs flattened."""
    if isinstance(rows, tuple):
        return [leaf for part in rows for leaf in _leaves(part)]
    return [rows]


def _exact(space):
    """Tree distances are one expression in both kernels; R^n and disk ones
    may differ in the last bits (math.dist, artanh)."""
    while isinstance(space, cf.ConvexCombinationSpace):
        space = space.base
    return isinstance(space, cf.TreeSpace)


ULP = np.finfo(float).eps


@pytest.fixture(
    params=["e2", "e5", "disk", "tripod_space", "caterpillar", "product", "product-of-product"]
)
def row_space(request):
    if request.param == "product":
        return cf.ConvexCombinationSpace(request.getfixturevalue("caterpillar"), 0.3)
    if request.param == "product-of-product":
        inner = cf.ConvexCombinationSpace(request.getfixturevalue("disk"), 0.25)
        return cf.ConvexCombinationSpace(inner, 0.6)
    return request.getfixturevalue(request.param)


class TestRowKernels:
    N = 300

    def _rows(self, space, seed):
        rng = random.Random(seed)
        P, Q = space._sample_rows(rng, self.N), space._sample_rows(rng, self.N)
        return P, Q, _random_rows(rng, self.N)

    def test_random_rows_are_successive_draws(self):
        batched, scalar = random.Random("a:1"), random.Random("a:1")
        for n in (1, 2, 5, 1000):
            assert _random_rows(batched, n).tolist() == [scalar.random() for _ in range(n)]
        assert batched.random() == scalar.random()

    def test_sampled_rows_are_points(self, row_space):
        P, _, _ = self._rows(row_space, 1)
        pts = _row_points(row_space, P)
        assert len(pts) == self.N
        # Packing the canonical payloads gives the rows back.
        repacked = row_space._pack([p.payload for p in pts])
        for a, b in zip(_leaves(P), _leaves(repacked)):
            assert np.array_equal(a, b)

    def test_disk_samples_stay_inside_radius_0_9(self, disk):
        rows = disk._sample_rows(random.Random(2), 5000)
        assert np.abs(rows).max() <= 0.9

    def test_dist_rows_match_distance(self, row_space):
        P, Q, _ = self._rows(row_space, 2)
        xs, ys = _row_points(row_space, P), _row_points(row_space, Q)
        expected = [row_space._distance(x.payload, y.payload) for x, y in zip(xs, ys)]
        # One packed point against many broadcasts, as the minimality check uses it.
        first = row_space._pack([xs[0].payload])
        cases = [
            (row_space._dist_rows(P, Q), expected),
            (
                row_space._dist_rows(first, Q),
                [row_space._distance(xs[0].payload, y.payload) for y in ys],
            ),
        ]
        for got, want in cases:
            if _exact(row_space):
                assert got.tolist() == want
            else:
                np.testing.assert_allclose(got, want, rtol=4 * ULP, atol=0.0)

    @staticmethod
    def _assert_symmetric(space, P, Q):
        """d(P, Q) and d(Q, P) have the same bits."""
        assert space._dist_rows(P, Q).tobytes() == space._dist_rows(Q, P).tobytes()

    def _symmetry_cases(self, space):
        P, Q, _ = self._rows(space, 8)
        first = space._pack([_row_points(space, P)[0].payload])
        return [(P, Q), (first, Q)]

    def test_dist_rows_are_symmetric_bit_for_bit(self, row_space):
        # verify-space and verify-mapping reuse d(P, Q) of a block's drawn
        # rows for d(Q, P).
        for P, Q in self._symmetry_cases(row_space):
            self._assert_symmetric(row_space, P, Q)

    def test_one_ulp_asymmetry_fails_the_symmetry_check(self, row_space, monkeypatch):
        # The kernel the engine calls, one ulp larger in one argument order.
        kernel = type(row_space)._dist_rows

        def lopsided(space, P, Q):
            d = kernel(space, P, Q)
            return np.nextafter(d, np.inf) if id(P) < id(Q) else d

        monkeypatch.setattr(type(row_space), "_dist_rows", lopsided)
        for P, Q in self._symmetry_cases(row_space):
            with pytest.raises(AssertionError):
                self._assert_symmetric(row_space, P, Q)

    def test_row_checkers_are_the_scalar_checkers(self, row_space):
        # One formula per inequality, fed by either kernel: verify-space calls
        # it on packed rows with _dist_rows, and CN at the geodesic points of
        # _interp_rows.  The distances (and Python's x ** 2, a pow, against
        # numpy's square) may differ in their last bits, far below the pass
        # rule's REL_TOL.
        rng = random.Random(6)
        X, Y, Z, W = (row_space._sample_rows(rng, self.N) for _ in range(4))
        t = _random_rows(rng, self.N)
        x, y, z, w = (_row_points(row_space, R) for R in (X, Y, Z, W))
        four_point = [cf.check_four_point(row_space, *p) for p in zip(x, y, z, w)]
        cn = [
            cf.check_cn_inequality(row_space, c, a, b, s)
            for a, b, c, s in zip(x, y, z, t.tolist())
        ]
        d, g = row_space._dist_rows, row_space._interp_rows(X, Y, t)
        cases = [(_four_point(d, X, Y, Z, W), four_point), (_cn(d, Z, X, Y, g, t), cn)]
        for (residuals, scales), results in cases:
            assert len(residuals) == len(results) == self.N
            for residual, scale, want in zip(residuals, scales, results):
                assert abs(residual - want.residual) <= REL_TOL * want.scale
                assert scale == pytest.approx(want.scale, rel=1e-12)

    def test_quot_rows_is_pythons_complex_quotient(self):
        rng = random.Random(4)
        a = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(2000)]
        # Both of Smith's branches, |Re b| >= |Im b| and below, and zero parts.
        b = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(1996)]
        b += [complex(1.5, 0.0), complex(0.0, -0.5), complex(-0.7, 0.7), complex(0.7, 0.7)]
        A, B = np.array(a), np.array(b)
        real, imag = _quot_rows(A.real, A.imag, B.real, B.imag)
        assert (real + 1j * imag).tolist() == [u / v for u, v in zip(a, b)]

    def test_disk_interp_rows_are_real_arithmetic(self, disk, monkeypatch):
        # Each step rounds as _interpolate's does, but for numpy's tanh and
        # arctanh: with those the rows sit within a few epsilons of it
        # (complex numpy arithmetic put them up to about 32 epsilons away),
        # and with the math module's in their place they are its bits.
        rng = random.Random(5)
        P, Q = disk._sample_rows(rng, 20000), disk._sample_rows(rng, 20000)
        t = _random_rows(rng, 20000)
        want = [disk._interpolate(a, b, s) for a, b, s in zip(P.tolist(), Q.tolist(), t.tolist())]
        assert np.abs(disk._interp_rows(P, Q, t) - want).max() <= 12 * ULP
        monkeypatch.setattr(np, "tanh", np.vectorize(math.tanh, otypes=[float]))
        monkeypatch.setattr(np, "arctanh", np.vectorize(math.atanh, otypes=[float]))
        assert disk._interp_rows(P, Q, t).tolist() == want
        # t = 0 and equal ends give P, as _interpolate does.
        assert disk._interp_rows(P, Q, 0.0).tolist() == P.tolist()
        assert disk._interp_rows(P, P, t).tolist() == P.tolist()

    def test_interp_rows_match_interpolate(self, row_space):
        P, Q, t = self._rows(row_space, 3)
        xs, ys = _row_points(row_space, P), _row_points(row_space, Q)
        got = _row_points(row_space, row_space._interp_rows(P, Q, t))
        want = [row_space.interpolate(x, y, s) for x, y, s in zip(xs, ys, t.tolist())]
        if _exact(row_space):
            assert got == want
        else:
            # numpy's tanh and arctanh round differently from the math
            # module's, and the disk's Mobius shift can magnify that.
            for g, w, x, y in zip(got, want, xs, ys):
                bound = 256 * ULP * (1.0 + row_space.distance(x, y))
                assert row_space.distance(g, w) <= bound
