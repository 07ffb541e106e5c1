"""Mapping evaluation and the nonexpansivity residual checkers."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import cat0feas as cf

coord = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False)


class TestEvaluate:
    def test_identity(self, e2, rng):
        x = e2.random_point(rng)
        assert cf.IdentityMap(e2)(x) == x

    def test_constant(self, e2, rng):
        c = e2.point((1, -2))
        assert cf.ConstantMap(c)(e2.random_point(rng)) == c

    def test_averaged_lines(self, e2):
        a = cf.AffineSubspace(e2, (0.0, 0.0), ((1.0, 0.0),))
        b = cf.AffineSubspace(e2, (0.0, 1.0), ((1.0, 0.0),))
        t_map = cf.averaged_projections(a, b, 0.5)
        assert t_map(e2.point((0, 4))).payload == (0.0, 0.5)

    def test_combination_is_geodesic_point(self, e2, rng):
        ball = cf.EuclideanBall(e2, (0.0, 0.0), 1.0)
        half = cf.Halfspace(e2, (-1.0, 0.0), -2.0)
        for lam in (0.25, 0.5, 0.9):
            t_map = cf.averaged_projections(ball, half, lam)
            for _ in range(20):
                x = e2.random_point(rng, 4.0)
                expected = e2.interpolate(ball.project(x), half.project(x), lam)
                assert t_map(x) == expected

    def test_averaged_on_tripod_center(self, tripod_space):
        tri = tripod_space
        a = cf.TreeSegment(tri, tri.at(0, 0.5), tri.at(0, 1.0))
        b = cf.TreeSegment(tri, tri.at(1, 0.5), tri.at(1, 1.0))
        t_map = cf.averaged_projections(a, b, 0.5)
        assert t_map(tri.vertex("O")) == tri.vertex("O")

    def test_compose_order(self, e2):
        ball = cf.EuclideanBall(e2, (0.0, 0.0), 1.0)
        half = cf.Halfspace(e2, (-1.0, 0.0), -2.0)
        comp = cf.ComposeMap(cf.ProjectionMap(ball), cf.ProjectionMap(half))
        # inner first: (0,0) -> (2,0) -> (1,0)
        assert comp(e2.point((0, 0))).payload == (1.0, 0.0)

    def test_space_agreement_enforced(self, e2, e5):
        with pytest.raises(cf.DomainError):
            cf.ComposeMap(cf.IdentityMap(e2), cf.IdentityMap(e5))
        with pytest.raises(cf.DomainError):
            cf.ConvexCombinationMap(cf.IdentityMap(e2), cf.IdentityMap(e5), 0.5)
        with pytest.raises(cf.DomainError):
            cf.ConvexCombinationMap(cf.IdentityMap(e2), cf.IdentityMap(e2), 1.0)


class TestFixedPointResidual:
    def test_zero_at_fixed_point(self, e2):
        assert cf.fixed_point_residual(cf.IdentityMap(e2), e2.point((1, 1))) == 0.0

    def test_distance_to_singleton(self, e1):
        proj = cf.ProjectionMap(cf.AffineSubspace(e1, (0.0,), ()))
        assert cf.fixed_point_residual(proj, e1.point((3,))) == 3.0

    def test_averaged_lines_value(self, e2):
        a = cf.AffineSubspace(e2, (0.0, 0.0), ((1.0, 0.0),))
        b = cf.AffineSubspace(e2, (0.0, 1.0), ((1.0, 0.0),))
        t_map = cf.averaged_projections(a, b, 0.5)
        assert cf.fixed_point_residual(t_map, e2.point((0, 4))) == 3.5


class TestQuadraticChecker:
    def test_identity_residual_zero(self, e2, rng):
        for _ in range(20):
            x, y = e2.random_point(rng), e2.random_point(rng)
            assert cf.check_p2(cf.IdentityMap(e2), x, y) == pytest.approx(0.0, abs=1e-12)

    def test_constant_residual_zero(self, e2, rng):
        c = cf.ConstantMap(e2.point((0.5, 0.5)))
        for _ in range(20):
            x, y = e2.random_point(rng), e2.random_point(rng)
            assert cf.check_p2(c, x, y) == pytest.approx(0.0, abs=1e-12)

    @given(ax=coord, ay=coord, bx=coord, by=coord)
    def test_halfspace_projection_property(self, ax, ay, bx, by):
        e2 = cf.EuclideanSpace(2)
        proj = cf.ProjectionMap(cf.Halfspace(e2, (1.0, 0.0), 0.0))
        assert cf.check_p2(proj, e2.point((ax, ay)), e2.point((bx, by))) <= 1e-9

    def test_every_projection_kind(self, e2, tripod_space, disk, rng):
        cases = [
            (cf.Halfspace(e2, (1.0, 2.0), 1.0), e2),
            (cf.AffineSubspace(e2, (0.0, 1.0), ((1.0, 0.0),)), e2),
            (cf.EuclideanBall(e2, (0.5, 0.5), 1.5), e2),
            (cf.TreeSegment(tripod_space, tripod_space.at(0, 0.5), tripod_space.at(1, 0.5)), tripod_space),
            (cf.Subtree(tripod_space, ("O", "B")), tripod_space),
            (cf.DiskBall(disk, complex(0.1, 0.0), 0.5), disk),
            (cf.DiskGeodesicSegment(disk, disk.point((0.0, -0.4)), disk.point((0.3, 0.3))), disk),
        ]
        for cset, space in cases:
            proj = cf.ProjectionMap(cset)
            for _ in range(60):
                x, y = space.random_point(rng), space.random_point(rng)
                assert cf.check_p2(proj, x, y) <= 1e-9
                assert cf.check_firmly_nonexpansive(proj, x, y) <= 1e-9

    def test_pair_map_and_diagonal_property(self, e2, rng):
        ball = cf.EuclideanBall(e2, (0.0, 0.0), 1.0)
        half = cf.Halfspace(e2, (-1.0, 0.0), -2.0)
        cs = cf.ConvexCombinationSpace(e2, 0.5)
        u = cf.PairMap(cs, cf.ProjectionMap(ball), cf.ProjectionMap(half))
        q = cf.diagonal_projection(cs)
        for _ in range(60):
            x, y = cs.random_point(rng), cs.random_point(rng)
            assert cf.check_p2(u, x, y) <= 1e-9
            assert cf.check_p2(q, x, y) <= 1e-9


class TestFirmNonexpansivityChecker:
    def test_t_one_always_zero(self, e2, rng):
        proj = cf.ProjectionMap(cf.EuclideanBall(e2, (0.0, 0.0), 1.0))
        for _ in range(20):
            x, y = e2.random_point(rng), e2.random_point(rng)
            got = cf.check_firmly_nonexpansive(proj, x, y, t_grid=(1.0,))
            assert got == pytest.approx(0.0, abs=1e-12)

    def test_halfspace_line_example(self, e2):
        proj = cf.ProjectionMap(cf.AffineSubspace(e2, (0.0, 0.0), ((1.0, 0.0),)))
        got = cf.check_firmly_nonexpansive(
            proj, e2.point((0, 2)), e2.point((3, 4)), t_grid=(0, 0.25, 0.5, 0.75, 1)
        )
        assert got <= 1e-10

    def test_constant_map_passes(self, e2, rng):
        c = cf.ConstantMap(e2.point((1, 1)))
        x, y = e2.random_point(rng), e2.random_point(rng)
        assert cf.check_firmly_nonexpansive(c, x, y) <= 1e-12

    def test_grid_domain_checked(self, e2, rng):
        with pytest.raises(cf.DomainError):
            cf.check_firmly_nonexpansive(
                cf.IdentityMap(e2), e2.random_point(rng), e2.random_point(rng),
                t_grid=(0.5, 2.0),
            )


class TestNegativeControls:
    def test_reflection_fails_both_checkers(self, e2, rng):
        # 2 P_A - I is nonexpansive but neither (P2) nor firmly nonexpansive.
        half = cf.Halfspace(e2, (1.0, 0.0), 0.0)

        class Reflection(cf.Mapping):
            kind = "reflection"
            space = e2

            def __call__(self, x):
                p = half.project(x).payload
                return e2.point(tuple(2.0 * pi - xi for pi, xi in zip(p, x.payload)))

        reflect = Reflection()
        pairs = [(e2.random_point(rng, 4.0), e2.random_point(rng, 4.0)) for _ in range(200)]
        assert max(cf.check_p2(reflect, x, y) for x, y in pairs) > 1.0
        assert max(cf.check_firmly_nonexpansive(reflect, x, y) for x, y in pairs) > 0.1
