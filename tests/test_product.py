"""Weighted product metric, diagonal machinery, and the reduction identities."""

import math
import random

import pytest

import cat0feas as cf
from cat0feas.sets import DiagonalSet


def base_spaces():
    return [cf.EuclideanSpace(2), cf.tripod(), cf.PoincareDiskSpace()]


class TestProductMetric:
    def test_weight_domain(self, e2):
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(cf.DomainError):
                cf.ConvexCombinationSpace(e2, bad)

    def test_formula_r1(self, e1):
        cs = cf.ConvexCombinationSpace(e1, 0.5)
        p = cs.pair(e1.point((0,)), e1.point((0,)))
        q = cs.pair(e1.point((2,)), e1.point((2,)))
        assert cs.distance(p, q) == pytest.approx(2.0, abs=1e-15)

    def test_direct_formula_oracle(self, rng):
        # independent arithmetic: sqrt((1-lam) d1^2 + lam d2^2)
        for base in base_spaces():
            for lam in (0.25, 0.5, 0.9):
                cs = cf.ConvexCombinationSpace(base, lam)
                for _ in range(50):
                    p, q = cs.random_point(rng), cs.random_point(rng)
                    (p1, p2), (q1, q2) = ([cf.Point(base, c) for c in x.payload] for x in (p, q))
                    d1 = base.distance(p1, q1)
                    d2 = base.distance(p2, q2)
                    expected = math.sqrt((1 - lam) * d1 * d1 + lam * d2 * d2)
                    assert cs.distance(p, q) == pytest.approx(expected, abs=1e-13)

    def test_diagonal_pairs_isometric(self, rng):
        for base in base_spaces():
            cs = cf.ConvexCombinationSpace(base, 0.3)
            for _ in range(50):
                x, y = base.random_point(rng), base.random_point(rng)
                dx = cs.distance(cf.embed_diagonal(cs, x), cf.embed_diagonal(cs, y))
                assert dx == pytest.approx(base.distance(x, y), abs=1e-13)

    def test_identity_of_indiscernibles(self, e2, rng):
        cs = cf.ConvexCombinationSpace(e2, 0.5)
        p = cs.random_point(rng)
        assert cs.distance(p, p) == 0.0

    def test_metric_axioms_sampled(self, rng):
        for base in base_spaces():
            cs = cf.ConvexCombinationSpace(base, 0.7)
            pts = [cs.random_point(rng) for _ in range(8)]
            for x in pts:
                for y in pts:
                    assert cs.distance(x, y) == pytest.approx(
                        cs.distance(y, x), abs=1e-12
                    )
                    for z in pts:
                        assert cs.distance(x, y) <= (
                            cs.distance(x, z) + cs.distance(z, y) + 1e-12
                        )

    def test_product_is_cat0_sampled(self, rng):
        for base in base_spaces():
            tol = 1e-8 if isinstance(base, cf.PoincareDiskSpace) else 1e-12
            for lam in (0.25, 0.5, 0.9):
                cs = cf.ConvexCombinationSpace(base, lam)
                for _ in range(150):
                    x, y, z, w = (cs.random_point(rng) for _ in range(4))
                    assert cf.check_four_point(cs, x, y, z, w, tol).ok
                    assert cf.check_cn_inequality(cs, z, x, y, rng.random(), tol).ok

    def test_componentwise_interpolation(self, e1):
        cs = cf.ConvexCombinationSpace(e1, 0.5)
        p = cs.pair(e1.point((0,)), e1.point((0,)))
        q = cs.pair(e1.point((2,)), e1.point((4,)))
        mid = cs.interpolate(p, q, 0.5)
        assert mid.payload[0] == (1.0,)
        assert mid.payload[1] == (2.0,)
        assert cs.interpolate(p, q, 0.0) == p
        assert cs.interpolate(p, q, 1.0) == q
        d = cs.distance(p, q)
        assert cs.distance(p, mid) == pytest.approx(0.5 * d, abs=1e-12)


class TestPairMapAndDiagonal:
    def test_pair_map_identity(self, e2, rng):
        cs = cf.ConvexCombinationSpace(e2, 0.5)
        u = cf.PairMap(cs, cf.IdentityMap(e2), cf.IdentityMap(e2))
        p = cs.random_point(rng)
        assert u(p) == p

    def test_pair_map_projections(self, e2):
        # componentwise projections onto the two lines
        a = cf.AffineSubspace(e2, (0.0, 0.0), ((1.0, 0.0),))
        b = cf.AffineSubspace(e2, (0.0, 1.0), ((1.0, 0.0),))
        cs = cf.ConvexCombinationSpace(e2, 0.5)
        u = cf.PairMap(cs, cf.ProjectionMap(a), cf.ProjectionMap(b))
        p = cs.pair(e2.point((0, 3)), e2.point((0, 3)))
        got = u(p)
        assert got.payload[0] == (0.0, 0.0)
        assert got.payload[1] == (0.0, 1.0)

    def test_pair_map_constants(self, e2, rng):
        cs = cf.ConvexCombinationSpace(e2, 0.25)
        c1, c2 = e2.point((1, 1)), e2.point((-2, 0.5))
        u = cf.PairMap(cs, cf.ConstantMap(c1), cf.ConstantMap(c2))
        assert u(cs.random_point(rng)).payload == (c1.payload, c2.payload)

    def test_pair_map_equals_rectangle_projection(self, e2, rng):
        ball = cf.EuclideanBall(e2, (0.0, 0.0), 1.0)
        half = cf.Halfspace(e2, (-1.0, 0.0), -2.0)
        cs = cf.ConvexCombinationSpace(e2, 0.5)
        u = cf.PairMap(cs, cf.ProjectionMap(ball), cf.ProjectionMap(half))
        rect = cf.ProductRectangle(cs, ball, half)
        for _ in range(50):
            p = cs.random_point(rng, scale=4.0)
            assert u(p) == rect.project(p)

    def test_diagonal_projection_formula(self, e1):
        cs = cf.ConvexCombinationSpace(e1, 0.5)
        q = cf.diagonal_projection(cs)
        got = q(cs.pair(e1.point((0,)), e1.point((2,))))
        assert got.payload[0] == (1.0,)
        assert got.payload[1] == (1.0,)

    def test_diagonal_projection_fixes_diagonal(self, e2, rng):
        cs = cf.ConvexCombinationSpace(e2, 0.3)
        q = cf.diagonal_projection(cs)
        x = e2.random_point(rng)
        assert q(cf.embed_diagonal(cs, x)) == cf.embed_diagonal(cs, x)

    def test_diagonal_distance_identity(self, e1):
        # d(p, Qp) = sqrt(lam (1-lam)) d(x1, x2): here sqrt(0.25 * 4) = 1
        cs = cf.ConvexCombinationSpace(e1, 0.5)
        p = cs.pair(e1.point((0,)), e1.point((2,)))
        q = cf.diagonal_projection(cs)
        assert cs.distance(p, q(p)) == pytest.approx(1.0, abs=1e-14)

    def test_diagonal_identity_and_minimality_sampled(self, rng):
        for base in base_spaces():
            for lam in (0.25, 0.5, 0.9):
                cs = cf.ConvexCombinationSpace(base, lam)
                diag = DiagonalSet(cs)
                for _ in range(20):
                    p = cs.random_point(rng)
                    qp = diag.project(p)
                    dq = cs.distance(p, qp)
                    x1, x2 = (cf.Point(base, c) for c in p.payload)
                    expected_sq = lam * (1 - lam) * base.distance(x1, x2) ** 2
                    assert dq * dq == pytest.approx(expected_sq, abs=1e-10)
                    assert diag.project(qp) == qp  # idempotent
                    for _ in range(50):
                        w = base.random_point(rng)
                        assert dq <= cs.distance(p, cs.pair(w, w)) + 1e-10


class TestCorrespondences:
    def test_embed_extract_roundtrip(self, e2, rng):
        cs = cf.ConvexCombinationSpace(e2, 0.5)
        x = e2.random_point(rng)
        assert cf.extract_diagonal(cs, cf.embed_diagonal(cs, x)) == x

    def test_extract_rejects_far_pairs(self, e2):
        cs = cf.ConvexCombinationSpace(e2, 0.5)
        p = cs.pair(e2.point((0, 0)), e2.point((1, 1)))
        with pytest.raises(cf.NotDiagonalError):
            cf.extract_diagonal(cs, p)

    def test_extract_scale_aware(self, e2):
        cs = cf.ConvexCombinationSpace(e2, 0.5)
        # 1e-6 apart at scale 1e3 from the origin: relatively diagonal
        p = cs.pair(e2.point((1e3, 0)), e2.point((1e3 + 1e-6, 0)))
        assert cf.extract_diagonal(cs, p).payload == (1e3, 0.0)

    def test_fixed_points_correspond(self, e2):
        # averaged projections onto the lines y=0 and y=1 fix (t, 1/2)
        a = cf.AffineSubspace(e2, (0.0, 0.0), ((1.0, 0.0),))
        b = cf.AffineSubspace(e2, (0.0, 1.0), ((1.0, 0.0),))
        t_map = cf.averaged_projections(a, b, 0.5)
        p = e2.point((0.0, 0.5))
        assert cf.fixed_point_residual(t_map, p) <= 1e-12

        cs = cf.ConvexCombinationSpace(e2, 0.5)
        qu = cf.ComposeMap(
            cf.diagonal_projection(cs),
            cf.PairMap(cs, cf.ProjectionMap(a), cf.ProjectionMap(b)),
        )
        pp = cf.embed_diagonal(cs, p)
        assert cs.distance(pp, qu(pp)) <= 1e-12
        # and back: the product fixed point projects to a base fixed point
        assert cf.fixed_point_residual(t_map, cf.extract_diagonal(cs, qu(pp))) <= 1e-12

    def test_identity_map_fixes_everything(self, e2, rng):
        cs = cf.ConvexCombinationSpace(e2, 0.5)
        qu = cf.ComposeMap(
            cf.diagonal_projection(cs),
            cf.PairMap(cs, cf.IdentityMap(e2), cf.IdentityMap(e2)),
        )
        x = e2.random_point(rng)
        assert qu(cf.embed_diagonal(cs, x)) == cf.embed_diagonal(cs, x)


class TestIterationReduction:
    def test_reduction_identity_exact(self, e2):
        ball = cf.EuclideanBall(e2, (0.0, 0.0), 1.0)
        half = cf.Halfspace(e2, (-1.0, 0.0), -2.0)
        lam = 0.5
        t_map = cf.averaged_projections(ball, half, lam)
        cs = cf.ConvexCombinationSpace(e2, lam)
        qu = cf.ComposeMap(
            cf.diagonal_projection(cs),
            cf.PairMap(cs, cf.ProjectionMap(ball), cf.ProjectionMap(half)),
        )
        start = e2.point((5.0, 5.0))
        base = cf.picard(t_map, start, 200).points
        twin = cf.picard(qu, cf.embed_diagonal(cs, start), 200).points
        # a trace that stopped at an exact fixed point stays there
        base += base[-1:] * (201 - len(base))
        twin += twin[-1:] * (201 - len(twin))
        # Both orbits make the same base payload calls, so they agree bit
        # for bit.
        assert twin == [cf.embed_diagonal(cs, x) for x in base]
        gaps = cf.reduction_deviations(cs, base, twin)
        assert len(gaps) == 201
        assert all(gap == 0.0 for gap in gaps)

    def test_twin_checks_membership_once(self, e2, monkeypatch):
        # The twin's steps run on payloads; only picard's start check sees a
        # Point.  Tangent balls keep the trace from becoming stationary.
        ball_a = cf.EuclideanBall(e2, (0.0, 0.0), 1.0)
        ball_b = cf.EuclideanBall(e2, (2.0, 0.0), 1.0)
        cs = cf.ConvexCombinationSpace(e2, 0.5)
        twin = cf.ComposeMap(
            cf.diagonal_projection(cs),
            cf.PairMap(cs, cf.ProjectionMap(ball_a), cf.ProjectionMap(ball_b)),
        )
        start = cf.embed_diagonal(cs, e2.point((1.0, 3.0)))
        checked = []
        require_member = cf.Space.require_member

        def counting(space, x):
            checked.append(x)
            require_member(space, x)

        monkeypatch.setattr(cf.Space, "require_member", counting)
        trace = cf.picard(twin, start, 200)
        assert len(trace.points) == 201
        assert checked == [start]

    def test_residual_transfer(self, e2):
        # step sizes agree between the base iteration and its product twin
        a = cf.AffineSubspace(e2, (0.0, 0.0), ((1.0, 0.0),))
        b = cf.AffineSubspace(e2, (0.0, 1.0), ((1.0, 0.0),))
        lam = 0.25
        cs = cf.ConvexCombinationSpace(e2, lam)
        qu = cf.ComposeMap(
            cf.diagonal_projection(cs),
            cf.PairMap(cs, cf.ProjectionMap(a), cf.ProjectionMap(b)),
        )
        base = cf.picard(cf.averaged_projections(a, b, lam), e2.point((2.0, -3.0)), 50)
        twin = cf.picard(qu, cf.embed_diagonal(cs, e2.point((2.0, -3.0))), 50)
        assert twin.stationary_from == base.stationary_from
        for r_base, r_twin in zip(base.residuals, twin.residuals):
            assert r_twin == pytest.approx(r_base, abs=1e-9)


class TestBestPairLift:
    def test_lift_midpoint(self, e2):
        cs = cf.ConvexCombinationSpace(e2, 0.5)
        lifted, pair = cf.lift_best_pair(cs, e2.point((1, 0)), e2.point((2, 0)))
        assert lifted.payload[0] == (1.5, 0.0)
        assert pair == cs.pair(e2.point((1, 0)), e2.point((2, 0)))

    def test_lift_degenerate(self, e2):
        cs = cf.ConvexCombinationSpace(e2, 0.5)
        a = e2.point((0.7, -0.1))
        lifted, pair = cf.lift_best_pair(cs, a, a)
        assert lifted.payload[0] == a.payload
        assert cs.distance(lifted, pair) == 0.0

    def test_lift_on_tripod(self, tripod_space):
        tri = tripod_space
        cs = cf.ConvexCombinationSpace(tri, 0.5)
        lifted, _ = cf.lift_best_pair(cs, tri.at(0, 0.5), tri.at(1, 0.5))
        assert lifted.payload[0] == tri.vertex("O").payload

    def test_lift_distance_identity(self, e2, rng):
        for lam in (0.25, 0.5, 0.9):
            cs = cf.ConvexCombinationSpace(e2, lam)
            for _ in range(30):
                a, b = e2.random_point(rng), e2.random_point(rng)
                lifted, pair = cf.lift_best_pair(cs, a, b)
                expected = math.sqrt(lam * (1 - lam)) * e2.distance(a, b)
                assert cs.distance(lifted, pair) == pytest.approx(expected, abs=1e-10)

    def test_squared_diagonal_gap_values(self, e2):
        # lam (1-lam) r^2 for two parallel lines at distance 1, and for
        # shifted copies at distance 2 with lam = 0.25.
        a = cf.AffineSubspace(e2, (0.0, 0.0), ((1.0, 0.0),))
        b = cf.AffineSubspace(e2, (0.0, 1.0), ((1.0, 0.0),))
        cs = cf.ConvexCombinationSpace(e2, 0.5)
        assert cf.squared_diagonal_gap(cs, a, b) == pytest.approx(0.25, abs=1e-9)
        assert cf.squared_diagonal_gap(cs, a, a) == pytest.approx(0.0, abs=1e-9)
        b2 = cf.AffineSubspace(e2, (0.0, 2.0), ((1.0, 0.0),))
        cs2 = cf.ConvexCombinationSpace(e2, 0.25)
        assert cf.squared_diagonal_gap(cs2, a, b2) == pytest.approx(0.75, abs=1e-8)


class TestApproxBestPairTransfer:
    def test_quantitative_inclusion_on_grid(self, e2, rng):
        """Near-minimality of a lifted pair transfers to near-minimality of
        the base pair, with the epsilon bookkeeping of the lifted form."""
        ball = cf.EuclideanBall(e2, (0.0, 0.0), 1.0)
        half = cf.Halfspace(e2, (-1.0, 0.0), -2.0)
        lam = 0.5
        cs = cf.ConvexCombinationSpace(e2, lam)
        ys = [ball.project(e2.random_point(rng, 2.0)) for _ in range(60)]
        zs = [half.project(e2.random_point(rng, 2.0)) for _ in range(60)]
        xs = [e2.random_point(rng, 3.0) for _ in range(40)]
        # The diagonal grid also holds each pair's own nearest diagonal point
        # (u, u), u = (1-lam) y + lam z, so that rhs_min is the least lifted
        # value over the grid pairs, not one of a few random diagonal points.
        rhs_min = min(
            cs.distance(cf.embed_diagonal(cs, x), cs.pair(y, z)) ** 2
            for y in ys
            for z in zs
            for x in xs + [e2.interpolate(y, z, lam)]
        )
        best_over_grid = min(e2.distance(y, z) for y in ys for z in zs)
        for disturbance in (0.0, 0.05, 0.2):
            a = e2.point((1.0, disturbance))
            b = e2.point((2.0, -disturbance))
            w = e2.point((1.5, disturbance / 2))
            lhs = cs.distance(cf.embed_diagonal(cs, w), cs.pair(a, b)) ** 2
            slack = max(0.0, lhs - rhs_min)
            eps = 2.0 * math.sqrt(slack / (lam * (1 - lam)))
            assert e2.distance(a, b) <= best_over_grid + eps + 1e-9
