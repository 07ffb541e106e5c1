"""Mapping evaluation and the nonexpansivity residual checkers."""

import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cat0feas as cf
from cat0feas.spaces import FN_T_GRID, REL_TOL, _firmly_nonexpansive, _p2

coord = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False)


class TestEvaluate:
    def test_one_call_wrapper(self):
        # Every mapping of the library, the CLI's included, writes only its
        # payload step; Mapping.__call__ is the one wrapper.
        from cat0feas import cli  # noqa: F401  (defines the CLI's mappings)

        found, todo = [], [cf.Mapping]
        while todo:
            for cls in todo.pop().__subclasses__():
                todo.append(cls)
                if cls.__module__.startswith("cat0feas"):
                    found.append(cls)
        assert len(found) == 7
        assert all("_step" in vars(cls) and "__call__" not in vars(cls) for cls in found)

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
            assert cf.check_p2(cf.IdentityMap(e2), x, y).residual == pytest.approx(0.0, abs=1e-12)

    def test_constant_residual_zero(self, e2, rng):
        c = cf.ConstantMap(e2.point((0.5, 0.5)))
        for _ in range(20):
            x, y = e2.random_point(rng), e2.random_point(rng)
            assert cf.check_p2(c, x, y).residual == pytest.approx(0.0, abs=1e-12)

    @given(ax=coord, ay=coord, bx=coord, by=coord)
    def test_halfspace_projection_property(self, ax, ay, bx, by):
        e2 = cf.EuclideanSpace(2)
        proj = cf.ProjectionMap(cf.Halfspace(e2, (1.0, 0.0), 0.0))
        res = cf.check_p2(proj, e2.point((ax, ay)), e2.point((bx, by)))
        assert res.residual <= 1e-9
        assert res.ok

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
                p2, fn = cf.check_p2(proj, x, y), cf.check_firmly_nonexpansive(proj, x, y)
                assert p2.residual <= 1e-9 and fn.residual <= 1e-9
                assert p2.ok and fn.ok, (cset, x, y)

    def test_pair_map_and_diagonal_property(self, e2, rng):
        ball = cf.EuclideanBall(e2, (0.0, 0.0), 1.0)
        half = cf.Halfspace(e2, (-1.0, 0.0), -2.0)
        cs = cf.ConvexCombinationSpace(e2, 0.5)
        u = cf.PairMap(cs, cf.ProjectionMap(ball), cf.ProjectionMap(half))
        q = cf.diagonal_projection(cs)
        for _ in range(60):
            x, y = cs.random_point(rng), cs.random_point(rng)
            assert cf.check_p2(u, x, y).residual <= 1e-9
            assert cf.check_p2(q, x, y).residual <= 1e-9


class TestFirmNonexpansivityChecker:
    def test_t_one_always_zero(self, e2, rng):
        proj = cf.ProjectionMap(cf.EuclideanBall(e2, (0.0, 0.0), 1.0))
        for _ in range(20):
            x, y = e2.random_point(rng), e2.random_point(rng)
            got = cf.check_firmly_nonexpansive(proj, x, y, t_grid=(1.0,))
            assert got.residual == pytest.approx(0.0, abs=1e-12)

    def test_halfspace_line_example(self, e2):
        proj = cf.ProjectionMap(cf.AffineSubspace(e2, (0.0, 0.0), ((1.0, 0.0),)))
        got = cf.check_firmly_nonexpansive(
            proj, e2.point((0, 2)), e2.point((3, 4)), t_grid=(0, 0.25, 0.5, 0.75, 1)
        )
        assert got.residual <= 1e-10

    def test_constant_map_passes(self, e2, rng):
        c = cf.ConstantMap(e2.point((1, 1)))
        x, y = e2.random_point(rng), e2.random_point(rng)
        assert cf.check_firmly_nonexpansive(c, x, y).residual <= 1e-12

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

            def _step(self, x):
                p = half._project(x)
                return tuple(2.0 * pi - xi for pi, xi in zip(p, x))

        reflect = Reflection()
        pairs = [(e2.random_point(rng, 4.0), e2.random_point(rng, 4.0)) for _ in range(200)]
        p2 = [cf.check_p2(reflect, x, y) for x, y in pairs]
        fn = [cf.check_firmly_nonexpansive(reflect, x, y) for x, y in pairs]
        assert max(r.residual for r in p2) > 1.0
        assert max(r.residual for r in fn) > 0.1
        assert not all(p2) and not all(fn)

    def test_relative_perturbation_fails_p2(self, e2, rng):
        # (1 + d) P for the projection P onto a line through 0 has the P2
        # residual 2 d (1 + d) |P(x - y)|^2: at d = 1e-11 far above rounding,
        # yet far below a fixed bound of 1e-9.
        line = cf.ProjectionMap(cf.AffineSubspace(e2, (0.0, 0.0), ((0.6, 0.8),)))
        pairs = [(e2.random_point(rng), e2.random_point(rng)) for _ in range(200)]
        assert all(cf.check_p2(line, x, y) for x, y in pairs)
        perturbed = [cf.check_p2(Scaled(line, 1e-11), x, y) for x, y in pairs]
        assert max(r.residual for r in perturbed) <= 1e-9
        assert max(r.residual / r.scale for r in perturbed) > 10 * REL_TOL
        assert not all(perturbed)

    def test_nan_image_fails_both_checkers(self, e2, rng):
        nan_map = Scaled(cf.IdentityMap(e2), math.nan)
        x, y = e2.random_point(rng), e2.random_point(rng)
        p2, fn = cf.check_p2(nan_map, x, y), cf.check_firmly_nonexpansive(nan_map, x, y)
        assert not p2.ok and math.isnan(p2.residual)
        assert not fn.ok and math.isnan(fn.residual)


class TestScales:
    def test_p2_scale_is_the_sum_of_its_five_terms(self, e2):
        # P onto the x-axis: Tx = (0, 0), Ty = (4, 0); the terms are
        # 2 |Tx - Ty|^2 = 32, |x - Ty|^2 = 25, |y - Tx|^2 = 16, |x - Tx|^2 = 9
        # and |y - Ty|^2 = 0, every distance an integer.
        proj = cf.ProjectionMap(cf.AffineSubspace(e2, (0.0, 0.0), ((1.0, 0.0),)))
        res = cf.check_p2(proj, e2.point((0, 3)), e2.point((4, 0)))
        assert res.ok and res.residual == 32.0 - (25.0 + 16.0 - 9.0 - 0.0)
        assert res.scale == 32.0 + 25.0 + 16.0 + 9.0 + 0.0

    def test_firm_scale_is_the_two_distances_of_the_worst_term(self, e2):
        # x -> 2x at x = (1, 0), y = 0: d(Tx, Ty) = 2, and the worst term,
        # at t = 0, compares it with d(x, y) = 1.
        fn = cf.check_firmly_nonexpansive(
            Scaled(cf.IdentityMap(e2), 1.0), e2.point((1, 0)), e2.point((0, 0))
        )
        assert not fn.ok and fn.residual == 1.0 and fn.scale == 3.0


def row_cases(e2, tripod_space, disk):
    """(name, mapping): the projection onto every set kind, onto the
    diagonal over R^2, a tree, the disk and a product, and onto two product
    rectangles; two pair maps, an averaged map and the identity."""
    tri = tripod_space
    sets = {
        "halfspace": cf.Halfspace(e2, (1.0, 2.0), 1.0),
        "flat": cf.AffineSubspace(e2, (0.0, 1.0), ((0.6, 0.8),)),
        "ball": cf.EuclideanBall(e2, (0.5, 0.5), 1.0),
        "tree-segment": cf.TreeSegment(tri, tri.at(0, 0.5), tri.at(1, 0.5)),
        "subtree": cf.Subtree(tri, ("O", "B")),
        "disk-ball": cf.DiskBall(disk, complex(0.1, 0.2), 0.5),
        "disk-segment": cf.DiskGeodesicSegment(
            disk, disk.point((0.0, -0.4)), disk.point((0.3, 0.3))
        ),
    }
    proj = {name: cf.ProjectionMap(cset) for name, cset in sets.items()}
    cases = list(proj.items())
    for space in (e2, tri, disk):
        diagonal = cf.diagonal_projection(cf.ConvexCombinationSpace(space, 0.3))
        cases.append((f"diagonal of {space.kind}", diagonal))
    e2_pair = cf.PairMap(cf.ConvexCombinationSpace(e2, 0.5), proj["ball"], proj["halfspace"])
    tree_pair = cf.PairMap(
        cf.ConvexCombinationSpace(tri, 0.25), proj["subtree"], proj["tree-segment"]
    )
    averaged = cf.averaged_projections(sets["disk-ball"], sets["disk-segment"], 0.4)
    cases += [("pair map", e2_pair), ("tree pair map", tree_pair), ("averaged", averaged)]
    e2_rect = cf.ProductRectangle(
        cf.ConvexCombinationSpace(e2, 0.5), sets["ball"], sets["halfspace"]
    )
    disk_rect = cf.ProductRectangle(
        cf.ConvexCombinationSpace(disk, 0.7), sets["disk-ball"], sets["disk-segment"]
    )
    nested = cf.ConvexCombinationSpace(cf.ConvexCombinationSpace(e2, 0.5), 0.3)
    cases += [
        ("product-rectangle", cf.ProjectionMap(e2_rect)),
        ("disk product-rectangle", cf.ProjectionMap(disk_rect)),
        ("diagonal of a product", cf.diagonal_projection(nested)),
    ]
    return cases + [("identity", cf.IdentityMap(disk))]


def draws(space, rng, n=150):
    """n points of `space` at scale 2, and the same points as packed rows."""
    points = [space.random_point(rng, 2.0) for _ in range(n)]
    return points, space._pack([p.payload for p in points])


def row_checks(space):
    """P2 and firm nonexpansivity of packed rows and their images, on the
    space's row kernels, as verify-mapping judges them."""
    return (
        lambda *images: _p2(space._dist_rows, *images),
        lambda *images: _firmly_nonexpansive(
            space._dist_rows, *images, between=space._interp_rows
        ),
    )


class TestRows:
    """The row checks against the scalar checkers, on the same draws."""

    def test_rows_agree_with_the_scalar_checkers(self, e2, tripod_space, disk, rng):
        for name, mapping in row_cases(e2, tripod_space, disk):
            space = mapping.space
            (xs, X), (ys, Y) = draws(space, rng), draws(space, rng)
            images = (X, Y, mapping._rows(X), mapping._rows(Y))
            pairs = zip((cf.check_p2, cf.check_firmly_nonexpansive), row_checks(space))
            for scalar, rows in pairs:
                want = [scalar(mapping, x, y) for x, y in zip(xs, ys)]
                residuals, scales = rows(*images)
                want_scales = np.array([r.scale for r in want])
                np.testing.assert_allclose(scales, want_scales, rtol=1e-12, atol=0.0, err_msg=name)
                gaps = np.abs(residuals - [r.residual for r in want])
                assert np.all(gaps <= REL_TOL * want_scales), (name, scalar.__name__)

    def test_images_are_the_scalar_images(self, e2, tripod_space, disk, rng):
        for name, mapping in row_cases(e2, tripod_space, disk):
            space = mapping.space
            points, X = draws(space, rng, 50)
            want = space._pack([mapping(x).payload for x in points])
            assert space._dist_rows(mapping._rows(X), want).max() <= 1e-14, name

    def test_members_come_back_unchanged(self, e2, disk, rng):
        for cset in (
            cf.Halfspace(e2, (1.0, 2.0), 1.0),
            cf.EuclideanBall(e2, (0.5, 0.5), 1.0),
            cf.DiskBall(disk, complex(0.1, 0.2), 0.5),
        ):
            # The points the scalar project returns as they are.
            points = [cset.space.random_point(rng, 2.0) for _ in range(100)]
            points += [cset.project(cset.space.random_point(rng, 2.0)) for _ in range(100)]
            members = cset.space._pack([x.payload for x in points if cset.project(x) is x])
            assert len(members) >= 20
            assert np.array_equal(cset._project_rows(members), members)

    def test_scalar_grid_leaves_out_t_one(self, e2):
        # t = 1 compares d(Tx, Ty) with itself; without it the residual of a
        # contraction is its margin, not 0.
        assert FN_T_GRID == (0.0, 0.25, 0.5, 0.75)
        proj = cf.ProjectionMap(cf.AffineSubspace(e2, (0.0, 0.0), ((1.0, 0.0),)))
        fn = cf.check_firmly_nonexpansive(proj, e2.point((0, 2)), e2.point((3, 4)))
        # Tx = (0, 0), Ty = (3, 0); the worst term is t = 0.75's, d((0, 0.5), (3, 1)).
        assert fn.ok and fn.residual == pytest.approx(3.0 - math.hypot(3.0, 0.5))


class TestRowNegativeControls:
    """Each row check fails a map that breaks it."""

    @staticmethod
    def fails(residuals, scales):
        return not np.max(residuals) <= REL_TOL * np.max(scales)

    def test_reflection_fails_both_row_checks(self, e2, rng):
        # 2 P_A - I is nonexpansive but neither (P2) nor firmly nonexpansive.
        half = cf.Halfspace(e2, (1.0, 0.0), 0.0)
        X, Y = e2._sample_rows(rng, 200) * 4.0, e2._sample_rows(rng, 200) * 4.0
        images = (X, Y, 2.0 * half._project_rows(X) - X, 2.0 * half._project_rows(Y) - Y)
        p2, fn = (check(*images) for check in row_checks(e2))
        assert p2[0].max() > 1.0 and fn[0].max() > 0.1
        assert self.fails(*p2) and self.fails(*fn)

    def test_relative_perturbation_fails_p2_on_rows(self, e2, rng):
        # (1 + 1e-11) P for the projection P onto a line through 0.
        line = cf.AffineSubspace(e2, (0.0, 0.0), ((0.6, 0.8),))
        X, Y = e2._sample_rows(rng, 200), e2._sample_rows(rng, 200)
        TX, TY = line._project_rows(X), line._project_rows(Y)
        p2, _ = row_checks(e2)
        assert not self.fails(*p2(X, Y, TX, TY))
        residuals, scales = p2(X, Y, TX * (1.0 + 1e-11), TY * (1.0 + 1e-11))
        assert residuals.max() <= 1e-9
        assert (residuals / scales).max() > 10 * REL_TOL
        assert self.fails(residuals, scales)

    def test_nan_image_fails_both_row_checks(self, e2, rng):
        X, Y = e2._sample_rows(rng, 50), e2._sample_rows(rng, 50)
        TX = X.copy()
        TX[30] = math.nan
        for residuals, scales in (check(X, Y, TX, Y) for check in row_checks(e2)):
            assert np.isnan(residuals[30]) and not np.isnan(np.delete(residuals, 30)).any()
            assert self.fails(residuals, scales)


class Scaled(cf.Mapping):
    """A Euclidean mapping whose images are scaled by 1 + rel."""

    kind = "scaled"

    def __init__(self, inner, rel):
        self.inner, self.rel = inner, rel

    @property
    def space(self):
        return self.inner.space

    def _step(self, p):
        return tuple(c * (1.0 + self.rel) for c in self.inner._step(p))
