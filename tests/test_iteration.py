"""Picard traces, the explicit rate formulas, and certificate semantics."""

import dataclasses
import json
import math

import pytest

import cat0feas as cf
from cat0feas import cli
from cat0feas.config import InstanceConfig
from cat0feas.iteration import IterationTrace


def line_line_map(e2):
    a = cf.AffineSubspace(e2, (0.0, 0.0), ((1.0, 0.0),))
    b = cf.AffineSubspace(e2, (0.0, 1.0), ((1.0, 0.0),))
    return cf.averaged_projections(a, b, 0.5), a, b


def ball_halfspace_map(e2):
    a = cf.EuclideanBall(e2, (0.0, 0.0), 1.0)
    b = cf.Halfspace(e2, (-1.0, 0.0), -2.0)
    return cf.averaged_projections(a, b, 0.5), a, b


def run_csv(tmp_path, instance):
    """`cat0-feas run` on one averaged instance in R^2: the trace CSV's rows
    as lists of cells, and the instance's report row."""
    doc = {
        "schema": "1",
        "instances": [
            {"name": "i", "space": {"kind": "euclidean", "dim": 2}, **instance}
        ],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
    lines = (out / "trace_i.csv").read_text().splitlines()
    assert lines[0] == "n,residual,dist_to_p,aux_dist"
    (row,) = json.loads((out / "report.json").read_text())["instances"]
    return [line.split(",") for line in lines[1:]], row


def assert_csv_matches(e2, rows, report_row, t_map, a, b, start, n_max, p):
    """Every CSV cell equals its value computed from a separate Picard run."""
    trace = cf.picard(t_map, start, n_max)
    assert len(rows) == len(trace.points)
    for n, (cells, x) in enumerate(zip(rows, trace.points)):
        residual = repr(trace.residuals[n]) if n < trace.horizon else ""
        gap = repr(e2.distance(a.project(x), b.project(x)))
        assert cells == [str(n), residual, repr(e2.distance(x, p)), gap]
    assert repr(report_row["final_aux"]) == rows[-1][3]
    assert report_row["steps"] == trace.horizon
    assert report_row["stationary_from"] == trace.stationary_from


class TestRateFormulas:
    # expected values recomputed by hand in exact decimal arithmetic
    @pytest.mark.parametrize(
        "b,eps,expected", [(1, 1, 2), (1, 0.5, 4), (1, 1.0, 2), (0.5, 1, 1), (1, 0.25, 8)]
    )
    def test_stage_count(self, b, eps, expected):
        assert cf.regularity_stage_count(b, eps) == expected

    @pytest.mark.parametrize(
        "b,eps,expected", [(1, 1, 21), (1, 0.5, 273), (0.5, 1, 4), (3.5, 1, 6322)]
    )
    def test_regularity_rate(self, b, eps, expected):
        assert cf.asymptotic_regularity_rate(b, eps) == expected

    @pytest.mark.parametrize(
        "M,b,eps,lam,expected",
        [(1, 1, 1, 0.5, 258), (1, 1, 0.5, 0.5, 4098), (1, 1, 1, 0.25, 343)],
    )
    def test_gap_rate(self, M, b, eps, lam, expected):
        assert cf.averaged_projection_gap_rate(M, b, eps, lam) == expected

    @pytest.mark.parametrize(
        "M,b,eps,expected", [(1, 1, 1, 6), (2, 1, 1, 18), (1, 1, 0.1, 402)]
    )
    def test_composed_gap_rate(self, M, b, eps, expected):
        assert cf.composed_projection_gap_rate(M, b, eps) == expected

    def test_decimal_boundary_semantics(self):
        # 2b/eps = 20 exactly in decimals; ceil must not jump to 21
        assert cf.regularity_stage_count(1, 0.1) == 20

    def test_huge_rates_are_exact_ints(self):
        n = cf.asymptotic_regularity_rate(3.5, 0.01)
        assert isinstance(n, int)
        assert n > 10**200  # exponential growth in 1/eps

    def test_monotonicity_grids(self):
        eps_grid = [2.0, 1.0, 0.5, 0.25, 0.125]
        b_grid = [0.5, 1.0, 2.0, 4.0]
        for b in b_grid:
            vals = [cf.asymptotic_regularity_rate(b, e) for e in eps_grid]
            assert vals == sorted(vals)  # nonincreasing in eps (grid descends)
        for e in eps_grid:
            vals = [cf.asymptotic_regularity_rate(b, e) for b in b_grid]
            assert vals == sorted(vals)  # nondecreasing in b
        for b in b_grid:
            vals = [cf.averaged_projection_gap_rate(1.0, b, e, 0.5) for e in eps_grid]
            assert vals == sorted(vals)
            vals = [cf.averaged_projection_gap_rate(b, 1.0, e, 0.5) for e in eps_grid]
            assert vals == sorted(vals)

    def test_domain_errors(self):
        # Negative constants and nonpositive eps raise; constants of 0 do not.
        calls = [
            lambda: cf.asymptotic_regularity_rate(-1.0, 1.0),
            lambda: cf.asymptotic_regularity_rate(1.0, -0.5),
            lambda: cf.regularity_stage_count(-1e-300, 1.0),
            lambda: cf.regularity_stage_count(0.0, 0.0),
            lambda: cf.averaged_projection_gap_rate(1.0, 1.0, 1.0, 1.0),
            lambda: cf.averaged_projection_gap_rate(-1.0, 0.0, 1.0, 0.5),
            lambda: cf.averaged_projection_gap_rate(0.0, -1.0, 1.0, 0.5),
            lambda: cf.averaged_projection_gap_rate(0.0, 0.0, 0.0, 0.5),
            lambda: cf.composed_projection_gap_rate(1.0, -1e-300, 1.0),
            lambda: cf.composed_projection_gap_rate(-1.0, 0.0, 1.0),
            lambda: cf.composed_projection_gap_rate(0.0, 0.0, -1.0),
        ]
        for call in calls:
            with pytest.raises(cf.DomainError):
                call()

    @pytest.mark.parametrize("eps", [1.0, 0.1, 1e-4])
    def test_zero_constants_give_the_formula_at_zero(self, eps):
        # A constant of 0 is the strongest hypothesis: the start is fixed, or
        # its first image is, so the bound is the formula's value at 0.
        assert cf.regularity_stage_count(0.0, eps) == 0
        assert cf.asymptotic_regularity_rate(0.0, eps) == 1
        for M, b in [(0.0, 1.0), (1.0, 0.0), (0, 0)]:
            assert cf.averaged_projection_gap_rate(M, b, eps, 0.5) == 2
            assert cf.composed_projection_gap_rate(M, b, eps) == 2


class TestPicard:
    def test_identity_stops_immediately(self, e2):
        trace = cf.picard(cf.IdentityMap(e2), e2.point((1, 2)), 100)
        assert trace.stationary_from == 0
        assert trace.residuals == [0.0]

    def test_line_line_one_step(self, e2, tmp_path):
        t_map, a, b = line_line_map(e2)
        start, p = e2.point((0, 4)), e2.point((0, 0.5))
        trace = cf.picard(t_map, start, 50)
        assert trace.points[1].payload == (0.0, 0.5)
        # the first stationary index; the loop stops right after it
        assert trace.stationary_from == 1
        assert trace.residuals == [3.5, 0.0]
        rows, report_row = run_csv(
            tmp_path,
            {
                "A": {"affine-subspace": {"anchor": [0.0, 0.0], "basis": [[1.0, 0.0]]}},
                "B": {"affine-subspace": {"anchor": [0.0, 1.0], "basis": [[1.0, 0.0]]}},
                "start": [0.0, 4.0],
                "fixed_point": [0.0, 0.5],
                "n_max": 50,
            },
        )
        assert_csv_matches(e2, rows, report_row, t_map, a, b, start, 50, p)
        assert rows[0][2] == "3.5"
        assert rows[1][3] == "1.0"  # the two line projections stay 1 apart

    def test_ball_halfspace_limit(self, e2):
        t_map, a, b = ball_halfspace_map(e2)
        trace = cf.picard(t_map, e2.point((5, 5)), 500)
        final = trace.points[-1].payload
        assert final[0] == pytest.approx(1.5, abs=1e-6)
        assert final[1] == pytest.approx(0.0, abs=1e-6)

    def test_fejer_monotone_with_fixed_point(self, e2):
        t_map, a, b = ball_halfspace_map(e2)
        trace = cf.picard(t_map, e2.point((5, 5)), 2000)
        dists = [e2.distance(x, e2.point((1.5, 0.0))) for x in trace.points]
        for earlier, later in zip(dists, dists[1:]):
            assert later <= earlier + 1e-9

    def test_n_max_domain(self, e2):
        with pytest.raises(cf.DomainError):
            cf.picard(cf.IdentityMap(e2), e2.point((0, 0)), 0)

    def test_nonfinite_iterate_reports_step(self, e1):
        class Exploder(cf.Mapping):
            kind = "exploder"

            def __init__(self, space):
                self._space = space

            @property
            def space(self):
                return self._space

            def _step(self, p):
                return (p[0] * 1e200,)

        with pytest.raises(cf.NumericError) as err:
            cf.picard(Exploder(e1), e1.point((1.0,)), 100)
        assert err.value.step == 2  # 1e200 -> 1e400 = inf at the second step

    def test_nan_disk_iterate_reports_step(self, disk):
        class Halver(cf.Mapping):
            """Halves the point until it is within 0.1 of the origin, then NaN."""

            kind = "halver"
            space = disk

            def _step(self, u):
                return u / 2 if abs(u) > 0.1 else complex(math.nan, 0.0)

        with pytest.raises(cf.NumericError) as err:
            cf.picard(Halver(), disk.point((0.5, 0.0)), 100)
        assert err.value.step == 4  # 0.5 -> 0.25 -> 0.125 -> 0.0625 -> nan

    def test_trace_invariant_enforced(self, e2):
        with pytest.raises(cf.DomainError):
            IterationTrace(space=e2, payloads=[(0.0, 0.0)], residuals=[1.0, 2.0])

    def test_csv_rows_shape(self, e2, tmp_path):
        # a trace cut off before stationarity: one row per iterate
        t_map, a, b = ball_halfspace_map(e2)
        rows, report_row = run_csv(
            tmp_path,
            {
                "A": {"ball": {"center": [0.0, 0.0], "radius": 1.0}},
                "B": {"halfspace": {"normal": [-1.0, 0.0], "offset": -2.0}},
                "start": [5.0, 5.0],
                "fixed_point": [1.5, 0.0],
                "n_max": 300,
            },
        )
        assert len(rows) == 301 and report_row["stationary_from"] is None
        assert rows[-1][1] == ""  # no residual for the final iterate
        assert_csv_matches(
            e2, rows, report_row, t_map, a, b, e2.point((5, 5)), 300,
            e2.point((1.5, 0.0)),
        )


def reference_picard(mapping, start, n_max):
    """picard's loop written on Points: x = T(x), residuals by space.distance,
    stationary at the first iterate equal to the one before it."""
    space = mapping.space
    points, residuals, stationary_from = [start], [], None
    x = start
    for step in range(n_max):
        y = mapping(x)
        residual = space.distance(x, y)
        if not math.isfinite(residual):
            raise cf.NumericError("non-finite iterate", step=step + 1)
        points.append(y)
        residuals.append(residual)
        if y == x:
            stationary_from = step
            break
        x = y
    return points, residuals, stationary_from


def reference_cases():
    """(mapping, start) params: the CLI's averaged, composed and
    product-reduction maps of every bundled instance (Euclidean, tree and disk
    spaces), the run's gap-recording step of each, the library's averaged and
    composed maps, and on the product space of each the pair map and the
    diagonal projection after it."""
    cases = []
    for inst in cf.load_bundled_config("default").instances:
        if inst.set_a is None:
            continue
        for mode in ("averaged", "composed", "product-reduction"):
            moded = dataclasses.replace(inst, mode=mode)
            cases.append(pytest.param(cli._build_map(moded), inst.start, id=f"{inst.name}:{mode}"))
            gaps = cli._build_map(moded, [])
            cases.append(pytest.param(gaps, inst.start, id=f"{inst.name}:{mode}:gaps"))
        averaged = cf.averaged_projections(inst.set_a, inst.set_b, inst.lam)
        composed = cf.ComposeMap(cf.ProjectionMap(inst.set_a), cf.ProjectionMap(inst.set_b))
        cases.append(pytest.param(averaged, inst.start, id=f"{inst.name}:library-averaged"))
        cases.append(pytest.param(composed, inst.start, id=f"{inst.name}:library-composed"))
        cs = cf.ConvexCombinationSpace(inst.space, inst.lam)
        pair = cf.PairMap(cs, cf.ProjectionMap(inst.set_a), cf.ProjectionMap(inst.set_b))
        twin = cf.ComposeMap(cf.diagonal_projection(cs), pair)
        lifted = cf.embed_diagonal(cs, inst.start)
        cases.append(pytest.param(pair, lifted, id=f"{inst.name}:pair-map"))
        cases.append(pytest.param(twin, lifted, id=f"{inst.name}:twin"))
    return cases


class TestPicardReference:
    """picard steps payloads; its trace is the Points loop's, bit for bit."""

    @pytest.mark.parametrize("mapping, start", reference_cases())
    def test_matches_the_points_loop(self, mapping, start):
        trace = cf.picard(mapping, start, 1200)
        points, residuals, stationary_from = reference_picard(mapping, start, 1200)
        assert trace.points == points
        assert trace.residuals == residuals
        assert trace.stationary_from == stationary_from
        assert all(type(x) is cf.Point and x.space == mapping.space for x in trace.points)

    @pytest.mark.parametrize("mapping, start", reference_cases())
    def test_points_wrap_the_payloads(self, mapping, start):
        trace = cf.picard(mapping, start, 1200)
        assert len(trace.points) == trace.horizon + 1 == len(trace.payloads)
        for n, x in enumerate(trace.points):
            assert x.payload == trace.payloads[n]
            assert type(x) is cf.Point and x.space == mapping.space
        # Built once: a second read returns the same list.
        assert trace.points is trace.points

    def test_both_kinds_of_trace_are_covered(self):
        stationary = [
            cf.picard(*case.values, 1200).stationary_from is not None
            for case in reference_cases()
        ]
        assert any(stationary) and not all(stationary)

    @pytest.mark.parametrize("mode", ["averaged", "composed", "product-reduction"])
    def test_numeric_error_at_the_same_step(self, e2, mode):
        # Lines 2e308 apart: their projections overflow to inf or nan.
        a = cf.AffineSubspace(e2, (-1e308, 0.0), ((0.0, 1.0),))
        b = cf.AffineSubspace(e2, (1e308, 0.0), ((0.0, 1.0),))
        inst = InstanceConfig(name="far", space=e2, set_a=a, set_b=b,
                              start=e2.point((0.0, 0.0)), mode=mode)
        mapping = cli._build_map(inst)
        with pytest.raises(cf.NumericError) as got:
            cf.picard(mapping, inst.start, 10)
        with pytest.raises(cf.NumericError) as want:
            reference_picard(mapping, inst.start, 10)
        assert got.value.step == want.value.step == 1


class TestCertificates:
    def test_identity_passes_every_eps(self, e2):
        trace = cf.picard(cf.IdentityMap(e2), e2.point((0.5, 0.5)), 10)
        certs = cf.certify_asymptotic_regularity(trace, b=1.0, eps_grid=[1, 0.5, 0.1])
        assert all(c.passed for c in certs)

    def test_recorded_horizon_pass(self, e2):
        # synthetic non-stationary trace whose horizon passes the bound: the
        # recorded residuals alone decide the certificate
        residuals = [0.25 / 2**k for k in range(8)]
        payloads = [(0.0, sum(residuals[:k])) for k in range(9)]
        trace = IterationTrace(space=e2, payloads=payloads, residuals=residuals)
        b = 0.25
        bound = cf.asymptotic_regularity_rate(b, 1.0)
        assert bound < trace.horizon
        (cert,) = cf.certify_asymptotic_regularity(trace, b, [1.0])
        assert cert.passed and cert.bound_n == bound
        assert not cert.stationary

    def test_stationary_extension_pass(self, e2):
        t_map, _, _ = line_line_map(e2)
        trace = cf.picard(t_map, e2.point((0, 4)), 50)
        certs = cf.certify_asymptotic_regularity(trace, 3.5, [1, 0.5, 0.1, 0.01])
        assert [c.status for c in certs] == ["pass"] * 4
        # bounds dwarf the recorded horizon; stationarity decides them
        assert certs[-1].bound_n > 10**100
        assert all(c.observed_first_n <= 1 for c in certs)

    def test_short_nonstationary_trace_inconclusive(self, e2):
        t_map, _, _ = ball_halfspace_map(e2)
        trace = cf.picard(t_map, e2.point((5, 5)), 20)
        assert trace.stationary_from is None
        (cert,) = cf.certify_asymptotic_regularity(trace, 6.2, [0.5])
        assert cert.status == "inconclusive"
        assert not cert.passed

    def test_violation_fails(self, e2):
        # synthetic trace with a large residual beyond a tiny bound
        payloads = [(float(k), 0.0) for k in range(8)]
        trace = IterationTrace(space=e2, payloads=payloads, residuals=[1.0] * 7)
        b, eps = 0.25, 0.5
        bound = cf.asymptotic_regularity_rate(b, eps)
        assert bound < 7
        (cert,) = cf.certify_asymptotic_regularity(trace, b, [eps])
        assert cert.status == "fail"

    def test_gap_certificates_ball_halfspace(self, e2):
        t_map, a, b = ball_halfspace_map(e2)
        start = e2.point((5, 5))
        trace = cf.picard(t_map, start, 20_000)
        assert trace.stationary_from is not None
        m_val = e2.distance(start, e2.point((1.5, 0.0)))
        gaps = [e2.distance(a.project(x), b.project(x)) for x in trace.points]
        certs = cf.certify_best_approx_rate(
            trace, gaps, m_val, gaps[0] ** 2, 1.0, [1, 0.5, 0.25], 0.5
        )
        assert all(c.passed for c in certs)
        # the certified quantity settles at r itself: the final gap is 1 exactly
        assert gaps[-1] == 1.0

    def test_gap_rejects_bad_values(self, e2):
        t_map, _, _ = ball_halfspace_map(e2)
        trace = cf.picard(t_map, e2.point((5, 5)), 10)
        for gaps in ([2.0] * 10 + [math.nan], [2.0] * 10 + [math.inf],
                     [2.0] * 10 + [-1.0], [2.0] * 10):
            with pytest.raises(cf.DomainError):
                cf.certify_best_approx_rate(trace, gaps, 1.0, 1.0, 1.0, [1.0], 0.5)

    def test_closed_form_log2_of_a_long_bound(self, e2):
        # At b = 1, eps = 1e-5 the stage count is 200,000, past the bit
        # limit, and the bound (200,036 bits) can still be built to compare.
        trace = cf.picard(cf.IdentityMap(e2), e2.point((0, 0)), 5)
        (cert,) = cf.certify_asymptotic_regularity(trace, 1.0, [1e-5])
        exact = math.log2(cf.asymptotic_regularity_rate(1.0, 1e-5))
        assert cert.bound_n is None and cert.passed
        assert cert.to_json()["bound_n_log2"] == pytest.approx(exact, rel=1e-12)

    def test_certificate_json_fields(self, e2):
        trace = cf.picard(cf.IdentityMap(e2), e2.point((0, 0)), 5)
        (cert,) = cf.certify_asymptotic_regularity(trace, 1.0, [1.0])
        doc = cert.to_json()
        assert set(doc) == {"epsilon", "bound_n", "observed_first_n", "pass", "status"}
        assert doc["pass"] is True
