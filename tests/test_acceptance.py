"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
All tolerances are fixed here; instance data comes from the bundled
configuration so the suite exercises the same objects the CLI runs.
"""

import math
import random
import time

import pytest

import cat0feas as cf

SEED = 20260809


def report(num, label, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {label}: {verdict} {detail}".rstrip())
    assert ok, f"criterion {num} ({label}) failed: {detail}"


@pytest.fixture(scope="module")
def inst(bundled):
    return {i.name: i for i in bundled.instances}


@pytest.fixture(scope="module")
def traces(inst):
    """One certified-quality trace per instance with sets."""
    out = {}
    for name, i in inst.items():
        if i.set_a is None:
            continue
        t_map = cf.averaged_projections(i.set_a, i.set_b, i.lam)
        out[name] = cf.picard(t_map, i.start, i.n_max)
    return out


@pytest.fixture(scope="module")
def brute_pairs(inst):
    out = {}
    for name in ("ball-halfspace", "ball-ball", "tripod-legs", "disk-disjoint",
                 "line-line", "disk-overlap"):
        i = inst[name]
        out[name] = cf.best_pair_bruteforce(i.set_a, i.set_b, i.grid)
    return out


def test_criterion_1_cat0_verification(e2, e5, tripod_space, disk):
    started = time.perf_counter()
    bases = [(e2, 1e-12), (e5, 1e-12), (tripod_space, 1e-12), (disk, 1e-8)]
    variants = []
    for base, tol in bases:
        variants.append((base, tol))
        for lam in (0.25, 0.5, 0.9):
            variants.append((cf.ConvexCombinationSpace(base, lam), tol))
    worst = -math.inf
    failures = []
    for space, tol in variants:
        rng = random.Random(f"{SEED}:{space.kind}:{getattr(space, 'lam', '')}")
        for _ in range(10_000):
            x, y, z, w = (space.random_point(rng) for _ in range(4))
            fp = cf.check_four_point(space, x, y, z, w, tol)
            cn = cf.check_cn_inequality(space, z, x, y, rng.random(), tol)
            worst = max(worst, fp.residual, cn.residual)
            if not (fp.ok and cn.ok):
                failures.append((space.kind, fp.residual, cn.residual))
                break
    elapsed = time.perf_counter() - started
    report(
        1,
        "CAT(0) verification",
        not failures and elapsed < 10.0,
        f"(16 spaces x 10^4 samples, max residual {worst:.2e}, {elapsed:.1f}s)",
    )


def test_criterion_2_projection_property(e2, e5, tripod_space, disk):
    tri = tripod_space
    combos = [
        ("R2/halfspace", cf.Halfspace(e2, (1.0, 2.0), 1.0)),
        ("R2/affine", cf.AffineSubspace(e2, (0.0, 1.0), ((1.0, 0.0),))),
        ("R2/ball", cf.EuclideanBall(e2, (0.5, -0.5), 1.5)),
        ("R5/halfspace", cf.Halfspace(e5, (1.0, 1.0, 0.0, 0.0, -1.0), 0.5)),
        ("R5/affine", cf.AffineSubspace(
            e5, (0.0,) * 5, ((1.0, 0, 0, 0, 0), (0, 1.0, 0, 0, 0)))),
        ("R5/ball", cf.EuclideanBall(e5, (0.0,) * 5, 1.0)),
        ("tree/segment", cf.TreeSegment(tri, tri.at(0, 0.5), tri.at(1, 0.5))),
        ("tree/subtree", cf.Subtree(tri, ("O", "A"))),
        ("disk/segment", cf.DiskGeodesicSegment(
            disk, disk.point((-0.3, 0.2)), disk.point((0.4, 0.1)))),
        ("disk/ball", cf.DiskBall(disk, complex(0.1, -0.1), 0.6)),
    ]
    for base, tag in ((e2, "R2"), (tri, "tree"), (disk, "disk")):
        cs = cf.ConvexCombinationSpace(base, 0.5)
        factor_a = next(c for label, c in combos if label.startswith(tag))
        factor_b = next(c for label, c in combos if label.startswith(tag))
        combos.append((f"{tag}-product/rectangle",
                       cf.ProductRectangle(cs, factor_a, factor_b)))
        combos.append((f"{tag}-product/diagonal", cf.DiagonalSet(cs)))
    worst = -math.inf
    bad = []
    for label, cset in combos:
        space = cset.space
        proj = cf.ProjectionMap(cset)
        rng = random.Random(f"{SEED}:{label}:p2")
        for _ in range(1_000):
            x, y = space.random_point(rng), space.random_point(rng)
            res = cf.check_p2(proj, x, y).residual
            worst = max(worst, res)
            if res > 1e-9:
                bad.append((label, res))
                break
    report(
        2,
        "projection quadratic property",
        not bad,
        f"({len(combos)} set kinds x 10^3 pairs, max residual {worst:.2e})",
    )


def test_criterion_3_diagonal_projection(e2, tripod_space, disk):
    worst_slack = -math.inf
    worst_identity = -math.inf
    for base in (e2, tripod_space, disk):
        for lam in (0.25, 0.5, 0.9):
            cs = cf.ConvexCombinationSpace(base, lam)
            diag = cf.DiagonalSet(cs)
            rng = random.Random(f"{SEED}:{base.kind}:{lam}:diag")
            for _ in range(12):
                p = cs.random_point(rng)
                qp = diag.project(p)
                dq = cs.distance(p, qp)
                x1, x2 = (cf.Point(base, c) for c in p.payload)
                worst_identity = max(
                    worst_identity,
                    abs(dq * dq - lam * (1 - lam) * base.distance(x1, x2) ** 2),
                )
                for _ in range(1_000):
                    w = base.random_point(rng)
                    worst_slack = max(worst_slack, dq - cs.distance(p, cs.pair(w, w)))
    ok = worst_slack <= 1e-10 and worst_identity <= 1e-10
    report(
        3,
        "diagonal projection minimality + identity",
        ok,
        f"(max slack {worst_slack:.2e}, max identity residual {worst_identity:.2e})",
    )


def test_criterion_4_reduction_identity(inst):
    worst_scaled = -math.inf
    for name, i in inst.items():
        if i.set_a is None:
            continue
        cs = cf.ConvexCombinationSpace(i.space, i.lam)
        base = cf.picard(
            cf.averaged_projections(i.set_a, i.set_b, i.lam), i.start, 200
        ).points
        qu = cf.ComposeMap(
            cf.diagonal_projection(cs),
            cf.PairMap(cs, cf.ProjectionMap(i.set_a), cf.ProjectionMap(i.set_b)),
        )
        twin = cf.picard(qu, cf.embed_diagonal(cs, i.start), 200).points
        # a trace that stopped at an exact fixed point stays there
        base += base[-1:] * (201 - len(base))
        twin += twin[-1:] * (201 - len(twin))
        for n in range(201):
            budget = 1e-9 * max(n, 1)
            first, second = (cf.Point(i.space, c) for c in twin[n].payload)
            dev = max(
                i.space.distance(first, base[n]),
                i.space.distance(second, base[n]),
            )
            worst_scaled = max(worst_scaled, dev - budget)
    report(
        4,
        "product reduction identity over 200 steps",
        worst_scaled <= 0.0,
        f"(max componentwise deviation above budget {worst_scaled:.2e})",
    )


def test_criterion_5_rate_certification(inst, traces):
    started = time.perf_counter()
    cases = ["line-line", "ball-halfspace", "tripod-legs", "disk-overlap"]
    rows = []
    ok = True
    for name in cases:
        i = inst[name]
        trace = traces[name]
        d0 = i.space.distance(i.start, i.fixed_point)
        b = i.rate_b if i.rate_b is not None else d0
        assert d0 <= b + 1e-12
        certs = cf.certify_asymptotic_regularity(trace, b, i.eps_grid)
        for cert in certs:
            rows.append((name, cert.epsilon, cert.status))
            ok = ok and cert.passed
            # the observed convergence beats the uniform bound by far
            ok = ok and cert.observed_first_n is not None
            ok = ok and cert.observed_first_n * 10 <= cert.bound_n
    assert ("line-line", 0.01, "pass") in rows
    elapsed = time.perf_counter() - started
    report(
        5,
        "asymptotic-regularity rate certificates",
        ok and elapsed < 60.0,
        f"({len(rows)} certificates over {len(cases)} instances, {elapsed:.1f}s)",
    )


def test_criterion_6_projection_gap_rate(inst, traces):
    ok = True
    details = []
    for name in ("ball-halfspace", "tripod-legs"):
        i = inst[name]
        trace = traces[name]
        a_star, b_star = i.best_pair
        u_star = i.space.interpolate(a_star, b_star, i.lam)
        m_val = i.space.distance(i.start, u_star)
        gaps = [
            i.space.distance(i.set_a.project(x), i.set_b.project(x))
            for x in trace.points
        ]
        r = i.set_dist
        certs = cf.certify_best_approx_rate(
            trace, gaps, m_val, gaps[0] ** 2, r, (1.0, 0.5, 0.25), i.lam
        )
        ok = ok and all(c.passed for c in certs)
        cs = cf.ConvexCombinationSpace(i.space, i.lam)
        q_gap = abs(
            cf.squared_diagonal_gap(cs, i.set_a, i.set_b)
            - i.lam * (1 - i.lam) * r * r
        )
        ok = ok and q_gap <= 1e-8
        details.append(f"{name}: q residual {q_gap:.1e}")
    report(6, "averaged-projection gap rate", ok, "(" + "; ".join(details) + ")")


def test_criterion_7_limit_proxy(inst, traces, brute_pairs):
    ok = True
    details = []
    for name in ("ball-halfspace", "ball-ball", "tripod-legs", "disk-disjoint"):
        i = inst[name]
        pair = brute_pairs[name]
        claimed = i.space.interpolate(pair.a, pair.b, i.lam)
        verdict = cf.check_delta_limit(traces[name], claimed, tol=1e-4)
        ok = ok and verdict.ok
        details.append(f"{name}: tail {verdict.max_tail_distance:.1e}")
    # negative control: a wrong claimed point must fail
    e2 = inst["ball-halfspace"].space
    control = cf.check_delta_limit(
        traces["ball-halfspace"], e2.point((0.0, 0.0)), tol=1e-4
    )
    ok = ok and not control.ok
    report(
        7,
        "limit-point proxy with brute-force best pairs",
        ok,
        "(" + "; ".join(details) + "; negative control rejected)",
    )


def test_criterion_8_oracle_agreement(inst, brute_pairs):
    ok = True
    details = []
    for name, pair in brute_pairs.items():
        i = inst[name]
        r_alt = cf.set_distance(i.set_a, i.set_b)
        gap = abs(r_alt - pair.dist)
        budget = 2.0 * i.grid.h
        ok = ok and gap <= budget
        details.append(f"{name}: |diff| {gap:.1e}")
    report(
        8,
        "alternating projections vs grid oracle",
        ok,
        "(" + "; ".join(details) + ")",
    )


def test_criterion_9_rate_formula_units():
    checks = [
        (cf.asymptotic_regularity_rate(1, 1), 21),
        (cf.asymptotic_regularity_rate(1, 0.5), 273),
        (cf.averaged_projection_gap_rate(1, 1, 1, 0.5), 258),
        (cf.composed_projection_gap_rate(1, 1, 1), 6),
    ]
    ok = all(got == expected for got, expected in checks)
    report(
        9,
        "rate formula unit values",
        ok,
        f"(got {[g for g, _ in checks]})",
    )
