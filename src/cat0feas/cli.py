"""Configuration-driven experiment runner.

    cat0-feas verify-space   --config c.json --out dir [--seed N]
    cat0-feas verify-mapping --config c.json --out dir [--seed N]
    cat0-feas run            --config c.json --out dir [--seed N]
    cat0-feas certify        --config c.json --out dir [--seed N]

Instances run one after another; ``--jobs K`` is still accepted and ignored.

Exit codes: 0 all checks passed, 1 some check failed, 2 some check was
inconclusive (or a stated hypothesis did not hold), 3 configuration, usage or
output error.

Outputs are deterministic for a fixed config and seed: report.json, trace
CSVs, and certificate JSON files are byte-identical across runs.  Wall-clock
timings go to the separate timings.txt, which is excluded from that claim.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

from .analysis import best_pair_bruteforce, check_delta_limit, set_distance
from .config import ExperimentConfig, InstanceConfig, load_config
from .errors import Cat0FeasError, ConfigError, DomainError, GridSizeError, InconclusiveError
from .iteration import (
    certify_asymptotic_regularity,
    certify_best_approx_rate,
    picard,
)
from .mappings import (
    ComposeMap,
    ConvexCombinationMap,
    IdentityMap,
    Mapping,
    PairMap,
    ProjectionMap,
    averaged_projections,
    diagonal_projection,
)
from .product import ConvexCombinationSpace
from .sets import DiagonalSet
from .spaces import REL_TOL, _cn, _firmly_nonexpansive, _four_point, _p2, _random_rows

EXIT_PASS, EXIT_FAIL, EXIT_INCONCLUSIVE, EXIT_CONFIG = 0, 1, 2, 3

# Samples drawn and reduced at once by verify-space and verify-mapping.
# Larger blocks are hardly faster but raise verify-space's peak RSS on
# default: 2,048 by 1.2 MB, 8,192 by 6 MB.
_BLOCK = 1024

_STATUS_RANK = {
    "pass": 0,
    "reported": 0,
    "inconclusive": 1,
    "hypothesis-unsatisfied": 1,
    "fail": 2,
}

SEMANTICS_NOTES = {
    "certificates": (
        "a certificate checks the bound on recorded indices up to the trace "
        "horizon; when the iteration reaches an exact fixed point the constant "
        "extension decides the bound for all later indices, otherwise a trace "
        "shorter than the bound is reported inconclusive"
    ),
    "delta-limit": (
        "limit checks use a finite-dimensional tail proxy: the last window must "
        "sit within tolerance of the claimed point and have it as its estimated "
        "asymptotic center"
    ),
}


class _OutputError(Exception):
    """An output file could not be written (exit 3)."""


def _write(path: Path, text: str):
    try:
        path.write_text(text)
    except OSError as exc:
        raise _OutputError(f"cannot write {path}: {exc.strerror}") from exc


def _worst_status(statuses) -> str:
    worst = "pass"
    for s in statuses:
        if _STATUS_RANK.get(s, 2) > _STATUS_RANK[worst]:
            worst = s
    return worst


def _exit_code(status: str) -> int:
    rank = _STATUS_RANK.get(status, 2)
    return (EXIT_PASS, EXIT_INCONCLUSIVE, EXIT_FAIL)[rank]


def _quantiles(values):
    ordered = np.sort(values)  # a NaN sorts last, so it is the max
    n = len(ordered)
    return {
        "p50": float(ordered[n // 2]),
        "p90": float(ordered[min(n - 1, (9 * n) // 10)]),
        "max": float(ordered[-1]),
    }


class _Stepper(Mapping):
    """A map given by a payload step function, named by `kind`."""

    def __init__(self, kind, space, step):
        self.kind, self._space, self.step = kind, space, step

    @property
    def space(self):
        return self._space

    def _step(self, p):
        return self.step(p)


def _build_map(inst: InstanceConfig, gaps=None, mode=None):
    """The instance's map in `mode`, its own by default: the averaged map,
    the composition P_A P_B, or the averaged map's product-space twin
    x -> first component of Q(U(x, x)), where U is the pair map (P_A, P_B) on
    the lam-weighted product and Q the projection onto its diagonal.

    Given a list `gaps`, the map also appends d(P_A x, P_B x) to it for each
    x it maps, from the projections its step makes: the two images the
    averaged map interpolates, the pair U(x, x), or the P_B x that P_A P_B
    composes and one more projection, P_A x."""
    set_a, set_b, _ = inst.require_sets()
    space, mode = inst.space, mode or inst.mode
    project_a, project_b, distance = set_a._project, set_b._project, space._distance

    if mode == "composed":
        def step(p):
            pb = project_b(p)
            if gaps is not None:
                gaps.append(distance(project_a(p), pb))
            return project_a(pb)

        return _Stepper(ComposeMap.kind, space, step)
    if mode == "averaged":
        between, lam = space._between, inst.lam

        def step(p):
            pa, pb = project_a(p), project_b(p)
            if gaps is not None:
                gaps.append(distance(pa, pb))
            return between(pa, pb, lam)

        return _Stepper(ConvexCombinationMap.kind, space, step)
    cs = ConvexCombinationSpace(space, inst.lam)
    pair_map, diagonal = PairMap(cs, ProjectionMap(set_a), ProjectionMap(set_b)), DiagonalSet(cs)

    def step(p):
        pair = pair_map._step((p, p))
        if gaps is not None:
            gaps.append(distance(*pair))
        return diagonal._project(pair)[0]

    return _Stepper("product-reduction", space, step)


def _run_trace(inst: InstanceConfig, with_gaps: bool):
    """The instance's Picard trace, and with `with_gaps` the gap
    d(P_A x_n, P_B x_n) of each of its iterates (otherwise None).  The last
    iterate is never mapped, so its gap is computed here."""
    set_a, set_b, start = inst.require_sets()
    gaps = [] if with_gaps else None
    trace = picard(_build_map(inst, gaps), start, inst.n_max)
    if with_gaps:
        last = trace.payloads[-1]
        gaps.append(inst.space._distance(set_a._project(last), set_b._project(last)))
    return trace, gaps


# -- verify-space ------------------------------------------------------------------


def _blocks(total):
    """Sizes of consecutive blocks of at most _BLOCK that add up to total."""
    return [min(_BLOCK, total - lo) for lo in range(0, total, _BLOCK)]


def _mapping_row(name, checks, assert_pass):
    """One sampled row from its checks' (residuals, scales).

    Each check reports its residual quantiles.  In an asserted row each check
    also gets its own tolerance, REL_TOL times the largest of its own scales,
    and passes iff every one of its residuals is at most that; the row passes
    iff every check does.  numpy's max keeps a NaN, so a NaN residual or scale
    fails its check.  Otherwise the row is only reported."""
    entry = {"name": name}
    statuses = []
    for key, (residuals, scales) in checks.items():
        entry[key] = _quantiles(residuals)
        if assert_pass:
            tol = REL_TOL * np.max(scales)
            entry[key]["tolerance"] = float(tol)
            statuses.append("pass" if np.max(residuals) <= tol else "fail")
    entry["status"] = _worst_status(statuses) if assert_pass else "reported"
    return entry


def _sampled_row(name, space, samples, draw, checks, assert_pass):
    """The row of `checks` (name -> inequality of `spaces`, such as `_p2`) on
    `samples` cases drawn in blocks: draw(n) returns n cases as packed rows,
    and check(d, *rows) their (residuals, scales), which fill each check's
    arrays in draw order.  d is space._dist_rows, computed once per block for
    each unordered pair of drawn rows and afresh for any other operand: the
    drawn rows live as long as their block, so no other array can take one's
    id, and every _dist_rows is symmetric bit for bit."""
    found = {key: (np.empty(samples), np.empty(samples)) for key in checks}
    lo = 0
    for n in _blocks(samples):
        rows, known = draw(n), {}
        drawn = {id(R) for R in rows}

        def d(P, Q):
            key = frozenset((id(P), id(Q)))
            if not key <= drawn:
                return space._dist_rows(P, Q)
            if key not in known:
                known[key] = space._dist_rows(P, Q)
            return known[key]

        for key, check in checks.items():
            for out, values in zip(found[key], check(d, *rows)):
                out[lo : lo + n] = values
        lo += n
    return {"samples": samples, **_mapping_row(name, found, assert_pass)}


def _verify_one_space(name, space, samples, seed):
    """Sample both curvature inequalities, each judged on its own scales, the
    sums of its squared-distance terms.  The row keeps each check's max and
    the larger tolerance under the keys the benchmark's output checks read."""
    rng = random.Random(f"{seed}:{name}:space-verify")

    def draw(n):
        x, y, z, w = (space._sample_rows(rng, n) for _ in range(4))
        return x, y, z, w, _random_rows(rng, n)

    checks = {
        "four_point": lambda d, x, y, z, w, t: _four_point(d, x, y, z, w),
        "cn": lambda d, x, y, z, w, t: _cn(d, z, x, y, space._interp_rows(x, y, t), t),
    }
    row = _sampled_row(name, space, samples, draw, checks, True)
    fp, cn = row["four_point"], row["cn"]
    return {
        **row,
        "max_four_point_residual": fp["max"],
        "max_cn_residual": cn["max"],
        "tolerance": float(np.maximum(fp["tolerance"], cn["tolerance"])),
    }


def cmd_verify_space(cfg: ExperimentConfig, seed: int):
    rows = []
    seen = set()
    for inst in cfg.instances:
        variants = [(inst.space, None)]
        variants.extend(
            (ConvexCombinationSpace(inst.space, lam), lam)
            for lam in inst.product_lambdas
        )
        for space, lam in variants:
            if space in seen:
                continue
            seen.add(space)
            label = space.kind if lam is None else f"{space.base.kind} x lambda={lam}"
            rows.append(
                _verify_one_space(f"{inst.name}:{label}", space, cfg.space_samples, seed)
            )
    return {"spaces": rows}, _worst_status(r["status"] for r in rows)


# -- verify-mapping -----------------------------------------------------------------


def _mapping_report(name, mapping, rng, samples, assert_pass, checks):
    """The sampled row of `checks` on pairs drawn from the mapping's space and
    their images; each block is mapped once for every check."""
    space = mapping.space

    def draw(n):
        x, y = space._sample_rows(rng, n), space._sample_rows(rng, n)
        return x, y, mapping._rows(x), mapping._rows(y)

    return _sampled_row(name, space, samples, draw, checks, assert_pass)


def _verify_mappings_for(inst: InstanceConfig, cfg: ExperimentConfig, seed: int):
    set_a, set_b, _ = inst.require_sets()
    rng = random.Random(f"{seed}:{inst.name}:mapping-verify")
    space = inst.space
    cs = ConvexCombinationSpace(space, inst.lam)
    proj_a, proj_b = ProjectionMap(set_a), ProjectionMap(set_b)
    firm = partial(_firmly_nonexpansive, between=space._interp_rows)
    projection, p2 = {"p2": _p2, "firmly_nonexpansive": firm}, {"p2": _p2}

    # Nearest-point minimality of the diagonal projection Q at each drawn
    # product point x = (x1, x2): the slack d(x, Qx) - d(x, Qy) against the
    # diagonal point Qy, scaled by its two distances, and the identity
    # d^2(x, Qx) = lam (1-lam) d^2(x1, x2), scaled by its two sides.
    def slack(d, x, y, qx, qy):
        dq, dw = d(x, qx), d(x, qy)
        return dq - dw, dq + dw

    def identity(d, x, y, qx, qy):
        dq, gap = d(x, qx), inst.lam * (1 - inst.lam) * space._dist_rows(*x) ** 2
        return np.abs(dq * dq - gap), dq * dq + gap

    samples = cfg.mapping_samples
    rows = [
        _mapping_report("P_A", proj_a, rng, samples, True, projection),
        _mapping_report("P_B", proj_b, rng, samples, True, projection),
        _mapping_report("identity", IdentityMap(space), rng, 100, True, p2),
        _mapping_report("pair-map", PairMap(cs, proj_a, proj_b), rng, samples, True, p2),
        _mapping_report("diagonal-projection", diagonal_projection(cs), rng, samples, True, p2),
        _mapping_report(
            "averaged", averaged_projections(set_a, set_b, inst.lam), rng, samples, False, p2
        ),
        _mapping_report(
            "diagonal-minimality", diagonal_projection(cs), rng, cfg.minimality_samples, True,
            {"slack": slack, "identity": identity},
        ),
    ]
    return {
        "name": inst.name,
        "mappings": rows,
        "status": _worst_status(r["status"] for r in rows),
    }


# -- run ---------------------------------------------------------------------------


def _write_trace_csv(path: Path, residuals, dist_to_p, aux_dist):
    """One row per iterate; the last iterate has no residual, and dist_to_p is
    empty without a fixed point."""
    lines = ["n,residual,dist_to_p,aux_dist"]
    for n, aux in enumerate(aux_dist):
        cells = [
            repr(residuals[n]) if n < len(residuals) else "",
            repr(dist_to_p[n]) if dist_to_p is not None else "",
            repr(aux),
        ]
        lines.append(",".join([str(n)] + cells))
    _write(path, "\n".join(lines) + "\n")


def _padded(payloads, length):
    """The first `length` iterates of an orbit and of its constant extension."""
    return payloads[:length] + payloads[-1:] * (length - len(payloads))


def _run_one(inst: InstanceConfig, out: Path):
    space, start = inst.space, inst.start
    trace, aux_dist = _run_trace(inst, True)
    p = inst.fixed_point
    dist_to_p = None
    if p is not None:
        dist_to_p = [space._distance(x, p.payload) for x in trace.payloads]
    _write_trace_csv(out / f"trace_{inst.name}.csv", trace.residuals, dist_to_p, aux_dist)
    row = {
        "name": inst.name,
        "mode": inst.mode,
        "steps": len(trace.residuals),
        "stationary_from": trace.stationary_from,
        "final_residual": trace.residuals[-1] if trace.residuals else 0.0,
        "final_aux": aux_dist[-1],
    }
    if inst.mode in ("averaged", "product-reduction"):
        # Both orbits stop at their first exact fixed point; the constant
        # extension stands for the steps they skip.  The main trace is one of
        # the two orbits, so only the other is computed here.
        steps = min(200, inst.n_max)
        if inst.mode == "averaged":
            base, twin = trace, picard(_build_map(inst, mode="product-reduction"), start, steps)
        else:
            base, twin = picard(_build_map(inst, mode="averaged"), start, steps), trace
        # Entry n is the product distance D((x_n, x_n), (y_n, y_n)).
        cs = ConvexCombinationSpace(space, inst.lam)
        orbits = zip(_padded(base.payloads, steps + 1), _padded(twin.payloads, steps + 1))
        gaps = [cs._distance((x, x), (y, y)) for x, y in orbits]
        # Both orbits make the same base payload calls: the twin's step takes
        # (P_A x, P_B x) from the pair map and c = base._between(P_A x,
        # P_B x, lam) from the diagonal projection, which is the averaged
        # map's step.  So rounding cannot part them, and any gap is a fault.
        row["reduction_max_gap"] = max(gaps)
        row["reduction_ok"] = row["reduction_max_gap"] == 0.0
        row["status"] = "pass" if row["reduction_ok"] else "fail"
    else:
        row["status"] = "pass"
    if dist_to_p is not None:
        drift = max((b - a for a, b in zip(dist_to_p, dist_to_p[1:])), default=0.0)
        row["fejer_max_drift"] = max(drift, 0.0)
        row["fejer_monotone"] = drift <= 1e-9
        if not row["fejer_monotone"]:
            row["status"] = "fail"
    return row


# -- certify -----------------------------------------------------------------------


def _certify_one(inst: InstanceConfig, out: Path):
    set_a, set_b, start = inst.require_sets()
    space = inst.space
    trace, gaps = _run_trace(inst, "gap-rate" in inst.checks)
    entry = {"name": inst.name, "checks": [], "certificates": []}
    statuses = []

    def add(check_name, status, **details):
        entry["checks"].append({"check": check_name, "status": status, **details})
        statuses.append(status)

    if "rate" in inst.checks:
        if inst.fixed_point is None:
            add("rate", "inconclusive", reason="no fixed point configured")
        else:
            d0 = space.distance(start, inst.fixed_point)
            b = inst.rate_b if inst.rate_b is not None else d0
            if d0 > b + 1e-12:
                add(
                    "rate",
                    "hypothesis-unsatisfied",
                    reason=f"d(x0, p) = {d0} exceeds the supplied b = {b}",
                    b=b,
                )
            else:
                certs = certify_asymptotic_regularity(trace, b, inst.eps_grid)
                entry["certificates"].extend(
                    {"quantity": "step-residual", **c.to_json()} for c in certs
                )
                add("rate", _worst_status(c.status for c in certs), b=b)

    r_alt = None
    if {"gap-rate", "oracle-agreement"} & set(inst.checks):
        try:
            r_alt = set_distance(set_a, set_b)
        except InconclusiveError as exc:
            r_alt = None
            add("set-distance", "inconclusive", reason=str(exc))

    if "gap-rate" in inst.checks:
        pair = inst.best_pair
        if pair is None:
            add("gap-rate", "inconclusive", reason="no best pair configured")
        else:
            a_star, b_star = pair
            u_star = space.interpolate(a_star, b_star, inst.lam)
            d_u = space.distance(start, u_star)
            m_val = inst.rate_m if inst.rate_m is not None else d_u
            r = inst.set_dist if inst.set_dist is not None else r_alt
            q_identity = None
            if r is not None and r_alt is not None:
                # Cross-check: the squared diagonal-to-rectangle gap in the
                # product space, lam (1-lam) d(A, B)^2, against lam (1-lam) r^2.
                weight = inst.lam * (1.0 - inst.lam)
                q_identity = abs(weight * r_alt * r_alt - weight * r**2)
            if d_u > m_val + 1e-12:
                add("gap-rate", "hypothesis-unsatisfied", M=m_val)
            elif r is None:
                add("gap-rate", "inconclusive", reason="set distance unavailable")
            elif r_alt is not None and r - r_alt > REL_TOL * (r + r_alt):
                # r_alt is d(a, b) for some a in A and b in B, so d(A, B) <= r_alt.
                reason = f"set_distance {r} exceeds the alternating-projection distance {r_alt}"
                add("gap-rate", "hypothesis-unsatisfied", reason=reason, r=r, alternating=r_alt)
            else:
                b_gap = gaps[0] * gaps[0]
                certs = certify_best_approx_rate(
                    trace, gaps, m_val, b_gap, r, inst.gap_eps_grid, inst.lam
                )
                entry["certificates"].extend(
                    {"quantity": "projection-gap", **c.to_json()} for c in certs
                )
                add(
                    "gap-rate",
                    _worst_status(c.status for c in certs),
                    M=m_val,
                    b=b_gap,
                    r=r,
                    q=inst.lam * (1 - inst.lam) * r * r,
                    q_identity_residual=q_identity,
                )

    # One oracle evaluation serves both checks that compare against it.
    if {"delta-limit", "oracle-agreement"} & set(inst.checks):
        try:
            pair = best_pair_bruteforce(set_a, set_b, inst.grid)
        except DomainError as exc:
            # No window, an empty grid, sets without a grid, or one too large.
            where = f"grid.h = {inst.grid.h!r}" if isinstance(exc, GridSizeError) else "grid"
            raise ConfigError(f"instance '{inst.name}' {where}: {exc}") from exc

    if "delta-limit" in inst.checks:
        claimed = space.interpolate(pair.a, pair.b, inst.lam)
        verdict = check_delta_limit(trace, claimed, tol=1e-4)
        add(
            "delta-limit",
            "pass" if verdict.ok else "fail",
            max_tail_distance=verdict.max_tail_distance,
            center_distance=verdict.center_distance,
            bruteforce_dist=pair.dist,
            oracle_pairs_scored=pair.pairs_scored,
        )

    if "oracle-agreement" in inst.checks:
        if r_alt is None:
            add("oracle-agreement", "inconclusive")
        else:
            gap = abs(pair.dist - r_alt)
            budget = 2.0 * inst.grid.h
            add(
                "oracle-agreement",
                "pass" if gap <= budget else "fail",
                alternating=r_alt,
                bruteforce=pair.dist,
                difference=gap,
                budget=budget,
                oracle_pairs_scored=pair.pairs_scored,
            )

    entry["status"] = _worst_status(statuses) if statuses else "pass"
    _write(
        out / f"certificates_{inst.name}.json",
        json.dumps(entry["certificates"], indent=2, sort_keys=True) + "\n",
    )
    return entry


# -- entry point --------------------------------------------------------------------


def cmd_instances(cfg: ExperimentConfig, handler):
    """Run `handler` on every instance that has sets; the verdict is the worst
    status among them."""
    rows = [handler(inst) for inst in cfg.instances if inst.set_a is not None]
    return {"instances": rows}, _worst_status(r["status"] for r in rows)


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 3, as configuration errors do, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _parser():
    parser = _Parser(
        prog="cat0-feas",
        description="verify, run, and certify averaged-projection experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("verify-space", "verify-mapping", "run", "certify"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--jobs", type=int, default=1, help="ignored; instances run serially")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    started = time.perf_counter()
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    seed = cfg.seed if args.seed is None else args.seed
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"output error: cannot create directory {out}: {exc.strerror}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        if args.command == "verify-space":
            body, verdict = cmd_verify_space(cfg, seed)
        else:
            handler = {
                "verify-mapping": lambda inst: _verify_mappings_for(inst, cfg, seed),
                "run": lambda inst: _run_one(inst, out),
                "certify": lambda inst: _certify_one(inst, out),
            }[args.command]
            body, verdict = cmd_instances(cfg, handler)
        report = {
            "schema": "1",
            "command": args.command,
            "seed": seed,
            "semantics": SEMANTICS_NOTES,
            "verdict": verdict,
            **body,
        }
        _write(out / "report.json", json.dumps(report, indent=2, sort_keys=True) + "\n")
        _write(
            out / "timings.txt", f"{args.command} wall_seconds={time.perf_counter() - started:.3f}\n"
        )
    except _OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Cat0FeasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    print(f"{args.command}: {verdict} (report in {out / 'report.json'})")
    return _exit_code(verdict)


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
