"""Checks on one subcommand's outputs.

``check_outputs`` returns two lists.  *Failures* make the invocation count
as failed: a verdict or entry status other than the expected one (see
``workloads``).  *Errors* mean an output is wrong in itself: a missing or
malformed file, a count that disagrees with the config, a status that
contradicts the numbers next to it, or a rate bound that differs from the
benchmark's own exact arithmetic.  Errors make the run incorrect.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from workloads import gap_bound, regularity_bound

DEFAULT_SPACE_SAMPLES = 10_000
DEFAULT_EPS = {"rate": [1.0, 0.5, 0.1], "gap-rate": [1.0, 0.5, 0.25]}


def check_outputs(command: str, out: Path, cfg: dict, exit_code: int):
    failures: list[str] = []
    errors: list[str] = []
    try:
        report = json.loads((out / "report.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"no readable report.json: {exc}"], errors
    if report.get("command") != command:
        errors.append(f"report is for {report.get('command')!r}")
    if report.get("verdict") != "pass" or exit_code != 0:
        failures.append(f"verdict {report.get('verdict')!r}, exit {exit_code}; expected pass, 0")
    _CHECKERS[command](report, out, cfg, failures, errors)
    return failures, errors


def _instances_with_sets(cfg):
    return [inst for inst in cfg["instances"] if inst.get("A") is not None]


def _finite(*values):
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _verify_space(report, out, cfg, failures, errors):
    samples = cfg.get("samples", {}).get("space", DEFAULT_SPACE_SAMPLES)
    spaces = set()
    for inst in cfg["instances"]:
        key = json.dumps(inst["space"], sort_keys=True)
        spaces.add((key, None))
        spaces.update((key, lam) for lam in inst.get("product_lambdas", ()))
    entries = report.get("spaces", [])
    if len(entries) != len(spaces):
        errors.append(f"{len(entries)} spaces verified, config has {len(spaces)}")
    for e in entries:
        fp, cn, tol = e["max_four_point_residual"], e["max_cn_residual"], e["tolerance"]
        if e["samples"] != samples:
            errors.append(f"{e['name']}: {e['samples']} samples, config asks {samples}")
        if not _finite(fp, cn, tol):
            errors.append(f"{e['name']}: non-finite residual")
        elif (e["status"] == "pass") != (fp <= tol and cn <= tol):
            errors.append(f"{e['name']}: status {e['status']} contradicts residuals")
        if e["status"] != "pass":
            failures.append(
                f"{e['name']}: {e['status']} (four-point {fp:.3g}, CN {cn:.3g}, tol {tol:g})"
            )


def _verify_mapping(report, out, cfg, failures, errors):
    entries = report.get("instances", [])
    if len(entries) != len(_instances_with_sets(cfg)):
        errors.append("verify-mapping instance count differs from the config")
    for inst in entries:
        for row in inst["mappings"]:
            label = f"{inst['name']}/{row['name']}"
            for key in ("p2", "firmly_nonexpansive"):
                q = row.get(key)
                if q is not None and not (q["p50"] <= q["p90"] <= q["max"]):
                    errors.append(f"{label}: {key} quantiles out of order")
            expected = "reported" if row["name"] == "averaged" else "pass"
            if row["status"] != expected:
                failures.append(f"{label}: {row['status']}, expected {expected}")


def _verify_run(report, out, cfg, failures, errors):
    configured = {inst["name"]: inst for inst in _instances_with_sets(cfg)}
    rows = report.get("instances", [])
    if sorted(r["name"] for r in rows) != sorted(configured):
        errors.append("run instance names differ from the config")
    for row in rows:
        name = row["name"]
        n_max = configured.get(name, {}).get("n_max", 10_000)
        steps = row["steps"]
        if steps > n_max or (row["stationary_from"] is None and steps != n_max):
            errors.append(f"{name}: {steps} steps with n_max {n_max}")
        try:
            lines = (out / f"trace_{name}.csv").read_text().splitlines()
        except OSError as exc:
            errors.append(f"{name}: {exc}")
            continue
        if lines[0] != "n,residual,dist_to_p,aux_dist" or len(lines) != steps + 2:
            errors.append(f"{name}: trace CSV has {len(lines) - 1} rows for {steps} steps")
        residuals = [float(line.split(",")[1]) for line in lines[1:-1]]
        if not all(math.isfinite(r) and r >= 0.0 for r in residuals):
            errors.append(f"{name}: negative or non-finite residual in trace CSV")
        if row["status"] != "pass":
            failures.append(f"{name}: run status {row['status']}")


def _verify_certify(report, out, cfg, failures, errors):
    configured = {inst["name"]: inst for inst in _instances_with_sets(cfg)}
    for entry in report.get("instances", []):
        name = entry["name"]
        inst = configured.get(name, {})
        try:
            written = json.loads((out / f"certificates_{name}.json").read_text())
        except (OSError, ValueError) as exc:
            errors.append(f"{name}: {exc}")
            written = None
        if written != entry["certificates"]:
            errors.append(f"{name}: certificate file differs from the report")
        if sorted(c["check"] for c in entry["checks"]) != sorted(inst.get("checks", [])):
            failures.append(f"{name}: checks run {[c['check'] for c in entry['checks']]}")
        for check in entry["checks"]:
            if check["status"] != "pass":
                failures.append(f"{name}/{check['check']}: {check['status']}")
            _check_bounds(name, check, entry["certificates"], inst, inst.get("lambda", 0.5), errors)


def _check_bounds(name, check, certificates, inst, lam, errors):
    """Each certificate's bound must equal the exact rate formula."""
    if check["check"] == "rate" and "b" in check:
        quantity, grid_key = "step-residual", "eps_grid"
        bound = lambda eps: regularity_bound(check["b"], eps)  # noqa: E731
    elif check["check"] == "gap-rate" and "q" in check:
        quantity, grid_key = "projection-gap", "gap_eps_grid"
        bound = lambda eps: gap_bound(check["M"], check["b"], eps, lam)  # noqa: E731
    else:
        return
    certs = [c for c in certificates if c["quantity"] == quantity]
    if not certs:
        return
    default = DEFAULT_EPS["rate" if quantity == "step-residual" else "gap-rate"]
    if [c["epsilon"] for c in certs] != list(inst.get(grid_key, default)):
        errors.append(f"{name}/{check['check']}: certified eps grid differs from the config")
    for c in certs:
        if c["bound_n"] != bound(c["epsilon"]):
            errors.append(
                f"{name}/{check['check']}: bound_n {c['bound_n']} at eps {c['epsilon']}, "
                f"exact value {bound(c['epsilon'])}"
            )


_CHECKERS = {
    "verify-space": _verify_space,
    "verify-mapping": _verify_mapping,
    "run": _verify_run,
    "certify": _verify_certify,
}


def same_outputs(first: Path, other: Path) -> list[str]:
    """Files whose bytes differ between two repetitions (timings excluded)."""
    names = {p.name for p in first.iterdir()} | {p.name for p in other.iterdir()}
    names.discard("timings.txt")
    differ = []
    for name in sorted(names):
        a, b = first / name, other / name
        if not (a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()):
            differ.append(name)
    return differ
