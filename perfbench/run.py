"""The cat0feas benchmark: CLI wall time per workload, per-layer counts when traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/cat0feas`` must exist).  Each
workload (see ``workloads.py``) runs ``verify-space``, ``verify-mapping``,
``run`` and ``certify`` one after another, each in a fresh interpreter started
from this process with ``--jobs 1``, and repeats that until the next
repetition would end after ``--seconds`` (at least twice).  Every invocation's
outputs are checked (``checks.py``) and compared byte for byte with the first
repetition's.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (interpreter start,
import and ``load_config``, median over all invocations), the median wall time
of each subcommand without its set-up, and the peak RSS of any invocation.
``--trace 1`` runs one untraced repetition, then traced repetitions with the
wrappers of ``tracer.py``, and reports per-layer counts and self times (median
over the traced repetitions, each summed over the four subcommands) plus the
tracing overhead against the untraced repetition.

The last line of standard output is one JSON object: ``correct`` (every
output check held), ``attempted`` and ``failed`` (subcommand invocations; an
invocation fails when it crashes, its verdict differs from the expected one,
or its outputs differ from the first repetition's) and ``metrics``.  The
lines before it give every metric with its unit, ``failed_frac``, the
environment (Python and numpy versions, nproc, seed, config digest, ``src/``
line count) and each failure.  The config, the full result and the spans of a
traced run stay in ``perfbench/_work/<workload>-seed<N>-trace<T>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import checks  # noqa: E402  (siblings of this script)
import workloads  # noqa: E402
from workloads import COMMANDS, WORKLOADS  # noqa: E402

MIN_REPS = 2
# A fixed hash seed gives every child the same dict and set layouts.
CHILD_ENV = dict(os.environ, PYTHONHASHSEED="0")
HARD_LIMIT_S = 170.0  # every run must end within 180 s

COMMAND_METRIC = {
    "verify-space": "verify_space_s",
    "verify-mapping": "verify_mapping_s",
    "run": "run_s",
    "certify": "certify_s",
}
END_TO_END = [("setup_s", "s")] + [(m, "s") for m in COMMAND_METRIC.values()] + [
    ("peak_rss_mb", "MB")
]

SET_KINDS = (
    "halfspace",
    "affine-subspace",
    "ball",
    "tree-segment",
    "subtree",
    "disk-ball",
    "disk-geodesic-segment",
    "diagonal",
)
TIMED_BOUNDARIES = (
    [
        "spaces.distance.euclidean",
        "spaces.distance.poincare-disk",
        "spaces.interpolate.euclidean",
        "spaces.interpolate.poincare-disk",
        "spaces.check_four_point",
        "spaces.check_cn_inequality",
        "spaces.random_point",
        "trees.distance",
        "trees.interpolate",
        "product.distance",
        "product.interpolate",
    ]
    + [f"sets.project.{kind}" for kind in SET_KINDS]
    + [
        "mappings.apply",
        "mappings.check_p2",
        "mappings.check_firmly_nonexpansive",
        "iteration.picard",
        "iteration.certify",
        "iteration.rate_formula",
        "analysis.best_pair_bruteforce",
        "analysis.set_distance",
        "analysis.check_delta_limit",
        "config.load_config",
    ]
)
# (metric, tracer boundary, field, unit, better)
PER_LAYER = [
    row
    for name in TIMED_BOUNDARIES
    for row in (
        (f"{name}.calls", name, "calls", "count", "lower"),
        (f"{name}.self_s", name, "self_s", "s", "lower"),
    )
] + [
    ("spaces.require_member.calls", "spaces.require_member", "calls", "count", "lower"),
    ("trees.tables_s", "trees.tables", "self_s", "s", "lower"),
    ("sets.grid.points", "sets.grid", "work", "count", "lower"),
    ("sets.grid.self_s", "sets.grid", "self_s", "s", "lower"),
    ("iteration.picard.steps", "iteration.picard", "work", "count", "lower"),
    ("analysis.best_pair_bruteforce.pairs", "analysis.best_pair_bruteforce", "work", "count", "lower"),
    (
        "analysis.best_pair_bruteforce.unique_ratio",
        "analysis.best_pair_bruteforce",
        "unique_ratio",
        "ratio",
        "higher",
    ),
    ("analysis.set_distance.iterations", "analysis.set_distance", "work", "count", "lower"),
    ("cli.main.self_s", "cli.main", "self_s", "s", "lower"),
    ("cli.write.bytes", None, "bytes", "bytes", "lower"),
    ("trace.overhead_s", None, "overhead_s", "s", "lower"),
    ("trace.overhead_frac", None, "overhead_frac", "ratio", "lower"),
]


class Bench:
    """Runs the subcommand invocations of one workload and keeps their records."""

    def __init__(self, workload: str, seed: int, work: Path, plan: dict[str, int]):
        self.seed = seed
        self.work = work
        self.plan = plan
        self.first_outputs: dict[str, Path] = {}
        self.config_text = workloads.config_text(workload, seed, ROOT)
        self.config = json.loads(self.config_text)
        self.config_path = work / "config.json"
        self.config_path.write_text(self.config_text)
        self.started = time.perf_counter()
        self.errors: list[str] = []
        self.spans: list[dict] = []
        self.timed_out = False

    def invoke(self, rep: int, command: str, trace: bool, index: int = 0) -> dict:
        out = self.work / f"rep{rep}" / f"{command}-{index}"
        out.mkdir(parents=True)
        result_path = out.parent / f"{command}-{index}.result.json"
        argv = [
            sys.executable, str(HERE / "child.py"), str(result_path), str(int(trace)), "--",
            command, "--config", str(self.config_path), "--out", str(out),
            "--seed", str(self.seed), "--jobs", "1",
        ]  # fmt: skip
        record = {
            "rep": rep, "command": command, "index": index, "traced": trace, "failures": [],
        }  # fmt: skip
        budget = HARD_LIMIT_S - (time.perf_counter() - self.started)
        spawned = time.perf_counter()
        try:
            proc = subprocess.run(
                argv, cwd=ROOT, env=CHILD_ENV, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=max(budget, 1.0),
            )  # fmt: skip
        except subprocess.TimeoutExpired:
            self.timed_out = True
            record["failures"].append("timed out")
            record["cmd_s"] = time.perf_counter() - spawned
            return record
        wall = time.perf_counter() - spawned
        try:
            result = json.loads(result_path.read_text())
        except (OSError, ValueError):
            tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
            record["failures"].append(f"crashed with exit {proc.returncode}: {tail}")
            record["cmd_s"] = wall
            return record
        record.update(
            setup_s=result["ready"] - spawned,
            cmd_s=result["cmd_s"],
            rss_mb=result["maxrss_kb"] / 1024.0,
            bytes=sum(p.stat().st_size for p in out.iterdir() if p.name != "timings.txt"),
        )
        if "trace" in result:
            record["stats"] = result["trace"]["stats"]
            self.spans.extend(
                dict(span, rep=rep, command=command) for span in result["trace"]["spans"]
            )
        failures, errors = checks.check_outputs(command, out, self.config, result["exit"])
        first = self.first_outputs.setdefault(command, out)
        if first is not out:
            differ = checks.same_outputs(first, out)
            if differ:
                failures.append(f"outputs differ from the first repetition: {differ}")
            shutil.rmtree(out)
        record["failures"].extend(failures)
        self.errors.extend(f"rep {rep} {command}: {e}" for e in errors)
        return record

    def repetition(self, trace: bool, rep: int) -> list[dict]:
        return [
            self.invoke(rep, command, trace, i)
            for command in COMMANDS
            for i in range(self.plan[command])
        ]

    def repeat(self, seconds: float, trace: bool, first: int = 0, min_reps: int = MIN_REPS):
        """Repetitions until the next one would end after `seconds`."""
        start = time.perf_counter()
        reps = []
        while True:
            reps.append(self.repetition(trace, first + len(reps)))
            elapsed = time.perf_counter() - start
            if self.timed_out or (
                len(reps) >= min_reps and elapsed * (len(reps) + 1) / len(reps) > seconds
            ):
                break
        return reps


# -- metrics ---------------------------------------------------------------------------


def end_to_end(reps) -> dict:
    invocations = [inv for rep in reps for inv in rep]
    values = {
        "setup_s": statistics.median(
            [inv["setup_s"] for inv in invocations if "setup_s" in inv] or [0.0]
        ),
        "peak_rss_mb": max([inv.get("rss_mb", 0.0) for inv in invocations]),
    }
    for command, metric in COMMAND_METRIC.items():
        values[metric] = statistics.median(
            inv["cmd_s"] for inv in invocations if inv["command"] == command
        )
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def aggregate(records) -> dict:
    """Sum the tracer aggregates of several invocations by boundary name."""
    total: dict[str, dict] = {}
    for rec in records:
        for name, s in rec.get("stats", {}).items():
            t = total.setdefault(name, {"calls": 0, "self_s": 0.0, "work": 0, "distinct": 0})
            for key in t:
                t[key] += s.get(key, 0)
    return total


def layer_shares(stats: dict) -> dict:
    """Share of the traced self time per module (first name component)."""
    by_layer: dict[str, float] = {}
    for name, s in stats.items():
        layer = name.split(".", 1)[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + s["self_s"]
    total = sum(by_layer.values()) or 1.0
    return {layer: t / total for layer, t in sorted(by_layer.items())}


def per_layer(traced_reps, untraced_rep) -> dict:
    untraced_s = sum(inv["cmd_s"] for inv in untraced_rep)
    samples: dict[str, list[float]] = {}
    for rep in traced_reps:
        stats = aggregate(rep)
        traced_s = sum(inv["cmd_s"] for inv in rep)
        extra = {
            "bytes": sum(inv.get("bytes", 0) for inv in rep),
            "overhead_s": traced_s - untraced_s,
            "overhead_frac": traced_s / untraced_s - 1.0,
        }
        for metric, boundary, field, _, _ in PER_LAYER:
            if boundary is None:
                value = extra[field]
            else:
                s = stats.get(boundary, {"calls": 0, "self_s": 0.0, "work": 0, "distinct": 0})
                if field == "unique_ratio":
                    value = s["distinct"] / s["calls"] if s["calls"] else 0.0
                else:
                    value = s[field]
            samples.setdefault(metric, []).append(value)
    return {
        metric: {"value": statistics.median(samples[metric]), "unit": unit}
        for metric, _, _, unit, _ in PER_LAYER
    }


# -- environment ---------------------------------------------------------------------------


def environment(seed: int, config_text: str) -> dict:
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "config_sha256": hashlib.sha256(config_text.encode()).hexdigest(),
        "src_lines": src_lines,
    }


# -- entry point ---------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return every metric, record and check result."""
    work = HERE / "_work" / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # Write the bytecode once (even under PYTHONDONTWRITEBYTECODE), as an
    # installed package has it, so no measured invocation compiles sources.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src"], cwd=ROOT, env=CHILD_ENV,
        stdout=subprocess.DEVNULL,
    )  # fmt: skip
    # A traced run compares one untraced and one traced invocation of each
    # subcommand; an untraced run follows the workload's plan.
    plan = dict.fromkeys(COMMANDS, 1) if trace else workloads.PLAN[workload]
    bench = Bench(workload, seed, work, plan)
    if trace:
        untraced = bench.repetition(False, 0)
        traced = bench.repeat(seconds - sum(inv["cmd_s"] for inv in untraced), True, 1, 1)
        reps = [untraced] + traced
        metrics = per_layer(traced, untraced)
        stats = {
            c: aggregate(inv for rep in traced for inv in rep if inv["command"] == c)
            for c in COMMANDS
        }
        shares = {"all": layer_shares(aggregate(inv for rep in traced for inv in rep))}
        shares.update((c, layer_shares(s)) for c, s in stats.items())
        with open(work / "spans.jsonl", "w") as fh:
            for span in bench.spans:
                fh.write(json.dumps(span) + "\n")
    else:
        reps = bench.repeat(seconds, False)
        metrics = end_to_end(reps)
        stats = shares = None
    invocations = [inv for rep in reps for inv in rep]
    result = {
        "workload": workload,
        "trace": trace,
        "repetitions": len(reps),
        "env": environment(seed, bench.config_text),
        "correct": not bench.errors,
        "errors": bench.errors,
        "attempted": len(invocations),
        "failed": sum(1 for inv in invocations if inv["failures"]),
        "metrics": metrics,
        "layer_shares": shares,
        "stats": stats,
        "invocations": [{k: v for k, v in inv.items() if k != "stats"} for inv in invocations],
    }
    (work / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    for rep_dir in work.glob("rep*"):
        shutil.rmtree(rep_dir)
    return result


def _print_report(result: dict) -> None:
    env = result["env"]
    print(
        f"workload {result['workload']}  trace {int(result['trace'])}  "
        f"repetitions {result['repetitions']}  invocations {result['attempted']}"
    )
    print("env " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for name, m in result["metrics"].items():
        print(f"  {name:<46} {m['value']:>14.6g} {m['unit']}")
    frac = result["failed"] / result["attempted"]
    print(f"  {'failed_frac':<46} {frac:>14.6g} ({result['failed']} of {result['attempted']})")
    for layer_set, shares in (result["layer_shares"] or {}).items():
        text = "  ".join(f"{k}={v:.1%}" for k, v in shares.items())
        print(f"  self-time shares [{layer_set}]: {text}")
    for inv in result["invocations"]:
        for failure in inv["failures"]:
            print(f"FAILED rep {inv['rep']} {inv['command']}: {failure}")
    for error in result["errors"]:
        print(f"INCORRECT {error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cat0feas" / "cli.py").is_file():
        print(f"no cat0feas sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_report(result)
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
