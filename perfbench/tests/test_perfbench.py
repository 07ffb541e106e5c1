"""Self-tests of the benchmark: generators, configs, metric lists, workload shape.

    python3 -m pytest -q perfbench/tests

The shape tests run one traced repetition of every workload (about two
minutes on two cores).
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from cat0feas.config import load_config  # noqa: E402
from cat0feas.iteration import asymptotic_regularity_rate  # noqa: E402

GENERATED = [w for w in workloads.WORKLOADS if w != "default"]


@pytest.mark.parametrize("workload", GENERATED)
def test_same_seed_gives_byte_identical_configs(workload):
    first = workloads.config_text(workload, 5, ROOT)
    assert workloads.config_text(workload, 5, ROOT) == first
    assert workloads.config_text(workload, 6, ROOT) != first


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_config_loads(workload, seed, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(workloads.config_text(workload, seed, ROOT))
    cfg = load_config(path)
    assert cfg.instances
    for inst in cfg.instances:
        if inst.set_a is None:
            continue
        if "rate" in inst.checks and workload != "default":
            # The hypothesis d(x0, p) <= b holds, and every bound is in reach.
            assert inst.space.distance(inst.start, inst.fixed_point) <= inst.rate_b
            assert all(
                workloads.regularity_bound(inst.rate_b, e) < inst.n_max for e in inst.eps_grid
            )


def test_big_tree_best_pair_is_on_the_oracle_grids(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(workloads.config_text("big-tree", 3, ROOT))
    inst = load_config(path).instances[0]
    grid_a, grid_b = inst.set_a.grid(inst.grid), inst.set_b.grid(inst.grid)
    assert 0.9e6 < len(grid_a) * len(grid_b) < 1.2e6
    a_star = inst.set_a.start
    b_star = inst.set_b.project(a_star)
    assert a_star in grid_a and b_star in grid_b
    midpoint = inst.space.interpolate(a_star, b_star, inst.lam)
    assert inst.space.distance(midpoint, inst.fixed_point) < 1e-12


@pytest.mark.parametrize("b, eps", [(3.5, 1.0), (3.75, 0.9375), (2.0, 0.1), (31.75, 15.875)])
def test_rate_bound_matches_the_library(b, eps):
    assert workloads.regularity_bound(b, eps) == asymptotic_regularity_rate(b, eps)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, _, _, unit, better in run.PER_LAYER
    ]


# -- workload shape ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def traced():
    cache = {}

    def get(workload):
        if workload not in cache:
            cache[workload] = run.run_workload(workload, 7, 1.0, trace=True)
        return cache[workload]

    return get


def test_default_certify_is_oracle_bound(traced):
    result = traced("default")
    certify = result["stats"]["certify"]
    oracle = certify["trees.distance"]["self_s"] + sum(
        s["self_s"] for name, s in certify.items() if name.startswith("analysis.")
    )
    assert oracle > 0.5 * sum(s["self_s"] for s in certify.values())
    shares = result["layer_shares"]["verify-space"]
    assert shares["spaces"] + shares["product"] + shares["trees"] > 0.5


def test_long_trace_exercises_iteration_not_oracles(traced):
    result = traced("long-trace")
    shares = result["layer_shares"]["all"]
    assert shares["analysis"] < 0.05
    assert shares["sets"] + shares["spaces"] + shares["iteration"] > 0.5
    assert result["metrics"]["analysis.best_pair_bruteforce.calls"]["value"] == 0
    assert result["metrics"]["iteration.picard.steps"]["value"] > 100_000


def test_big_tree_exercises_trees_and_oracles(traced):
    result = traced("big-tree")
    shares = result["layer_shares"]["all"]
    assert shares["trees"] + shares["analysis"] > 0.5
    assert result["metrics"]["trees.tables_s"]["value"] > 0.0
    assert result["metrics"]["spaces.distance.euclidean.calls"]["value"] == 0
    assert result["metrics"]["analysis.best_pair_bruteforce.pairs"]["value"] > 1.8e6
