"""The benchmark judges every subcommand's outputs with perfbench/checks.py,
and calls a run incorrect on any error it finds.  A report-shape change that
it would reject must fail here first, on each workload's seed-1 config."""

import importlib.util
import json
from pathlib import Path

import pytest

from cat0feas import cli

ROOT = Path(__file__).resolve().parents[1]


def _load(name):
    # checks.py imports its sibling `workloads`, so their directory goes on
    # the path while they load; the files themselves are only read.
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(ROOT / "perfbench"))
        spec = importlib.util.spec_from_file_location(
            f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def checks():
    return _load("checks")


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


@pytest.mark.parametrize("workload", ["default", "long-trace", "big-tree"])
@pytest.mark.parametrize("command", ["verify-space", "verify-mapping", "run", "certify"])
def test_outputs_pass_the_benchmark_checks(checks, workloads, workload, command, tmp_path):
    doc = json.loads(workloads.config_text(workload, 1, ROOT))
    doc["samples"] = {"space": 500, "mapping": 100, "minimality": 50}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / command
    code = cli.main([command, "--config", str(path), "--out", str(out)])
    failures, errors = checks.check_outputs(command, out, doc, code)
    assert errors == []
    assert failures == []
