"""The benchmark judges every subcommand's outputs with perfbench/checks.py,
and calls a run incorrect on any error it finds.  A report-shape change that
it would reject must fail here first, on the bundled config."""

import importlib.util
import json
from pathlib import Path

import pytest

from cat0feas import cli
from cat0feas.config import bundled_config_path

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def checks():
    # checks.py imports its sibling `workloads`, so its directory goes on the
    # path while it loads; the file itself is only read.
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(ROOT / "perfbench"))
        spec = importlib.util.spec_from_file_location(
            "perfbench_checks", ROOT / "perfbench" / "checks.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("command", ["verify-space", "verify-mapping", "run", "certify"])
def test_outputs_pass_the_benchmark_checks(checks, command, tmp_path):
    doc = json.loads(bundled_config_path().read_text())
    doc["samples"] = {"space": 500, "mapping": 100, "minimality": 50}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / command
    code = cli.main([command, "--config", str(path), "--out", str(out)])
    failures, errors = checks.check_outputs(command, out, doc, code)
    assert errors == []
    assert failures == []
