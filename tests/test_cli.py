"""End-to-end CLI behavior: subcommands, outputs, exit codes, determinism."""

import dataclasses
import itertools
import json
import math
import random
from functools import partial

import numpy as np
import pytest

from cat0feas import (
    AffineSubspace,
    ComposeMap,
    ConvexCombinationSpace,
    DiagonalSet,
    EuclideanBall,
    EuclideanSpace,
    InconclusiveError,
    analysis,
    asymptotic_regularity_rate,
    averaged_projections,
    best_pair_bruteforce,
    cli,
    picard,
)
from cat0feas.analysis import check_delta_limit
from cat0feas.config import bundled_config_path, load_config
from cat0feas.iteration import IterationTrace
from cat0feas.mappings import ProjectionMap, check_firmly_nonexpansive, check_p2
from cat0feas.spaces import REL_TOL, _cn, _four_point, _random_rows


def mini_config(**overrides):
    doc = {
        "schema": "1",
        "seed": 7,
        "samples": {"space": 300, "mapping": 60, "minimality": 40},
        "instances": [
            {
                "name": "line-line",
                "space": {"kind": "euclidean", "dim": 2},
                "lambda": 0.5,
                "A": {"affine-subspace": {"anchor": [0.0, 0.0], "basis": [[1.0, 0.0]]}},
                "B": {"affine-subspace": {"anchor": [0.0, 1.0], "basis": [[1.0, 0.0]]}},
                "start": [0.0, 4.0],
                "fixed_point": [0.0, 0.5],
                "set_distance": 1.0,
                "n_max": 200,
                "eps_grid": [1.0, 0.5],
                "grid": {"h": 0.01, "window": [[-2.0, 2.0], [-2.0, 2.0]]},
                "product_lambdas": [0.5],
                "checks": ["rate", "oracle-agreement"],
            },
            {
                "name": "tripod-legs",
                "space": {
                    "kind": "metric-tree",
                    "vertices": ["O", "A", "B", "C"],
                    "edges": [["O", "A", 1.0], ["O", "B", 1.0], ["O", "C", 1.0]],
                },
                "lambda": 0.5,
                "A": {"tree-segment": {"start": {"edge": 0, "offset": 0.5},
                                        "end": {"edge": 0, "offset": 1.0}}},
                "B": {"tree-segment": {"start": {"edge": 1, "offset": 0.5},
                                        "end": {"edge": 1, "offset": 1.0}}},
                "start": {"edge": 2, "offset": 1.0},
                "fixed_point": {"edge": 0, "offset": 0.0},
                "best_pair": [{"edge": 0, "offset": 0.5}, {"edge": 1, "offset": 0.5}],
                "set_distance": 1.0,
                "n_max": 100,
                "eps_grid": [1.0, 0.5],
                "gap_eps_grid": [1.0, 0.5],
                "grid": {"h": 0.01},
                "checks": ["rate", "gap-rate", "delta-limit", "oracle-agreement"],
            },
        ],
    }
    doc.update(overrides)
    return doc


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(mini_config()))
    return path


def product_config(tmp_path):
    """A config whose one instance lives in a product of R^2 with itself:
    A is a rectangle of two unit balls, B the diagonal."""
    base = {"kind": "euclidean", "dim": 2}
    ball = {"ball": {"center": [0.0, 0.0], "radius": 1.0}}
    doc = mini_config()
    doc["instances"] = [
        {
            "name": "product",
            "space": {"kind": "product", "base": base, "lambda": 0.5},
            "A": {"product-rectangle": {"first": ball, "second": ball}},
            "B": {"diagonal": {}},
            "start": {"first": [3.0, 0.0], "second": [0.0, 3.0]},
            "checks": ["oracle-agreement"],
        }
    ]
    path = tmp_path / "product.json"
    path.write_text(json.dumps(doc))
    return path


def run_cli(command, config_path, out_dir, *extra):
    return cli.main(
        [command, "--config", str(config_path), "--out", str(out_dir), *extra]
    )


class TestSubcommands:
    def test_verify_space(self, config_path, tmp_path):
        out = tmp_path / "vs"
        assert run_cli("verify-space", config_path, out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["schema"] == "1"
        assert report["verdict"] == "pass"
        names = [row["name"] for row in report["spaces"]]
        assert any("lambda=0.5" in n for n in names)  # product variant covered

    def test_verify_mapping(self, config_path, tmp_path):
        out = tmp_path / "vm"
        assert run_cli("verify-mapping", config_path, out) == 0
        report = json.loads((out / "report.json").read_text())
        rows = {r["name"]: r for inst in report["instances"] for r in inst["mappings"]}
        assert rows["P_A"]["status"] == "pass"
        assert rows["diagonal-projection"]["status"] == "pass"
        assert rows["averaged"]["status"] == "reported"  # measured, not asserted

    def test_run_writes_traces(self, config_path, tmp_path):
        out = tmp_path / "run"
        assert run_cli("run", config_path, out) == 0
        csv = (out / "trace_line-line.csv").read_text().splitlines()
        assert csv[0] == "n,residual,dist_to_p,aux_dist"
        first = csv[1].split(",")
        assert first[0] == "0" and float(first[1]) == 3.5
        report = json.loads((out / "report.json").read_text())
        for row in report["instances"]:
            assert row["reduction_ok"] is True
            assert row["fejer_monotone"] is True

    def test_certify(self, config_path, tmp_path):
        out = tmp_path / "cert"
        assert run_cli("certify", config_path, out) == 0
        certs = json.loads((out / "certificates_tripod-legs.json").read_text())
        assert all(c["pass"] for c in certs)
        kinds = {c["quantity"] for c in certs}
        assert kinds == {"step-residual", "projection-gap"}
        report = json.loads((out / "report.json").read_text())
        tripod_row = next(
            r for r in report["instances"] if r["name"] == "tripod-legs"
        )
        gap_check = next(c for c in tripod_row["checks"] if c["check"] == "gap-rate")
        assert gap_check["q"] == pytest.approx(0.25)
        assert gap_check["q_identity_residual"] <= 1e-8

    def test_certify_runs_oracle_once_per_instance(self, tmp_path, monkeypatch):
        calls = []
        results = []

        def counting(*args, **kwargs):
            calls.append(args)
            results.append(best_pair_bruteforce(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(cli, "best_pair_bruteforce", counting)
        out = tmp_path / "cert"
        assert run_cli("certify", bundled_config_path("default"), out) == 0
        report = json.loads((out / "report.json").read_text())
        oracle_users = [
            r for r in report["instances"]
            if {"delta-limit", "oracle-agreement"} & {c["check"] for c in r["checks"]}
        ]
        assert len(calls) == len(oracle_users) == 6
        for row, result in zip(oracle_users, results):
            checks = {c["check"]: c for c in row["checks"]}
            for name in ("delta-limit", "oracle-agreement"):
                if name in checks:
                    assert checks[name]["oracle_pairs_scored"] == result.pairs_scored
            if "delta-limit" in checks and "oracle-agreement" in checks:
                assert (
                    checks["delta-limit"]["bruteforce_dist"]
                    == checks["oracle-agreement"]["bruteforce"]
                )

    def test_jobs_flag(self, config_path, tmp_path):
        out1, out2 = tmp_path / "j1", tmp_path / "j2"
        assert run_cli("certify", config_path, out1) == 0
        assert run_cli("certify", config_path, out2, "--jobs", "2") == 0
        assert (out1 / "report.json").read_text() == (out2 / "report.json").read_text()

    def test_certify_on_a_half_line(self, tmp_path):
        # In R^1 the oracle samples the half-line x <= 0 at its one boundary
        # point, and the ball [2, 4] at its two.
        doc = mini_config()
        doc["instances"] = [
            {
                "name": "half-line-ball",
                "space": {"kind": "euclidean", "dim": 1},
                "A": {"halfspace": {"normal": [1.0], "offset": 0.0}},
                "B": {"ball": {"center": [3.0], "radius": 1.0}},
                "start": [5.0],
                "grid": {"h": 0.01, "window": [[-2.0, 2.0]]},
                "checks": ["oracle-agreement"],
            }
        ]
        path = tmp_path / "half-line.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "cert"
        assert run_cli("certify", path, out) == 0
        (row,) = json.loads((out / "report.json").read_text())["instances"]
        (entry,) = row["checks"]
        assert entry["check"] == "oracle-agreement" and entry["status"] == "pass"
        assert entry["bruteforce"] == 2.0


class TestDeterminism:
    def test_byte_identical_outputs(self, config_path, tmp_path):
        outputs = {
            "verify-space": ("report.json",),
            "verify-mapping": ("report.json",),
            "run": ("report.json", "trace_line-line.csv", "trace_tripod-legs.csv"),
            "certify": ("report.json", "certificates_line-line.json"),
        }
        for command, names in outputs.items():
            outs = [tmp_path / tag / command for tag in ("a", "b")]
            for out in outs:
                assert run_cli(command, config_path, out) == 0
            for name in names:
                assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_seed_override_changes_sampling_only(self, config_path, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert run_cli("verify-space", config_path, out1, "--seed", "1") == 0
        assert run_cli("verify-space", config_path, out2, "--seed", "2") == 0
        r1 = json.loads((out1 / "report.json").read_text())
        r2 = json.loads((out2 / "report.json").read_text())
        assert r1["verdict"] == r2["verdict"] == "pass"
        # Not max_cn_residual: on R^2 it is rounding noise that takes a handful
        # of values (a few 2^-52 multiples), so two seeds can share it.
        fp1, fp2 = (r["spaces"][0]["max_four_point_residual"] for r in (r1, r2))
        assert fp1 != fp2


class TestExitCodes:
    def test_config_error_is_3(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli("verify-space", bad, tmp_path / "o") == 3

    def test_config_that_is_not_utf8_is_3(self, tmp_path, capsys):
        # JSON text is UTF-8, whatever the locale's encoding.
        bad = tmp_path / "latin.json"
        bad.write_bytes(b'{"seed": \xff}')
        assert run_cli("verify-space", bad, tmp_path / "o") == 3
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {bad}: not UTF-8:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "command, key",
        [("verify-space", "space"), ("verify-mapping", "mapping"),
         ("verify-mapping", "minimality")],
    )
    def test_sample_count_too_large_to_hold_is_3(self, tmp_path, capsys, command, key):
        # 10^15 samples need petabytes, which numpy refuses outright.
        doc = mini_config()
        doc["samples"][key] = 1e15
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        assert run_cli(command, path, tmp_path / "o") == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot hold 1000000000000000 samples:")
        assert len(err.splitlines()) == 1

    def test_schema_violation_is_3(self, tmp_path):
        bad = tmp_path / "bad2.json"
        bad.write_text(json.dumps({"schema": "1", "instances": [{"name": "x"}]}))
        assert run_cli("verify-space", bad, tmp_path / "o") == 3

    @pytest.mark.parametrize(
        "top, field, path",
        [
            ({"seed": "x"}, {}, "seed"),
            ({}, {"n_max": "x"}, "instances[0].n_max"),
            ({}, {"lambda": "x"}, "instances[0].lambda"),
            ({}, {"grid": {"h": "x"}}, "instances[0].grid.h"),
            ({}, {"rate": {"b": "x"}}, "instances[0].rate.b"),
            ({}, {"eps_grid": "ab"}, "instances[0].eps_grid"),
            ({"instances": [5]}, {}, "instances[0]"),
            ({"seed": 7.5}, {}, "seed"),
            ({}, {"n_max": 2.5}, "instances[0].n_max"),
            ({"samples": {"space": 1.9}}, {}, "samples.space"),
            ({"tolerances": {"exact": 1e-9}}, {}, "tolerances"),
            # A misspelled key is no absent one: "chekcs" once ran no check.
            ({}, {"chekcs": ["rate"]}, "instances[0].chekcs"),
        ],
    )
    def test_malformed_field_is_3(self, tmp_path, capsys, top, field, path):
        doc = mini_config(**top)
        if field:
            doc["instances"][0].update(field)
        bad = tmp_path / "malformed.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("certify", bad, tmp_path / "o") == 3
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}:")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "field, where",
        [
            ({"halfspace": {"normal": [math.inf, 0.0], "offset": -2.0}}, "normal"),
            ({"halfspace": {"normal": [-1.0, 0.0], "offset": math.nan}}, "offset"),
            ({"affine-subspace": {"anchor": [0.0, math.inf], "basis": [[1.0, 0.0]]}}, "anchor"),
            ({"affine-subspace": {"anchor": [0.0, 1.0], "basis": [[1.0, -math.inf]]}}, "basis"),
            ({"ball": {"center": [math.nan, 0.0], "radius": 1.0}}, "center"),
            ({"ball": {"center": [0.0, 0.0], "radius": math.inf}}, "radius"),
        ],
    )
    def test_non_finite_set_parameter_is_3(self, tmp_path, capsys, field, where):
        # json reads Infinity and NaN; the set constructors refuse them.
        doc = mini_config()
        doc["instances"][0]["B"] = field
        bad = tmp_path / "non-finite.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("run", bad, tmp_path / "o") == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: instances[0].B:")
        assert where in err and "finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, index, edit, path",
        [
            ("certify", 4, ("A", "disk-ball", "radius", math.inf), "instances[4].A"),
            ("certify", 4, ("B", "disk-ball", "radius", 1e300), "instances[4].B"),
            ("run", 3, ("space", "edges", 1, 2, 1e308), "instances[3].space"),
            ("certify", 3, ("space", "edges", 1, 2, 1e308), "instances[3].space"),
            ("verify-mapping", 3, ("space", "edges", 1, 2, 1e308), "instances[3].space"),
            ("certify", 3, ("space", "edges", 0, 2, math.inf), "instances[3].space"),
            ("certify", 4, ("A", "disk-ball", "radius", 40.0), "instances[4].A"),
        ],
    )
    def test_non_finite_geometry_is_3(self, tmp_path, capsys, command, index, edit, path):
        # On the bundled config: disk balls that leave the representable disk
        # (an infinite radius, or one whose points would round onto the unit
        # circle), and tree edges whose total length overflows.
        doc = json.loads(bundled_config_path().read_text())
        *keys, last, value = edit
        target = doc["instances"][index]
        for key in keys:
            target = target[key]
        target[last] = value
        bad = tmp_path / "non-finite-geometry.json"
        bad.write_text(json.dumps(doc))
        assert run_cli(command, bad, tmp_path / "o") == 3
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}:")
        assert "Traceback" not in err

    def test_grid_too_fine_is_refused_before_it_is_built(self, tmp_path, capsys):
        # ball-ball's boundary grid at this step would need 2 pi / 5e-324
        # points, a count that overflows; a cap checked after building ran
        # without end at h = 1e-300.
        doc = json.loads(bundled_config_path().read_text())
        (inst,) = [i for i in doc["instances"] if i["name"] == "ball-ball"]
        inst["grid"] = {"h": 5e-324}
        doc["instances"] = [inst]
        path = tmp_path / "fine-grid.json"
        path.write_text(json.dumps(doc))
        assert run_cli("certify", path, tmp_path / "o") == 3
        err = capsys.readouterr().err
        assert err.startswith(
            "config error: instance 'ball-ball' grid.h = 5e-324:"
            " ball boundary grid would hold over 2000000 points"
        )
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "grid, message",
        [
            ({"h": 0.001}, "grid sampling of an unbounded set needs a window"),
            (
                {"h": 0.001, "window": [[-3.0, 3.0], [5.0, 6.0]]},
                "empty grid; widen the window or refine the grid step",
            ),
        ],
    )
    def test_unusable_oracle_grid_is_3(self, tmp_path, capsys, grid, message):
        # default's line-line oracle with no window, and with one that misses
        # both lines.
        doc = json.loads(bundled_config_path().read_text())
        (inst,) = [i for i in doc["instances"] if i["name"] == "line-line"]
        inst["grid"] = grid
        doc["instances"] = [inst]
        path = tmp_path / "bad-grid.json"
        path.write_text(json.dumps(doc))
        assert run_cli("certify", path, tmp_path / "o") == 3
        err = capsys.readouterr().err
        assert err == f"config error: instance 'line-line' grid: {message}\n"

    def test_oracle_on_product_sets_is_3(self, tmp_path, capsys):
        path = product_config(tmp_path)
        assert run_cli("certify", path, tmp_path / "o") == 3
        err = capsys.readouterr().err
        assert err == (
            "config error: instance 'product' grid:"
            " grid sampling not supported for product-rectangle\n"
        )

    @pytest.mark.parametrize("check", ["rate", "gap-rate", "delta-limit"])
    def test_composed_mode_refuses_averaged_checks(self, tmp_path, capsys, check):
        # P_A P_B is not averaged: neither the rate theorems nor the limit
        # (1 - lam) a* + lam b* apply to its orbit.
        doc = json.loads(bundled_config_path().read_text())
        doc["instances"][2].update(mode="composed", checks=[check, "oracle-agreement"])
        bad = tmp_path / "composed.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("certify", bad, tmp_path / "o") == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: instances[2].checks:")
        assert check in err

    def test_composed_mode_allows_oracle_agreement(self, tmp_path):
        doc = mini_config()
        inst = dict(doc["instances"][0], mode="composed", checks=["oracle-agreement"])
        doc["instances"] = [inst]
        path = tmp_path / "composed.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert run_cli("certify", path, out) == 0
        (row,) = json.loads((out / "report.json").read_text())["instances"]
        assert [c["check"] for c in row["checks"]] == ["oracle-agreement"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-space", "--out", "o"],
            ["certify", "--config", "c.json", "--out", "o", "--threads", "2"],
            ["run", "--config", "c.json", "--out", "o", "--jobs", "many"],
            [],
        ],
    )
    def test_usage_error_is_3(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_:
            cli.main(argv)
        assert exit_.value.code == 3
        err = capsys.readouterr().err
        assert err.startswith("usage: cat0-feas") and "error:" in err

    @pytest.mark.parametrize("under", [False, True], ids=["a-file", "under-a-file"])
    def test_unusable_out_is_3(self, config_path, tmp_path, capsys, under):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker / "out" if under else blocker
        assert run_cli("run", config_path, out) == 3
        err = capsys.readouterr().err
        assert str(out) in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "command, blocked",
        [
            ("verify-space", "report.json"),
            ("verify-mapping", "report.json"),
            ("run", "report.json"),
            ("certify", "report.json"),
            ("run", "timings.txt"),
            ("run", "trace_line-line.csv"),
            ("certify", "certificates_line-line.json"),
        ],
    )
    def test_unwritable_output_is_3(self, config_path, tmp_path, capsys, command, blocked):
        # A directory stands where the output file goes.
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        assert run_cli(command, config_path, out) == 3
        captured = capsys.readouterr()
        assert captured.err == f"output error: cannot write {out / blocked}: Is a directory\n"
        assert "Traceback" not in captured.err and captured.out == ""

    def test_help_is_0(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            cli.main(["certify", "--help"])
        assert exit_.value.code == 0
        assert "--jobs" in capsys.readouterr().out

    def test_set_distance_inconclusive_is_2(self, config_path, tmp_path, monkeypatch):
        # The configured set distance still drives the gap rate; the identity
        # cross-check, which needs the computed one, is left null.
        def give_up(*args, **kwargs):
            raise InconclusiveError("budget exhausted")

        monkeypatch.setattr(cli, "set_distance", give_up)
        monkeypatch.setattr(analysis, "set_distance", give_up)
        out = tmp_path / "cert"
        assert run_cli("certify", config_path, out) == 2
        report = json.loads((out / "report.json").read_text())
        tripod = next(r for r in report["instances"] if r["name"] == "tripod-legs")
        checks = {c["check"]: c for c in tripod["checks"]}
        assert checks["set-distance"]["status"] == "inconclusive"
        assert checks["gap-rate"]["status"] == "pass"
        assert checks["gap-rate"]["q_identity_residual"] is None
        assert checks["oracle-agreement"]["status"] == "inconclusive"

    def test_delta_limit_alone_skips_set_distance(self, tmp_path, monkeypatch):
        # Only gap-rate and oracle-agreement read the alternating-projection
        # set distance, so a delta-limit-only instance never computes it.
        def give_up(*args, **kwargs):
            raise InconclusiveError("budget exhausted")

        monkeypatch.setattr(cli, "set_distance", give_up)
        doc = mini_config()
        inst = doc["instances"][1]
        inst["checks"] = ["delta-limit"]
        doc["instances"] = [inst]
        path = tmp_path / "delta.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "delta-out"
        assert run_cli("certify", path, out) == 0
        (row,) = json.loads((out / "report.json").read_text())["instances"]
        assert [c["check"] for c in row["checks"]] == ["delta-limit"]

    def test_rate_only_projects_through_the_mapping(self, tmp_path, monkeypatch):
        # Without gap-rate, certify projects each iterate once per set, inside
        # the averaged map, and computes no projection gaps.
        doc = mini_config()
        doc["instances"] = [
            {
                "name": "two-balls",
                "space": {"kind": "euclidean", "dim": 2},
                "A": {"ball": {"center": [0.0, 0.0], "radius": 1.0}},
                "B": {"ball": {"center": [3.0, 0.0], "radius": 1.0}},
                "start": [5.0, 5.0],
                "fixed_point": [1.5, 0.0],
                "n_max": 3000,
                "checks": ["rate"],
            }
        ]
        path = tmp_path / "balls.json"
        path.write_text(json.dumps(doc))
        inst = load_config(path).instances[0]
        trace = picard(
            averaged_projections(inst.set_a, inst.set_b, inst.lam), inst.start, 3000
        )
        assert trace.stationary_from is not None
        steps = len(trace.points) - 1
        calls = []
        project = EuclideanBall._project

        def counting(self, p):
            calls.append(p)
            return project(self, p)

        monkeypatch.setattr(EuclideanBall, "_project", counting)
        assert run_cli("certify", path, tmp_path / "balls-out") == 0
        assert len(calls) == 2 * steps

    def test_understated_b_marks_hypothesis(self, tmp_path):
        # b ten times too small: the rate hypothesis d(x0, p) <= b fails, and
        # the report must say so instead of failing the certified theorem.
        doc = mini_config()
        doc["instances"] = [doc["instances"][0]]
        doc["instances"][0]["rate"] = {"b": 0.35}
        doc["instances"][0]["checks"] = ["rate"]
        path = tmp_path / "low-b.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "low-b-out"
        assert run_cli("certify", path, out) == 2
        report = json.loads((out / "report.json").read_text())
        check = report["instances"][0]["checks"][0]
        assert check["status"] == "hypothesis-unsatisfied"

    @pytest.mark.parametrize(
        "set_distance, code",
        [(2.0, 0), (math.nextafter(2.0, 3.0), 0), (2.0 + 1e-9, 2), (100.0, 2)],
        ids=["exact", "one-ulp-above", "above-rounding", "far-above"],
    )
    def test_overstated_set_distance_marks_gap_rate_hypothesis(
        self, tmp_path, set_distance, code
    ):
        # ball-ball's alternating projections reach a pair of points of A and
        # B at distance 2, an upper bound on d(A, B), so a configured
        # distance above it by more than rounding is a false hypothesis.
        doc = json.loads(bundled_config_path().read_text())
        (inst,) = [i for i in doc["instances"] if i["name"] == "ball-ball"]
        inst.update(set_distance=set_distance, checks=["gap-rate"])
        doc["instances"] = [inst]
        path = tmp_path / "set-distance.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "set-distance-out"
        assert run_cli("certify", path, out) == code
        (row,) = json.loads((out / "report.json").read_text())["instances"]
        (check,) = row["checks"]
        if code == 0:
            assert check["status"] == "pass" and check["r"] == set_distance
        else:
            assert check["status"] == "hypothesis-unsatisfied"
            assert (check["r"], check["alternating"]) == (set_distance, 2.0)
            assert repr(set_distance) in check["reason"] and "2.0" in check["reason"]
            assert row["certificates"] == []

    def test_huge_rate_bound_is_written_as_log2(self, tmp_path):
        # eps = 1e-4 with b = 2 gives a bound of about 40,000 bits, past
        # Python's int -> str digit limit.
        doc = mini_config()
        inst = doc["instances"][0]
        inst.update(start=[0.0, 2.0], rate={"b": 2.0}, eps_grid=[1.0, 1e-4], checks=["rate"])
        doc["instances"] = [inst]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "huge-out"
        assert run_cli("certify", path, out) in (0, 2)
        certs = json.loads((out / "certificates_line-line.json").read_text())
        small, huge = sorted(certs, key=lambda c: -c["epsilon"])
        assert small["bound_n"] == asymptotic_regularity_rate(2.0, 1.0)
        assert "bound_n_log2" not in small
        assert huge["bound_n"] is None
        expected = math.log2(asymptotic_regularity_rate(2.0, 1e-4))
        assert huge["bound_n_log2"] == pytest.approx(expected, rel=1e-9)

    def test_failed_check_is_1(self, tmp_path):
        # an understated set distance makes the gap certificate fail honestly
        doc = mini_config()
        inst = doc["instances"][1]
        inst["set_distance"] = 0.2
        inst["checks"] = ["gap-rate"]
        doc["instances"] = [inst]
        path = tmp_path / "wrong-r.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "wrong-r-out"
        assert run_cli("certify", path, out) == 1
        report = json.loads((out / "report.json").read_text())
        assert report["verdict"] == "fail"

    def test_inconclusive_is_2(self, tmp_path):
        # a plainly non-stationary instance (rotation-free but slow) cut off
        # long before the bound: certificates cannot be decided
        doc = mini_config()
        doc["instances"] = [
            {
                "name": "slow",
                "space": {"kind": "euclidean", "dim": 2},
                "lambda": 0.5,
                "A": {"ball": {"center": [0.0, 0.0], "radius": 1.0}},
                "B": {"halfspace": {"normal": [-1.0, 0.0], "offset": -2.0}},
                "start": [5.0, 5.0],
                "fixed_point": [1.5, 0.0],
                "n_max": 25,
                "eps_grid": [0.5],
                "checks": ["rate"],
            }
        ]
        path = tmp_path / "short.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "short-out"
        assert run_cli("certify", path, out) == 2

    def test_wrong_fixed_point_fails_fejer(self, tmp_path):
        # From (0, 4) the averaged map of two parallel lines jumps to (0, 0.5),
        # away from (0, 3): its distance grows from 1 to 2.5.
        doc = json.loads(bundled_config_path().read_text())
        (inst,) = [i for i in doc["instances"] if i["name"] == "line-line"]
        inst["fixed_point"] = [0.0, 3.0]
        doc["instances"] = [inst]
        path = tmp_path / "wrong-p.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "wrong-p-out"
        assert run_cli("run", path, out) == 1
        (row,) = json.loads((out / "report.json").read_text())["instances"]
        assert row["fejer_monotone"] is False
        assert row["fejer_max_drift"] == 1.5
        assert row["reduction_ok"] is True
        assert row["status"] == "fail"

    def test_library_error_is_1_without_a_traceback(
        self, config_path, tmp_path, monkeypatch, capsys
    ):
        # A projection that returns NaN: picard refuses the first iterate.
        monkeypatch.setattr(AffineSubspace, "_project", lambda self, p: (math.nan, math.nan))
        assert run_cli("run", config_path, tmp_path / "nan-out") == 1
        assert capsys.readouterr().err == "error: non-finite iterate at step 1\n"


def certify_one(tmp_path, index, edit, drop=()):
    """Certify instance `index` of the mini config alone, after `edit` and
    with the keys in `drop` removed; the exit code and its one report row."""
    doc = mini_config()
    inst = doc["instances"][index]
    inst.update(edit)
    for key in drop:
        del inst[key]
    doc["instances"] = [inst]
    path = tmp_path / "one.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "one-out"
    code = run_cli("certify", path, out)
    (row,) = json.loads((out / "report.json").read_text())["instances"]
    return code, {c["check"]: c for c in row["checks"]}


class TestCertifyWithoutInputs:
    """A certify check whose input is missing or whose hypothesis fails says
    so and exits 2."""

    def test_rate_without_fixed_point(self, tmp_path):
        code, checks = certify_one(tmp_path, 0, {"checks": ["rate"]}, drop=["fixed_point"])
        assert code == 2
        assert checks["rate"] == {
            "check": "rate", "status": "inconclusive", "reason": "no fixed point configured"
        }

    def test_gap_rate_without_best_pair(self, tmp_path):
        code, checks = certify_one(tmp_path, 1, {"checks": ["gap-rate"]}, drop=["best_pair"])
        assert code == 2
        assert checks["gap-rate"] == {
            "check": "gap-rate", "status": "inconclusive", "reason": "no best pair configured"
        }

    def test_gap_rate_with_m_below_the_start_distance(self, tmp_path):
        # u* is the tripod's center O, at distance 1 from the start.
        code, checks = certify_one(tmp_path, 1, {"checks": ["gap-rate"], "rate": {"M": 0.5}})
        assert code == 2
        assert checks["gap-rate"] == {
            "check": "gap-rate", "status": "hypothesis-unsatisfied", "M": 0.5
        }

    def test_gap_rate_without_any_set_distance(self, tmp_path, monkeypatch):
        def give_up(*args, **kwargs):
            raise InconclusiveError("budget exhausted")

        monkeypatch.setattr(cli, "set_distance", give_up)
        code, checks = certify_one(tmp_path, 1, {"checks": ["gap-rate"]}, drop=["set_distance"])
        assert code == 2
        assert list(checks) == ["set-distance", "gap-rate"]
        assert checks["set-distance"]["status"] == "inconclusive"
        assert checks["gap-rate"] == {
            "check": "gap-rate", "status": "inconclusive", "reason": "set distance unavailable"
        }


class TestDerivedTolerance:
    def test_long_edge_tree_passes(self, tmp_path):
        # CN rounding on legs of length 100 exceeds 1e-12; the row bound
        # scales with the squared distances and absorbs it.
        legs = [["O", leg, 100.0] for leg in "ABC"]
        space = {"kind": "metric-tree", "vertices": ["O", "A", "B", "C"], "edges": legs}
        doc = mini_config(instances=[{"name": "long-legs", "space": space}])
        path = tmp_path / "long-legs.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "long-legs-out"
        assert run_cli("verify-space", path, out) == 0
        (row,) = json.loads((out / "report.json").read_text())["spaces"]
        assert row["max_cn_residual"] > 1e-12
        assert row["max_cn_residual"] <= row["tolerance"]
        # REL_TOL times at most six squared distances, each at most 200^2
        assert row["tolerance"] <= REL_TOL * 6 * 200.0**2


class TestSpaceRows:
    """verify-space judges each inequality by REL_TOL times its own largest
    scale, as verify-mapping judges each of its checks."""

    def test_kept_keys_are_the_per_check_values(self, config_path, tmp_path):
        out = tmp_path / "vs"
        assert run_cli("verify-space", config_path, out) == 0
        rows = json.loads((out / "report.json").read_text())["spaces"]
        assert len(rows) == 3
        for row in rows:
            fp, cn = row["four_point"], row["cn"]
            assert row["max_four_point_residual"] == fp["max"]
            assert row["max_cn_residual"] == cn["max"]
            assert row["tolerance"] == max(fp["tolerance"], cn["tolerance"])
            for check in (fp, cn):
                assert check["p50"] <= check["p90"] <= check["max"] <= check["tolerance"]
            assert row["status"] == "pass"

    def test_cn_residual_between_its_own_and_the_four_point_bound_fails(self, monkeypatch):
        # The four-point scale sums six squared distances, the CN scale four
        # (three of them weighted by t or 1 - t), so on line-line's R^2 row
        # a CN residual 1.5 times its own bound lies below the four-point
        # bound, which a bound shared by both checks would pass.
        cn = cli._cn

        def over_its_own_bound(d, *operands):
            residuals, scales = cn(d, *operands)
            return np.full_like(residuals, 1.5 * REL_TOL * scales.max()), scales

        monkeypatch.setattr(cli, "_cn", over_its_own_bound)
        cfg = load_config(bundled_config_path())
        (row,) = cli._verify_family(
            "line-line:euclidean", EuclideanSpace(2), [None], cli._BLOCK + 500, cfg.seed
        )
        fp, cn = row["four_point"], row["cn"]
        assert fp["tolerance"] > 1.5 * cn["tolerance"]
        assert cn["tolerance"] < cn["max"] <= fp["tolerance"] == row["tolerance"]
        assert fp["max"] <= fp["tolerance"]
        assert row["status"] == "fail"

    @staticmethod
    def family_config(tmp_path, samples):
        """The bundled config with `samples` space samples, a repeated weight
        on line-line and two new weights on ball-halfspace, whose base space
        line-line verifies."""
        doc = json.loads(bundled_config_path().read_text())
        doc["samples"]["space"] = samples
        weights = {"line-line": [0.5, 0.5, 0.25], "ball-halfspace": [0.9, 0.1]}
        for inst in doc["instances"]:
            if inst["name"] in weights:
                inst["product_lambdas"] = weights[inst["name"]]
        path = tmp_path / "families.json"
        path.write_text(json.dumps(doc))
        return load_config(path)

    def test_row_names_and_order(self, tmp_path):
        # A repeated weight gives no second row, and a base space seen before
        # gives no base row; its family still brings its new weights.
        cfg = self.family_config(tmp_path, 20)
        rows = cli.cmd_verify_space(cfg, cfg.seed)[0]["spaces"]
        families = (
            ("line-line:euclidean", (None, 0.5, 0.25)),
            ("ball-halfspace:euclidean", (0.9, 0.1)),
            ("tripod-legs:metric-tree", (None, 0.25, 0.5, 0.9)),
            ("disk-overlap:poincare-disk", (None, 0.25, 0.5, 0.9)),
            ("euclidean-5:euclidean", (None, 0.25, 0.5, 0.9)),
        )
        names = [
            name if lam is None else f"{name} x lambda={lam}"
            for name, weights in families
            for lam in weights
        ]
        assert [row["name"] for row in rows] == names
        assert len(rows) == 17
        for row in rows:
            assert row["samples"] == 20 and row["status"] == "pass"

    @staticmethod
    def lone_base_row(name, space, samples, seed):
        """A base row as one drawn alone and measured without a cache: each
        block takes x, y, z, w and t from the row's own stream."""
        rng = random.Random(f"{seed}:{name}:space-verify")
        fp, cn = ([], []), ([], [])
        d = space._dist_rows
        for n in cli._blocks(samples):
            x, y, z, w = (space._sample_rows(rng, n) for _ in range(4))
            t = _random_rows(rng, n)
            for out, values in zip(fp, _four_point(d, x, y, z, w)):
                out.append(values)
            for out, values in zip(cn, _cn(d, z, x, y, space._interp_rows(x, y, t), t)):
                out.append(values)
        row = {"name": name, "samples": samples, "status": "pass"}
        for key, (residuals, scales) in (("four_point", fp), ("cn", cn)):
            residuals, scales = np.concatenate(residuals), np.concatenate(scales)
            tol = REL_TOL * np.max(scales)
            assert np.max(residuals) <= tol
            row[key] = {**cli._quantiles(residuals), "tolerance": float(tol)}
        row["max_four_point_residual"] = row["four_point"]["max"]
        row["max_cn_residual"] = row["cn"]["max"]
        row["tolerance"] = max(row["four_point"]["tolerance"], row["cn"]["tolerance"])
        return row

    def test_base_rows_do_not_move(self, tmp_path):
        # Each base row is the same with and without its family's product
        # weights, and the same as when it was drawn alone.
        samples = cli._BLOCK + 100
        cfg = self.family_config(tmp_path, samples)
        bare = dataclasses.replace(
            cfg,
            instances=[dataclasses.replace(i, product_lambdas=()) for i in cfg.instances],
        )
        rows = cli.cmd_verify_space(cfg, cfg.seed)[0]["spaces"]
        with_weights = {row["name"]: row for row in rows}
        without = cli.cmd_verify_space(bare, cfg.seed)[0]["spaces"]
        assert [row["name"] for row in without] == [
            row["name"] for row in rows if " x lambda=" not in row["name"]
        ]
        spaces = {f"{i.name}:{i.space.kind}": i.space for i in cfg.instances}
        for row in without:
            lone = self.lone_base_row(row["name"], spaces[row["name"]], samples, cfg.seed)
            for other in (with_weights[row["name"]], lone):
                assert json.dumps(row, sort_keys=True) == json.dumps(other, sort_keys=True)


class TestMappingRows:
    """verify-mapping judges each check of a row by REL_TOL times its largest
    scale.  It maps packed rows, so the controls perturb `_project_rows`."""

    def rows(self, config_path, tmp_path, expected_exit):
        out = tmp_path / "vm"
        assert run_cli("verify-mapping", config_path, out) == expected_exit
        report = json.loads((out / "report.json").read_text())
        return [{r["name"]: r for r in inst["mappings"]} for inst in report["instances"]]

    def test_rows_report_their_tolerance(self, config_path, tmp_path):
        for rows in self.rows(config_path, tmp_path, 0):
            assert "tolerance" not in rows["averaged"]
            assert "tolerance" not in rows["averaged"]["p2"]
            # Each check of a row reports its own tolerance, and no row has one.
            minimality = rows["diagonal-minimality"]
            tolerances = [minimality["slack"]["tolerance"], minimality["identity"]["tolerance"]]
            for name, row in rows.items():
                assert "tolerance" not in row
                if name in ("P_A", "P_B"):
                    tolerances.append(row["firmly_nonexpansive"]["tolerance"])
                if name not in ("averaged", "diagonal-minimality"):
                    tolerances.append(row["p2"]["tolerance"])
            assert len(tolerances) == 9
            for tol in tolerances:
                # unit-scale samples: tolerances far below a fixed 1e-9
                assert 0.0 < tol < 1e-11

    def test_relative_perturbation_fails(self, config_path, tmp_path, monkeypatch):
        # line-line's projections off by a relative 1e-11: far above
        # rounding, far below a fixed bound of 1e-9.
        project = AffineSubspace._project_rows

        def perturbed(self, P):
            return project(self, P) * (1.0 + 1e-11)

        monkeypatch.setattr(AffineSubspace, "_project_rows", perturbed)
        lines, tripod = self.rows(config_path, tmp_path, 1)
        for name in ("P_A", "P_B", "pair-map"):
            assert lines[name]["status"] == "fail"
        # Above both of P_A's tolerances, so above the largest of its scales too.
        p2, firm = lines["P_A"]["p2"], lines["P_A"]["firmly_nonexpansive"]
        assert max(p2["tolerance"], firm["tolerance"]) < p2["max"] <= 1e-9
        assert all(row["status"] in ("pass", "reported") for row in tripod.values())

    def test_nan_image_fails_its_row(self, config_path, tmp_path, monkeypatch):
        # Exact images first, then NaN: a running max that dropped NaN would pass.
        project, rows_seen = AffineSubspace._project_rows, itertools.count()

        def nan_later(self, P):
            exact = [next(rows_seen) < 40 for _ in range(len(P))]
            return np.where(np.array(exact)[:, None], project(self, P), math.nan)

        monkeypatch.setattr(AffineSubspace, "_project_rows", nan_later)
        lines, _ = self.rows(config_path, tmp_path, 1)
        for name in ("P_A", "P_B", "pair-map"):
            assert lines[name]["status"] == "fail"
        assert lines["identity"]["status"] == "pass"

    def test_product_instance_passes(self, tmp_path):
        # Its maps act on packed pairs, and the minimality check on pairs of
        # pairs: the product of the product space with itself.
        (rows,) = self.rows(product_config(tmp_path), tmp_path, 0)
        assert set(rows) == {
            "P_A", "P_B", "identity", "pair-map", "diagonal-projection",
            "averaged", "diagonal-minimality",
        }
        for name, row in rows.items():
            assert row["status"] == ("reported" if name == "averaged" else "pass"), name

    def test_wrong_diagonal_point_fails_minimality(self, config_path, tmp_path, monkeypatch):
        # (x1, x1) lies on the diagonal but is not the nearest point to (x1, x2).
        def first(self, P):
            return (P[0], P[0])

        monkeypatch.setattr(DiagonalSet, "_project_rows", first)
        for rows in self.rows(config_path, tmp_path, 1):
            row = rows["diagonal-minimality"]
            assert row["status"] == "fail"
            for check in ("slack", "identity"):
                assert row[check]["max"] > row[check]["tolerance"]

    def test_slack_between_its_own_and_the_mixed_bound_fails(self, tmp_path, monkeypatch):
        # The slack is of degree 1 in distances, the identity of degree 2: on
        # a tripod with legs of length 10 the identity's scales are several
        # times the slack's, so a slack residual twice its own bound fails,
        # although a bound shared with the identity would pass it.
        mapping_row = cli._mapping_row

        def over_its_own_bound(name, checks, assert_pass):
            if name == "diagonal-minimality":
                residuals, scales = checks["slack"]
                over = np.full_like(residuals, 2.0 * REL_TOL * scales.max())
                checks = {**checks, "slack": (over, scales)}
            return mapping_row(name, checks, assert_pass)

        monkeypatch.setattr(cli, "_mapping_row", over_its_own_bound)
        doc = mini_config()
        tripod = doc["instances"][1]
        tripod["space"]["edges"] = [[u, v, 10.0] for u, v, _ in tripod["space"]["edges"]]
        for s in ("A", "B"):
            tripod[s]["tree-segment"]["start"]["offset"] = 5.0
            tripod[s]["tree-segment"]["end"]["offset"] = 10.0
        doc["instances"] = [tripod]
        path = tmp_path / "long-tripod.json"
        path.write_text(json.dumps(doc))
        (rows,) = self.rows(path, tmp_path, 1)
        minimality = rows["diagonal-minimality"]
        slack, identity = minimality["slack"], minimality["identity"]
        assert identity["tolerance"] > 3.0 * slack["tolerance"]
        assert slack["tolerance"] < slack["max"] <= identity["tolerance"]
        assert identity["max"] <= identity["tolerance"]
        assert minimality["status"] == "fail"
        for name, row in rows.items():
            if name != "diagonal-minimality":
                assert row["status"] in ("pass", "reported"), name


class TestMappingReport:
    """_mapping_report on a ball projection in R^2, drawn in two blocks."""

    space = EuclideanSpace(2)
    proj = ProjectionMap(EuclideanBall(space, (0.3, 0.0), 0.5))

    def report(self, samples):
        rng = random.Random("m")
        firm = partial(cli._firmly_nonexpansive, between=self.space._interp_rows)
        checks = {"p2": cli._p2, "firmly_nonexpansive": firm}
        return cli._mapping_report("P", self.proj, rng, samples, True, checks)

    def test_quantiles_are_the_scalar_checkers_on_the_same_draws(self):
        samples = cli._BLOCK + 100
        entry = self.report(samples)
        replay, p2, fn = random.Random("m"), [], []
        for n in cli._blocks(samples):
            xs, ys = self.space._sample_rows(replay, n), self.space._sample_rows(replay, n)
            for x, y in zip(xs.tolist(), ys.tolist()):
                x, y = self.space.point(x), self.space.point(y)
                p2.append(check_p2(self.proj, x, y))
                fn.append(check_firmly_nonexpansive(self.proj, x, y))
        for key, results in (("p2", p2), ("firmly_nonexpansive", fn)):
            scale = max(r.scale for r in results)
            want = cli._quantiles([r.residual for r in results])
            assert want["p50"] < -1e-3  # images taken from the wrong rows would move it
            for q in ("p50", "p90", "max"):
                assert abs(entry[key][q] - want[q]) <= REL_TOL * scale
            assert math.isclose(entry[key]["tolerance"], REL_TOL * scale, rel_tol=1e-12)
        assert entry["status"] == "pass"

    def test_minimality_tolerances_from_the_replayed_draws(self, config_path):
        # Replay the draws of every row of each instance, then recompute the
        # minimality checks with the scalar distance and projection: each case
        # is a product point x against the diagonal point Qy of another.
        cfg = load_config(config_path)
        m = cfg.mapping_samples
        for inst in cfg.instances:
            entry = cli._verify_mappings_for(inst, cfg, cfg.seed)["mappings"][-1]
            space, lam = inst.space, inst.lam
            cs = ConvexCombinationSpace(space, lam)
            diagonal = DiagonalSet(cs)
            replay = random.Random(f"{cfg.seed}:{inst.name}:mapping-verify")
            # P_A, P_B, identity, pair-map, diagonal-projection, averaged
            for drawn, samples in zip((space,) * 3 + (cs,) * 2 + (space,), (m, m, 100, m, m, m)):
                for n in cli._blocks(samples):
                    drawn._sample_rows(replay, n), drawn._sample_rows(replay, n)
            slack, slack_scales, identity, identity_scales = [], [], [], []
            for n in cli._blocks(cfg.minimality_samples):
                xs, ys = cs._sample_rows(replay, n), cs._sample_rows(replay, n)
                for pair_x, pair_y in zip(zip(*xs), zip(*ys)):
                    x1, x2, y1, y2 = (space.point(space._payload(r)) for r in pair_x + pair_y)
                    x = cs.pair(x1, x2)
                    dq = cs.distance(x, diagonal.project(x))
                    dw = cs.distance(x, diagonal.project(cs.pair(y1, y2)))
                    slack.append(dq - dw)
                    slack_scales.append(dq + dw)
                    gap = lam * (1 - lam) * space.distance(x1, x2) ** 2
                    identity.append(abs(dq * dq - gap))
                    identity_scales.append(dq * dq + gap)
            assert len(slack) == entry["samples"] == cfg.minimality_samples
            for key, residuals, scales in (
                ("slack", slack, slack_scales), ("identity", identity, identity_scales)
            ):
                scale, want = max(scales), cli._quantiles(residuals)
                for q in ("p50", "p90", "max"):
                    assert abs(entry[key][q] - want[q]) <= REL_TOL * scale
                assert math.isclose(entry[key]["tolerance"], REL_TOL * scale, rel_tol=1e-12)
            assert entry["slack"]["p50"] < -1e-3  # a wrong (x, Qy) pairing would move it
            assert entry["status"] == "pass"

    def test_every_row_is_drawn_by_the_engine(self, config_path, monkeypatch):
        names, sampled_rows = [], cli._sampled_rows

        def counting(samples, draw, rows, assert_pass):
            names.extend(rows)
            return sampled_rows(samples, draw, rows, assert_pass)

        monkeypatch.setattr(cli, "_sampled_rows", counting)
        cfg = load_config(config_path)
        for inst in cfg.instances:
            names.clear()
            rows = cli._verify_mappings_for(inst, cfg, cfg.seed)["mappings"]
            assert names == [row["name"] for row in rows]
            assert len(names) == 7

    def test_firm_residual_between_its_own_and_the_mixed_bound_fails(self, monkeypatch):
        # Firm nonexpansivity is of degree 1, P2 of degree 2: a residual twice
        # firm's own bound fails, although the larger P2 scales would pass it.
        firm = cli._firmly_nonexpansive

        def over_its_own_bound(d, *images, between):
            residuals, scales = firm(d, *images, between=between)
            return np.full_like(residuals, 2.0 * REL_TOL * scales.max()), scales

        monkeypatch.setattr(cli, "_firmly_nonexpansive", over_its_own_bound)
        entry = self.report(500)
        fn, p2 = entry["firmly_nonexpansive"], entry["p2"]
        assert fn["tolerance"] < fn["max"] <= max(fn["tolerance"], p2["tolerance"])
        assert p2["max"] <= p2["tolerance"]
        assert entry["status"] == "fail"

    def test_firm_quantiles_report_the_contraction_margin(self, config_path, tmp_path):
        # Without the t = 1 term, which is 0 for every map, the firm residuals
        # of a projection onto a line are negative.
        out = tmp_path / "vm"
        assert run_cli("verify-mapping", config_path, out) == 0
        lines = json.loads((out / "report.json").read_text())["instances"][0]
        for row in lines["mappings"][:2]:
            assert row["name"] in ("P_A", "P_B")
            assert row["firmly_nonexpansive"]["max"] < 0.0


class TestSharedDistances:
    """A sampled block measures each pair of its operands once, for all of
    its checks."""

    @staticmethod
    def counted(monkeypatch):
        calls = []
        dist_rows = EuclideanSpace._dist_rows

        def counting(space, P, Q):
            calls.append(1)
            return dist_rows(space, P, Q)

        monkeypatch.setattr(EuclideanSpace, "_dist_rows", counting)
        return calls

    def test_verify_space_block(self, monkeypatch):
        calls = self.counted(monkeypatch)
        (row,) = cli._verify_family("plane", EuclideanSpace(2), [None], 200, 1)
        assert row["status"] == "pass"
        # Four-point's six pairs and CN's d(z, g); CN's d(z, x), d(z, y) and
        # d(x, y) are four-point's.
        assert len(calls) == 7

    def test_product_weights_measure_base_distances_only(self, monkeypatch):
        space, drawn, interpolated, means = EuclideanSpace(2), [], [], []
        sample_rows, interp_rows, random_rows, mean_rows = (
            EuclideanSpace._sample_rows,
            EuclideanSpace._interp_rows,
            cli._random_rows,
            ConvexCombinationSpace._mean_rows,
        )

        def sampling(space, rng, n):
            drawn.append(n)
            return sample_rows(space, rng, n)

        def interpolating(space, P, Q, t):
            interpolated.append(1)
            return interp_rows(space, P, Q, t)

        def random_counting(rng, n):
            drawn.append(n)
            return random_rows(rng, n)

        def meaning(cs, d1, d2):
            means.append(cs.lam)
            return mean_rows(cs, d1, d2)

        monkeypatch.setattr(EuclideanSpace, "_sample_rows", sampling)
        monkeypatch.setattr(EuclideanSpace, "_interp_rows", interpolating)
        monkeypatch.setattr(cli, "_random_rows", random_counting)
        monkeypatch.setattr(ConvexCombinationSpace, "_mean_rows", meaning)
        calls = self.counted(monkeypatch)
        rows = cli._verify_family("plane", space, [None, 0.25, 0.5, 0.9], cli._BLOCK + 10, 1)
        assert [row["status"] for row in rows] == ["pass"] * 4
        # Per block, for all four rows: nine drawn arrays (x, y, z, w and t,
        # and the second components x2, y2, z2, w2), the geodesic points g
        # and g2, and the seven base distances of each component; each
        # weight combines two of them into each of its seven product
        # distances once.  Drawn row by row, the block took 32 arrays,
        # 7 geodesic points and 49 distances.
        assert drawn == [cli._BLOCK] * 9 + [10] * 9
        assert len(interpolated) == 2 * 2
        assert len(calls) == 2 * 14
        assert sorted(means) == [0.25] * 14 + [0.5] * 14 + [0.9] * 14

    def test_projection_block(self, monkeypatch):
        space = EuclideanSpace(2)
        proj = ProjectionMap(AffineSubspace(space, (0.0, 0.5), ((0.6, 0.8),)))
        firm = partial(cli._firmly_nonexpansive, between=space._interp_rows)
        checks = {"p2": cli._p2, "firmly_nonexpansive": firm}
        calls = self.counted(monkeypatch)
        row = cli._mapping_report("P", proj, random.Random(1), 200, True, checks)
        assert row["status"] == "pass"
        # P2's five pairs, then firm's t = 0 term d(x, y) and its three
        # geodesic pairs; firm's d(TX, TY) is P2's.
        assert len(calls) == 9

    def test_other_operands_are_measured_afresh(self):
        # Each shifted copy of y is dropped by the check before the next is
        # made, so CPython could give the next one its id; the memo holds
        # every operand it measured, so no copy is mistaken for another.
        space, found = EuclideanSpace(2), []

        def shifted(d, x, y):
            want = [space._dist_rows(x, y + shift).tolist() for shift in range(8)]
            for shift in range(8):
                found.append(d(x, y + shift).tolist() == want[shift])
            return np.zeros(len(x)), np.ones(len(x))

        def draw(n):
            rng = random.Random(n)
            x, y = space._sample_rows(rng, n), space._sample_rows(rng, n)
            return {"shifted": (cli._memo(space._dist_rows), (x, y))}

        (row,) = cli._sampled_rows(200, draw, {"shifted": {"shifted": shifted}}, True)
        assert row["status"] == "pass" and found == [True] * 8


class TestModes:
    def test_composed_mode(self, tmp_path):
        doc = mini_config()
        inst = doc["instances"][0]
        inst["mode"] = "composed"
        inst["checks"] = []
        doc["instances"] = [inst]
        path = tmp_path / "composed.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "composed-out"
        assert run_cli("run", path, out) == 0
        # P_A(P_B(0,4)) = P_A(0,1) = (0,0): composition lands on the x-axis
        csv = (out / "trace_line-line.csv").read_text().splitlines()
        assert csv[1].split(",")[1] == "4.0"

    def test_product_reduction_mode(self, tmp_path):
        doc = mini_config()
        inst = doc["instances"][1]
        inst["mode"] = "product-reduction"
        doc["instances"] = [inst]
        path = tmp_path / "pr.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "pr-out"
        assert run_cli("certify", path, out) == 0
        certs = json.loads((out / "certificates_tripod-legs.json").read_text())
        assert all(c["pass"] for c in certs)

    @pytest.mark.parametrize(
        "mode, kinds",
        [
            ("averaged", ["convex-combination", "product-reduction"]),
            ("product-reduction", ["product-reduction", "convex-combination"]),
            ("composed", ["compose"]),
        ],
    )
    def test_run_computes_each_orbit_once(self, tmp_path, monkeypatch, mode, kinds):
        # The reduction check compares the averaged orbit with its product
        # twin; the main trace is one of the two, so run computes the other.
        calls = []

        def recording(mapping, start, n_max):
            calls.append(mapping.kind)
            return picard(mapping, start, n_max)

        monkeypatch.setattr(cli, "picard", recording)
        doc = mini_config()
        inst = doc["instances"][1]
        inst["mode"] = mode
        if mode == "composed":
            # The averaged-map checks are refused for the composed map.
            inst["checks"] = ["oracle-agreement"]
        doc["instances"] = [inst]
        path = tmp_path / "modes.json"
        path.write_text(json.dumps(doc))
        assert run_cli("run", path, tmp_path / "modes-out") == 0
        assert calls == kinds

    @pytest.mark.parametrize("index", [0, 1])
    def test_product_reduction_trace_matches_averaged(self, tmp_path, index):
        # Both modes compute interpolate(P_A x, P_B x, lam) at every step.
        traces = {}
        for mode in ("averaged", "product-reduction"):
            doc = mini_config()
            inst = doc["instances"][index]
            inst["mode"] = mode
            doc["instances"] = [inst]
            path = tmp_path / f"{mode}.json"
            path.write_text(json.dumps(doc))
            out = tmp_path / f"{mode}-out"
            assert run_cli("run", path, out) == 0
            traces[mode] = (out / f"trace_{inst['name']}.csv").read_text()
        assert traces["averaged"] == traces["product-reduction"]
        assert len(traces["averaged"].splitlines()) > 2

    @pytest.mark.parametrize("mode", ["averaged", "product-reduction"])
    def test_one_ulp_off_the_diagonal_fails_run(self, tmp_path, monkeypatch, mode):
        # The twin's orbit equals the averaged one bit for bit, so a diagonal
        # point c moved by one ulp must fail the reduction check.
        doc = mini_config()
        inst = doc["instances"][0]
        inst["mode"] = mode
        doc["instances"] = [inst]
        path = tmp_path / "ulp.json"
        path.write_text(json.dumps(doc))
        assert run_cli("run", path, tmp_path / "exact") == 0
        (row,) = json.loads((tmp_path / "exact" / "report.json").read_text())["instances"]
        assert row["reduction_max_gap"] == 0.0 and row["reduction_ok"]
        project = DiagonalSet._project

        def nudged(self, p):
            c, _ = project(self, p)
            c = c[:-1] + (math.nextafter(c[-1], math.inf),)
            return (c, c)

        monkeypatch.setattr(DiagonalSet, "_project", nudged)
        assert run_cli("run", path, tmp_path / "ulp") == 1
        (row,) = json.loads((tmp_path / "ulp" / "report.json").read_text())["instances"]
        assert row["reduction_max_gap"] > 0.0
        assert not row["reduction_ok"] and row["status"] == "fail"


def gap_config(tmp_path):
    """Tangent Euclidean balls in each mode and tangent disk balls, whose
    traces never become stationary, and two disjoint balls, whose averaged
    trace does."""

    def instance(name, space, a, b, start, mode="averaged", n_max=40):
        return {
            "name": name,
            "space": space,
            "A": a,
            "B": b,
            "start": start,
            "mode": mode,
            "n_max": n_max,
        }

    e2 = {"kind": "euclidean", "dim": 2}
    disk = {"kind": "poincare-disk"}
    ball_a = {"ball": {"center": [0.0, 0.0], "radius": 1.0}}
    ball_b = {"ball": {"center": [2.0, 0.0], "radius": 1.0}}
    doc = mini_config()
    doc["instances"] = [
        *(
            instance(f"tangent-{mode}", e2, ball_a, ball_b, [1.0, 3.0], mode)
            for mode in ("averaged", "composed", "product-reduction")
        ),
        instance(
            "disk-tangent",
            disk,
            {"disk-ball": {"center": [0.0, 0.0], "radius": 0.5}},
            {"disk-ball": {"center": [math.tanh(0.5), 0.0], "radius": 0.5}},
            [0.2, 0.6],
        ),
        instance(
            "stationary",
            e2,
            ball_a,
            {"ball": {"center": [3.0, 0.0], "radius": 1.0}},
            [5.0, 5.0],
            n_max=3000,
        ),
    ]
    path = tmp_path / "gaps.json"
    path.write_text(json.dumps(doc))
    return path


class TestTraceGaps:
    """`run` takes each iterate's gap d(P_A x_n, P_B x_n) from the projections
    its Picard step makes; the last iterate's gap is computed directly."""

    def test_aux_dist_is_the_true_gap(self, tmp_path):
        path = gap_config(tmp_path)
        out = tmp_path / "gaps-out"
        assert run_cli("run", path, out) == 0
        report = json.loads((out / "report.json").read_text())
        rows = {row["name"]: row for row in report["instances"]}
        for inst in load_config(path).instances:
            # The reference orbit comes from the library maps; the product
            # twin's orbit is the averaged one, bit for bit.
            a, b = inst.set_a, inst.set_b
            if inst.mode == "composed":
                reference = ComposeMap(ProjectionMap(a), ProjectionMap(b))
            else:
                reference = averaged_projections(a, b, inst.lam)
            trace = picard(reference, inst.start, inst.n_max)
            lines = (out / f"trace_{inst.name}.csv").read_text().splitlines()[1:]
            assert len(lines) == len(trace.points)
            for line, x in zip(lines, trace.points):
                gap = inst.space.distance(inst.set_a.project(x), inst.set_b.project(x))
                assert line.split(",")[3] == repr(gap)
            assert rows[inst.name]["final_aux"] == gap
            stationary = rows[inst.name]["stationary_from"] is not None
            assert stationary == (inst.name == "stationary")

    @pytest.mark.parametrize(
        "mode, per_step",
        [("averaged", 2), ("product-reduction", 2), ("composed", 3)],
    )
    def test_projections_per_step(self, tmp_path, monkeypatch, mode, per_step):
        # A's and B's projections only: the diagonal projection of the
        # product twin is not counted.  Composed mode projects x onto A once
        # more per step, for the gap; every mode projects the last iterate,
        # which is never mapped, onto both sets.
        (inst,) = [
            inst
            for inst in load_config(gap_config(tmp_path)).instances
            if inst.name == f"tangent-{mode}"
        ]
        calls = []
        project = EuclideanBall._project

        def counting(self, p):
            calls.append(p)
            return project(self, p)

        monkeypatch.setattr(EuclideanBall, "_project", counting)
        trace, gaps = cli._run_trace(inst, True)
        steps = len(trace.points) - 1
        assert trace.stationary_from is None and steps == inst.n_max
        assert len(gaps) == steps + 1
        assert len(calls) == per_step * steps + 2


def tangent_config(tmp_path):
    """Two tangent unit balls in R^2, whose averaged trace never becomes
    stationary, with every check that reads a trace."""
    doc = mini_config()
    doc["instances"] = [
        {
            "name": "tangent",
            "space": {"kind": "euclidean", "dim": 2},
            "A": {"ball": {"center": [0.0, 0.0], "radius": 1.0}},
            "B": {"ball": {"center": [2.0, 0.0], "radius": 1.0}},
            "start": [1.0, 3.0],
            "fixed_point": [1.0, 0.0],
            "best_pair": [[1.0, 0.0], [1.0, 0.0]],
            "set_distance": 0.0,
            "n_max": 400,
            "eps_grid": [1.0],
            "gap_eps_grid": [1.0],
            "grid": {"h": 0.05},
            "checks": ["rate", "gap-rate", "delta-limit"],
        }
    ]
    path = tmp_path / "tangent.json"
    path.write_text(json.dumps(doc))
    return path


class _PointsRead(Exception):
    """Raised by the guard in place of IterationTrace.points."""


def guard_points(monkeypatch):
    """Make every read of IterationTrace.points raise _PointsRead."""

    def guard(trace):
        raise _PointsRead("IterationTrace.points was read")

    monkeypatch.setattr(IterationTrace, "points", property(guard))


def trace_config(name, tmp_path):
    return bundled_config_path("default") if name == "default" else tangent_config(tmp_path)


class TestTracesStayPayloads:
    """`run` and `certify` read each trace's payloads, never its Points."""

    @pytest.mark.parametrize("command", ["run", "certify"])
    @pytest.mark.parametrize("config", ["default", "tangent"])
    def test_points_are_never_read(self, tmp_path, monkeypatch, command, config):
        path = trace_config(config, tmp_path)
        free, guarded = tmp_path / "free", tmp_path / "guarded"
        code = run_cli(command, path, free)
        with monkeypatch.context() as m:
            guard_points(m)
            assert run_cli(command, path, guarded) == code
        names = sorted(f.name for f in free.iterdir() if f.name != "timings.txt")
        assert names == sorted(f.name for f in guarded.iterdir() if f.name != "timings.txt")
        for name in names:
            assert (guarded / name).read_bytes() == (free / name).read_bytes()
        if config == "tangent":
            (row,) = json.loads((free / "report.json").read_text())["instances"]
            if command == "run":
                assert row["stationary_from"] is None and row["steps"] == 400
            else:
                assert {c["check"] for c in row["checks"]} == {"rate", "gap-rate", "delta-limit"}

    @pytest.mark.parametrize("config", ["default", "tangent"])
    def test_delta_limit_reading_points_trips_the_guard(self, tmp_path, monkeypatch, config):
        # Negative control: a check_delta_limit that reads the trace's Points.
        def reading(trace, claimed, tol):
            len(trace.points)
            return check_delta_limit(trace, claimed, tol=tol)

        monkeypatch.setattr(cli, "check_delta_limit", reading)
        guard_points(monkeypatch)
        with pytest.raises(_PointsRead):
            run_cli("certify", trace_config(config, tmp_path), tmp_path / "out")


class TestZeroRateConstants:
    """A rate constant of 0 is the strongest form of its hypothesis, so its
    certificates are decided, not refused."""

    @pytest.mark.parametrize(
        "edit, check, constant",
        [
            # start = fixed point: b = d(x0, p) = 0
            ({"start": [1.5, 0.0]}, "rate", "b"),
            # start in A and B, which now overlap: b = d^2(P_A x0, P_B x0) = 0
            (
                {
                    "B": {"halfspace": {"normal": [-1.0, 0.0], "offset": 0.0}},
                    "start": [0.5, 0.5],
                    "best_pair": [[1.0, 0.0], [1.0, 0.0]],
                    "set_distance": 0.0,
                },
                "gap-rate",
                "b",
            ),
            # start = u* = (a* + b*) / 2: M = d(x0, u*) = 0
            ({"start": [1.5, 0.0]}, "gap-rate", "M"),
        ],
        ids=["rate-b", "gap-rate-b", "gap-rate-M"],
    )
    def test_zero_constant_passes(self, tmp_path, edit, check, constant):
        doc = json.loads(bundled_config_path().read_text())
        (inst,) = [i for i in doc["instances"] if i["name"] == "ball-halfspace"]
        inst.update(edit, checks=[check])
        doc["instances"] = [inst]
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "zero-out"
        assert run_cli("certify", path, out) == 0
        (row,) = json.loads((out / "report.json").read_text())["instances"]
        (entry,) = row["checks"]
        assert entry["check"] == check and entry["status"] == "pass"
        assert entry[constant] == 0.0
        certs = json.loads((out / "certificates_ball-halfspace.json").read_text())
        assert len(certs) == 3 and all(c["pass"] for c in certs)

    @pytest.mark.parametrize("value", [-1e-13, math.nan], ids=["negative", "nan"])
    @pytest.mark.parametrize("check, constant", [("rate", "b"), ("gap-rate", "M")])
    def test_negative_or_nan_constant_is_3(self, tmp_path, capsys, check, constant, value):
        # The start is the fixed point and u*, so d0 = 0 and the hypothesis
        # d0 <= constant + 1e-12 would not stop a constant just below 0 (nor
        # a NaN) before the rate formula refuses it.
        doc = json.loads(bundled_config_path().read_text())
        (inst,) = [i for i in doc["instances"] if i["name"] == "ball-halfspace"]
        inst.update(start=[1.5, 0.0], checks=[check], rate={constant: value})
        doc["instances"] = [inst]
        path = tmp_path / "bad-constant.json"
        path.write_text(json.dumps(doc))
        assert run_cli("certify", path, tmp_path / "o") == 3
        err = capsys.readouterr().err
        assert err.startswith(f"config error: instances[0].rate.{constant}:")
        assert "Traceback" not in err


class TestTreeRowsOnly:
    """verify-mapping maps tree rows with row kernels only: no row path may
    fall back to the scalar tree geodesic or projection code."""

    def test_verify_mapping_without_scalar_tree_code(self, tmp_path, monkeypatch):
        from cat0feas import Subtree, TreeSegment, TreeSpace

        def scalar(*args, **kwargs):
            raise AssertionError("a row path ran scalar tree code")

        for cls, name in [(TreeSpace, "_interpolate"), (TreeSpace, "_route"),
                          (TreeSegment, "_project"), (Subtree, "_project")]:
            monkeypatch.setattr(cls, name, scalar)
        caterpillar = {
            "kind": "metric-tree",
            "vertices": ["A", "B", "C", "D", "E"],
            "edges": [["A", "B", 2.0], ["B", "C", 1.0], ["C", "D", 0.5], ["B", "E", 3.0]],
        }
        doc = mini_config(instances=[{
            "name": "segment-subtree",
            "space": caterpillar,
            "lambda": 0.5,
            # From edge A--B into edge B--E, and the subtree on C--D.
            "A": {"tree-segment": {"start": {"edge": 0, "offset": 0.5},
                                    "end": {"edge": 3, "offset": 1.0}}},
            "B": {"subtree": {"vertices": ["C", "D"]}},
            "start": {"edge": 2, "offset": 0.25},
            "checks": [],
        }])
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(doc))
        for config in (bundled_config_path("default"), path):
            assert run_cli("verify-mapping", config, tmp_path / "vm") == 0
