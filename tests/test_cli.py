"""End-to-end CLI behavior: subcommands, outputs, exit codes, determinism."""

import json
import math

import pytest

from cat0feas import (
    InconclusiveError,
    analysis,
    asymptotic_regularity_rate,
    best_pair_bruteforce,
    cli,
)
from cat0feas.config import bundled_config_path
from cat0feas.spaces import REL_TOL


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

        def counting(*args, **kwargs):
            calls.append(args)
            return best_pair_bruteforce(*args, **kwargs)

        monkeypatch.setattr(cli, "best_pair_bruteforce", counting)
        out = tmp_path / "cert"
        assert run_cli("certify", bundled_config_path("default"), out) == 0
        report = json.loads((out / "report.json").read_text())
        oracle_users = [
            r for r in report["instances"]
            if {"delta-limit", "oracle-agreement"} & {c["check"] for c in r["checks"]}
        ]
        assert len(calls) == len(oracle_users) == 6
        for row in oracle_users:
            checks = {c["check"]: c for c in row["checks"]}
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
