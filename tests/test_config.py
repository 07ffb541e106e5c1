"""Parsing and validation of the JSON configuration schema.

The readers are checked against literal JSON documents: each parses to the
object built directly with the library's constructors.
"""

import json
import math

import pytest

import cat0feas as cf
from cat0feas.config import (
    config_from_json,
    instance_from_json,
    point_from_json,
    set_from_json,
    space_from_json,
)

E2 = {"kind": "euclidean", "dim": 2}
DISK = {"kind": "poincare-disk"}


def parse_space(text):
    return space_from_json(json.loads(text))


class TestSpaceRoundtrip:
    def test_euclidean(self, e5):
        assert parse_space('{"kind": "euclidean", "dim": 5}') == e5

    def test_disk(self, disk):
        assert parse_space('{"kind": "poincare-disk"}') == disk

    def test_tree(self, tripod_space):
        doc = """{"kind": "metric-tree", "vertices": ["O", "A", "B", "C"],
                  "edges": [["O", "A", 1.0], ["O", "B", 1.0], ["O", "C", 1.0]]}"""
        assert parse_space(doc) == tripod_space

    def test_product(self, e2):
        doc = '{"kind": "product", "base": {"kind": "euclidean", "dim": 2}, "lambda": 0.25}'
        assert parse_space(doc) == cf.ConvexCombinationSpace(e2, 0.25)

    def test_unknown_kind(self):
        with pytest.raises(cf.ConfigError):
            space_from_json({"kind": "minkowski"})

    def test_bad_product_lambda(self):
        with pytest.raises(cf.ConfigError):
            space_from_json({"kind": "product", "base": E2, "lambda": 1.0})


class TestPointRoundtrip:
    def test_each_space(self, e2, disk, tripod_space):
        cs = cf.ConvexCombinationSpace(tripod_space, 0.5)
        cases = [
            (e2, "[1.5, -2.0]", e2.point((1.5, -2.0))),
            (disk, "[0.3, -0.4]", disk.point((0.3, -0.4))),
            (tripod_space, '{"edge": 1, "offset": 0.25}', tripod_space.at(1, 0.25)),
            (
                cs,
                '{"first": {"edge": 0, "offset": 1.0}, "second": {"edge": 2, "offset": 0.5}}',
                cs.pair(tripod_space.vertex("A"), tripod_space.at(2, 0.5)),
            ),
        ]
        for space, text, expected in cases:
            assert point_from_json(space, json.loads(text)) == expected


class TestSetAndMappingRoundtrip:
    def test_sets(self, e2, disk, tripod_space):
        cs = cf.ConvexCombinationSpace(e2, 0.5)
        ball = cf.EuclideanBall(e2, (0.0, 0.0), 1.0)
        half = cf.Halfspace(e2, (-1.0, 0.0), -2.0)
        ball_doc = {"ball": {"center": [0.0, 0.0], "radius": 1.0}}
        half_doc = {"halfspace": {"normal": [-1.0, 0.0], "offset": -2.0}}
        cases = [
            (e2, half_doc, half),
            (
                e2,
                {"affine-subspace": {"anchor": [0.0, 1.0], "basis": [[1.0, 0.0]]}},
                cf.AffineSubspace(e2, (0.0, 1.0), ((1.0, 0.0),)),
            ),
            (e2, ball_doc, ball),
            (
                tripod_space,
                {"tree-segment": {"start": {"edge": 0, "offset": 0.5},
                                  "end": {"edge": 0, "offset": 1.0}}},
                cf.TreeSegment(tripod_space, tripod_space.at(0, 0.5), tripod_space.at(0, 1.0)),
            ),
            (
                tripod_space,
                {"subtree": {"vertices": ["O", "A"]}},
                cf.Subtree(tripod_space, ("O", "A")),
            ),
            (
                disk,
                {"disk-geodesic-segment": {"start": [0.0, 0.0], "end": [0.5, 0.0]}},
                cf.DiskGeodesicSegment(disk, disk.point((0.0, 0.0)), disk.point((0.5, 0.0))),
            ),
            (
                disk,
                {"disk-ball": {"center": [0.1, 0.0], "radius": 0.5}},
                cf.DiskBall(disk, complex(0.1, 0.0), 0.5),
            ),
            (
                cs,
                {"product-rectangle": {"first": ball_doc, "second": half_doc}},
                cf.ProductRectangle(cs, ball, half),
            ),
            (cs, {"diagonal": {}}, cf.DiagonalSet(cs)),
        ]
        assert len({next(iter(doc)) for _, doc, _ in cases}) == 9
        for space, doc, expected in cases:
            assert set_from_json(space, doc) == expected

    def test_diagonal_projection_needs_product(self, e2):
        for doc in ({"diagonal": {}}, {"product-rectangle": {"first": {}, "second": {}}}):
            with pytest.raises(cf.ConfigError, match="needs a product space"):
                set_from_json(e2, doc)

    def test_unknown_kinds(self, e2):
        with pytest.raises(cf.ConfigError, match="unknown set kind"):
            set_from_json(e2, {"polygon": {}})


class TestExperimentConfig:
    def test_bundled_loads(self, bundled):
        assert bundled.schema == "1"
        names = {inst.name for inst in bundled.instances}
        assert {"line-line", "ball-halfspace", "tripod-legs"} <= names

    def test_eps_grid_must_descend(self):
        doc = {"name": "x", "space": E2, "eps_grid": [0.1, 0.5]}
        with pytest.raises(cf.ConfigError):
            instance_from_json(doc, "instances[0]")

    def test_eps_grid_positive(self):
        doc = {"name": "x", "space": E2, "eps_grid": [1.0, 0.0]}
        with pytest.raises(cf.ConfigError):
            instance_from_json(doc, "instances[0]")

    def test_lambda_domain(self):
        doc = {"name": "x", "space": E2, "lambda": 1.0}
        with pytest.raises(cf.ConfigError):
            instance_from_json(doc, "instances[0]")

    def test_unknown_check_rejected(self):
        doc = {"name": "x", "space": E2, "checks": ["sorcery"]}
        with pytest.raises(cf.ConfigError):
            instance_from_json(doc, "instances[0]")

    def test_duplicate_names_rejected(self):
        doc = {
            "schema": "1",
            "seed": 1,
            "instances": [{"name": "x", "space": E2}, {"name": "x", "space": E2}],
        }
        with pytest.raises(cf.ConfigError):
            config_from_json(doc)

    def test_error_paths_are_reported(self):
        doc = {
            "schema": "1",
            "instances": [{"name": "x", "space": {"kind": "euclidean"}}],
        }
        with pytest.raises(cf.ConfigError) as err:
            config_from_json(doc)
        assert "instances[0].space" in str(err.value)

    def test_product_component_error_names_its_path(self):
        tripod = {
            "kind": "metric-tree",
            "vertices": ["O", "A", "B", "C"],
            "edges": [["O", "A", 1.0], ["O", "B", 1.0], ["O", "C", 1.0]],
        }
        doc = {
            "name": "x",
            "space": {"kind": "product", "base": tripod, "lambda": 0.5},
            "start": {"first": {"edge": 0, "offset": 0.5}, "second": {"edge": 1, "offset": 1.5}},
        }
        with pytest.raises(cf.ConfigError) as err:
            instance_from_json(doc, "instances[0]")
        assert str(err.value).startswith("instances[0].start.second:")

    def test_schema_version_checked(self):
        with pytest.raises(cf.ConfigError):
            config_from_json({"schema": "2"})

    @pytest.mark.parametrize(
        "top, field, path",
        [
            ({"samples": {"space": 0}}, {}, "samples.space"),
            ({"samples": {"mapping": 0}}, {}, "samples.mapping"),
            ({"samples": {"minimality": 0}}, {}, "samples.minimality"),
            ({}, {"n_max": 0}, "instances[0].n_max"),
            ({}, {"grid": {"surface": "boundry"}}, "instances[0].grid.surface"),
            ({}, {"grid": {"h": 0.0}}, "instances[0].grid.h"),
            ({}, {"product_lambdas": [2.0]}, "instances[0].product_lambdas"),
            ({}, {"product_lambdas": [0.5, 0.0]}, "instances[0].product_lambdas"),
            ({}, {"grid": {"surface": "boundary"}}, "instances[0].grid.surface"),
            ({}, {"eps_grid": [math.nan]}, "instances[0].eps_grid"),
            ({}, {"gap_eps_grid": [math.inf, 1.0]}, "instances[0].gap_eps_grid"),
            ({}, {"set_distance": math.inf}, "instances[0].set_distance"),
            ({}, {"set_distance": math.nan}, "instances[0].set_distance"),
            ({}, {"set_distance": -1.0}, "instances[0].set_distance"),
            ({}, {"grid": {"h": math.inf}}, "instances[0].grid.h"),
            ({}, {"grid": {"window": [[math.nan, 1.0], [0.0, 1.0]]}}, "instances[0].grid.window"),
            ({}, {"grid": {"window": [[0.0, 1.0], [0.0, math.inf]]}}, "instances[0].grid.window"),
            ({}, {"start": [math.nan, 0.0]}, "instances[0].start"),
            ({}, {"fixed_point": [0.0, -math.inf]}, "instances[0].fixed_point"),
            ({}, {"best_pair": [[0.0, 0.0], [math.nan, 0.0]]}, "instances[0].best_pair[1]"),
            ({}, {"space": DISK, "start": [math.nan, 0.0]}, "instances[0].start"),
            ({}, {"space": DISK, "fixed_point": [0.0, math.inf]}, "instances[0].fixed_point"),
            (
                {},
                {
                    "space": DISK,
                    "A": {"disk-geodesic-segment": {"start": [0, 0], "end": [1, math.nan]}},
                },
                "instances[0].A.end",
            ),
        ],
    )
    def test_unusable_values_rejected(self, top, field, path):
        doc = {"instances": [{"name": "x", "space": E2, **field}], **top}
        with pytest.raises(cf.ConfigError) as err:
            config_from_json(doc)
        assert str(err.value).startswith(path + ":")

    def test_integral_numbers_read_as_integers(self):
        doc = {
            "seed": 7.0,
            "samples": {"space": 3.0},
            "instances": [{"name": "x", "space": E2, "n_max": 5.0}],
        }
        cfg = config_from_json(doc)
        assert (cfg.seed, cfg.space_samples, cfg.instances[0].n_max) == (7, 3, 5)
        assert all(type(v) is int for v in (cfg.seed, cfg.space_samples))
