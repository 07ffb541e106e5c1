"""Exact isometries: an instance moved by a map that rounds nothing gives
byte-identical `run` and `certify` outputs, but for the oracle's entries,
whose grids stay axis-aligned.

Swapping or negating coordinates of R^2, and conjugating, negating or
multiplying by i in the Poincare disk, are isometries that change no
floating-point magnitude.  Every formula the iteration uses is symmetric
under them (a sum of squares, a quotient of complex numbers), so the moved
orbit is the image of the bundled one bit for bit, and every distance,
residual and certificate is the same number.  (Rotations, translations and
Mobius shifts round, so they only move iterates within rounding; ROADMAP
item 11.)
"""

import copy
import json
import math

import pytest

from cat0feas import EuclideanBall, cli
from cat0feas.config import bundled_config_path

PLANE_MOVES = {
    "swap": lambda p: [p[1], p[0]],
    "negate-x": lambda p: [-p[0], p[1]],
    "negate-y": lambda p: [p[0], -p[1]],
    "negate-both": lambda p: [-p[0], -p[1]],
}

# A disk point is [re, im].
DISK_MOVES = {
    "conjugate": lambda p: [p[0], -p[1]],
    "negate": lambda p: [-p[0], -p[1]],
    "times-i": lambda p: [-p[1], p[0]],
}


def bundled(name):
    doc = json.loads(bundled_config_path().read_text())
    (inst,) = [i for i in doc["instances"] if i["name"] == name]
    return doc, inst


def moved(inst, move):
    """`inst` with its sets' centers, half-space normals and flats' anchors and
    bases, its start, fixed point and best pair moved.  Every move is linear
    and fixes the origin, so a half-space's offset stays."""
    inst = copy.deepcopy(inst)
    for key in ("A", "B"):
        ((_, spec),) = inst[key].items()
        for field in ("center", "normal", "anchor"):
            if field in spec:
                spec[field] = move(spec[field])
        if "basis" in spec:
            spec["basis"] = [move(v) for v in spec["basis"]]
    inst["start"] = move(inst["start"])
    if "fixed_point" in inst:
        inst["fixed_point"] = move(inst["fixed_point"])
    if "best_pair" in inst:
        inst["best_pair"] = [move(p) for p in inst["best_pair"]]
    return inst


def outputs(tmp_path, label, doc, inst, command):
    """The files `command` writes for `inst` alone, but timings.txt."""
    path = tmp_path / f"{label}.json"
    path.write_text(json.dumps(dict(doc, instances=[inst])))
    out = tmp_path / label
    code = cli.main([command, "--config", str(path), "--out", str(out)])
    files = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "timings.txt"}
    return code, files


def assert_unmoved(tmp_path, name, moves, command, checks=None):
    doc, inst = bundled(name)
    if checks is not None:
        inst["checks"] = checks
    code, want = outputs(tmp_path, "bundled", doc, inst, command)
    assert code == 0 and len(want) >= 2
    for label, move in moves.items():
        assert outputs(tmp_path, label, doc, moved(inst, move), command) == (code, want), label


MOVED = [
    ("ball-ball", PLANE_MOVES),
    ("disk-disjoint", DISK_MOVES),
    ("disk-overlap", DISK_MOVES),
    ("ball-halfspace", PLANE_MOVES),
    ("line-line", PLANE_MOVES),
]

# The entries that read the oracle's axis-aligned grids.
ORACLE_CHECKS = ("delta-limit", "oracle-agreement")


@pytest.mark.parametrize("name, moves", MOVED)
def test_run_is_unmoved(tmp_path, name, moves):
    assert_unmoved(tmp_path, name, moves, "run")


def test_rate_certificates_are_unmoved(tmp_path):
    for name, moves in MOVED:
        _, inst = bundled(name)
        checks = [c for c in inst["checks"] if c in ("rate", "gap-rate")]
        if checks:
            (tmp_path / name).mkdir()
            assert_unmoved(tmp_path / name, name, moves, "certify", checks)


@pytest.mark.parametrize("name, moves", MOVED[2:])
def test_oracle_checks_agree_within_budget(tmp_path, name, moves):
    # A moved set meets the oracle's axis-aligned grid at other points, so
    # its oracle entries agree by status and budget; all else byte for byte.
    doc, inst = bundled(name)
    code, want = outputs(tmp_path, "bundled", doc, inst, "certify")
    report = json.loads(want.pop("report.json"))
    (bundled_inst,) = report.pop("instances")
    checks = bundled_inst.pop("checks")
    for label, move in moves.items():
        got_code, got = outputs(tmp_path, label, doc, moved(inst, move), "certify")
        got_report = json.loads(got.pop("report.json"))
        (moved_inst,) = got_report.pop("instances")
        assert (got_code, got, got_report) == (code, want, report), label
        for a, b in zip(checks, moved_inst.pop("checks"), strict=True):
            if a["check"] in ORACLE_CHECKS:
                assert a["status"] == b["status"] == "pass", (label, a, b)
                if a["check"] == "oracle-agreement":
                    assert b["difference"] <= b["budget"] == a["budget"], (label, b)
            else:
                assert a == b, label
        assert moved_inst == bundled_inst, label


def test_projection_biased_by_coordinate_breaks_the_swap(tmp_path, monkeypatch):
    # One ulp added to the first coordinate of every ball projection treats
    # the two axes differently, so the swapped orbit parts from the image of
    # the bundled one.
    project = EuclideanBall._project

    def nudged(ball, p):
        first, *rest = project(ball, p)
        return (math.nextafter(first, math.inf), *rest)

    monkeypatch.setattr(EuclideanBall, "_project", nudged)
    doc, inst = bundled("ball-ball")
    code, want = outputs(tmp_path, "bundled", doc, inst, "run")
    swapped = outputs(tmp_path, "swap", doc, moved(inst, PLANE_MOVES["swap"]), "run")
    assert swapped[1]["trace_ball-ball.csv"] != want["trace_ball-ball.csv"]
