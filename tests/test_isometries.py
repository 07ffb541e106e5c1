"""Exact isometries: an instance moved by a map that rounds nothing gives
byte-identical `run` and `certify` outputs.

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
    """`inst` with its sets' centers, start, fixed point and best pair moved."""
    inst = copy.deepcopy(inst)
    for key in ("A", "B"):
        ((_, spec),) = inst[key].items()
        spec["center"] = move(spec["center"])
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


@pytest.mark.parametrize("name, moves", [("ball-ball", PLANE_MOVES), ("disk-disjoint", DISK_MOVES)])
def test_run_is_unmoved(tmp_path, name, moves):
    assert_unmoved(tmp_path, name, moves, "run")


def test_rate_certificates_are_unmoved(tmp_path):
    assert_unmoved(tmp_path, "ball-ball", PLANE_MOVES, "certify", ["rate", "gap-rate"])


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
