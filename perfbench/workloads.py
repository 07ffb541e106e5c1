"""Workload definitions: the configs each workload runs and what they must yield.

Every workload runs the four CLI subcommands.  Its config is either the bundled
``default.json`` or a document generated here from the benchmark seed; the same
seed always gives byte-identical configs.

Expected verdicts never come from what the program prints:

* ``default``: every instance's sets are convex in a CAT(0) space, so the
  curvature, P2 and minimality inequalities hold; the bundled traces end in
  exact fixed points (the README's certificate semantics), so every rate
  certificate is decided by the constant extension; the best pairs lie on the
  oracle grids.  Everything is expected to pass.
* ``long-trace``: pairs of convex sets that touch in a single point, so no
  trace becomes exactly stationary.  Each rate check gets a ``b`` at least the
  start's distance to the touching point (a common fixed point) and an eps grid
  whose exact regularity bounds all lie below ``n_max``, so the theorem decides
  every certificate inside the recorded horizon: all pass.
* ``big-tree``: a random metric tree (a CAT(0) space), a tree segment and a
  subtree whose best pair is a segment endpoint and a subtree vertex, both on
  the oracle grids; rate bounds below ``n_max`` again.  All pass; in particular
  ``verify-space`` must pass, so a fail that comes from rounding alone counts
  as a failure.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from fractions import Fraction
from pathlib import Path

COMMANDS = ("verify-space", "verify-mapping", "run", "certify")
WORKLOADS = ("default", "long-trace", "big-tree")

BUNDLED_CONFIG = Path("src") / "cat0feas" / "configs" / "default.json"

# Invocations of each subcommand per untraced repetition.  Short subcommands
# run several times, so that each median rests on enough samples on a host
# whose speed drifts by 10-20 % from one second to the next.
PLAN = {
    "default": {"verify-space": 1, "verify-mapping": 2, "run": 4, "certify": 1},
    "long-trace": {"verify-space": 3, "verify-mapping": 3, "run": 1, "certify": 1},
    "big-tree": {"verify-space": 1, "verify-mapping": 1, "run": 5, "certify": 1},
}


# -- exact rate bounds (the benchmark's own arithmetic) -----------------------------


def _exact(x) -> Fraction:
    """Decimal-literal value of a float, as the rate formulas read it."""
    return Fraction(repr(x)) if isinstance(x, float) else Fraction(x)


def regularity_bound(b, eps) -> int:
    """k * ceil(2b(1 + 2^k)/eps) + 1 with k = ceil(2b/eps)."""
    b_, eps_ = _exact(b), _exact(eps)
    k = math.ceil(2 * b_ / eps_)
    return k * math.ceil(2 * b_ * (1 + 2**k) / eps_) + 1


def gap_bound(m, b, eps, lam) -> int:
    """floor(64 M^2 b / (eps^4 lam (1-lam))) + 2."""
    m_, b_, eps_, lam_ = _exact(m), _exact(b), _exact(eps), _exact(lam)
    return math.floor(64 * m_**2 * b_ / (eps_**4 * lam_ * (1 - lam_))) + 2


def _rate_b(d0: float) -> float:
    """A rate constant b >= d0 that is a multiple of 1/4, so b/2 and b/4 are
    exact decimals and the stage counts are exactly 2, 4 and 8."""
    return math.ceil(4.0 * d0 + 1e-6) / 4.0


def _eps_grid(b: float, n_max: int) -> list[float]:
    grid = [e for e in (b, b / 2, b / 4) if regularity_bound(b, e) < n_max]
    if not grid:
        raise ValueError("n_max too small for any certified epsilon")
    return grid


# -- long-trace ----------------------------------------------------------------------


def _r(x: float) -> float:
    return float(f"{x:.6f}")


def _euclid_tangent_balls(rng, name, mode, n_max, checks):
    r1, r2 = _r(rng.uniform(0.5, 1.5)), _r(rng.uniform(0.5, 1.5))
    theta = rng.uniform(0.0, 2.0 * math.pi)
    u = (math.cos(theta), math.sin(theta))
    c1 = (_r(rng.uniform(-1.0, 1.0)), _r(rng.uniform(-1.0, 1.0)))
    c2 = (c1[0] + (r1 + r2) * u[0], c1[1] + (r1 + r2) * u[1])
    touch = (c1[0] + r1 * u[0], c1[1] + r1 * u[1])
    # Start off the common tangent line's normal, outside both balls.
    s = rng.uniform(2.0, 4.0) * rng.choice((-1.0, 1.0))
    start = (touch[0] - s * u[1], touch[1] + s * u[0])
    inst = {
        "name": name,
        "space": {"kind": "euclidean", "dim": 2},
        "lambda": 0.5,
        "mode": mode,
        "A": {"ball": {"center": list(c1), "radius": r1}},
        "B": {"ball": {"center": list(c2), "radius": r2}},
        "start": list(start),
        "fixed_point": list(touch),
        "n_max": n_max,
        "checks": checks,
    }
    return inst, math.dist(start, touch)


def _disk_point(s: float, theta: float) -> complex:
    """The disk point at hyperbolic distance |s| from 0 along angle theta
    (negative s points the opposite way)."""
    return math.tanh(0.5 * s) * cmath.exp(1j * theta)


def _disk_distance(a: complex, b: complex) -> float:
    return 2.0 * math.atanh(abs(a - b) / abs(1.0 - a.conjugate() * b))


def _shift(c: complex, w: complex) -> complex:
    """The disk isometry sending 0 to c, applied to w."""
    return (w + c) / (1.0 + c.conjugate() * w)


def _pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def _disk_tangent_balls(rng, name, n_max):
    r1, r2 = _r(rng.uniform(0.4, 0.9)), _r(rng.uniform(0.4, 0.9))
    theta = rng.uniform(0.0, 2.0 * math.pi)
    # Centers on one diameter, r1 + r2 apart; they touch at distance r1 from c1.
    s1 = rng.uniform(0.2, r1 + r2 - 0.2)
    c1, c2 = _disk_point(-s1, theta), _disk_point(r1 + r2 - s1, theta)
    touch = _disk_point(r1 - s1, theta)
    start = _shift(touch, _disk_point(rng.uniform(1.0, 1.6), theta + 0.5 * math.pi))
    inst = {
        "name": name,
        "space": {"kind": "poincare-disk"},
        "lambda": 0.5,
        "A": {"disk-ball": {"center": _pair(c1), "radius": r1}},
        "B": {"disk-ball": {"center": _pair(c2), "radius": r2}},
        "start": _pair(start),
        "fixed_point": _pair(touch),
        "n_max": n_max,
        "checks": ["rate"],
    }
    return inst, _disk_distance(start, touch)


def _disk_segment_tangent_ball(rng, name, n_max):
    r = _r(rng.uniform(0.4, 0.9))
    theta = rng.uniform(0.0, 2.0 * math.pi)
    rot = cmath.exp(1j * theta)
    touch = _disk_point(r, 0.0)
    # The geodesic through `touch` orthogonal to the real axis is the image of
    # the imaginary axis under the isometry sending 0 to `touch`.
    half = rng.uniform(0.6, 1.2)
    ends = [_shift(touch, _disk_point(sign * half, 0.5 * math.pi)) for sign in (-1, 1)]
    start = _disk_point(r + rng.uniform(0.8, 1.4), rng.uniform(-0.3, 0.3))
    inst = {
        "name": name,
        "space": {"kind": "poincare-disk"},
        "lambda": 0.5,
        "A": {
            "disk-geodesic-segment": {
                "start": _pair(ends[0] * rot),
                "end": _pair(ends[1] * rot),
            }
        },
        "B": {"disk-ball": {"center": [0.0, 0.0], "radius": r}},
        "start": _pair(start * rot),
        "fixed_point": _pair(touch * rot),
        "n_max": n_max,
        "checks": ["rate"],
    }
    return inst, _disk_distance(start * rot, touch * rot)


def _with_rate(inst, d0):
    """Add b and an eps grid whose bounds all fall inside the horizon."""
    if "rate" in inst["checks"]:
        b = _rate_b(d0)
        inst["rate"] = {"b": b}
        inst["eps_grid"] = _eps_grid(b, inst["n_max"])
    return inst


def long_trace_config(seed: int) -> dict:
    rng = random.Random(f"long-trace:{seed}")
    made = [
        _euclid_tangent_balls(rng, "ball-ball-averaged", "averaged", 20000, ["rate"]),
        # P_A P_B is not an averaged map, so no rate theorem applies to it.
        _euclid_tangent_balls(rng, "ball-ball-composed", "composed", 20000, []),
        _euclid_tangent_balls(rng, "ball-ball-product", "product-reduction", 8000, ["rate"]),
        _disk_tangent_balls(rng, "disk-ball-ball", 8000),
        _disk_segment_tangent_ball(rng, "disk-segment-ball", 1500),
    ]
    return {
        "schema": "1",
        "seed": seed,
        "samples": {"space": 8000, "mapping": 100, "minimality": 100},
        "instances": [_with_rate(inst, d0) for inst, d0 in made],
    }


# -- big-tree --------------------------------------------------------------------------


class _RootedTree:
    """A random tree rooted at vertex 0; attaching each vertex to one of the
    few previous ones gives long paths."""

    def __init__(self, rng, n_vertices: int, reach: int):
        self.names = [f"v{i}" for i in range(n_vertices)]
        self.parent = [None]
        self.length = [0.0]
        self.edges = []
        for i in range(1, n_vertices):
            p = rng.randrange(max(0, i - reach), i)
            length = round(rng.uniform(0.2, 1.0), 3)
            self.parent.append(p)
            self.length.append(length)
            self.edges.append([self.names[p], self.names[i], length])
        self.children = [[] for _ in range(n_vertices)]
        for i, p in enumerate(self.parent):
            if p is not None:
                self.children[p].append(i)
        self.depth = [0.0] * n_vertices
        for i in range(1, n_vertices):
            self.depth[i] = self.depth[self.parent[i]] + self.length[i]

    def descendants(self, v):
        out, stack = [], [v]
        while stack:
            x = stack.pop()
            out.append(x)
            stack.extend(self.children[x])
        return out

    def point_on_path_up(self, v: int, s: float):
        """Payload of the point at arc length s from v toward the root (s = 0
        gives v itself); edge i - 1 joins vertex i to its parent."""
        while s > self.length[v]:
            s -= self.length[v]
            v = self.parent[v]
        return {"edge": v - 1, "offset": self.length[v] - s}


def big_tree_config(seed: int) -> dict:
    rng = random.Random(f"big-tree:{seed}")
    tree = _RootedTree(rng, 320, reach=6)
    # B: the subtree of the first vertices in breadth-first order from the
    # root.  It is closed under parents, so every path into it climbs.
    order, queue, sub_len = [0], list(tree.children[0]), 0.0
    while sub_len < 20.0:
        v = queue.pop(0)
        order.append(v)
        sub_len += tree.length[v]
        queue.extend(tree.children[v])
    inside = set(order)
    # A: the segment from a vertex v below B down to its deepest descendant.
    # Everything on it lies below v, so v and its gate g into B are the best
    # pair, and both sit on the oracle grids (segment end, subtree vertex).
    def gate(v):
        while v not in inside:
            v = tree.parent[v]
        return v

    candidates = []
    for v in range(len(tree.names)):
        if v in inside:
            continue
        deepest = max(tree.descendants(v), key=lambda x: tree.depth[x])
        drop = tree.depth[deepest] - tree.depth[v]
        gap = tree.depth[v] - tree.depth[gate(v)]
        if drop >= 15.0 and gap >= 4.0:
            candidates.append((v, deepest))
    v, w = rng.choice(candidates)
    g = gate(v)
    seg_len = tree.depth[w] - tree.depth[v]
    # About 10^6 oracle pairs: (seg_len / h) * (sub_len / h).
    h = round(math.sqrt(seg_len * sub_len / 1.0e6), 4)
    lam = 0.5
    dist_vg = tree.depth[v] - tree.depth[g]
    fixed = tree.point_on_path_up(v, lam * dist_vg)
    # Start on the segment's far half: the path to the fixed point runs up.
    s0 = rng.uniform(0.5, 1.0) * seg_len
    start = tree.point_on_path_up(w, seg_len - s0)
    d0 = s0 + lam * dist_vg
    b = _rate_b(d0)
    n_max = 400
    inst = {
        "name": "segment-subtree",
        "space": {"kind": "metric-tree", "vertices": tree.names, "edges": tree.edges},
        "lambda": lam,
        "A": {
            "tree-segment": {
                "start": tree.point_on_path_up(v, 0.0),
                "end": tree.point_on_path_up(w, 0.0),
            }
        },
        "B": {"subtree": {"vertices": [tree.names[i] for i in sorted(order)]}},
        "start": start,
        "fixed_point": fixed,
        "rate": {"b": b},
        "n_max": n_max,
        "eps_grid": _eps_grid(b, n_max),
        "grid": {"h": h},
        "product_lambdas": [0.5],
        "checks": ["rate", "delta-limit", "oracle-agreement"],
    }
    return {
        "schema": "1",
        "seed": seed,
        "samples": {"space": 3000, "mapping": 300, "minimality": 200},
        "instances": [inst],
    }


# -- entry points ------------------------------------------------------------------------


def config_text(workload: str, seed: int, root: Path) -> str:
    """The workload's config document as written to disk."""
    if workload == "default":
        return (root / BUNDLED_CONFIG).read_text()
    make = {"long-trace": long_trace_config, "big-tree": big_tree_config}[workload]
    return json.dumps(make(seed), indent=1, sort_keys=True) + "\n"
