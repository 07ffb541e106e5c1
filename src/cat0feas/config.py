"""JSON readers for spaces, points, convex sets, and experiment documents.

Schema sketch (version "1"):

    space    {"kind": "euclidean", "dim": 2}
             {"kind": "metric-tree", "vertices": [...], "edges": [[u, v, len]]}
             {"kind": "poincare-disk"}
             {"kind": "product", "base": <space>, "lambda": 0.5}
    payload  euclidean [x1, ...]; tree {"edge": i, "offset": o}; disk [re, im];
             product {"first": <payload>, "second": <payload>}
    set      {"halfspace": {"normal": [...], "offset": c}} | {"ball": {...}} |
             {"affine-subspace": {...}} | {"tree-segment": {...}} |
             {"subtree": {...}} | {"disk-geodesic-segment": {...}} |
             {"disk-ball": {...}} | {"product-rectangle": {...}} | {"diagonal": {}}

An experiment document holds these keys (default after "="):

    schema = "1"; seed = 0; instances = []
    samples     {"space" = 10000, "mapping" = 1000, "minimality" = 1000}, each >= 1

Check bounds are not configurable: every sampled check scales its bound with
the distance terms of its inequality (spaces.REL_TOL).  A "tolerances" section
is rejected.

and each instance these:

    name, space                     required
    lambda = 0.5                    in (0, 1)
    A, B, start = null              two sets and a start payload
    fixed_point, best_pair = null   a payload; a list of two payloads
    set_distance = null             d(A, B) when known, finite and >= 0
    mode = "averaged"               "averaged" | "composed" | "product-reduction"
    n_max = 10000                   Picard steps, >= 1
    eps_grid = [1.0, 0.5, 0.1]      descending finite positive targets of "rate"
    gap_eps_grid = [1.0, 0.5, 0.25] descending finite positive targets of "gap-rate"
    rate = {"b": null, "M": null}   finite rate constants >= 0, measured from
                                    start when null
    grid = {"h": 0.001, "window": null, "surface": "auto"}
                                    oracle grid: finite step > 0, per-dimension
                                    finite [lo, hi] ranges, "auto" | "full"
    product_lambdas = []            extra verify-space product weights, in (0, 1)
    checks = []                     any of "rate", "gap-rate", "delta-limit",
                                    "oracle-agreement"; only the last in
                                    "composed" mode, whose map is not averaged

A null value reads as an absent key.  Integer fields (seed, sample counts,
n_max) take integral numbers only: 3.0 reads as 3, 2.5 is an error.  Every
parse error raises ConfigError with the JSON path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import Cat0FeasError, ConfigError
from .product import ConvexCombinationSpace
from .sets import (
    AffineSubspace,
    ConvexSet,
    DiagonalSet,
    DiskBall,
    DiskGeodesicSegment,
    EuclideanBall,
    GridSpec,
    Halfspace,
    ProductRectangle,
    Subtree,
    TreeSegment,
)
from .spaces import EuclideanSpace, PoincareDiskSpace, Point, Space
from .trees import MetricTree, TreeSpace

SCHEMA_VERSION = "1"


def _fail(path: str, message: str):
    raise ConfigError(f"{path}: {message}")


def _get(doc: dict, key: str, path: str):
    if key not in doc:
        _fail(path, f"missing field '{key}'")
    return doc[key]


# -- spaces --------------------------------------------------------------------


def space_from_json(doc, path: str = "space") -> Space:
    if not isinstance(doc, dict):
        _fail(path, "space spec must be an object")
    kind = _get(doc, "kind", path)
    try:
        if kind == "euclidean":
            return EuclideanSpace(dim=int(_get(doc, "dim", path)))
        if kind == "metric-tree":
            tree = MetricTree(
                vertices=tuple(str(v) for v in _get(doc, "vertices", path)),
                edges=tuple(
                    (str(u), str(v), float(length))
                    for u, v, length in _get(doc, "edges", path)
                ),
            )
            return TreeSpace(tree)
        if kind == "poincare-disk":
            return PoincareDiskSpace()
        if kind == "product":
            base = space_from_json(_get(doc, "base", path), path + ".base")
            return ConvexCombinationSpace(base, float(_get(doc, "lambda", path)))
    except Cat0FeasError as exc:
        if isinstance(exc, ConfigError):
            raise
        _fail(path, str(exc))
    except (TypeError, ValueError) as exc:
        _fail(path, f"bad space spec: {exc}")
    _fail(path, f"unknown space kind '{kind}'")


# -- points ---------------------------------------------------------------------


def payload_from_json(space: Space, doc, path: str = "payload"):
    try:
        if isinstance(space, EuclideanSpace):
            return tuple(float(c) for c in doc)
        if isinstance(space, TreeSpace):
            return (int(_get(doc, "edge", path)), float(_get(doc, "offset", path)))
        if isinstance(space, PoincareDiskSpace):
            re, im = doc
            return complex(float(re), float(im))
        if isinstance(space, ConvexCombinationSpace):
            return tuple(
                point_from_json(space.base, _get(doc, key, path), f"{path}.{key}").payload
                for key in ("first", "second")
            )
    except (TypeError, ValueError) as exc:
        _fail(path, f"bad payload: {exc}")
    raise ConfigError(f"{path}: unsupported space kind {space.kind}")


def point_from_json(space: Space, doc, path: str = "point") -> Point:
    payload = payload_from_json(space, doc, path)
    try:
        return space.point(payload)
    except Cat0FeasError as exc:
        _fail(path, str(exc))


# -- convex sets -------------------------------------------------------------------


_SEGMENTS = {cls.kind: cls for cls in (TreeSegment, DiskGeodesicSegment)}


def set_from_json(space: Space, doc, path: str = "set") -> ConvexSet:
    if not isinstance(doc, dict) or len(doc) != 1:
        _fail(path, "set spec must be a single-key object")
    kind, body = next(iter(doc.items()))
    try:
        if kind == "halfspace":
            return Halfspace(
                space,
                normal=tuple(float(c) for c in _get(body, "normal", path)),
                offset=float(_get(body, "offset", path)),
            )
        if kind == "affine-subspace":
            return AffineSubspace(
                space,
                anchor=tuple(float(c) for c in _get(body, "anchor", path)),
                basis=tuple(
                    tuple(float(c) for c in row) for row in _get(body, "basis", path)
                ),
            )
        if kind == "ball":
            return EuclideanBall(
                space,
                center=tuple(float(c) for c in _get(body, "center", path)),
                radius=float(_get(body, "radius", path)),
            )
        if kind in _SEGMENTS:
            return _SEGMENTS[kind](
                space,
                start=point_from_json(space, _get(body, "start", path), path + ".start"),
                end=point_from_json(space, _get(body, "end", path), path + ".end"),
            )
        if kind == "subtree":
            return Subtree(
                space, vertex_names=tuple(str(v) for v in _get(body, "vertices", path))
            )
        if kind == "disk-ball":
            re, im = _get(body, "center", path)
            return DiskBall(
                space, center=complex(float(re), float(im)),
                radius=float(_get(body, "radius", path)),
            )
        if kind == "product-rectangle":
            if not isinstance(space, ConvexCombinationSpace):
                _fail(path, "product-rectangle needs a product space")
            return ProductRectangle(
                space,
                first=set_from_json(space.base, _get(body, "first", path), path + ".first"),
                second=set_from_json(space.base, _get(body, "second", path), path + ".second"),
            )
        if kind == "diagonal":
            if not isinstance(space, ConvexCombinationSpace):
                _fail(path, "diagonal needs a product space")
            return DiagonalSet(space)
    except Cat0FeasError as exc:
        if isinstance(exc, ConfigError):
            raise
        _fail(path, str(exc))
    except (TypeError, ValueError, AttributeError) as exc:
        _fail(path, f"bad set spec: {exc}")
    _fail(path, f"unknown set kind '{kind}'")


# -- experiment configs -----------------------------------------------------------------


VALID_CHECKS = ("rate", "gap-rate", "delta-limit", "oracle-agreement")
# The rate theorems and the limit (1-lam) a* + lam b* hold for the averaged map.
AVERAGED_CHECKS = ("rate", "gap-rate", "delta-limit")
VALID_MODES = ("averaged", "composed", "product-reduction")
VALID_SURFACES = ("auto", "full")


@dataclass(frozen=True)
class InstanceConfig:
    """One configured problem instance plus the checks to run on it."""

    name: str
    space: Space
    lam: float = 0.5
    set_a: ConvexSet | None = None
    set_b: ConvexSet | None = None
    start: Point | None = None
    n_max: int = 10_000
    eps_grid: tuple[float, ...] = (1.0, 0.5, 0.1)
    gap_eps_grid: tuple[float, ...] = (1.0, 0.5, 0.25)
    mode: str = "averaged"
    fixed_point: Point | None = None
    best_pair: tuple[Point, Point] | None = None
    set_dist: float | None = None
    rate_b: float | None = None
    rate_m: float | None = None
    grid: GridSpec = GridSpec()
    product_lambdas: tuple[float, ...] = ()
    checks: tuple[str, ...] = ()

    def require_sets(self):
        if self.set_a is None or self.set_b is None or self.start is None:
            raise ConfigError(
                f"instance '{self.name}' needs A, B, and start for this command"
            )
        return self.set_a, self.set_b, self.start


@dataclass(frozen=True)
class ExperimentConfig:
    schema: str
    seed: int
    space_samples: int = 10_000
    mapping_samples: int = 1_000
    minimality_samples: int = 1_000
    instances: tuple[InstanceConfig, ...] = ()


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _value(doc: dict, key: str, path: str, cast, default=None):
    """cast(doc[key]), or `default` when the key is absent or null."""
    value = doc.get(key)
    if value is None:
        return default
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        _fail(_join(path, key), f"bad value {value!r}: {exc}")


def _integer(value) -> int:
    """An integral JSON number; int() alone would truncate 2.5 to 2."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError("not an integer")


def _count(doc: dict, key: str, path: str, default: int) -> int:
    n = _value(doc, key, path, _integer, default)
    if n < 1:
        _fail(_join(path, key), f"must be >= 1, got {n}")
    return n


def _section(doc: dict, key: str, path: str = "") -> dict:
    section = doc.get(key)
    if section is None:
        return {}
    if not isinstance(section, dict):
        _fail(_join(path, key), "must be an object")
    return section


def _floats(values) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


def _eps_grid(doc: dict, key: str, path: str, default: tuple[float, ...]):
    grid = _value(doc, key, path, _floats, default)
    if not grid or not all(0.0 < e < math.inf for e in grid):
        _fail(f"{path}.{key}", "eps grid entries must be positive and finite")
    if any(a < b for a, b in zip(grid, grid[1:])):
        _fail(f"{path}.{key}", "eps grid must be sorted descending")
    return grid


def _finite_nonnegative(doc: dict, key: str, path: str) -> float | None:
    value = _value(doc, key, path, float)
    if value is not None and not 0.0 <= value < math.inf:
        _fail(_join(path, key), f"must be finite and >= 0, got {value}")
    return value


def instance_from_json(doc, path: str) -> InstanceConfig:
    if not isinstance(doc, dict):
        _fail(path, "instance must be an object")
    name = str(_get(doc, "name", path))
    space = space_from_json(_get(doc, "space", path), path + ".space")
    lam = _value(doc, "lambda", path, float, 0.5)
    if not 0.0 < lam < 1.0:
        _fail(path, f"lambda must be in (0, 1), got {lam}")

    def opt_point(key):
        return (
            point_from_json(space, doc[key], f"{path}.{key}")
            if doc.get(key) is not None
            else None
        )

    set_a = (
        set_from_json(space, doc["A"], path + ".A") if doc.get("A") is not None else None
    )
    set_b = (
        set_from_json(space, doc["B"], path + ".B") if doc.get("B") is not None else None
    )
    best_pair = None
    pair = _value(doc, "best_pair", path, list)
    if pair is not None:
        if len(pair) != 2:
            _fail(path + ".best_pair", "expected two payloads")
        best_pair = (
            point_from_json(space, pair[0], path + ".best_pair[0]"),
            point_from_json(space, pair[1], path + ".best_pair[1]"),
        )
    grid_doc = _section(doc, "grid", path)
    grid_path = path + ".grid"
    grid = GridSpec(
        h=_value(grid_doc, "h", grid_path, float, 1e-3),
        window=_value(
            grid_doc, "window", grid_path,
            lambda w: tuple((float(lo), float(hi)) for lo, hi in w),
        ),
        surface=_value(grid_doc, "surface", grid_path, str, "auto"),
    )
    if not 0.0 < grid.h < math.inf:
        _fail(grid_path + ".h", f"grid step must be positive and finite, got {grid.h}")
    if grid.window is not None and not all(math.isfinite(b) for r in grid.window for b in r):
        _fail(grid_path + ".window", f"window bounds must be finite, got {grid.window}")
    if grid.surface not in VALID_SURFACES:
        _fail(grid_path + ".surface", f"unknown surface '{grid.surface}'")
    mode = _value(doc, "mode", path, str, "averaged")
    if mode not in VALID_MODES:
        _fail(path + ".mode", f"unknown mode '{mode}'")
    checks = _value(doc, "checks", path, lambda v: tuple(str(c) for c in v), ())
    for c in checks:
        if c not in VALID_CHECKS:
            _fail(path + ".checks", f"unknown check '{c}'")
        if mode == "composed" and c in AVERAGED_CHECKS:
            _fail(
                path + ".checks",
                f"'{c}' certifies averaged maps, and the composed map P_A P_B is not averaged",
            )
    rate_doc = _section(doc, "rate", path)
    rate_b, rate_m = (_finite_nonnegative(rate_doc, key, path + ".rate") for key in ("b", "M"))
    product_lambdas = _value(doc, "product_lambdas", path, _floats, ())
    if not all(0.0 < w < 1.0 for w in product_lambdas):
        _fail(path + ".product_lambdas", f"weights must lie in (0, 1), got {product_lambdas}")
    return InstanceConfig(
        name=name,
        space=space,
        lam=lam,
        set_a=set_a,
        set_b=set_b,
        start=opt_point("start"),
        n_max=_count(doc, "n_max", path, 10_000),
        eps_grid=_eps_grid(doc, "eps_grid", path, (1.0, 0.5, 0.1)),
        gap_eps_grid=_eps_grid(doc, "gap_eps_grid", path, (1.0, 0.5, 0.25)),
        mode=mode,
        fixed_point=opt_point("fixed_point"),
        best_pair=best_pair,
        set_dist=_finite_nonnegative(doc, "set_distance", path),
        rate_b=rate_b,
        rate_m=rate_m,
        grid=grid,
        product_lambdas=product_lambdas,
        checks=checks,
    )


def config_from_json(doc) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    schema = str(doc.get("schema", SCHEMA_VERSION))
    if schema != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema version '{schema}'")
    if doc.get("tolerances") is not None:
        _fail("tolerances", "check bounds are derived, not configured; remove this section")
    samples = _section(doc, "samples")
    instances = tuple(
        instance_from_json(inst, f"instances[{i}]")
        for i, inst in enumerate(_value(doc, "instances", "", list, []))
    )
    names = [inst.name for inst in instances]
    if len(set(names)) != len(names):
        raise ConfigError("instance names must be unique")
    return ExperimentConfig(
        schema=schema,
        seed=_value(doc, "seed", "", _integer, 0),
        space_samples=_count(samples, "space", "samples", 10_000),
        mapping_samples=_count(samples, "mapping", "samples", 1_000),
        minimality_samples=_count(samples, "minimality", "samples", 1_000),
        instances=instances,
    )


def load_config(path) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}")
    return config_from_json(doc)


def bundled_config_path(name: str = "default") -> Path:
    """Path of a configuration document shipped with the package."""
    root = Path(__file__).parent / "configs" / f"{name}.json"
    if not root.exists():
        raise ConfigError(f"no bundled config named '{name}'")
    return root


def load_bundled_config(name: str = "default") -> ExperimentConfig:
    return load_config(bundled_config_path(name))
