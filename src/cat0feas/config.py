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
    samples     {"space" = 10000, "mapping" = 1000, "minimality" = 1000}, each >= 1:
                cases drawn for each verify-space row ("space"), each
                verify-mapping map row but the identity's 100 ("mapping"), and
                the diagonal-minimality row ("minimality": a product point x,
                against the diagonal point Qy of another)

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

A null value reads as an absent key.  Every number must be a JSON number: a
string such as "1.0" or a boolean is an error.  Integer fields (seed, sample
counts, n_max, a Euclidean dim, a tree payload's edge) take integral numbers
only: 3.0 reads as 3, 2.5 is an error.  Lists (instances, checks, coordinates)
must be JSON arrays.  A key outside this schema, in the root, in "samples", in
an instance or in its "rate" or "grid", is an error, not an absent key.  Every
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
    SURFACES,
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


def _number(value) -> float:
    """A JSON number as a float; float() alone would also take "1.0" and true."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _floats(values) -> tuple[float, ...]:
    return tuple(map(_number, values))


def _integer(value) -> int:
    """An integral JSON number; int() alone would truncate 2.5 to 2 and take
    true and "2"."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"expected an integer, got {value!r}")


def _list(value) -> list:
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {value!r}")
    return value


def _string(value) -> str:
    """A JSON string; str() alone would also take 7 as "7"."""
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _strings(values) -> tuple[str, ...]:
    """A JSON list of strings; a string alone is no list of its letters."""
    return tuple(map(_string, _list(values)))


# -- spaces --------------------------------------------------------------------


def space_from_json(doc, path: str = "space") -> Space:
    if not isinstance(doc, dict):
        _fail(path, "space spec must be an object")
    kind = _get(doc, "kind", path)
    try:
        if kind == "euclidean":
            return EuclideanSpace(dim=_integer(_get(doc, "dim", path)))
        if kind == "metric-tree":
            tree = MetricTree(
                vertices=_strings(_get(doc, "vertices", path)),
                edges=tuple(
                    (_string(u), _string(v), _number(length))
                    for u, v, length in _list(_get(doc, "edges", path))
                ),
            )
            return TreeSpace(tree)
        if kind == "poincare-disk":
            return PoincareDiskSpace()
        if kind == "product":
            base = space_from_json(_get(doc, "base", path), path + ".base")
            return ConvexCombinationSpace(base, _number(_get(doc, "lambda", path)))
    except Cat0FeasError as exc:
        if isinstance(exc, ConfigError):
            raise
        _fail(path, str(exc))
    except (TypeError, ValueError, OverflowError) as exc:
        _fail(path, f"bad space spec: {exc}")
    _fail(path, f"unknown space kind '{kind}'")


# -- points ---------------------------------------------------------------------


def payload_from_json(space: Space, doc, path: str = "payload"):
    try:
        if isinstance(space, EuclideanSpace):
            return _floats(doc)
        if isinstance(space, TreeSpace):
            return (_integer(_get(doc, "edge", path)), _number(_get(doc, "offset", path)))
        if isinstance(space, PoincareDiskSpace):
            re, im = doc
            return complex(_number(re), _number(im))
        if isinstance(space, ConvexCombinationSpace):
            return tuple(
                point_from_json(space.base, _get(doc, key, path), f"{path}.{key}").payload
                for key in ("first", "second")
            )
    except (TypeError, ValueError, OverflowError) as exc:
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
                normal=_floats(_get(body, "normal", path)),
                offset=_number(_get(body, "offset", path)),
            )
        if kind == "affine-subspace":
            return AffineSubspace(
                space,
                anchor=_floats(_get(body, "anchor", path)),
                basis=tuple(_floats(row) for row in _get(body, "basis", path)),
            )
        if kind == "ball":
            return EuclideanBall(
                space,
                center=_floats(_get(body, "center", path)),
                radius=_number(_get(body, "radius", path)),
            )
        if kind in _SEGMENTS:
            return _SEGMENTS[kind](
                space,
                start=point_from_json(space, _get(body, "start", path), path + ".start"),
                end=point_from_json(space, _get(body, "end", path), path + ".end"),
            )
        if kind == "subtree":
            return Subtree(space, vertex_names=_strings(_get(body, "vertices", path)))
        if kind == "disk-ball":
            re, im = _get(body, "center", path)
            return DiskBall(
                space, center=complex(_number(re), _number(im)),
                radius=_number(_get(body, "radius", path)),
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
    except (TypeError, ValueError, OverflowError, AttributeError) as exc:
        _fail(path, f"bad set spec: {exc}")
    _fail(path, f"unknown set kind '{kind}'")


# -- experiment configs -----------------------------------------------------------------


VALID_CHECKS = ("rate", "gap-rate", "delta-limit", "oracle-agreement")
# The rate theorems and the limit (1-lam) a* + lam b* hold for the averaged map.
AVERAGED_CHECKS = ("rate", "gap-rate", "delta-limit")
VALID_MODES = ("averaged", "composed", "product-reduction")
INSTANCE_KEYS = (
    "name", "space", "lambda", "A", "B", "start", "fixed_point", "best_pair", "set_distance",
    "mode", "n_max", "eps_grid", "gap_eps_grid", "rate", "grid", "product_lambdas", "checks",
)


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


def _count(doc: dict, key: str, path: str, default: int) -> int:
    n = _value(doc, key, path, _integer, default)
    if n < 1:
        _fail(_join(path, key), f"must be >= 1, got {n}")
    return n


def _known(doc: dict, keys, path: str) -> dict:
    """`doc`, once every key in it is one of `keys`: a misspelled key would
    otherwise read as an absent one."""
    for key in doc:
        if key not in keys:
            _fail(_join(path, key), "unknown key")
    return doc


def _section(doc: dict, key: str, path: str, keys) -> dict:
    section = doc.get(key)
    if section is None:
        return {}
    if not isinstance(section, dict):
        _fail(_join(path, key), "must be an object")
    return _known(section, keys, _join(path, key))


def _eps_grid(doc: dict, key: str, path: str, default: tuple[float, ...]):
    grid = _value(doc, key, path, _floats, default)
    if not grid or not all(0.0 < e < math.inf for e in grid):
        _fail(f"{path}.{key}", "eps grid entries must be positive and finite")
    if any(a < b for a, b in zip(grid, grid[1:])):
        _fail(f"{path}.{key}", "eps grid must be sorted descending")
    return grid


def _finite_nonnegative(doc: dict, key: str, path: str) -> float | None:
    value = _value(doc, key, path, _number)
    if value is not None and not 0.0 <= value < math.inf:
        _fail(_join(path, key), f"must be finite and >= 0, got {value}")
    return value


def instance_from_json(doc, path: str) -> InstanceConfig:
    if not isinstance(doc, dict):
        _fail(path, "instance must be an object")
    _known(doc, INSTANCE_KEYS, path)
    name = _value(doc, "name", path, _string)
    if name is None:
        _fail(path, "missing field 'name'")
    space = space_from_json(_get(doc, "space", path), path + ".space")
    lam = _value(doc, "lambda", path, _number, 0.5)
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
    pair = _value(doc, "best_pair", path, _list)
    if pair is not None:
        if len(pair) != 2:
            _fail(path + ".best_pair", "expected two payloads")
        best_pair = (
            point_from_json(space, pair[0], path + ".best_pair[0]"),
            point_from_json(space, pair[1], path + ".best_pair[1]"),
        )
    grid_doc = _section(doc, "grid", path, ("h", "window", "surface"))
    grid_path = path + ".grid"
    h = _value(grid_doc, "h", grid_path, _number, 1e-3)
    window = _value(
        grid_doc, "window", grid_path,
        lambda w: tuple((_number(lo), _number(hi)) for lo, hi in w),
    )
    surface = _value(grid_doc, "surface", grid_path, _string, "auto")
    if not 0.0 < h < math.inf:
        _fail(grid_path + ".h", f"grid step must be positive and finite, got {h}")
    if window is not None and not all(math.isfinite(b) for r in window for b in r):
        _fail(grid_path + ".window", f"window bounds must be finite, got {window}")
    if surface not in SURFACES:
        _fail(grid_path + ".surface", f"unknown surface '{surface}'")
    grid = GridSpec(h, window, surface)
    mode = _value(doc, "mode", path, _string, "averaged")
    if mode not in VALID_MODES:
        _fail(path + ".mode", f"unknown mode '{mode}'")
    checks = _value(doc, "checks", path, _strings, ())
    for c in checks:
        if c not in VALID_CHECKS:
            _fail(path + ".checks", f"unknown check '{c}'")
        if mode == "composed" and c in AVERAGED_CHECKS:
            _fail(
                path + ".checks",
                f"'{c}' certifies averaged maps, and the composed map P_A P_B is not averaged",
            )
    rate_doc = _section(doc, "rate", path, ("b", "M"))
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
    schema = _value(doc, "schema", "", _string, SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema version '{schema}'")
    if doc.get("tolerances") is not None:
        _fail("tolerances", "check bounds are derived, not configured; remove this section")
    _known(doc, ("schema", "seed", "samples", "instances", "tolerances"), "")
    samples = _section(doc, "samples", "", ("space", "mapping", "minimality"))
    instances = tuple(
        instance_from_json(inst, f"instances[{i}]")
        for i, inst in enumerate(_value(doc, "instances", "", _list, []))
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
        text = Path(path).read_text(encoding="utf-8")  # as JSON requires
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8: {exc}")
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
