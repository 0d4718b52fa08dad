"""JSON instance files: parsing with invariant enforcement, and serialization.

Schema is inferred from the fields present:

* space      {"points": [...], "min_nbhd": {"p": ["p", "w"], ...}}
* metric     {"points": [...], "dist": [[...], ...]}
* embedding  {"ambient": <space>, "subset": [...]}
* setmap     {"domain": <space>, "codomain": <space>, "map": {"w": ["p"], ...}}
* functional {"space": <space>, "kind": "support", "min": true, "F": [...]}
             {"space": <space>, "kind": "density", "lambda": {"a": 0, "b": null}}
             {"space": <space>, "kind": "mean"}
             {"space": <space>, "kind": "table", "lo": 0, "hi": 1, "table": {...}}

Density weights accept numbers, null, or "-inf" for excluded points.  Table
functionals enumerate values on two-valued inputs only; keys are the
comma-joined names of the points at the high value.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .errors import InvariantViolation, ParseError
from .functionals import (
    NEG_INF,
    Functional,
    IdempotentDensity,
    MeanFunctional,
    SupportFunctional,
    TableFunctional,
)
from .setmaps import SetValuedMap, setmap
from .spaces import (
    FiniteTopSpace,
    MetricSpace,
    SubspaceEmbedding,
    from_minimal_basis,
)

Instance = (
    FiniteTopSpace | MetricSpace | SetValuedMap | Functional | SubspaceEmbedding
)


def read_json(path: str | Path) -> dict:
    """Read a file holding one JSON object."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path}: expected a JSON object")
    return data


def parse_instance(path: str | Path) -> Instance:
    """Load and validate one instance file."""
    return load_instance(read_json(path))


def load_instance(data: Any) -> Instance:
    """Build the instance object a JSON payload describes."""
    if not isinstance(data, dict):
        raise ParseError("instance must be a JSON object")
    if "kind" in data:
        return load_functional(data)
    if "map" in data:
        return load_setmap(data)
    if "ambient" in data:
        return load_embedding(data)
    if "dist" in data:
        return load_metric(data)
    if "min_nbhd" in data:
        return load_space(data)
    raise ParseError(f"fields {sorted(data)} match no known instance schema")


def _names(value: Any, where: str) -> list[str]:
    """A JSON list of point names; anything else is a ParseError at ``where``."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ParseError(f"{where} must be a list of point names")
    return value


def _number(value: Any, where: str) -> float:
    """A finite JSON number; booleans, strings and NaN are ParseErrors."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an integer beyond the float range
            x = math.inf
        if math.isfinite(x):
            return x
    raise ParseError(f"{where} must be a finite number, got {value!r}")


def _object(value: Any, where: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{where} must be an object")
    return value


def _point_keys(value: dict, points: Sequence[str], where: str) -> dict:
    """``value``, whose keys must all be among ``points``."""
    unknown = [k for k in value if k not in points]
    if unknown:
        raise ParseError(f"{where} names unknown points {unknown}")
    return value


def load_space(data: dict) -> FiniteTopSpace:
    _object(data, "space")
    nbhd = _object(data.get("min_nbhd"), "min_nbhd")
    if not nbhd:
        raise ParseError("min_nbhd must name at least one point")
    points = data.get("points")
    if "points" in data:
        _point_keys(nbhd, _names(points, "points"), "min_nbhd")
    for p, members in nbhd.items():
        _names(members, f"min_nbhd[{p}]")
    return from_minimal_basis(nbhd, points)


def load_metric(data: dict) -> MetricSpace:
    points = _names(data.get("points"), "points")
    if not points:
        raise ParseError("metric space needs a nonempty points list")
    try:
        dist = np.asarray(data["dist"], dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ParseError("dist must be a matrix of numbers") from None
    return MetricSpace(tuple(points), dist)


def load_embedding(data: dict) -> SubspaceEmbedding:
    ambient = load_space(data["ambient"])
    subset = _names(data.get("subset"), "subset")
    return SubspaceEmbedding(ambient, tuple(subset))


def load_setmap(data: dict) -> SetValuedMap:
    if "domain" not in data or "codomain" not in data:
        raise ParseError("setmap needs embedded domain and codomain spaces")
    domain = load_space(data["domain"])
    codomain = load_space(data["codomain"])
    images = _point_keys(_object(data.get("map"), "map"), domain.points, "map")
    for p, members in images.items():
        _names(members, f"map[{p}]")
    return setmap(domain, codomain, images)


def load_functional(data: dict) -> Functional:
    if "space" not in data:
        raise ParseError("functional needs an embedded space")
    space = load_space(data["space"])
    kind = data["kind"]
    if kind == "support":
        f = _names(data.get("F", []), "F")
        if not f:
            raise InvariantViolation("F.nonempty", "support set must be nonempty")
        is_min = data.get("min", True)
        if not isinstance(is_min, bool):
            raise ParseError(f"min must be true or false, got {is_min!r}")
        return SupportFunctional(space, "min" if is_min else "max", space.mask(f))
    if kind == "density":
        lam = _point_keys(_object(data.get("lambda"), "lambda"), space.points, "lambda")
        vals = []
        for p in space.points:
            v = lam.get(p)
            if v is None or v == "-inf":
                vals.append(NEG_INF)
            else:
                vals.append(_number(v, f"lambda[{p}]"))
        return IdempotentDensity(space, tuple(vals))
    if kind == "mean":
        return MeanFunctional(space)
    if kind == "table":
        table_in = _object(data.get("table", {}), "table")
        values = {}  # pattern bitmask -> value
        for key, val in table_in.items():
            mask = space.mask([s for s in key.split(",") if s])
            if mask in values:
                raise ParseError(f"table[{key}] repeats a pattern given earlier")
            values[mask] = _number(val, f"table[{key}]")
        if len(values) != 1 << space.n:
            raise InvariantViolation(
                "table.complete", "need one value per two-valued pattern"
            )
        lo = _number(data.get("lo"), "lo")
        hi = _number(data.get("hi"), "hi")
        return TableFunctional(space, lo, hi, tuple(values[m] for m in range(1 << space.n)))
    raise ParseError(f"unknown functional kind {kind!r}")


# -- serialization -------------------------------------------------------------


def space_to_json(space: FiniteTopSpace) -> dict:
    return {
        "points": list(space.points),
        "min_nbhd": {p: list(space.ids(m)) for p, m in zip(space.points, space.min_nbhd)},
    }


def embedding_to_json(e: SubspaceEmbedding) -> dict:
    return {"ambient": space_to_json(e.ambient), "subset": list(e.subset)}


def setmap_to_json(r: SetValuedMap) -> dict:
    return {
        "domain": space_to_json(r.domain),
        "codomain": space_to_json(r.codomain),
        "map": {p: list(ids) for p, ids in r.as_dict().items()},
    }


def functional_to_json(mu: Functional) -> dict:
    """The file form of ``mu``; a functional without one, such as any
    functional on a metric space, is a ParseError."""
    if isinstance(mu.space, FiniteTopSpace):
        space = space_to_json(mu.space)
        if isinstance(mu, SupportFunctional):
            return {
                "space": space,
                "kind": "support",
                "min": mu.kind == "min",
                "F": list(mu.space.ids(mu.member)),
            }
        if isinstance(mu, IdempotentDensity):
            return {
                "space": space,
                "kind": "density",
                "lambda": {
                    p: ("-inf" if v == NEG_INF else v)
                    for p, v in zip(mu.space.points, mu.lam)
                },
            }
        if isinstance(mu, MeanFunctional):
            return {"space": space, "kind": "mean"}
        if isinstance(mu, TableFunctional):
            return {
                "space": space,
                "kind": "table",
                "lo": mu.lo,
                "hi": mu.hi,
                "table": {",".join(mu.space.ids(m)): v for m, v in enumerate(mu.table)},
            }
    raise ParseError(f"functional {mu.label!r} has no file form")
