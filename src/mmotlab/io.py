"""JSON files: marginals and couplings (read and written), ``thm41`` maps (read).

Masses and coordinates are written with 17 significant digits, which
round-trips IEEE doubles bit-exactly.  A file with a missing key or a value
of the wrong JSON type is a ``ValueError`` that starts with the file's path
and names the key.
"""

from __future__ import annotations

import json

from .core import Coupling, DiscreteMarginal, ProductSpace


#: the JSON types of input values, by the names errors give them
_KINDS = {"array": list, "object": dict, "number": (int, float), "integer": int}


def _is(value, kind: str) -> bool:
    """Whether ``value`` is a JSON ``kind``; true and false are not numbers."""
    if kind == "number array":
        return isinstance(value, list) and all(_is(v, "number") for v in value)
    return isinstance(value, _KINDS[kind]) and not isinstance(value, bool)


def _get(data, key: str, kind: str, what: str, items: str | None = None):
    """``data[key]``, a JSON ``kind`` (of ``items`` values); ``what`` names ``data``."""
    if not isinstance(data, dict) or key not in data:
        raise ValueError(f"{what} has no {key!r} key")
    value = data[key]
    inner = value.values() if isinstance(value, dict) else value
    if not _is(value, kind) or (items and not all(_is(v, items) for v in inner)):
        of = f" of {items} values" if items else ""
        raise ValueError(f"{what} key {key!r} is not a JSON {kind}{of}")
    return value


def _num(x: float) -> float:
    # 17 significant digits reproduce the exact double on parse
    return float(f"{float(x):.17g}")


def marginal_to_dict(marginal: DiscreteMarginal) -> dict:
    return {
        "d": marginal.d,
        "points": [[_num(v) for v in pt] for pt in marginal.points],
        "weights": [_num(w) for w in marginal.weights],
    }


def marginal_from_dict(data: dict) -> DiscreteMarginal:
    d = _get(data, "d", "number", "marginal")
    points = _get(data, "points", "array", "marginal", items="number array")
    weights = _get(data, "weights", "array", "marginal", items="number")
    if any(len(pt) != d for pt in points):
        raise ValueError("point dimension disagrees with the declared d")
    return DiscreteMarginal(points, weights)


def coupling_to_dict(plan: Coupling) -> dict:
    return {
        "entries": [
            {"idx": list(idx), "mass": _num(mass)}
            for idx, mass in sorted(plan.entries.items())
        ]
    }


def coupling_from_dict(data: dict, space: ProductSpace) -> Coupling:
    entries = {}
    for j, entry in enumerate(_get(data, "entries", "array", "coupling")):
        idx = _get(entry, "idx", "array", f"coupling entry {j}", items="integer")
        entries[tuple(idx)] = _get(entry, "mass", "number", f"coupling entry {j}")
    return Coupling(entries, space)


def _index_map(data, key: str, items: str, what: str) -> dict:
    """``data[key]``, an object of JSON ``items`` values keyed by point index."""
    table = _get(data, key, "object", what, items)
    if not all(k.isdecimal() for k in table):
        raise ValueError(f"{what} key {key!r} has a key that is not a point index")
    return {int(k): v for k, v in table.items()}


def _maps_from_dict(data: dict) -> tuple[list, dict | None]:
    """The (H, K) index-map pairs and the optional theta of a ``thm41`` maps file."""
    maps = [tuple(_index_map(m, key, "integer", f"maps entry {j}") for key in ("H", "K"))
            for j, m in enumerate(_get(data, "maps", "array", "maps file"))]
    theta = _index_map(data, "theta", "number", "maps file") if "theta" in data else None
    return maps, theta


def _load(path, parse):
    """``parse`` of the JSON in ``path``; its ValueErrors start with the path."""
    with open(path) as fh:
        try:
            return parse(json.load(fh))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def dump_marginal(marginal: DiscreteMarginal, path) -> None:
    with open(path, "w") as fh:
        json.dump(marginal_to_dict(marginal), fh, indent=1)


def load_marginal(path) -> DiscreteMarginal:
    return _load(path, marginal_from_dict)


def dump_coupling(plan: Coupling, path) -> None:
    with open(path, "w") as fh:
        json.dump(coupling_to_dict(plan), fh, indent=1)


def load_coupling(path, space: ProductSpace) -> Coupling:
    return _load(path, lambda data: coupling_from_dict(data, space))


def load_maps(path) -> tuple[list, dict | None]:
    return _load(path, _maps_from_dict)
