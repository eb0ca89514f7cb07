"""JSON serialization for marginals and couplings.

Masses and coordinates are written with 17 significant digits, which
round-trips IEEE doubles bit-exactly.
"""

from __future__ import annotations

import json

from .core import Coupling, DiscreteMarginal, ProductSpace


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
    for key in ("d", "points", "weights"):
        if key not in data:
            raise ValueError(f"marginal has no {key!r} key")
    points = data["points"]
    if any(len(pt) != data["d"] for pt in points):
        raise ValueError("point dimension disagrees with the declared d")
    return DiscreteMarginal(points, data["weights"])


def coupling_to_dict(plan: Coupling) -> dict:
    return {
        "entries": [
            {"idx": list(idx), "mass": _num(mass)}
            for idx, mass in sorted(plan.entries.items())
        ]
    }


def coupling_from_dict(data: dict, space: ProductSpace) -> Coupling:
    entries = {tuple(e["idx"]): e["mass"] for e in data["entries"]}
    return Coupling(entries, space)


def dump_marginal(marginal: DiscreteMarginal, path) -> None:
    with open(path, "w") as fh:
        json.dump(marginal_to_dict(marginal), fh, indent=1)


def load_marginal(path) -> DiscreteMarginal:
    with open(path) as fh:
        data = json.load(fh)
    try:
        return marginal_from_dict(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def dump_coupling(plan: Coupling, path) -> None:
    with open(path, "w") as fh:
        json.dump(coupling_to_dict(plan), fh, indent=1)


def load_coupling(path, space: ProductSpace) -> Coupling:
    with open(path) as fh:
        return coupling_from_dict(json.load(fh), space)
