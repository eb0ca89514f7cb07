import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmotlab import Coupling, DiscreteMarginal, ProductSpace
from mmotlab.io import (
    coupling_from_dict,
    coupling_to_dict,
    dump_coupling,
    dump_marginal,
    load_coupling,
    load_maps,
    load_marginal,
    marginal_from_dict,
    marginal_to_dict,
)


def _space():
    m = DiscreteMarginal([0.0, 1.0, 2.0], [0.25, 0.25, 0.5])
    return ProductSpace([m, m])


def test_marginal_round_trip_bit_exact():
    m = DiscreteMarginal([0.1, 0.2, 0.7], [1 / 3, 1 / 3, 1 / 3])
    back = marginal_from_dict(json.loads(json.dumps(marginal_to_dict(m))))
    assert np.array_equal(back.points, m.points)
    assert np.array_equal(back.weights, m.weights)


def test_marginal_dimension_mismatch():
    data = {"d": 2, "points": [[0.0], [1.0]], "weights": [0.5, 0.5]}
    with pytest.raises(ValueError, match="dimension"):
        marginal_from_dict(data)


@pytest.mark.parametrize("key", ["d", "points", "weights"])
def test_marginal_missing_key_is_named(key, tmp_path):
    data = {"d": 1, "points": [[0.0], [1.0]], "weights": [0.5, 0.5]}
    del data[key]
    with pytest.raises(ValueError, match=f"'{key}'"):
        marginal_from_dict(data)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=f"m.json: marginal has no '{key}' key"):
        load_marginal(path)


_IDENT = {"0": 0, "1": 1, "2": 2}


@pytest.mark.parametrize("kind, data, key", [
    ("marginal", [[0.0], [1.0]], "d"),
    ("marginal", {"d": 1, "points": [0.0, 1.0], "weights": [0.5, 0.5]}, "points"),
    ("marginal", {"d": 1, "points": [[0.0], [1.0]], "weights": "even"}, "weights"),
    ("coupling", {"plan": []}, "entries"),
    ("coupling", {"entries": [[0, 0]]}, "idx"),
    ("coupling", {"entries": [{"idx": [0, 0]}]}, "mass"),
    ("coupling", {"entries": [{"idx": [[0], 0], "mass": 1.0}]}, "idx"),
    ("coupling", {"entries": [{"idx": [0, 0], "mass": "1"}]}, "mass"),
    ("maps", {"maps": {"H": _IDENT, "K": _IDENT}}, "maps"),
    ("maps", {"maps": [[_IDENT, _IDENT]]}, "H"),
    ("maps", {"maps": [{"H": _IDENT, "K": [0, 1, 2]}]}, "K"),
    ("maps", {"maps": [{"H": {"x": 0}, "K": _IDENT}]}, "H"),
    ("maps", {"maps": [{"H": _IDENT, "K": {"0": [1]}}]}, "K"),
    ("maps", {"maps": [{"H": _IDENT, "K": _IDENT}], "theta": [1.0]}, "theta"),
    # JSON true and false are not numbers, though Python's bool is an int
    ("marginal", {"d": True, "points": [[0.0], [1.0]], "weights": [0.5, 0.5]}, "d"),
    ("marginal", {"d": 1, "points": [[0.0], [1.0]], "weights": [True, False]}, "weights"),
    ("marginal", {"d": 1, "points": [[True], [False]], "weights": [0.5, 0.5]}, "points"),
    ("coupling", {"entries": [{"idx": [True, True], "mass": 1.0}]}, "idx"),
    ("coupling", {"entries": [{"idx": [0, 0], "mass": True}]}, "mass"),
    ("maps", {"maps": [{"H": {**_IDENT, "0": True}, "K": _IDENT}]}, "H"),
    ("maps", {"maps": [{"H": _IDENT, "K": {**_IDENT, "2": False}}]}, "K"),
    ("maps", {"maps": [{"H": _IDENT, "K": _IDENT}], "theta": {"0": True}}, "theta"),
])
def test_malformed_file_names_the_path_and_the_key(kind, data, key, tmp_path):
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(data))
    load = {"marginal": load_marginal, "maps": load_maps,
            "coupling": lambda p: load_coupling(p, _space())}[kind]
    with pytest.raises(ValueError) as err:
        load(path)
    assert str(err.value).startswith(f"{path}: ") and repr(key) in str(err.value)


def test_maps_file_round_trip(tmp_path):
    path = tmp_path / "maps.json"
    path.write_text(json.dumps({"maps": [{"H": _IDENT, "K": {"0": 2, "1": 0, "2": 1}}],
                                "theta": {"2": 1.5}}))
    maps, theta = load_maps(path)
    assert maps == [({0: 0, 1: 1, 2: 2}, {0: 2, 1: 0, 2: 1})]
    assert theta == {2: 1.5}


def test_coupling_round_trip_bit_exact():
    space = _space()
    plan = Coupling({(0, 1): 1 / 3, (1, 2): 1 / 3, (2, 0): 1 / 3}, space)
    back = coupling_from_dict(json.loads(json.dumps(coupling_to_dict(plan))), space)
    assert dict(back.entries) == dict(plan.entries)


def test_file_round_trip(tmp_path):
    space = _space()
    plan = Coupling({(0, 0): 0.25, (1, 1): 0.25, (2, 2): 0.5}, space)
    mpath = tmp_path / "m.json"
    cpath = tmp_path / "c.json"
    dump_marginal(space.axes[0], mpath)
    dump_coupling(plan, cpath)
    m = load_marginal(mpath)
    assert np.array_equal(m.points, space.axes[0].points)
    back = load_coupling(cpath, space)
    assert dict(back.entries) == dict(plan.entries)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.floats(
            min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
        ),
        min_size=2,
        max_size=6,
        unique=True,
    )
)
def test_round_trip_preserves_arbitrary_doubles(coords):
    n = len(coords)
    m = DiscreteMarginal(coords, np.full(n, 1.0 / n))
    back = marginal_from_dict(json.loads(json.dumps(marginal_to_dict(m))))
    assert np.array_equal(back.points, m.points)
    assert np.array_equal(back.weights, m.weights)
