"""The README's code runs as printed and shows what its comments claim."""

import contextlib
import io
import re
from pathlib import Path

from mmotlab import Coulomb1D, check_c_monotone, is_vertex

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs():
    text = README.read_text()
    tour = text[text.index("## Library tour"):]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    names: dict = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), names)
    assert out.getvalue().splitlines()[2:] == ["[]", "True"]
    result, space = names["result"], names["space"]
    v = result.primal_value
    assert abs(v - result.dual_value) <= 1e-9 * (1 + abs(v))
    assert check_c_monotone(Coulomb1D(), result.plan.support(), space) == []
    assert is_vertex(result.plan).is_extremal is True
