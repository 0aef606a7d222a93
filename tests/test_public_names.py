"""The public names that the README example and the traced benchmark use
still resolve, so that trimming the package's exports cannot break either
without failing here."""

import importlib.util
import re
from pathlib import Path

import pytest

from sparsebump import lab, prooftrace, sparse

ROOT = Path(__file__).resolve().parent.parent


def test_readme_example_runs():
    [block] = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    *setup, t_line, passed_line = block.strip().splitlines()
    namespace = {}
    exec("\n".join(setup), namespace)
    # the last two lines are expressions, each with its value in a comment
    assert eval(t_line.split("#")[0], namespace) == pytest.approx(4.596411629442935, rel=1e-12)
    assert eval(passed_line.split("#")[0], namespace) is True


def test_benchmark_bindings_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_layers", ROOT / "perfbench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    modules = {"lab": lab, "prooftrace": prooftrace, "sparse": sparse}
    missing = [f"{ns}.{name}" for ns, name, _ in layers.BINDINGS if not callable(getattr(modules[ns], name, None))]
    assert missing == []
    assert {ns for ns, _, _ in layers.BINDINGS} == set(modules)
