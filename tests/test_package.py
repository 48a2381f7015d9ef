"""The package's public surface, and what importing it loads.

`import virlog` binds the error types and serialization; every other
public name imports its home submodule on first use.  The footprint tests
run in a fresh interpreter, since this one has loaded every submodule
already.
"""

import importlib
import json
import os
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

import virlog
from virlog.fusion import EulerOperator, LogSeries
from virlog.linalg import ExactMatrix
from virlog.modules import JordanVermaModule, basis_vector
from virlog.polynomial import UniPoly, sym
from virlog.serialize import _parsers, serialize
from virlog.virasoro import UEAElement
from virlog.wlog import wlog_bracket

SRC = Path(__file__).resolve().parent.parent / "src"


def fresh(code: str, stdin: str = ""):
    """Run code in a new interpreter that imports virlog from src/ and
    return the JSON it prints."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], input=stdin, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), check=True)
    return json.loads(proc.stdout)


LOADED = "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'virlog')))"


@pytest.mark.parametrize("code, loaded, not_loaded", [
    ("import virlog",
     {"virlog", "virlog.errors", "virlog.rational", "virlog.serialize"}, None),
    ("from virlog import wlog_bracket",
     None, {"virlog.modules", "virlog.linalg", "virlog.fusion"}),
    ("import virlog.cli",
     None, {"virlog.fixtures", "virlog.virasoro"}),
], ids=["package", "wlog_bracket", "cli"])
def test_import_loads_only_what_is_used(code, loaded, not_loaded):
    found = set(fresh(f"import json, sys\n{code}\n{LOADED}"))
    if loaded is not None:
        assert found == loaded
    if not_loaded is not None:
        assert not found & not_loaded


def test_every_public_name_is_its_home_modules_object():
    for name in virlog.__all__:
        home = importlib.import_module(f"virlog.{virlog._HOME[name]}")
        assert getattr(virlog, name) is getattr(home, name), name
        owner = getattr(getattr(virlog, name), "__module__", home.__name__)
        assert owner == home.__name__, name


def test_serialize_stays_the_function_after_the_cli_loads():
    assert fresh(
        "import json, types\n"
        "import virlog.cli\n"
        "from virlog import serialize\n"
        "print(json.dumps([isinstance(serialize, types.ModuleType), serialize.__name__]))"
    ) == [False, "serialize"]
    assert not isinstance(virlog.serialize, types.ModuleType)


def test_star_import_and_dir_cover_all():
    namespace = {}
    exec("from virlog import *", namespace)
    assert set(virlog.__all__) <= namespace.keys()
    assert set(virlog.__all__) <= set(dir(virlog))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'virlog' has no attribute 'no_such_name'$"):
        virlog.no_such_name  # noqa: B018
    assert not hasattr(virlog, "no_such_name")


def test_deserialize_round_trips_every_kind_in_a_fresh_interpreter():
    mod = JordanVermaModule(Fraction(1, 2), Fraction(-3, 4), 2)
    values = {
        "rational": Fraction(-7, 3),
        "multipoly": 3 * sym("h") * sym("c") - Fraction(7, 2) * sym("h") + 1,
        "unipoly": UniPoly("x", [Fraction(1), Fraction(0), Fraction(-2, 5)]),
        "matrix": ExactMatrix([[Fraction(1), sym("h")], [Fraction(0), Fraction(2, 3)]]),
        "module": mod,
        "module-vector": basis_vector(mod, (1, 1), 1),
        "enveloping": UEAElement.generator(-2).bracket(UEAElement.generator(1)),
        "euler-operator": EulerOperator({(0, 2): Fraction(1), (1, 1): Fraction(3, 2)}),
        "log-series": LogSeries({(Fraction(3, 4), 1): Fraction(1, 3) * sym("b")}),
        "wlog-element": wlog_bracket((-1, 2), (1, -2), "residue"),
    }
    assert values.keys() == _parsers().keys()
    documents = {kind: serialize(value, "json") for kind, value in values.items()}
    assert fresh(
        "import json, sys\n"
        "import virlog\n"
        "docs = json.load(sys.stdin)\n"
        "print(json.dumps({kind: virlog.serialize(virlog.deserialize(doc, kind), 'json')\n"
        "                  for kind, doc in docs.items()}))",
        stdin=json.dumps(documents),
    ) == documents
