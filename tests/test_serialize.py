"""Round-trip and determinism tests for the serialization layer.

Every public result type must survive serialize -> deserialize by kind,
and identical inputs must produce identical bytes.
"""

import json
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from virlog.errors import DomainError, ParseError
from virlog.fixtures import run_fixture
from virlog.fusion import EulerOperator, LogSeries, fusion_indicial
from virlog.linalg import ExactMatrix
from virlog.modules import JordanVermaModule, basis_vector, shapovalov_matrix
from virlog.polynomial import MAX_UNIPOLY_DEGREE, UniPoly, sym
from virlog.serialize import _dumps, deserialize, serialize, to_document, to_text
from virlog.virasoro import UEAElement
from virlog.wlog import wlog_bracket

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=10**4)


def roundtrip(value, kind):
    return deserialize(serialize(value, "json"), kind)


# -- scalars ----------------------------------------------------------------


def test_rational_text_and_json_forms():
    assert serialize(Fraction(5, 2), "text") == "5/2"
    assert serialize(Fraction(5, 2), "json") == '"5/2"'
    assert serialize(Fraction(-7), "text") == "-7"


@given(rationals)
def test_rational_roundtrip(q):
    assert roundtrip(q, "rational") == q


def test_bool_and_none_forms():
    assert to_text(True) == "true"
    assert to_text(False) == "false"
    assert to_text(None) == ""
    assert to_document(True) is True
    assert to_document(None) is None


def test_int_serializes_as_rational():
    assert serialize(3, "text") == "3"
    assert serialize(3, "json") == '"3"'


def test_unknown_format_rejected():
    with pytest.raises(DomainError):
        serialize(Fraction(1), "yaml")


def test_unknown_kind_rejected():
    with pytest.raises(DomainError):
        deserialize('"1"', "no-such-kind")


# -- structured types -------------------------------------------------------


@given(st.lists(rationals, min_size=1, max_size=6))
def test_unipoly_roundtrip(coeffs):
    p = UniPoly("x", coeffs)
    assert roundtrip(p, "unipoly") == p


def test_multipoly_roundtrip():
    h, c = sym("h"), sym("c")
    p = 3 * h * h * c - Fraction(7, 2) * h + 1
    assert roundtrip(p, "multipoly") == p


def test_matrix_roundtrip_symbolic():
    mod = JordanVermaModule("c", "h", 2)
    m = shapovalov_matrix(mod, 2)
    assert roundtrip(m, "matrix") == m


@given(st.integers(1, 3), st.integers(0, 3))
def test_module_and_vector_roundtrip(jordan, level):
    mod = JordanVermaModule(Fraction(1, 2), Fraction(-3, 4), jordan)
    assert roundtrip(mod, "module") == mod
    vec = basis_vector(mod, (1,) * level, 1)
    assert roundtrip(vec, "module-vector") == vec


def test_enveloping_roundtrip():
    e = UEAElement.generator(-2).bracket(UEAElement.generator(1))
    assert roundtrip(e, "enveloping") == e


def test_euler_operator_and_series_roundtrip():
    op = EulerOperator(
        {(0, 2): Fraction(1), (1, 1): Fraction(3, 2), (2, 0): Fraction(-15, 16)}
    )
    assert roundtrip(op, "euler-operator") == op
    series = LogSeries({(Fraction(3, 4), 1): Fraction(1, 3) * sym("b")})
    assert roundtrip(series, "log-series") == series


def test_wlog_element_roundtrip():
    e = wlog_bracket((-1, 2), (1, -2), "residue")
    assert roundtrip(e, "wlog-element") == e


# -- determinism ------------------------------------------------------------


def test_byte_determinism_on_rebuilt_values():
    def build():
        rng = random.Random(20260822)
        h = sym("h")
        entries = [
            [
                Fraction(rng.randint(-9, 9)) + rng.randint(0, 3) * h
                for _ in range(3)
            ]
            for _ in range(3)
        ]
        return ExactMatrix(entries)

    a, b = serialize(build(), "json"), serialize(build(), "json")
    assert a == b
    assert serialize(build(), "text") == serialize(build(), "text")


def test_json_output_is_valid_json_with_sorted_keys():
    data = fusion_indicial(Fraction(-2), Fraction(-1, 8), Fraction(-1, 8))
    doc = serialize(data, "json")
    parsed = json.loads(doc)
    assert parsed["logarithmic"] is True
    assert list(parsed) == sorted(parsed)


def test_text_dict_lines_sorted():
    out = to_text({"z": Fraction(1), "a": Fraction(2)})
    assert out == "a: 2\nz: 1"


# -- the JSON emitter against json.dumps ------------------------------------

json_strings = st.text(st.one_of(
    st.characters(),
    st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "\u2028", "😀"]),
))
json_documents = st.recursive(
    st.one_of(json_strings, st.integers(), st.integers(-(10**400), 10**400),
              st.booleans(), st.none()),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(json_strings, children, max_size=4),
    ),
    max_leaves=30,
)


def oracle(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


@settings(max_examples=200)
@given(json_documents)
def test_emitter_matches_json_dumps(doc):
    assert _dumps(doc) == oracle(doc)


@pytest.mark.parametrize("doc", [
    {"a": [Fraction(1, 2)]}, [{"x": {1, 2}}], {"k": [[], {}, object()]},
])
def test_emitter_rejects_non_json_types(doc):
    with pytest.raises(TypeError):
        oracle(doc)
    with pytest.raises(TypeError):
        _dumps(doc)


def _one_value_of_each_kind():
    h, c = sym("h"), sym("c")
    mod = JordanVermaModule(Fraction(1, 2), Fraction(-3, 4), 2)
    return {
        "rational": Fraction(-7, 3),
        "multipoly": 3 * h * h * c - Fraction(7, 2) * h + 1,
        "unipoly": UniPoly("x", [Fraction(1), Fraction(0), Fraction(-5, 2)]),
        "matrix": shapovalov_matrix(JordanVermaModule("c", "h", 2), 2),
        "module": mod,
        "module-vector": basis_vector(mod, (1, 1), 1),
        "enveloping": UEAElement.generator(-2).bracket(UEAElement.generator(1)),
        "euler-operator": EulerOperator({(0, 2): Fraction(1), (1, 1): Fraction(3, 2)}),
        "log-series": LogSeries({(Fraction(3, 4), 1): Fraction(1, 3) * sym("b")}),
        "wlog-element": wlog_bracket((-1, 2), (1, -2), "residue"),
    }


@pytest.mark.parametrize("kind", sorted(_one_value_of_each_kind()))
def test_serialize_json_matches_json_dumps_for_every_kind(kind):
    value = _one_value_of_each_kind()[kind]
    doc = serialize(value, "json")
    assert doc == oracle(to_document(value))
    assert deserialize(doc, kind) == value
    assert serialize(deserialize(doc, kind), "json") == doc


# -- integer fields ---------------------------------------------------------

_MODULE = {"c": "1", "h": "1", "jordan": 1}


def _vector(level=1, word=(1,), top=1):
    return {"module": _MODULE, "level": level,
            "terms": [{"word": list(word), "top": top, "coeff": "1"}]}


@pytest.mark.parametrize("kind, doc", [
    ("multipoly", {"vars": ["b"], "terms": [{"coeff": "1", "exps": [1.5]}]}),
    ("multipoly", {"vars": ["b"], "terms": [{"coeff": "1", "exps": [True]}]}),
    ("unipoly", {"vars": ["x"], "terms": [{"coeff": "1", "exps": [1.5]}]}),
    ("unipoly", {"vars": ["x"], "terms": [{"coeff": "1", "exps": [-1]}]}),
    ("unipoly", {"vars": ["x"], "terms": [{"coeff": "1", "exps": [None]}]}),
    ("module", {**_MODULE, "jordan": 2.5}),
    ("module", {**_MODULE, "jordan": True}),
    ("module-vector", _vector(level=1.5)),
    ("module-vector", _vector(level=True)),
    ("module-vector", _vector(top=True)),
    ("module-vector", _vector(word=[True])),
    ("enveloping", [{"word": [1.5], "cpow": 0, "coeff": "1"}]),
    ("enveloping", [{"word": [-1], "cpow": True, "coeff": "1"}]),
    ("wlog-element", {"central": "0", "terms": [{"i": True, "m": 1, "coeff": "1"}]}),
    ("wlog-element", {"central": "0", "terms": [{"i": 1, "m": 1.5, "coeff": "1"}]}),
], ids=["multipoly-1.5", "multipoly-true", "unipoly-1.5", "unipoly-negative", "unipoly-null",
        "jordan-2.5", "jordan-true", "level-1.5", "level-true", "top-true", "word-true",
        "enveloping-mode-1.5", "enveloping-cpow-true", "wlog-i-true", "wlog-m-1.5"])
def test_non_integer_fields_are_refused(kind, doc):
    with pytest.raises(ParseError):
        deserialize(json.dumps(doc), kind)


def test_unipoly_exponent_is_capped_before_allocating():
    def doc(exponent):
        return json.dumps({"vars": ["x"], "terms": [{"coeff": "1", "exps": [exponent]}]})

    at_cap = deserialize(doc(MAX_UNIPOLY_DEGREE), "unipoly")
    assert at_cap == UniPoly("x", [0] * MAX_UNIPOLY_DEGREE + [1])
    for exponent in (MAX_UNIPOLY_DEGREE + 1, 10**7):
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match=rf"must be in 0\.\.{MAX_UNIPOLY_DEGREE}$"):
                deserialize(doc(exponent), "unipoly")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a dense list of 10^7 coefficients would take 76 MiB
        assert peak < 2**20


def test_integral_spellings_of_integer_fields_are_read_as_integers():
    # int() reads a string or an integral float exactly, as the euler-solve
    # fields do: "jordan": "2" was refused before the integer check
    mod = deserialize(json.dumps({**_MODULE, "jordan": "2"}), "module")
    assert mod == JordanVermaModule(Fraction(1), Fraction(1), 2)
    assert type(mod.jordan) is int
    vec = deserialize(json.dumps(_vector(level=2.0, word=["1", 1])), "module-vector")
    assert vec == basis_vector(JordanVermaModule(Fraction(1), Fraction(1)), (1, 1))


def test_serialize_json_matches_json_dumps_for_the_report_document():
    # the document of `virlog report --json`: one row per fixture
    doc = [run_fixture(fid).to_json() for fid in ("06b-determine-b", "09g-wlog-vertical-center")]
    assert serialize(doc, "json") == oracle(to_document(doc))
