"""Uniform text/JSON serialization for every public result type.

Text output uses each type's render method; JSON output uses its to_json
schema.  Both are byte-deterministic: dict keys are emitted sorted and
every rational prints in lowest terms as "p/q".
"""

from __future__ import annotations

import functools
import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .errors import DomainError
from .rational import parse_rational, render_rational


def to_document(value):
    """Plain JSON-serializable object for a public result value."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (Fraction, int)):
        return render_rational(Fraction(value))
    if isinstance(value, str):
        return value
    if isinstance(value, (list, tuple)):
        return [to_document(v) for v in value]
    if isinstance(value, dict):
        return {str(k): to_document(v) for k, v in value.items()}
    to_json = getattr(value, "to_json", None)
    if to_json is not None:
        return to_json()
    raise DomainError(f"cannot serialize {type(value).__name__} to JSON")


def to_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, (Fraction, int)):
        return render_rational(Fraction(value))
    if isinstance(value, str):
        return value
    if isinstance(value, (list, tuple)):
        return "\n".join(to_text(v) for v in value)
    if isinstance(value, dict):
        return "\n".join(
            f"{k}: {to_text(v)}"
            for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))
        )
    render = getattr(value, "render", None)
    if render is not None:
        return render()
    raise DomainError(f"cannot serialize {type(value).__name__} to text")


def _dumps(doc, pad: str = "\n") -> str:
    """json.dumps(doc, indent=2, sort_keys=True) for a document of str,
    int, bool, None, lists and str-keyed dicts.  json.dumps
    uses its pure-Python encoder whenever indent is set; this writes the
    same bytes, quoting strings with the C function json.dumps itself uses.
    pad is the newline and indent that close the current container."""
    if isinstance(doc, str):
        return encode_basestring_ascii(doc)
    if isinstance(doc, dict):
        if not doc:
            return "{}"
        inner = pad + "  "
        items = []
        for key in sorted(doc):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(encode_basestring_ascii(key) + ": " + _dumps(doc[key], inner))
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(doc, list):
        if not doc:
            return "[]"
        inner = pad + "  "
        return "[" + inner + ("," + inner).join([_dumps(v, inner) for v in doc]) + pad + "]"
    if doc is None:
        return "null"
    if doc is True:
        return "true"
    if doc is False:
        return "false"
    if isinstance(doc, int):
        return int.__repr__(doc)
    raise TypeError(f"Object of type {type(doc).__name__} is not JSON serializable")


def serialize(value, format: str = "text") -> str:
    if format == "json":
        return _dumps(to_document(value))
    if format == "text":
        return to_text(value)
    raise DomainError(f"unknown serialization format {format!r}")


@functools.cache
def _parsers() -> dict:
    """The from_json parser of each value kind.  Their modules load on the
    first call, so that serializing needs none of them."""
    from .fusion import EulerOperator, LogSeries
    from .linalg import ExactMatrix
    from .modules import JordanVermaModule, ModuleVector
    from .polynomial import MultiPoly, UniPoly
    from .virasoro import UEAElement
    from .wlog import WLogElement

    return {
        "rational": parse_rational,
        "multipoly": MultiPoly.from_json,
        "unipoly": UniPoly.from_json,
        "matrix": ExactMatrix.from_json,
        "module": JordanVermaModule.from_json,
        "module-vector": ModuleVector.from_json,
        "enveloping": UEAElement.from_json,
        "euler-operator": EulerOperator.from_json,
        "log-series": LogSeries.from_json,
        "wlog-element": WLogElement.from_json,
    }


def deserialize(document: str, kind: str):
    """Inverse of serialize(value, "json") given the value's kind."""
    try:
        parser = _parsers()[kind]
    except KeyError:
        raise DomainError(f"unknown value kind {kind!r}") from None
    doc = json.loads(document)
    return parser(doc)
