"""Exact-arithmetic calculus for Virasoro modules, logarithmic fusion,
and a logarithmic extension of the Witt algebra.

Everything computes over the rationals, or over rational polynomials in
the symbolic parameters c, h, b.  No floating point anywhere.

`import virlog` loads only the error types and serialization; every other
public name loads its submodule on first use (PEP 562), so a run compiles
only the submodules it uses.
"""

from .errors import (
    DomainError,
    ParseError,
    ShapeError,
    SymbolError,
    VirlogError,
)

# bound here, not on first use: importing the submodule virlog.serialize
# sets the package attribute `serialize` to that module
from .serialize import deserialize, serialize

__version__ = "0.1.0"

_HOMES = {
    "errors": ("DomainError", "ParseError", "ShapeError", "SymbolError", "VirlogError"),
    "fusion": (
        "EulerOperator",
        "IndicialData",
        "LogSeries",
        "determine_b",
        "fixture_polynomial",
        "fusion_indicial",
        "ope_level2_coefficient",
        "solve_euler",
    ),
    "linalg": ("ExactMatrix",),
    "modules": (
        "DensityModule",
        "JordanVermaModule",
        "ModuleVector",
        "basis_vector",
        "check_hom_pair",
        "density_action",
        "density_apply",
        "kac_weight",
        "level_basis",
        "radical_dimension",
        "shapovalov_determinant",
        "shapovalov_matrix",
        "singular_vectors",
    ),
    "polynomial": ("MultiPoly", "UniPoly", "sym"),
    "rational": ("parse_rational", "render_rational"),
    "serialize": ("deserialize", "serialize"),
    "virasoro": ("UEAElement", "bracket_modes"),
    "wlog": (
        "CENTRAL",
        "LaurentField",
        "WLogElement",
        "antiinvolution",
        "antiinvolution_word",
        "check_jacobi",
        "cocycle_closed_form",
        "cocycle_residue",
        "vacuum_expectation",
        "wlog_bracket",
        "wlog_deviations",
        "wlog_pairing",
    ),
}
_HOME = {name: home for home, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    """Import the home submodule of a public name and keep the name here."""
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, shows in -X importtime
    value = getattr(__import__(f"{__name__}.{home}", fromlist=[name]), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
