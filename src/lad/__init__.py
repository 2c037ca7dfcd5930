"""Bilateral assertibility and deniability over finite contexts.

The package splits into a formula layer (`formulas`, `syntax`), a
model layer (`contexts`, `semantics`, `transforms`) and a proof layer
(`proofs`, `corpus`), with a command line front end in `cli`.

``import lad`` loads none of these modules.  A public name, or one of
the modules below, is imported on its first use and then kept here
(PEP 562).
"""

# Each module and the public names it exports.
_EXPORTS = {
    "contexts": (
        "Context", "ContextFormatError", "DEFAULT_ATOM_BOUND", "DeniabilityVariant",
        "EmptyInputError", "World", "format_context", "parse_context", "world_from_index",
    ),
    "formulas": (
        "Atom", "ExtAnd", "ExtImp", "ExtNeg", "ExtOr", "FALSUM", "Falsum", "Formula",
        "IntAnd", "IntImp", "IntNeg", "IntOr", "LayerError", "atoms_of", "diamond",
        "is_l_formula", "is_safe", "match_diamond", "match_plus", "plus_disj", "size",
    ),
    "proofs": (
        "Citation", "ProofDoc", "ProofLine", "ProofParseError", "Subproof", "Verdict",
        "Violation", "check", "parse_proof", "verify_sound",
    ),
    "semantics": (
        "AtomBoundExceeded", "ContextTables", "ContextTooWide", "UnknownAtomError",
        "WorldLimitExceeded", "asserts", "check_characteristic", "check_characteristic_set",
        "countermodel", "denies", "entails", "equivalent", "evaluate", "is_persistent",
        "persistence_witness", "strongly_equivalent", "truth",
    ),
    "syntax": ("ParseError", "format_formula", "parse"),
    "transforms": ("mu_c", "nnf", "sigma_w", "weak_negate", "xi_x"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    from importlib import import_module

    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _MODULE_OF.keys())
