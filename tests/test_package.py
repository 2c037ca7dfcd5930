"""The package's public surface and its modules' imports."""
import ast
import pathlib

import pytest

import lad

PUBLIC = [
    "Atom",
    "AtomBoundExceeded",
    "Citation",
    "Context",
    "ContextFormatError",
    "ContextTables",
    "ContextTooWide",
    "DEFAULT_ATOM_BOUND",
    "DeniabilityVariant",
    "EmptyInputError",
    "ExtAnd",
    "ExtImp",
    "ExtNeg",
    "ExtOr",
    "FALSUM",
    "Falsum",
    "Formula",
    "IntAnd",
    "IntImp",
    "IntNeg",
    "IntOr",
    "LayerError",
    "ParseError",
    "ProofDoc",
    "ProofLine",
    "ProofParseError",
    "Subproof",
    "UnknownAtomError",
    "Verdict",
    "Violation",
    "World",
    "WorldLimitExceeded",
    "asserts",
    "atoms_of",
    "check",
    "check_characteristic",
    "check_characteristic_set",
    "countermodel",
    "denies",
    "diamond",
    "entails",
    "equivalent",
    "evaluate",
    "format_context",
    "format_formula",
    "is_l_formula",
    "is_persistent",
    "is_safe",
    "match_diamond",
    "match_plus",
    "mu_c",
    "nnf",
    "parse",
    "parse_context",
    "parse_proof",
    "persistence_witness",
    "plus_disj",
    "sigma_w",
    "size",
    "strongly_equivalent",
    "truth",
    "verify_sound",
    "weak_negate",
    "world_from_index",
    "xi_x",
]

PACKAGE = pathlib.Path(lad.__file__).resolve().parent


def test_public_names_are_pinned_and_resolve():
    assert lad.__all__ == sorted(PUBLIC)
    assert len(set(lad.__all__)) == len(lad.__all__)
    for name in lad.__all__:
        getattr(lad, name)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        lad.no_such_name


def _imported_names(tree):
    """The names bound by the module's top-level imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree):
    """Every name the module reads, annotations included, quoted or not."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return used


def test_no_module_has_an_unused_import():
    unused = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py" and path.parent == PACKAGE:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        idle = _imported_names(tree) - _used_names(tree)
        if idle:
            unused[str(path.relative_to(PACKAGE))] = sorted(idle)
    assert unused == {}
