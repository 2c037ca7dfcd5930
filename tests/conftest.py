"""Shared strategies, enumerators and formula helpers for the test suite."""
from collections.abc import Iterator, Sequence

from hypothesis import strategies as st

from lad.contexts import Context
from lad.formulas import (
    Atom,
    ExtAnd,
    ExtImp,
    ExtNeg,
    ExtOr,
    FALSUM,
    Falsum,
    Formula,
    IntAnd,
    IntImp,
    IntNeg,
    IntOr,
    is_l_formula,
)

DEFAULT_ATOMS = ("p", "q", "r")


class PathError(Exception):
    """A subformula path does not exist in the target formula."""


def e_translate(phi: Formula) -> Formula:
    """Map every intensional connective to its extensional counterpart."""
    if isinstance(phi, (Atom, Falsum)):
        return phi
    if isinstance(phi, ExtNeg):
        return ExtNeg(e_translate(phi.operand))
    if isinstance(phi, IntNeg):
        return ExtNeg(e_translate(phi.operand))
    left, right = (e_translate(c) for c in phi.children())
    if isinstance(phi, (ExtAnd, IntAnd)):
        return ExtAnd(left, right)
    if isinstance(phi, (ExtOr, IntOr)):
        return ExtOr(left, right)
    return ExtImp(left, right)


def subformula_at(phi: Formula, path: Sequence[int]) -> Formula:
    node = phi
    for step in path:
        kids = node.children()
        if not 0 <= step < len(kids):
            raise PathError(f"no child {step} at {node!r}")
        node = kids[step]
    return node


def substitute(chi: Formula, path: Sequence[int], psi: Formula) -> Formula:
    """Replace the subformula of chi at the given child-index path by psi.

    Raises PathError for a dangling path and LayerError when the
    replacement would put a non-L formula under an extensional node.
    """
    path = tuple(path)
    if not path:
        return psi
    step, rest = path[0], path[1:]
    kids = chi.children()
    if not 0 <= step < len(kids):
        raise PathError(f"no child {step} at {chi!r}")
    new_kids = list(kids)
    new_kids[step] = substitute(kids[step], rest, psi)
    cls = type(chi)
    return cls(*new_kids)


def all_paths(phi: Formula) -> Iterator[tuple[int, ...]]:
    """Yield every occurrence path of phi, root first."""
    yield ()
    for i, child in enumerate(phi.children()):
        for sub in all_paths(child):
            yield (i,) + sub


def l_formulas(atom_names=DEFAULT_ATOMS, max_leaves=6):
    """Random extensional formulas."""
    base = st.sampled_from([Atom(a) for a in atom_names] + [FALSUM])
    return st.recursive(
        base,
        lambda kids: st.one_of(
            kids.map(ExtNeg),
            st.tuples(kids, kids).map(lambda t: ExtAnd(*t)),
            st.tuples(kids, kids).map(lambda t: ExtOr(*t)),
            st.tuples(kids, kids).map(lambda t: ExtImp(*t)),
        ),
        max_leaves=max_leaves,
    )


def star_formulas(atom_names=DEFAULT_ATOMS, max_leaves=5):
    """Random two-layer formulas: intensional connectives over anything,
    extensional subtrees kept pure by seeding from l_formulas.
    """
    return st.recursive(
        l_formulas(atom_names, max_leaves=3),
        lambda kids: st.one_of(
            kids.map(IntNeg),
            st.tuples(kids, kids).map(lambda t: IntAnd(*t)),
            st.tuples(kids, kids).map(lambda t: IntOr(*t)),
            st.tuples(kids, kids).map(lambda t: IntImp(*t)),
        ),
        max_leaves=max_leaves,
    )


def enumerate_star(atom_names, max_size):
    """Every two-layer formula of node count <= max_size, smallest first.
    Subtrees are shared between entries, which keeps table memos hot.
    """
    lvl = {1: [Atom(a) for a in atom_names] + [FALSUM]}
    for n in range(2, max_size + 1):
        cur = []
        for f in lvl[n - 1]:
            if is_l_formula(f):
                cur.append(ExtNeg(f))
            cur.append(IntNeg(f))
        for k in range(1, n - 1):
            for a in lvl[k]:
                for b in lvl[n - 1 - k]:
                    if is_l_formula(a) and is_l_formula(b):
                        cur += [ExtAnd(a, b), ExtOr(a, b), ExtImp(a, b)]
                    cur += [IntAnd(a, b), IntOr(a, b), IntImp(a, b)]
        lvl[n] = cur
    return [f for fs in lvl.values() for f in fs]


def enumerate_l(atom_names, max_size):
    return [f for f in enumerate_star(atom_names, max_size) if is_l_formula(f)]


def all_contexts(atom_names):
    """Every context over the given atoms, ascending member mask."""
    n_worlds = 1 << len(atom_names)
    return [
        Context(tuple(atom_names), members)
        for members in range(1, 1 << n_worlds)
    ]


def contexts_over(atom_names):
    n_worlds = 1 << len(atom_names)
    return st.integers(1, (1 << n_worlds) - 1).map(
        lambda m: Context(tuple(atom_names), m)
    )
