"""Formula AST for a two-layer propositional language.

The base layer L is built from atoms and falsum with the extensional
connectives ~ (negation), /\\ (conjunction), \\/ (disjunction) and =>
(implication).  These are evaluated world by world, classically.

The full language adds the intensional connectives ! (negation),
& (conjunction), | (disjunction) and -> (implication), which are
evaluated at the level of whole contexts.  Intensional connectives may
apply to anything, but extensional connectives only combine L-formulas.
That restriction is enforced at construction time: an extensional node
over a non-L operand raises LayerError and is never representable.

Diamond and the n-ary plus-disjunction are defined symbols, expanded
eagerly into the primitives (there are no AST nodes for them).
"""
from __future__ import annotations

import re
from collections.abc import Iterator, Sequence

from .records import Record, _set


class LayerError(Exception):
    """An extensional connective was applied to a non-L operand."""

    def __init__(self, message: str, position: int | None = None, offending=None):
        super().__init__(message)
        self.position = position
        self.offending = offending


class PathError(Exception):
    """A subformula path does not exist in the target formula."""


# The identifier syntax of atom names, shared by the formula parser and
# the context file header.
ATOM_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


class Formula(Record):
    """Base class for all formula nodes.

    Each node computes its structural hash once, when it is built, from
    its type and its children's cached hashes, so hashing costs O(1)
    and never recurses.  Equality stays structural.  str hashes are
    salted per process, so the cached hash never travels with a node:
    pickling and copying rebuild the node through its constructor.
    """

    __slots__ = ("_hash",)

    def children(self) -> tuple["Formula", ...]:
        return ()

    def _fields(self) -> tuple:
        return self.children()

    def __hash__(self) -> int:
        return self._hash


class _Unary(Formula):
    __slots__ = __match_args__ = ("operand",)
    _ext_op: str | None = None  # extensional symbol: the operand must be in L

    def __init__(self, operand: Formula):
        if self._ext_op is not None:
            _require_l(operand, self._ext_op)
        _set(self, "operand", operand)
        _set(self, "_hash", hash((type(self), operand._hash)))

    def children(self):
        return (self.operand,)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        a, b = self.operand, other.operand
        return a is b or a == b

    __hash__ = Formula.__hash__  # defining __eq__ alone would unset it


class _Binary(Formula):
    __slots__ = __match_args__ = ("left", "right")
    _ext_op: str | None = None  # extensional symbol: both operands must be in L

    def __init__(self, left: Formula, right: Formula):
        if self._ext_op is not None:
            _require_l(left, self._ext_op)
            _require_l(right, self._ext_op)
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "_hash", hash((type(self), left._hash, right._hash)))

    def children(self):
        return (self.left, self.right)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # Tuple comparison skips identical children without a call.
        return (self.left, self.right) == (other.left, other.right)

    __hash__ = Formula.__hash__


class Atom(Formula):
    __slots__ = __match_args__ = ("name",)

    def __init__(self, name: str):
        if not ATOM_NAME.fullmatch(name):
            raise ValueError(f"invalid atom name: {name!r}")
        _set(self, "name", name)
        _set(self, "_hash", hash((Atom, name)))

    def _fields(self):
        return (self.name,)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.name == other.name

    __hash__ = Formula.__hash__


class Falsum(Formula):
    __slots__ = ()

    def __init__(self):
        _set(self, "_hash", hash((Falsum,)))


FALSUM = Falsum()


def _require_l(operand: Formula, op: str) -> None:
    if not is_l_formula(operand):
        raise LayerError(
            f"extensional {op} requires an L-formula operand", offending=operand
        )


# The shapes above build, compare and hash these nodes; Record adds the
# repr, pickling and frozen assignment.
class ExtNeg(_Unary):
    __slots__ = ()
    _ext_op = "~"


class ExtAnd(_Binary):
    __slots__ = ()
    _ext_op = "/\\"


class ExtOr(_Binary):
    __slots__ = ()
    _ext_op = "\\/"


class ExtImp(_Binary):
    __slots__ = ()
    _ext_op = "=>"


class IntNeg(_Unary):
    __slots__ = ()


class IntAnd(_Binary):
    __slots__ = ()


class IntOr(_Binary):
    __slots__ = ()


class IntImp(_Binary):
    __slots__ = ()


_L_ROOTS = (Atom, Falsum, ExtNeg, ExtAnd, ExtOr, ExtImp)
_INT_BINARY = (IntAnd, IntOr, IntImp)


def is_l_formula(phi: Formula) -> bool:
    """True when phi lies in the extensional base layer.

    Because extensional constructors reject non-L operands, checking the
    root suffices: an L-rooted node can only contain L-formulas.
    """
    return isinstance(phi, _L_ROOTS)


def atoms_of(phi: Formula) -> frozenset[str]:
    if isinstance(phi, Atom):
        return frozenset((phi.name,))
    out: set[str] = set()
    stack = [phi]
    while stack:
        node = stack.pop()
        if isinstance(node, Atom):
            out.add(node.name)
        else:
            stack.extend(node.children())
    return frozenset(out)


def size(phi: Formula) -> int:
    """Number of AST nodes."""
    n = 0
    stack = [phi]
    while stack:
        node = stack.pop()
        n += 1
        stack.extend(node.children())
    return n


def is_safe(phi: Formula) -> bool:
    """Safe formulas: no intensional implication in the scope of an
    intensional negation, unless the whole formula is an implication.

    Safe formulas are persistent (assertibility survives shrinking the
    context), which is what licenses reusing them inside round subproofs
    of the proof calculus.
    """
    if isinstance(phi, IntImp):
        return True
    # (node, whether a ! lies above it); L-formulas hold neither ! nor ->.
    stack = [(phi, False)]
    while stack:
        node, negated = stack.pop()
        if is_l_formula(node):
            continue
        if isinstance(node, IntNeg):
            negated = True
        elif negated and isinstance(node, IntImp):
            return False
        stack.extend((child, negated) for child in node.children())
    return True


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


def diamond(phi: Formula) -> Formula:
    """<>phi, defined as !(phi -> _|_)."""
    return IntNeg(IntImp(phi, FALSUM))


def match_diamond(phi: Formula) -> Formula | None:
    if (
        isinstance(phi, IntNeg)
        and isinstance(phi.operand, IntImp)
        and isinstance(phi.operand.right, Falsum)
    ):
        return phi.operand.left
    return None


def _chain(cls, items: Sequence[Formula]) -> Formula:
    if not items:
        raise ValueError("empty chain")
    out = items[-1]
    for item in reversed(items[:-1]):
        out = cls(item, out)
    return out


def cap_chain(items: Sequence[Formula]) -> Formula:
    return _chain(ExtAnd, items)


def cup_chain(items: Sequence[Formula]) -> Formula:
    return _chain(ExtOr, items)


def and_chain(items: Sequence[Formula]) -> Formula:
    return _chain(IntAnd, items)


def or_chain(items: Sequence[Formula]) -> Formula:
    return _chain(IntOr, items)


def plus_disj(operands: Sequence[Formula]) -> Formula:
    """n-ary (+) over L-formulas, n >= 1.

    Expands to (a1 \\/ ... \\/ an) & (<>a1 & ... & <>an).  The operands
    assert that at least one alternative holds everywhere while each
    alternative stays possible.
    """
    ops = list(operands)
    if not ops:
        raise ValueError("(+) needs at least one operand")
    for a in ops:
        if not is_l_formula(a):
            raise LayerError("(+) operands must be L-formulas", offending=a)
    return IntAnd(cup_chain(ops), and_chain([diamond(a) for a in ops]))


def match_diamond_chain(phi: Formula) -> list[Formula] | None:
    """[a1, ..., an] when phi = <>a1 & ... & <>an (right chained,
    every ai extensional), None otherwise.
    """
    alphas: list[Formula] = []
    node = phi
    while isinstance(node, IntAnd):
        head = match_diamond(node.left)
        if head is None or not is_l_formula(head):
            return None
        alphas.append(head)
        node = node.right
    last = match_diamond(node)
    if last is None or not is_l_formula(last):
        return None
    alphas.append(last)
    return alphas


def match_plus(phi: Formula) -> tuple[Formula, ...] | None:
    """Recognise an expanded (+) with n >= 2, returning its operands.

    The diamond chain fixes the operands, and the union must be their
    \\/ chain.
    """
    if not (isinstance(phi, IntAnd) and isinstance(phi.left, ExtOr)):
        return None
    ops = match_diamond_chain(phi.right)
    if ops is None or len(ops) < 2 or phi.left != cup_chain(ops):
        return None
    return tuple(ops)
