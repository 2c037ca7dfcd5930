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
from collections.abc import Sequence

from .records import Record, _set


class LayerError(ValueError):
    """An extensional connective was applied to a non-L operand."""

    def __init__(self, message: str, position: int | None = None, offending=None):
        super().__init__(message)
        self.position = position
        self.offending = offending


# The identifier syntax of atom names, shared by the formula parser and
# the context file header.
ATOM_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


class Formula(Record):
    """Base class for all formula nodes.

    Each node computes its structural hash once, when it is built, from
    its type and its children's cached hashes, so hashing costs O(1)
    and never recurses.  Equality stays structural and walks its own
    stack (_same), so it never recurses either.  str hashes are
    salted per process, so the cached hash never travels with a node:
    pickling and copying rebuild the node through its constructor.
    The set of the node's atom names (atoms_of) is kept beside it in
    the same way, set once by the parser or by the first atoms_of call.
    """

    __slots__ = ("_hash", "_atoms")

    def children(self) -> tuple["Formula", ...]:
        return ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or _same(self, other)

    def __hash__(self) -> int:
        return self._hash


class _Unary(Formula):
    __slots__ = __match_args__ = ("operand",)
    _ext_op: str | None = None  # extensional symbol: the operand must be in L

    def __init__(self, operand: Formula):
        if self._ext_op is not None and operand.__class__ not in _L_TYPES:
            _require_l(operand, self._ext_op)
        _set_operand(self, operand)
        _set_hash(self, hash((self.__class__, operand._hash)))

    def children(self):
        return (self.operand,)


class _Binary(Formula):
    __slots__ = __match_args__ = ("left", "right")
    _ext_op: str | None = None  # extensional symbol: both operands must be in L

    def __init__(self, left: Formula, right: Formula):
        # is_l_formula written out: the common case makes no call.
        if self._ext_op is not None and not (
            left.__class__ in _L_TYPES and right.__class__ in _L_TYPES
        ):
            _require_l(left, self._ext_op)
            _require_l(right, self._ext_op)
        _set_left(self, left)
        _set_right(self, right)
        _set_hash(self, hash((self.__class__, left._hash, right._hash)))

    def children(self):
        return (self.left, self.right)


class Atom(Formula):
    __slots__ = __match_args__ = ("name",)

    def __init__(self, name: str):
        if not ATOM_NAME.fullmatch(name):
            raise ValueError(f"invalid atom name: {name!r}")
        _set(self, "name", name)
        _set(self, "_hash", hash((Atom, name)))


class Falsum(Formula):
    __slots__ = ()

    def __init__(self):
        _set(self, "_hash", hash((Falsum,)))


FALSUM = Falsum()

# Constructors set fields through the slot descriptors themselves, which
# is what records._set does, less the name lookup and checks.
_set_hash = Formula._hash.__set__
_set_atoms = Formula._atoms.__set__
_set_operand = _Unary.operand.__set__
_set_left = _Binary.left.__set__
_set_right = _Binary.right.__set__


def _require_l(operand: Formula, op: str) -> None:
    if not is_l_formula(operand):
        raise LayerError(
            f"extensional {op} requires an L-formula operand", offending=operand
        )


# The shapes above build these nodes and Formula compares and hashes
# them; Record adds the repr, pickling and frozen assignment.
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


# The node classes, for dispatch on a node's exact class: no node class
# is subclassed.
_L_TYPES = frozenset((Atom, Falsum, ExtNeg, ExtAnd, ExtOr, ExtImp))
_BINARY_TYPES = frozenset((ExtAnd, ExtOr, ExtImp, IntAnd, IntOr, IntImp))
_UNARY_TYPES = frozenset((ExtNeg, IntNeg))


def _same(a: Formula, b: Formula) -> bool:
    """Structural equality of two distinct nodes of one class, walked
    without recursion, so depth costs no stack frames.  Differing cached
    hashes settle it at once.  The walk descends into one differing
    child of each node and stacks only the other, and skips identical
    children.  The node classes are the closed set this module defines."""
    if a._hash != b._hash:
        return False
    stack = []
    while True:
        cls = a.__class__
        if cls is not b.__class__:
            return False
        if cls in _BINARY_TYPES:
            x, y = a.left, b.left
            a, b = a.right, b.right
            if x is not y:
                if a is not b:
                    stack.append((a, b))
                a, b = x, y
                continue
            if a is not b:
                continue
        elif cls is Atom:
            if a.name != b.name:
                return False
        elif cls in _UNARY_TYPES:
            a, b = a.operand, b.operand
            if a is not b:
                continue
        if not stack:
            return True
        a, b = stack.pop()


def is_l_formula(phi: Formula) -> bool:
    """True when phi lies in the extensional base layer.

    Because extensional constructors reject non-L operands, checking the
    root suffices: an L-rooted node can only contain L-formulas.
    """
    return phi.__class__ in _L_TYPES


def atoms_of(phi: Formula) -> frozenset[str]:
    """The names of the atoms in phi.  A root that syntax.parse returns
    from its own node table carries them already; any other node is
    walked once and keeps the result."""
    # getattr with a default: an unset slot costs half what a caught
    # AttributeError does.
    atoms = getattr(phi, "_atoms", None)
    if atoms is not None:
        return atoms
    # Descend into one child of each node and stack only the other, as
    # _same does; the node classes are the closed set above.
    out: set[str] = set()
    stack = []
    node = phi
    while True:
        cls = node.__class__
        if cls in _BINARY_TYPES:
            stack.append(node.right)
            node = node.left
            continue
        if cls in _UNARY_TYPES:
            node = node.operand
            continue
        if cls is Atom:
            out.add(node.name)
        if not stack:
            break
        node = stack.pop()
    atoms = frozenset(out)
    _set_atoms(phi, atoms)
    return atoms


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
