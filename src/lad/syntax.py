"""Concrete syntax for formulas.

Extensional connectives are written ~  /\\  \\/  =>, intensional ones
!  &  |  ->, falsum is _|_ and the defined symbols are <> (diamond) and
the n-ary infix (+).  Precedence, tightest first:

    prefixes (~ ! <>)   then   /\\ &   then   \\/ | (+)   then   => ->

Binary connectives at the same level associate to the right, so
p -> q -> r reads p -> (q -> r) and p (+) q (+) r is a single three-way
(+).  Macros are expanded while parsing; the printer can re-sugar them.
Atom names match [A-Za-z][A-Za-z0-9_]*.

Text becomes a formula in two steps.  One compiled regular expression
splits it into tokens: the fixed symbols, longest first, then
identifiers, then any other non-space character as a bad one.  Token
positions are worked out again only when an error must report one; the
first bad character is always the error, ahead of any parse or layer
error.  An operator-precedence loop then builds the formula with two
stacks, pending operators and built operands, and no recursion, so
nesting depth is limited only by memory.  It builds eagerly: an
arriving binary operator builds every pending one that binds tighter, and
a ")" or the end of input builds everything back to its group.  That is
the order in which a recursive-descent parser builds, so the first
error, and its position, are the ones it would report.  The same loop
folds adjacent (+): the first one built opens a list of operands, each
further one adds its left operand, and the next operator built, or the
end of the reduction, expands the list as one n-ary (+).

Every node is built through a node table, a dict from the atom name,
or from the connective's token and the ids of the children, to the
node (Filliatre and Conchon's unique table, "Type-safe modular
hash-consing", 2006).  So each distinct subformula is built once, and
equal subformulas of the result are the same object.  The <> and (+)
expansions go through the table too.  The sharing has the scope of the
table: parse(text) makes a fresh one per call and keeps nothing after
it returns, and parse(text, nodes) shares with everything earlier
calls built into the same dict (lad.proofs.parse_proof passes one per
proof).  A key holds ids only of nodes the table keeps alive, either
as values or as their children, and a failed constructor (LayerError)
adds no entry.  A table made by the call holds one Atom for each atom
name of the formula and no other Atom, so the root keeps that set of
names for formulas.atoms_of, which then need not walk it.
"""
from __future__ import annotations

import re

from .formulas import (
    ATOM_NAME,
    FALSUM,
    Atom,
    ExtAnd,
    ExtImp,
    ExtNeg,
    ExtOr,
    Falsum,
    Formula,
    IntAnd,
    IntImp,
    IntNeg,
    IntOr,
    LayerError,
    _set_atoms,
    is_l_formula,
    match_diamond,
    match_plus,
)


class ParseError(ValueError):
    """Malformed formula text."""

    def __init__(self, message: str, position: int, expected: tuple[str, ...] = ()):
        # The inputs are the args, so pickle can rebuild the error.
        super().__init__(message, position, expected)
        self.position = position
        self.expected = expected

    def __str__(self) -> str:
        hint = f" (expected {', '.join(self.expected)})" if self.expected else ""
        return f"{self.args[0]} at position {self.position}{hint}"


# Longest tokens first so _|_ wins over |, (+) over ( and so on.
_FIXED = ("_|_", "(+)", "/\\", "\\/", "->", "=>", "<>", "~", "!", "&", "|", "(", ")")
# One alternation: the fixed tokens, then identifiers (exactly the names
# Atom accepts), then any other non-space character, which is a bad one.
_TOKEN = re.compile("|".join(map(re.escape, _FIXED)) + f"|{ATOM_NAME.pattern}|\\S")
_LETTERS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")

# Binding levels.  "(" is 0 so that no reduction passes a group; the
# prefixes bind tightest.
_GROUP, _IMP, _DISJ, _CONJ, _PREFIX = 0, 1, 2, 3, 4
_LEVEL = {
    "(": _GROUP,
    "->": _IMP, "=>": _IMP,
    "\\/": _DISJ, "|": _DISJ, "(+)": _DISJ,
    "/\\": _CONJ, "&": _CONJ,
    "~": _PREFIX, "!": _PREFIX, "<>": _PREFIX,
}
_BINARY = {tok: level for tok, level in _LEVEL.items() if _IMP <= level <= _CONJ}
_OPENERS = frozenset(("(", "~", "!", "<>"))
_NODE = {
    "->": IntImp, "=>": ExtImp, "\\/": ExtOr, "|": IntOr,
    "/\\": ExtAnd, "&": IntAnd, "~": ExtNeg, "!": IntNeg,
}
_PRIMARY = ("atom", "_|_", "(", "~", "!", "<>")


def _position(text: str, k: int) -> int:
    """The position of token k of text (len(text) for the end of input).

    Called only on an error path.  The first bad character, if any, is
    raised instead, since it outranks every parse and layer error.
    """
    starts = []
    for m in _TOKEN.finditer(text):
        tok = m.group()
        if tok not in _FIXED and tok[0] not in _LETTERS:
            raise ParseError(f"unexpected character {tok!r}", m.start())
        starts.append(m.start())
    starts.append(len(text))
    return starts[k]


def parse(text: str, nodes: dict | None = None) -> Formula:
    """Parse concrete syntax into a formula, expanding <> and (+).

    nodes is the node table (module docstring).  Calls given the same
    dict share their equal subformulas; with none, the call makes its
    own.  Fill the dict only through parse.

    Raises ParseError for malformed text and LayerError for an
    extensional connective over a non-L operand.
    """
    own = nodes is None
    if own:
        nodes = {}
    names = []  # of the Atoms this call adds to the table
    tokens = _TOKEN.findall(text)
    end = len(tokens)
    tokens.append("")  # the end of input
    ops: list[int] = []  # token indices of the pending operators and groups
    vals: list[Formula] = []
    i = 0
    while True:
        # Operand position: any prefixes and open groups, then a primary.
        tok = tokens[i]
        while tok in _OPENERS:
            ops.append(i)
            i += 1
            tok = tokens[i]
        if tok == "_|_":
            vals.append(FALSUM)
        elif tok and tok[0] in _LETTERS:
            # The table holds one Atom per name, keyed by the name, so
            # each name is validated once.
            atom = nodes.get(tok)
            if atom is None:
                atom = nodes[tok] = Atom(tok)
                names.append(tok)
            vals.append(atom)
        else:
            raise ParseError(
                f"unexpected {tok or 'end of input'!r}", _position(text, i), _PRIMARY
            )
        i += 1
        # Operator position: a binary operator builds every pending one
        # that binds tighter; anything else builds the open group, which
        # only a ")" may then close.
        while True:
            tok = tokens[i]
            level = _BINARY.get(tok)
            if level is not None:
                _reduce(text, tokens, ops, vals, level, nodes)
                ops.append(i)
                i += 1
                break
            _reduce(text, tokens, ops, vals, _GROUP, nodes)
            if not ops:
                if i < end:
                    raise ParseError(f"trailing input {tok!r}", _position(text, i))
                root = vals[0]
                if own:
                    # A table of the call's own holds only the formula's atoms.
                    _set_atoms(root, frozenset(names))
                return root
            if tok != ")":
                raise ParseError(
                    f"unexpected {tok or 'end of input'!r}", _position(text, i), (")",)
                )
            ops.pop()
            i += 1


def _binary(nodes: dict, op: str, left: Formula, right: Formula) -> Formula:
    key = (op, id(left), id(right))
    node = nodes.get(key)
    if node is None:
        # A LayerError leaves the table as it was.
        node = nodes[key] = _NODE[op](left, right)
    return node


def _diamond(nodes: dict, phi: Formula) -> Formula:
    """<>phi, expanded as formulas.diamond does."""
    inner = _binary(nodes, "->", phi, FALSUM)
    key = ("!", id(inner))
    node = nodes.get(key)
    if node is None:
        node = nodes[key] = IntNeg(inner)
    return node


def _reduce(
    text: str, tokens: list[str], ops: list[int], vals: list[Formula], level: int, nodes: dict
) -> None:
    """Build the pending operators that bind tighter than level, top of
    the stack first.  Binary operators associate to the right, so one of
    equal level stays pending.  Adjacent (+) collect their operands in
    one list, plus, expanded as one n-ary (+) by the next operator built
    or at the end, because the expansion of a nested (+) is not an
    L-formula and could never feed an outer (+)."""
    plus = None
    while ops:
        k = ops[-1]
        op = tokens[k]
        op_level = _LEVEL[op]
        if op_level <= level:
            break
        ops.pop()
        if op == "(+)":
            if plus is None:
                plus, plus_at = [vals.pop()], k
            plus.insert(0, vals.pop())
            continue
        if plus is None:
            right = vals.pop()
        else:
            right, plus = _plus(text, plus_at, plus, nodes), None
        if op == "<>":
            vals.append(_diamond(nodes, right))
            continue
        # The table lookup written out, since this runs once per node.
        if op_level == _PREFIX:
            left = None
            key = (op, id(right))
        else:
            left = vals.pop()
            key = (op, id(left), id(right))
        node = nodes.get(key)
        if node is None:
            try:
                node = nodes[key] = _NODE[op](right) if left is None else _NODE[op](left, right)
            except LayerError as exc:
                _layer_error(text, op, k, exc.offending)
        vals.append(node)
    if plus is not None:
        vals.append(_plus(text, plus_at, plus, nodes))


def _plus(text: str, k: int, operands: list[Formula], nodes: dict) -> Formula:
    """The (+) expansion of formulas.plus_disj, built through the table:
    (a1 \\/ ... \\/ an) & (<>a1 & ... & <>an)."""
    for a in operands:
        if not is_l_formula(a):
            _layer_error(text, "(+)", k, a)
    union = operands[-1]
    possible = _diamond(nodes, union)
    for a in reversed(operands[:-1]):
        union = _binary(nodes, "\\/", a, union)
        possible = _binary(nodes, "&", _diamond(nodes, a), possible)
    return _binary(nodes, "&", union, possible)


def _layer_error(text: str, op: str, k: int, offending: Formula):
    """Raise the parser's LayerError for the operator at token k over
    the offending operand."""
    if op == "(+)":
        message = "operand of (+) is not an L-formula"
    else:
        message = f"operand of extensional {op!r} is not an L-formula"
    raise LayerError(message, position=_position(text, k), offending=offending) from None


# The printer's symbol and binding level for each binary node class.
_BIN = {_NODE[tok]: (tok, level) for tok, level in _BINARY.items() if tok in _NODE}


def format_formula(phi: Formula, mode: str = "macro") -> str:
    """Render a formula; parse(format_formula(phi)) returns phi.

    In "macro" mode diamond patterns print as <> and expanded n-ary (+)
    patterns (n >= 2) print infix.  "full" mode prints the raw tree.
    """
    if mode not in ("macro", "full"):
        raise ValueError(f"unknown mode {mode!r}")
    return _fmt(phi, 0, mode == "macro")


def _fmt(phi: Formula, min_prec: int, macro: bool) -> str:
    if isinstance(phi, Atom):
        return phi.name
    if isinstance(phi, Falsum):
        return "_|_"
    if macro:
        inner = match_diamond(phi)
        if inner is not None:
            return "<>" + _fmt(inner, _PREFIX, macro)
        ops = match_plus(phi)
        if ops is not None:
            body = " (+) ".join(_fmt(op, _DISJ + 1, macro) for op in ops)
            return f"({body})" if _DISJ < min_prec else body
    if isinstance(phi, ExtNeg):
        return "~" + _fmt(phi.operand, _PREFIX, macro)
    if isinstance(phi, IntNeg):
        return "!" + _fmt(phi.operand, _PREFIX, macro)
    sym, prec = _BIN[type(phi)]
    body = f"{_fmt(phi.left, prec + 1, macro)} {sym} {_fmt(phi.right, prec, macro)}"
    return f"({body})" if prec < min_prec else body
