"""The recursive-descent formula parser that ``lad.syntax`` replaced,
kept verbatim as a test oracle: ``parse`` here and ``lad.syntax.parse``
must agree on every result and on every error's type, message and
position.  Not for use outside the tests.

Identifiers here start with any ``str.isalpha`` character, so non-ASCII
input differs from ``lad.syntax`` (which rejects it); the differential
test draws only ASCII text.
"""
from __future__ import annotations

from dataclasses import dataclass

from lad.formulas import (
    FALSUM,
    Atom,
    ExtAnd,
    ExtImp,
    ExtNeg,
    ExtOr,
    Formula,
    IntAnd,
    IntImp,
    IntNeg,
    IntOr,
    LayerError,
    diamond,
    is_l_formula,
    plus_disj,
)
from lad.syntax import ParseError


@dataclass(frozen=True)
class _Token:
    kind: str  # "op" or "ident" or "eof"
    text: str
    pos: int


# Longest tokens first so _|_ wins over |, (+) over ( and so on.
_FIXED = ("_|_", "(+)", "/\\", "\\/", "->", "=>", "<>", "~", "!", "&", "|", "(", ")")


def tokenize(text: str) -> list[_Token]:
    out: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        for tok in _FIXED:
            if text.startswith(tok, i):
                out.append(_Token("op", tok, i))
                i += len(tok)
                break
        else:
            if ch.isalpha():
                j = i + 1
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                out.append(_Token("ident", text[i:j], i))
                i = j
            else:
                raise ParseError(f"unexpected character {ch!r}", i)
    out.append(_Token("eof", "", n))
    return out


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.kind == "op" and tok.text == text:
            return self.next()
        raise ParseError(f"unexpected {tok.text or 'end of input'!r}", tok.pos, (text,))

    def _ext(self, cls, op: _Token, *operands: Formula) -> Formula:
        for f in operands:
            if not is_l_formula(f):
                raise LayerError(
                    f"operand of extensional {op.text!r} is not an L-formula",
                    position=op.pos,
                    offending=f,
                )
        return cls(*operands)

    def parse(self) -> Formula:
        phi = self.imp()
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"trailing input {tok.text!r}", tok.pos)
        return phi

    def imp(self) -> Formula:
        left = self.disj()
        tok = self.peek()
        if tok.kind == "op" and tok.text in ("->", "=>"):
            self.next()
            right = self.imp()  # right associative
            if tok.text == "->":
                return IntImp(left, right)
            return self._ext(ExtImp, tok, left, right)
        return left

    def disj(self) -> Formula:
        items = [self.conj()]
        ops: list[_Token] = []
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in ("\\/", "|", "(+)"):
                self.next()
                ops.append(tok)
                items.append(self.conj())
            else:
                break
        # Fold right to left; consecutive (+) operands collapse into one
        # n-ary expansion, because the expansion of a nested (+) is not
        # an L-formula and could never feed an outer (+).
        result = items[-1]
        run: list[Formula] | None = None
        run_op: _Token | None = None
        for k in range(len(ops) - 1, -1, -1):
            op, item = ops[k], items[k]
            if op.text == "(+)":
                if run is None:
                    run = [item, result]
                    run_op = op
                else:
                    run.insert(0, item)
            else:
                if run is not None:
                    result = self._plus(run, run_op)
                    run = None
                if op.text == "\\/":
                    result = self._ext(ExtOr, op, item, result)
                else:
                    result = IntOr(item, result)
        if run is not None:
            result = self._plus(run, run_op)
        return result

    def _plus(self, operands: list[Formula], op: _Token) -> Formula:
        for f in operands:
            if not is_l_formula(f):
                raise LayerError(
                    "operand of (+) is not an L-formula",
                    position=op.pos,
                    offending=f,
                )
        return plus_disj(operands)

    def conj(self) -> Formula:
        left = self.prefix()
        tok = self.peek()
        if tok.kind == "op" and tok.text in ("/\\", "&"):
            self.next()
            right = self.conj()  # right associative
            if tok.text == "&":
                return IntAnd(left, right)
            return self._ext(ExtAnd, tok, left, right)
        return left

    def prefix(self) -> Formula:
        tok = self.peek()
        if tok.kind == "op" and tok.text in ("~", "!", "<>"):
            self.next()
            operand = self.prefix()
            if tok.text == "~":
                return self._ext(ExtNeg, tok, operand)
            if tok.text == "!":
                return IntNeg(operand)
            return diamond(operand)
        return self.primary()

    def primary(self) -> Formula:
        tok = self.next()
        if tok.kind == "ident":
            return Atom(tok.text)
        if tok.kind == "op" and tok.text == "_|_":
            return FALSUM
        if tok.kind == "op" and tok.text == "(":
            phi = self.imp()
            self.expect(")")
            return phi
        raise ParseError(
            f"unexpected {tok.text or 'end of input'!r}",
            tok.pos,
            ("atom", "_|_", "(", "~", "!", "<>"),
        )


def parse(text: str) -> Formula:
    """Parse concrete syntax into a formula, expanding <> and (+)."""
    return _Parser(text).parse()
