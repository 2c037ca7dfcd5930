"""Proof and context corpus: a small builder, the derivations of the
two laws of weak negation (x | -x, and _|_ from x, -x), each one
polarity walk over x, and the hand-written accepted/rejected proof
files (read from this package's proofs/ and contexts/) with their
expected verdicts.
"""
from __future__ import annotations

import pathlib
from contextlib import contextmanager
from dataclasses import dataclass, field

from ..formulas import (
    FALSUM,
    ExtNeg,
    Formula,
    IntAnd,
    IntImp,
    IntNeg,
    IntOr,
    diamond,
    is_l_formula,
)
from ..syntax import format_formula, parse
from ..transforms import weak_negate

Cite = int | tuple[int, int]


@dataclass
class _Handle:
    hyp: int
    span: tuple[int, int] | None = None


@dataclass
class ProofBuilder:
    """Emits proof lines in order; numbers are assigned as rows are
    added, so citations are plain line numbers and spans are pairs.
    """

    rows: list[tuple[str, Formula, str, tuple[Cite, ...]]] = field(default_factory=list)
    kinds: str = ""

    def _emit(self, formula: Formula, rule: str, cites: tuple[Cite, ...] = ()) -> int:
        self.rows.append((self.kinds, formula, rule, cites))
        return len(self.rows)

    def premise(self, formula: Formula) -> int:
        if self.kinds:
            raise ValueError("premises go at the top level")
        return self._emit(formula, "premise")

    def line(self, formula: Formula, rule: str, *cites: Cite) -> int:
        return self._emit(formula, rule, cites)

    @contextmanager
    def _subproof(self, marker: str, hyp: Formula):
        self.kinds += marker
        handle = _Handle(hyp=self._emit(hyp, "hyp"))
        try:
            yield handle
        finally:
            handle.span = (handle.hyp, len(self.rows))
            self.kinds = self.kinds[:-1]

    def round(self, hyp: Formula):
        return self._subproof("o", hyp)

    def square(self, hyp: Formula):
        return self._subproof("*", hyp)

    def render(self) -> str:
        out = []
        for kinds, formula, rule, cites in self.rows:
            parts = []
            if kinds:
                parts.append(kinds)
            parts.append(format_formula(formula))
            parts.append(";")
            parts.append(rule)
            text = " ".join(parts)
            if cites:
                rendered = ", ".join(
                    f"{c[0]}-{c[1]}" if isinstance(c, tuple) else str(c) for c in cites
                )
                text = f"{text} {rendered}"
            out.append(text)
        return "\n".join(out) + "\n"


def _excluded(b: ProofBuilder, phi: Formula, deny: bool) -> int:
    """Derive s | -s at the current depth, no premises used, where s
    is phi, or !phi when deny is set.  The recursion is that of
    transforms._weak; weak_negate raises TypeError on a non-formula.
    """
    s = IntNeg(phi) if deny else phi
    w = weak_negate(s)
    target = IntOr(s, w)
    if isinstance(phi, IntNeg):
        a = _excluded(b, phi.operand, not deny)
        if not deny:
            return a
        with b.square(phi.operand) as s1:
            k = b.line(s, "nn2", s1.hyp)
            b.line(target, "ior1", k)
        with b.square(w) as s2:
            b.line(target, "ior2", s2.hyp)
        return b.line(target, "eor", a, s1.span, s2.span)
    if isinstance(phi, (IntAnd, IntOr)):
        a = _excluded(b, phi.left, deny)
        c = _excluded(b, phi.right, deny)
        sl, sr = (IntNeg(phi.left), IntNeg(phi.right)) if deny else (phi.left, phi.right)
        wl, wr = weak_negate(sl), weak_negate(sr)

        def take_s(k: int) -> None:
            # A denial is the mirror case over !psi, !chi, folded back.
            if deny:
                k = b.line(s, "nand2" if isinstance(phi, IntAnd) else "nor2", k)
            b.line(target, "ior1", k)

        if isinstance(phi, IntAnd) != deny:
            # s takes both operands, w either.
            with b.square(sl) as s1:
                with b.square(sr) as s11:
                    take_s(b.line(IntAnd(sl, sr), "iand", s1.hyp, s11.hyp))
                with b.square(wr) as s12:
                    b.line(target, "ior2", b.line(w, "ior2", s12.hyp))
                b.line(target, "eor", c, s11.span, s12.span)
            with b.square(wl) as s2:
                b.line(target, "ior2", b.line(w, "ior1", s2.hyp))
        else:
            # s takes either operand, w both.
            with b.square(sl) as s1:
                take_s(b.line(IntOr(sl, sr), "ior1", s1.hyp))
            with b.square(wl) as s2:
                with b.square(sr) as s21:
                    take_s(b.line(IntOr(sl, sr), "ior2", s21.hyp))
                with b.square(wr) as s22:
                    b.line(target, "ior2", b.line(w, "iand", s2.hyp, s22.hyp))
                b.line(target, "eor", c, s21.span, s22.span)
        return b.line(target, "eor", a, s1.span, s2.span)
    # An L-formula or an implication: split on core by cem.  s holds
    # under core -> _|_; the other case, <>core, is w or gives s.
    if is_l_formula(phi):
        core = phi if deny else IntNeg(phi)
    else:
        psi, chi = phi.left, phi.right
        sc = IntNeg(chi) if deny else chi
        wc = weak_negate(sc)
        goal, other = (wc, sc) if deny else (sc, wc)
        core = IntAnd(psi, other)
    guard = IntImp(core, FALSUM)
    cm = b.line(IntOr(guard, diamond(core)), "cem")
    with b.square(guard) as s1:
        if is_l_formula(phi) and deny:
            with b.round(phi) as r:
                b.line(FALSUM, "eimp", s1.hyp, r.hyp)
            b.line(target, "ior1", b.line(s, "ineg", r.span))
        elif is_l_formula(phi):
            with b.round(ExtNeg(phi)) as r1:
                with b.round(phi) as r2:
                    b.line(FALSUM, "esim1", r2.hyp, r1.hyp)
                n = b.line(core, "ineg", r2.span)
                b.line(FALSUM, "eimp", s1.hyp, n)
            dd = b.line(ExtNeg(ExtNeg(phi)), "isim", r1.span)
            b.line(target, "ior1", b.line(phi, "esim2", dd))
        else:
            # Under psi, chi's own law gives goal: directly, or by efq
            # from other, which with psi makes core.
            with b.round(psi) as r:
                c = _excluded(b, chi, deny)
                spans = []
                for side in (sc, wc):
                    with b.square(side) as sq:
                        if side is other:
                            k = b.line(core, "iand", r.hyp, sq.hyp)
                            b.line(goal, "efq", b.line(FALSUM, "eimp", s1.hyp, k))
                    spans.append(sq.span)
                b.line(goal, "eor", c, *spans)
            imp = b.line(IntImp(psi, goal), "iimp", r.span)
            b.line(target, "ior2" if deny else "ior1", imp)
    with b.square(diamond(core)) as s2:
        if deny and not is_l_formula(phi):
            b.line(target, "ior1", b.line(s, "nimp2", s2.hyp))
        else:
            b.line(target, "ior2", s2.hyp)
    return b.line(target, "eor", cm, s1.span, s2.span)


def _clash(b: ProofBuilder, phi: Formula, at_s: int, at_w: int, deny: bool) -> int:
    """Derive _|_ from line at_s (s) and line at_w (-s), where s is
    phi, or !phi when deny is set.
    """
    if isinstance(phi, IntNeg):
        if deny:
            at_s = b.line(phi.operand, "nn1", at_s)
        return _clash(b, phi.operand, at_s, at_w, not deny)
    if isinstance(phi, (IntAnd, IntOr)):
        sl, sr = (IntNeg(phi.left), IntNeg(phi.right)) if deny else (phi.left, phi.right)
        both = isinstance(phi, IntAnd) != deny
        # A denial is the mirror case over !psi, !chi, once unfolded.
        if deny and both:
            at_s = b.line(IntAnd(sl, sr), "nor1", at_s)
        elif deny:
            at_s = b.line(IntOr(sl, sr), "nand1", at_s)
        spans = []
        for side, child, rule in ((sl, phi.left, "eand1"), (sr, phi.right, "eand2")):
            if both:
                # s gives each side; w = -sl | -sr is split.
                with b.square(weak_negate(side)) as sq:
                    _clash(b, child, b.line(side, rule, at_s), sq.hyp, deny)
            else:
                # w gives each side's -; s = sl | sr is split.
                with b.square(side) as sq:
                    _clash(b, child, sq.hyp, b.line(weak_negate(side), rule, at_w), deny)
            spans.append(sq.span)
        return b.line(FALSUM, "eor", at_w if both else at_s, *spans)
    # An L-formula or an implication: refute core, then meet <>core.
    at_d = at_w
    if is_l_formula(phi):
        core = phi if deny else IntNeg(phi)
        with b.round(core) as r:
            b.line(FALSUM, "eneg", *((r.hyp, at_s) if deny else (at_s, r.hyp)))
    else:
        psi, chi = phi.left, phi.right
        sc = IntNeg(chi) if deny else chi
        wc = weak_negate(sc)
        core = IntAnd(psi, sc if deny else wc)
        if deny:
            at_d = b.line(diamond(core), "nimp1", at_s)
        with b.round(core) as r:
            m = b.line(psi, "eand1", r.hyp)
            if deny:
                at_c = b.line(sc, "eand2", r.hyp)
                at_wc = b.line(wc, "eimp", at_w, m)
            else:
                at_c = b.line(sc, "eimp", at_s, m)
                at_wc = b.line(wc, "eand2", r.hyp)
            _clash(b, chi, at_c, at_wc, deny)
    g = b.line(IntImp(core, FALSUM), "iimp", r.span)
    return b.line(FALSUM, "eneg", g, at_d)


def excluded_proof(phi: Formula) -> str:
    """Premise-free proof of phi | -phi."""
    b = ProofBuilder()
    _excluded(b, phi, False)
    return b.render()


def clash_proof(phi: Formula) -> str:
    """Proof of _|_ from premises phi and -phi."""
    b = ProofBuilder()
    p1 = b.premise(phi)
    p2 = b.premise(weak_negate(phi))
    _clash(b, phi, p1, p2, False)
    return b.render()


_DATA = pathlib.Path(__file__).parent

# The hand-written accepted files, in the order perfbench/freeze.py keeps.
_ACCEPTED_NAMES = (
    "em.prf", "ecup_small.prf", "caps.prf", "isup_min.prf",
    "esup_chain.prf", "modus.prf", "dualities.prf", "cem_only.prf",
    "diaplus_pair.prf", "diaplus_single.prf", "efq_chain.prf", "eor_square.prf",
)

# name -> expected violations of the rejected file, as (line, code) pairs
_REJECTED_EXPECT: dict[str, tuple[tuple[int, str], ...]] = {
    "illegal.prf": ((7, "UNSAFE_CITATION"), (13, "UNSAFE_CITATION")),
    "wrong_rule.prf": ((2, "RULE_MISMATCH"),),
    "or_on_cup.prf": ((6, "RULE_MISMATCH"),),
    "unsafe_cite.prf": ((3, "UNSAFE_CITATION"),),
    "round_square.prf": ((3, "WRONG_SUBPROOF_KIND"),),
    "not_l.prf": ((4, "NOT_L_FORMULA"),),
    "macro_plus.prf": ((4, "MACRO_SHAPE"),),
    "scope.prf": ((3, "CITATION_SCOPE"),),
}

MURDER_CONTEXT = (_DATA / "contexts" / "murder.ctx").read_text()
ACCEPTED_PROOFS: dict[str, str] = {
    name: (_DATA / "proofs" / name).read_text() for name in _ACCEPTED_NAMES
}
# name -> (text, expected violations as (line, code) pairs)
REJECTED_PROOFS: dict[str, tuple[str, tuple[tuple[int, str], ...]]] = {
    name: ((_DATA / "proofs" / name).read_text(), expect)
    for name, expect in _REJECTED_EXPECT.items()
}
EM_PROOF = ACCEPTED_PROOFS["em.prf"]
ILLEGAL_PROOF = REJECTED_PROOFS["illegal.prf"][0]


def generated_accepted() -> dict[str, str]:
    """The induction cases of the excluded-or-negated and clash
    derivations, instantiated at concrete atoms, plus one mixed
    nesting.  Every file must check and verify sound.
    """
    cases = {
        "atom": parse("p"),
        "and": parse("p & q"),
        "or": parse("p | q"),
        "imp": parse("p -> q"),
    }
    out: dict[str, str] = {}
    for tag, phi in cases.items():
        out[f"gen_excluded_{tag}.prf"] = excluded_proof(phi)
        out[f"gen_clash_{tag}.prf"] = clash_proof(phi)
    out["gen_excluded_nn.prf"] = excluded_proof(parse("!!p"))
    out["gen_clash_nn.prf"] = clash_proof(parse("!!p"))
    for tag, phi in cases.items():
        if tag == "atom":
            continue
        out[f"gen_negated_excluded_{tag}.prf"] = excluded_proof(IntNeg(phi))
        out[f"gen_negated_clash_{tag}.prf"] = clash_proof(IntNeg(phi))
    out["gen_excluded_mixed.prf"] = excluded_proof(parse("!(p & q) | (q -> p)"))
    return out


def write_corpus(root) -> list[str]:
    """Write the generated proofs as proofs/gen_*.prf under root (a
    pathlib.Path); returns the relative paths written.
    """
    proofs = root / "proofs"
    proofs.mkdir(parents=True, exist_ok=True)
    written = []
    for name, text in generated_accepted().items():
        (proofs / name).write_text(text)
        written.append(f"proofs/{name}")
    return written
