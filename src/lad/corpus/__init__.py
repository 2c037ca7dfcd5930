"""Proof and context corpus: a small builder, recursive generators
for the assertibility-or-weak-negation derivations, and the
hand-written accepted/rejected proof files (read from this package's
proofs/ and contexts/) with their expected verdicts.
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


def emit_excluded_or_negated(b: ProofBuilder, phi: Formula) -> int:
    """Derive phi | -phi at the current depth, no premises used."""
    w = weak_negate(phi)
    target = IntOr(phi, w)
    if is_l_formula(phi):
        np = IntNeg(phi)
        guard = IntImp(np, FALSUM)
        cm = b.line(IntOr(guard, diamond(np)), "cem")
        with b.square(guard) as s1:
            with b.round(ExtNeg(phi)) as r1:
                with b.round(phi) as r2:
                    b.line(FALSUM, "esim1", r2.hyp, r1.hyp)
                n = b.line(np, "ineg", r2.span)
                b.line(FALSUM, "eimp", s1.hyp, n)
            dd = b.line(ExtNeg(ExtNeg(phi)), "isim", r1.span)
            back = b.line(phi, "esim2", dd)
            b.line(target, "ior1", back)
        with b.square(w) as s2:
            b.line(target, "ior2", s2.hyp)
        return b.line(target, "eor", cm, s1.span, s2.span)
    if isinstance(phi, IntNeg):
        return emit_negation_or_negated(b, phi.operand)
    if isinstance(phi, IntAnd):
        psi, chi = phi.left, phi.right
        wpsi, wchi = weak_negate(psi), weak_negate(chi)
        a = emit_excluded_or_negated(b, psi)
        c = emit_excluded_or_negated(b, chi)
        with b.square(psi) as s1:
            with b.square(chi) as s11:
                k = b.line(IntAnd(psi, chi), "iand", s1.hyp, s11.hyp)
                b.line(target, "ior1", k)
            with b.square(wchi) as s12:
                k = b.line(IntOr(wpsi, wchi), "ior2", s12.hyp)
                b.line(target, "ior2", k)
            b.line(target, "eor", c, s11.span, s12.span)
        with b.square(wpsi) as s2:
            k = b.line(IntOr(wpsi, wchi), "ior1", s2.hyp)
            b.line(target, "ior2", k)
        return b.line(target, "eor", a, s1.span, s2.span)
    if isinstance(phi, IntOr):
        psi, chi = phi.left, phi.right
        wpsi, wchi = weak_negate(psi), weak_negate(chi)
        a = emit_excluded_or_negated(b, psi)
        c = emit_excluded_or_negated(b, chi)
        with b.square(psi) as s1:
            k = b.line(IntOr(psi, chi), "ior1", s1.hyp)
            b.line(target, "ior1", k)
        with b.square(wpsi) as s2:
            with b.square(chi) as s21:
                k = b.line(IntOr(psi, chi), "ior2", s21.hyp)
                b.line(target, "ior1", k)
            with b.square(wchi) as s22:
                k = b.line(IntAnd(wpsi, wchi), "iand", s2.hyp, s22.hyp)
                b.line(target, "ior2", k)
            b.line(target, "eor", c, s21.span, s22.span)
        return b.line(target, "eor", a, s1.span, s2.span)
    if isinstance(phi, IntImp):
        psi, chi = phi.left, phi.right
        wchi = weak_negate(chi)
        core = IntAnd(psi, wchi)
        guard = IntImp(core, FALSUM)
        cm = b.line(IntOr(guard, diamond(core)), "cem")
        with b.square(guard) as s1:
            with b.round(psi) as r:
                c = emit_excluded_or_negated(b, chi)
                with b.square(chi) as s11:
                    pass
                with b.square(wchi) as s12:
                    k = b.line(core, "iand", r.hyp, s12.hyp)
                    bot = b.line(FALSUM, "eimp", s1.hyp, k)
                    b.line(chi, "efq", bot)
                b.line(chi, "eor", c, s11.span, s12.span)
            imp = b.line(IntImp(psi, chi), "iimp", r.span)
            b.line(target, "ior1", imp)
        with b.square(diamond(core)) as s2:
            b.line(target, "ior2", s2.hyp)
        return b.line(target, "eor", cm, s1.span, s2.span)
    raise TypeError(f"not a formula: {phi!r}")


def emit_negation_or_negated(b: ProofBuilder, phi: Formula) -> int:
    """Derive !phi | -!phi at the current depth, no premises used."""
    np = IntNeg(phi)
    w = weak_negate(np)
    target = IntOr(np, w)
    if is_l_formula(phi):
        guard = IntImp(phi, FALSUM)
        cm = b.line(IntOr(guard, diamond(phi)), "cem")
        with b.square(guard) as s1:
            with b.round(phi) as r:
                b.line(FALSUM, "eimp", s1.hyp, r.hyp)
            n = b.line(np, "ineg", r.span)
            b.line(target, "ior1", n)
        with b.square(w) as s2:
            b.line(target, "ior2", s2.hyp)
        return b.line(target, "eor", cm, s1.span, s2.span)
    if isinstance(phi, IntNeg):
        psi = phi.operand
        a = emit_excluded_or_negated(b, psi)
        with b.square(psi) as s1:
            k = b.line(IntNeg(IntNeg(psi)), "nn2", s1.hyp)
            b.line(target, "ior1", k)
        with b.square(weak_negate(psi)) as s2:
            b.line(target, "ior2", s2.hyp)
        return b.line(target, "eor", a, s1.span, s2.span)
    if isinstance(phi, IntAnd):
        psi, chi = phi.left, phi.right
        npsi, nchi = IntNeg(psi), IntNeg(chi)
        wnpsi, wnchi = weak_negate(npsi), weak_negate(nchi)
        a = emit_negation_or_negated(b, psi)
        c = emit_negation_or_negated(b, chi)
        with b.square(npsi) as s1:
            k = b.line(IntOr(npsi, nchi), "ior1", s1.hyp)
            m = b.line(np, "nand2", k)
            b.line(target, "ior1", m)
        with b.square(wnpsi) as s2:
            with b.square(nchi) as s21:
                k = b.line(IntOr(npsi, nchi), "ior2", s21.hyp)
                m = b.line(np, "nand2", k)
                b.line(target, "ior1", m)
            with b.square(wnchi) as s22:
                k = b.line(IntAnd(wnpsi, wnchi), "iand", s2.hyp, s22.hyp)
                b.line(target, "ior2", k)
            b.line(target, "eor", c, s21.span, s22.span)
        return b.line(target, "eor", a, s1.span, s2.span)
    if isinstance(phi, IntOr):
        psi, chi = phi.left, phi.right
        npsi, nchi = IntNeg(psi), IntNeg(chi)
        wnpsi, wnchi = weak_negate(npsi), weak_negate(nchi)
        a = emit_negation_or_negated(b, psi)
        c = emit_negation_or_negated(b, chi)
        with b.square(npsi) as s1:
            with b.square(nchi) as s11:
                k = b.line(IntAnd(npsi, nchi), "iand", s1.hyp, s11.hyp)
                m = b.line(np, "nor2", k)
                b.line(target, "ior1", m)
            with b.square(wnchi) as s12:
                k = b.line(IntOr(wnpsi, wnchi), "ior2", s12.hyp)
                b.line(target, "ior2", k)
            b.line(target, "eor", c, s11.span, s12.span)
        with b.square(wnpsi) as s2:
            k = b.line(IntOr(wnpsi, wnchi), "ior1", s2.hyp)
            b.line(target, "ior2", k)
        return b.line(target, "eor", a, s1.span, s2.span)
    if isinstance(phi, IntImp):
        psi, chi = phi.left, phi.right
        nchi = IntNeg(chi)
        wnchi = weak_negate(nchi)
        core = IntAnd(psi, nchi)
        guard = IntImp(core, FALSUM)
        cm = b.line(IntOr(guard, diamond(core)), "cem")
        with b.square(guard) as s1:
            with b.round(psi) as r:
                c = emit_negation_or_negated(b, chi)
                with b.square(nchi) as s11:
                    k = b.line(core, "iand", r.hyp, s11.hyp)
                    bot = b.line(FALSUM, "eimp", s1.hyp, k)
                    b.line(wnchi, "efq", bot)
                with b.square(wnchi) as s12:
                    pass
                b.line(wnchi, "eor", c, s11.span, s12.span)
            imp = b.line(IntImp(psi, wnchi), "iimp", r.span)
            b.line(target, "ior2", imp)
        with b.square(diamond(core)) as s2:
            m = b.line(np, "nimp2", s2.hyp)
            b.line(target, "ior1", m)
        return b.line(target, "eor", cm, s1.span, s2.span)
    raise TypeError(f"not a formula: {phi!r}")


def emit_clash(b: ProofBuilder, phi: Formula, at_phi: int, at_w: int) -> int:
    """Derive _|_ from line at_phi (phi) and line at_w (-phi)."""
    if is_l_formula(phi):
        np = IntNeg(phi)
        with b.round(np) as r:
            b.line(FALSUM, "eneg", at_phi, r.hyp)
        g = b.line(IntImp(np, FALSUM), "iimp", r.span)
        return b.line(FALSUM, "eneg", g, at_w)
    if isinstance(phi, IntNeg):
        return emit_negated_clash(b, phi.operand, at_phi, at_w)
    if isinstance(phi, IntAnd):
        psi, chi = phi.left, phi.right
        with b.square(weak_negate(psi)) as s1:
            k = b.line(psi, "eand1", at_phi)
            emit_clash(b, psi, k, s1.hyp)
        with b.square(weak_negate(chi)) as s2:
            k = b.line(chi, "eand2", at_phi)
            emit_clash(b, chi, k, s2.hyp)
        return b.line(FALSUM, "eor", at_w, s1.span, s2.span)
    if isinstance(phi, IntOr):
        psi, chi = phi.left, phi.right
        with b.square(psi) as s1:
            k = b.line(weak_negate(psi), "eand1", at_w)
            emit_clash(b, psi, s1.hyp, k)
        with b.square(chi) as s2:
            k = b.line(weak_negate(chi), "eand2", at_w)
            emit_clash(b, chi, s2.hyp, k)
        return b.line(FALSUM, "eor", at_phi, s1.span, s2.span)
    if isinstance(phi, IntImp):
        psi, chi = phi.left, phi.right
        wchi = weak_negate(chi)
        core = IntAnd(psi, wchi)
        with b.round(core) as r:
            m1 = b.line(psi, "eand1", r.hyp)
            m2 = b.line(chi, "eimp", at_phi, m1)
            m3 = b.line(wchi, "eand2", r.hyp)
            emit_clash(b, chi, m2, m3)
        g = b.line(IntImp(core, FALSUM), "iimp", r.span)
        return b.line(FALSUM, "eneg", g, at_w)
    raise TypeError(f"not a formula: {phi!r}")


def emit_negated_clash(b: ProofBuilder, phi: Formula, at_np: int, at_w: int) -> int:
    """Derive _|_ from line at_np (!phi) and line at_w (-!phi)."""
    if is_l_formula(phi):
        with b.round(phi) as r:
            b.line(FALSUM, "eneg", r.hyp, at_np)
        g = b.line(IntImp(phi, FALSUM), "iimp", r.span)
        return b.line(FALSUM, "eneg", g, at_w)
    if isinstance(phi, IntNeg):
        k = b.line(phi.operand, "nn1", at_np)
        return emit_clash(b, phi.operand, k, at_w)
    if isinstance(phi, IntAnd):
        psi, chi = phi.left, phi.right
        npsi, nchi = IntNeg(psi), IntNeg(chi)
        k = b.line(IntOr(npsi, nchi), "nand1", at_np)
        with b.square(npsi) as s1:
            m = b.line(weak_negate(npsi), "eand1", at_w)
            emit_negated_clash(b, psi, s1.hyp, m)
        with b.square(nchi) as s2:
            m = b.line(weak_negate(nchi), "eand2", at_w)
            emit_negated_clash(b, chi, s2.hyp, m)
        return b.line(FALSUM, "eor", k, s1.span, s2.span)
    if isinstance(phi, IntOr):
        psi, chi = phi.left, phi.right
        npsi, nchi = IntNeg(psi), IntNeg(chi)
        k = b.line(IntAnd(npsi, nchi), "nor1", at_np)
        with b.square(weak_negate(npsi)) as s1:
            m = b.line(npsi, "eand1", k)
            emit_negated_clash(b, psi, m, s1.hyp)
        with b.square(weak_negate(nchi)) as s2:
            m = b.line(nchi, "eand2", k)
            emit_negated_clash(b, chi, m, s2.hyp)
        return b.line(FALSUM, "eor", at_w, s1.span, s2.span)
    if isinstance(phi, IntImp):
        psi, chi = phi.left, phi.right
        nchi = IntNeg(chi)
        core = IntAnd(psi, nchi)
        k = b.line(diamond(core), "nimp1", at_np)
        with b.round(core) as r:
            m1 = b.line(psi, "eand1", r.hyp)
            m2 = b.line(nchi, "eand2", r.hyp)
            m3 = b.line(weak_negate(nchi), "eimp", at_w, m1)
            emit_negated_clash(b, chi, m2, m3)
        g = b.line(IntImp(core, FALSUM), "iimp", r.span)
        return b.line(FALSUM, "eneg", g, k)
    raise TypeError(f"not a formula: {phi!r}")


def excluded_proof(phi: Formula) -> str:
    """Premise-free proof of phi | -phi."""
    b = ProofBuilder()
    emit_excluded_or_negated(b, phi)
    return b.render()


def negated_excluded_proof(phi: Formula) -> str:
    """Premise-free proof of !phi | -!phi."""
    b = ProofBuilder()
    emit_negation_or_negated(b, phi)
    return b.render()


def clash_proof(phi: Formula) -> str:
    """Proof of _|_ from premises phi and -phi."""
    b = ProofBuilder()
    p1 = b.premise(phi)
    p2 = b.premise(weak_negate(phi))
    emit_clash(b, phi, p1, p2)
    return b.render()


def negated_clash_proof(phi: Formula) -> str:
    """Proof of _|_ from premises !phi and -!phi."""
    b = ProofBuilder()
    p1 = b.premise(IntNeg(phi))
    p2 = b.premise(weak_negate(IntNeg(phi)))
    emit_negated_clash(b, phi, p1, p2)
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
        out[f"gen_negated_excluded_{tag}.prf"] = negated_excluded_proof(phi)
        out[f"gen_negated_clash_{tag}.prf"] = negated_clash_proof(phi)
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
