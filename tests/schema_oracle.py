"""The per-rule proof-schema checker that ``lad.proofs`` replaced with
the ``SCHEMAS`` table, kept verbatim as a test oracle: ``_check_schema``
here and in ``lad.proofs`` must return the same violation, line, code
and detail alike, for every proof line.  Not for use outside the tests.
"""
from __future__ import annotations

from lad.formulas import (
    ExtAnd,
    ExtImp,
    ExtNeg,
    ExtOr,
    FALSUM,
    Formula,
    IntAnd,
    IntImp,
    IntNeg,
    IntOr,
    diamond,
    is_l_formula,
    match_diamond,
    match_diamond_chain,
    plus_disj,
)
from lad.proofs import (
    MACRO_SHAPE,
    NOT_L_FORMULA,
    ROUND,
    RULE_MISMATCH,
    SQUARE,
    WRONG_SUBPROOF_KIND,
    ProofDoc,
    ProofLine,
    Subproof,
    Violation,
)

# rule name -> (line citations, subproof citations); spans trail lines.
RULE_ARITY = {
    "icap": (2, 0), "ecap1": (1, 0), "ecap2": (1, 0),
    "icup1": (1, 0), "icup2": (1, 0), "ecup": (1, 2),
    "isup": (0, 1), "esup": (2, 0),
    "isim": (0, 1), "esim1": (2, 0), "esim2": (1, 0),
    "iand": (2, 0), "eand1": (1, 0), "eand2": (1, 0),
    "ior1": (1, 0), "ior2": (1, 0), "eor": (1, 2),
    "iimp": (0, 1), "eimp": (2, 0),
    "ineg": (0, 1), "eneg": (2, 0), "efq": (1, 0),
    "nn1": (1, 0), "nn2": (1, 0),
    "nand1": (1, 0), "nand2": (1, 0),
    "nor1": (1, 0), "nor2": (1, 0),
    "nimp1": (1, 0), "nimp2": (1, 0),
    "cem": (0, 0), "diaplus": (1, 0),
}


def _mismatch(line: ProofLine, why: str) -> Violation:
    return Violation(line.number, RULE_MISMATCH, why)


def _sub_formulas(doc: ProofDoc, sub: Subproof) -> tuple[Formula, Formula] | None:
    """(hypothesis, conclusion) of a subproof, None when the subproof
    never returns to its own depth for a conclusion.
    """
    last = doc.line(sub.end)
    if last.depth != sub.depth:
        return None
    return doc.line(sub.hyp).formula, last.formula


def _check_schema(doc: ProofDoc, line: ProofLine, resolved: list) -> Violation | None:
    rule = line.rule
    x = line.formula
    want_lines, want_spans = RULE_ARITY[rule]
    kinds = [isinstance(r, Subproof) for r in resolved]
    if kinds != [False] * want_lines + [True] * want_spans:
        return _mismatch(
            line,
            f"{rule} wants {want_lines} line citation(s) then "
            f"{want_spans} subproof citation(s)",
        )
    fs = resolved[:want_lines]
    subs: list[Subproof] = resolved[want_lines:]

    need_kind = SQUARE if rule == "eor" else ROUND
    for sub in subs:
        if sub.kind != need_kind:
            return Violation(
                line.number,
                WRONG_SUBPROOF_KIND,
                f"{rule} needs a {need_kind} subproof, {sub.start}-{sub.end} is {sub.kind}",
            )
    pairs = []
    for sub in subs:
        hc = _sub_formulas(doc, sub)
        if hc is None:
            return _mismatch(
                line, f"subproof {sub.start}-{sub.end} has no conclusion at its own depth"
            )
        pairs.append(hc)

    if rule == "icap":
        if isinstance(x, ExtAnd) and x.left == fs[0] and x.right == fs[1]:
            return None
        return _mismatch(line, "conclusion is not the /\\ of the cited lines")
    if rule == "ecap1":
        if isinstance(fs[0], ExtAnd) and x == fs[0].left:
            return None
        return _mismatch(line, "cited line is not a /\\ with this left part")
    if rule == "ecap2":
        if isinstance(fs[0], ExtAnd) and x == fs[0].right:
            return None
        return _mismatch(line, "cited line is not a /\\ with this right part")
    if rule == "icup1":
        if isinstance(x, ExtOr) and x.left == fs[0]:
            return None
        return _mismatch(line, "conclusion is not a \\/ with the cited line on the left")
    if rule == "icup2":
        if isinstance(x, ExtOr) and x.right == fs[0]:
            return None
        return _mismatch(line, "conclusion is not a \\/ with the cited line on the right")
    if rule == "ecup":
        d = fs[0]
        if not isinstance(d, ExtOr):
            return _mismatch(line, "cited line is not a \\/ disjunction")
        if not is_l_formula(x):
            return Violation(line.number, NOT_L_FORMULA, "ecup concludes extensional formulas only")
        (h1, c1), (h2, c2) = pairs
        if h1 == d.left and h2 == d.right and c1 == x and c2 == x:
            return None
        return _mismatch(line, "subproofs do not run from the disjuncts to the conclusion")
    if rule == "isup":
        h, c = pairs[0]
        if isinstance(x, ExtImp) and x.left == h and x.right == c:
            return None
        return _mismatch(line, "conclusion is not hypothesis => subproof conclusion")
    if rule == "esup":
        if isinstance(fs[0], ExtImp) and fs[1] == fs[0].left and x == fs[0].right:
            return None
        return _mismatch(line, "cited lines do not form a => detachment")
    if rule == "isim":
        h, c = pairs[0]
        if c == FALSUM and isinstance(x, ExtNeg) and x.operand == h:
            return None
        return _mismatch(line, "subproof must run from the negated formula to _|_")
    if rule == "esim1":
        if isinstance(fs[1], ExtNeg) and fs[1].operand == fs[0] and x == FALSUM:
            return None
        return _mismatch(line, "cited lines are not a formula and its ~ negation")
    if rule == "esim2":
        f = fs[0]
        if (
            isinstance(f, ExtNeg)
            and isinstance(f.operand, ExtNeg)
            and x == f.operand.operand
        ):
            return None
        return _mismatch(line, "cited line is not the double ~ of the conclusion")
    if rule == "iand":
        if isinstance(x, IntAnd) and x.left == fs[0] and x.right == fs[1]:
            return None
        return _mismatch(line, "conclusion is not the & of the cited lines")
    if rule == "eand1":
        if isinstance(fs[0], IntAnd) and x == fs[0].left:
            return None
        return _mismatch(line, "cited line is not a & with this left part")
    if rule == "eand2":
        if isinstance(fs[0], IntAnd) and x == fs[0].right:
            return None
        return _mismatch(line, "cited line is not a & with this right part")
    if rule == "ior1":
        if isinstance(x, IntOr) and x.left == fs[0]:
            return None
        return _mismatch(line, "conclusion is not a | with the cited line on the left")
    if rule == "ior2":
        if isinstance(x, IntOr) and x.right == fs[0]:
            return None
        return _mismatch(line, "conclusion is not a | with the cited line on the right")
    if rule == "eor":
        d = fs[0]
        if not isinstance(d, IntOr):
            return _mismatch(line, "cited line is not a | disjunction")
        (h1, c1), (h2, c2) = pairs
        if h1 == d.left and h2 == d.right and c1 == x and c2 == x:
            return None
        return _mismatch(line, "subproofs do not run from the disjuncts to the conclusion")
    if rule == "iimp":
        h, c = pairs[0]
        if isinstance(x, IntImp) and x.left == h and x.right == c:
            return None
        return _mismatch(line, "conclusion is not hypothesis -> subproof conclusion")
    if rule == "eimp":
        if isinstance(fs[0], IntImp) and fs[1] == fs[0].left and x == fs[0].right:
            return None
        return _mismatch(line, "cited lines do not form a -> detachment")
    if rule == "ineg":
        h, c = pairs[0]
        if not is_l_formula(h):
            return Violation(
                line.number, NOT_L_FORMULA, "ineg supposes extensional formulas only"
            )
        if c == FALSUM and isinstance(x, IntNeg) and x.operand == h:
            return None
        return _mismatch(line, "subproof must run from the negated formula to _|_")
    if rule == "eneg":
        if isinstance(fs[1], IntNeg) and fs[1].operand == fs[0] and x == FALSUM:
            return None
        return _mismatch(line, "cited lines are not a formula and its ! negation")
    if rule == "efq":
        if fs[0] == FALSUM:
            return None
        return _mismatch(line, "cited line is not _|_")
    if rule == "nn1":
        f = fs[0]
        if isinstance(f, IntNeg) and isinstance(f.operand, IntNeg) and x == f.operand.operand:
            return None
        return _mismatch(line, "cited line is not the double ! of the conclusion")
    if rule == "nn2":
        if isinstance(x, IntNeg) and isinstance(x.operand, IntNeg) and x.operand.operand == fs[0]:
            return None
        return _mismatch(line, "conclusion is not the double ! of the cited line")
    if rule == "nand1":
        f = fs[0]
        if isinstance(f, IntNeg) and isinstance(f.operand, IntAnd):
            want = IntOr(IntNeg(f.operand.left), IntNeg(f.operand.right))
            if x == want:
                return None
        return _mismatch(line, "lines are not a !(... & ...) and its | of negations")
    if rule == "nand2":
        if (
            isinstance(fs[0], IntOr)
            and isinstance(fs[0].left, IntNeg)
            and isinstance(fs[0].right, IntNeg)
            and x == IntNeg(IntAnd(fs[0].left.operand, fs[0].right.operand))
        ):
            return None
        return _mismatch(line, "lines are not a | of negations and its !(... & ...)")
    if rule == "nor1":
        f = fs[0]
        if isinstance(f, IntNeg) and isinstance(f.operand, IntOr):
            want = IntAnd(IntNeg(f.operand.left), IntNeg(f.operand.right))
            if x == want:
                return None
        return _mismatch(line, "lines are not a !(... | ...) and its & of negations")
    if rule == "nor2":
        if (
            isinstance(fs[0], IntAnd)
            and isinstance(fs[0].left, IntNeg)
            and isinstance(fs[0].right, IntNeg)
            and x == IntNeg(IntOr(fs[0].left.operand, fs[0].right.operand))
        ):
            return None
        return _mismatch(line, "lines are not a & of negations and its !(... | ...)")
    if rule == "nimp1":
        f = fs[0]
        if isinstance(f, IntNeg) and isinstance(f.operand, IntImp):
            want = diamond(IntAnd(f.operand.left, IntNeg(f.operand.right)))
            if x == want:
                return None
        return _mismatch(line, "lines are not a !(... -> ...) and its <> unfolding")
    if rule == "nimp2":
        inner = match_diamond(fs[0])
        if (
            inner is not None
            and isinstance(inner, IntAnd)
            and isinstance(inner.right, IntNeg)
            and x == IntNeg(IntImp(inner.left, inner.right.operand))
        ):
            return None
        return _mismatch(line, "lines are not a <> unfolding and its !(... -> ...)")
    if rule == "cem":
        if (
            isinstance(x, IntOr)
            and isinstance(x.left, IntImp)
            and x.left.right == FALSUM
            and x.right == diamond(x.left.left)
        ):
            return None
        return _mismatch(line, "conclusion is not of the shape (phi -> _|_) | <>phi")
    if rule == "diaplus":
        alphas = match_diamond_chain(fs[0])
        if alphas is None:
            return Violation(
                line.number, MACRO_SHAPE, "cited line is not a & chain of <> over extensional formulas"
            )
        if x == diamond(plus_disj(alphas)):
            return None
        return Violation(
            line.number, MACRO_SHAPE, "conclusion is not <> of the (+) of the cited possibilities"
        )
    raise AssertionError(f"unhandled rule {rule}")
