"""Fitch-style proof documents: parsing, scoping and rule checking.

File format, one entry per line:

    <markers> <formula> ; <rule> <citations>

Markers give the nesting: one character per open subproof, ``o`` for a
round (suppositional) subproof and ``*`` for a square (case-split)
subproof.  The first line of a subproof carries the rule ``hyp``; a
``hyp`` at the current depth closes the open subproof and starts a
sibling.  Citations are comma separated, either a line number ``n`` or
a closed subproof span ``a-b`` (``a`` may equal ``b``).  ``#`` starts
a comment and line numbers count formula lines only.

Scoping is standard Fitch plus one twist: citing a line from inside a
round subproof is legal only if the line sits inside that subproof too
or its formula is safe (safe formulas survive strengthening of the
supposition, unsafe ones may not).  Square subproofs impose no such
restriction.  Each checked line reports at most one violation; scope
problems win over unsafe imports, which win over rule-schema problems.

``SCHEMAS`` is the rule table: each rule's cited lines, subproofs and
conclusion as patterns over metavariables, matched by ``_match``.
Only the n-ary ``diaplus`` has its own check.
"""
from __future__ import annotations

import re

from .contexts import DEFAULT_ATOM_BOUND, DeniabilityVariant
from .formulas import (
    Atom,
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
    LayerError,
    diamond,
    is_l_formula,
    is_safe,
    match_diamond_chain,
    plus_disj,
    _Binary,
    _Unary,
)
from .records import Record, setters
from .semantics import entails
from .syntax import ParseError, parse

ROUND = "round"
SQUARE = "square"
_KIND_BY_CHAR = {"o": ROUND, "*": SQUARE}

RULE_MISMATCH = "RULE_MISMATCH"
NOT_L_FORMULA = "NOT_L_FORMULA"
WRONG_SUBPROOF_KIND = "WRONG_SUBPROOF_KIND"
UNSAFE_CITATION = "UNSAFE_CITATION"
CITATION_SCOPE = "CITATION_SCOPE"
MACRO_SHAPE = "MACRO_SHAPE"

# The rule table: rule name -> (cited-line patterns, subproof
# (hypothesis, conclusion) patterns, conclusion pattern, RULE_MISMATCH
# detail).  Atoms are metavariables (see _match), named as in the
# README's table: a, b, c for extensional formulas, x, y, z for any.
a, b, c, x, y, z = map(Atom, "abcxyz")
SCHEMAS = {
    "icap": ((a, b), (), ExtAnd(a, b), "conclusion is not the /\\ of the cited lines"),
    "ecap1": ((ExtAnd(a, b),), (), a, "cited line is not a /\\ with this left part"),
    "ecap2": ((ExtAnd(a, b),), (), b, "cited line is not a /\\ with this right part"),
    "icup1": ((a,), (), ExtOr(a, b), "conclusion is not a \\/ with the cited line on the left"),
    "icup2": ((b,), (), ExtOr(a, b), "conclusion is not a \\/ with the cited line on the right"),
    "ecup": ((ExtOr(a, b),), ((a, c), (b, c)), c,
             "subproofs do not run from the disjuncts to the conclusion"),
    "isup": ((), ((a, b),), ExtImp(a, b), "conclusion is not hypothesis => subproof conclusion"),
    "esup": ((ExtImp(a, b), a), (), b, "cited lines do not form a => detachment"),
    "isim": ((), ((a, FALSUM),), ExtNeg(a), "subproof must run from the negated formula to _|_"),
    "esim1": ((a, ExtNeg(a)), (), FALSUM, "cited lines are not a formula and its ~ negation"),
    "esim2": ((ExtNeg(ExtNeg(a)),), (), a, "cited line is not the double ~ of the conclusion"),
    "iand": ((x, y), (), IntAnd(x, y), "conclusion is not the & of the cited lines"),
    "eand1": ((IntAnd(x, y),), (), x, "cited line is not a & with this left part"),
    "eand2": ((IntAnd(x, y),), (), y, "cited line is not a & with this right part"),
    "ior1": ((x,), (), IntOr(x, y), "conclusion is not a | with the cited line on the left"),
    "ior2": ((y,), (), IntOr(x, y), "conclusion is not a | with the cited line on the right"),
    "eor": ((IntOr(x, y),), ((x, z), (y, z)), z,
            "subproofs do not run from the disjuncts to the conclusion"),
    "iimp": ((), ((x, y),), IntImp(x, y), "conclusion is not hypothesis -> subproof conclusion"),
    "eimp": ((IntImp(x, y), x), (), y, "cited lines do not form a -> detachment"),
    "ineg": ((), ((a, FALSUM),), IntNeg(a), "subproof must run from the negated formula to _|_"),
    "eneg": ((x, IntNeg(x)), (), FALSUM, "cited lines are not a formula and its ! negation"),
    "efq": ((FALSUM,), (), x, "cited line is not _|_"),
    "nn1": ((IntNeg(IntNeg(x)),), (), x, "cited line is not the double ! of the conclusion"),
    "nn2": ((x,), (), IntNeg(IntNeg(x)), "conclusion is not the double ! of the cited line"),
    "nand1": ((IntNeg(IntAnd(x, y)),), (), IntOr(IntNeg(x), IntNeg(y)),
              "lines are not a !(... & ...) and its | of negations"),
    "nand2": ((IntOr(IntNeg(x), IntNeg(y)),), (), IntNeg(IntAnd(x, y)),
              "lines are not a | of negations and its !(... & ...)"),
    "nor1": ((IntNeg(IntOr(x, y)),), (), IntAnd(IntNeg(x), IntNeg(y)),
             "lines are not a !(... | ...) and its & of negations"),
    "nor2": ((IntAnd(IntNeg(x), IntNeg(y)),), (), IntNeg(IntOr(x, y)),
             "lines are not a & of negations and its !(... | ...)"),
    "nimp1": ((IntNeg(IntImp(x, y)),), (), diamond(IntAnd(x, IntNeg(y))),
              "lines are not a !(... -> ...) and its <> unfolding"),
    "nimp2": ((diamond(IntAnd(x, IntNeg(y))),), (), IntNeg(IntImp(x, y)),
              "lines are not a <> unfolding and its !(... -> ...)"),
    "cem": ((), (), IntOr(IntImp(x, FALSUM), diamond(x)),
            "conclusion is not of the shape (phi -> _|_) | <>phi"),
}
del a, b, c, x, y, z

# A disjunction elimination whose cited line is no disjunction says so.
_NOT_A_DISJUNCTION = {
    "ecup": "cited line is not a \\/ disjunction",
    "eor": "cited line is not a | disjunction",
}

# rule name -> (line citations, subproof citations); spans trail lines.
# diaplus is n-ary, so it has no schema and keeps its own check.
RULE_ARITY = {
    rule: (len(cited), len(spans)) for rule, (cited, spans, _, _) in SCHEMAS.items()
} | {"diaplus": (1, 0)}
RULES = frozenset(RULE_ARITY) | {"premise", "hyp"}


class ProofParseError(ValueError):
    def __init__(self, message: str, source_line: int | None = None):
        if source_line is not None:
            message = f"line {source_line}: {message}"
        super().__init__(message)
        self.source_line = source_line


class Citation(Record):
    __slots__ = __match_args__ = ("start", "end")

    def __init__(self, start: int, end: int | None = None):
        _set_start(self, start)
        _set_end(self, end)

    @property
    def is_span(self) -> bool:
        return self.end is not None

    def __str__(self) -> str:
        return f"{self.start}-{self.end}" if self.is_span else str(self.start)


class ProofLine(Record):
    __slots__ = __match_args__ = (
        "number", "depth", "formula", "rule", "citations", "chain", "source_line"
    )

    def __init__(
        self,
        number: int,
        depth: int,
        formula: Formula,
        rule: str,
        citations: tuple[Citation, ...],
        chain: tuple[int, ...],
        source_line: int,
    ):
        _set_number(self, number)
        _set_depth(self, depth)
        _set_formula(self, formula)
        _set_rule(self, rule)
        _set_citations(self, citations)
        _set_chain(self, chain)
        _set_source_line(self, source_line)


class Subproof(Record):
    __slots__ = __match_args__ = ("ident", "kind", "start", "hyp", "parent_chain", "end")
    # The parser sets end when the subproof closes, so fields stay
    # assignable and the record unhashable.
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(
        self,
        ident: int,
        kind: str,
        start: int,
        hyp: int,
        parent_chain: tuple[int, ...],
        end: int = -1,
    ):
        self.ident = ident
        self.kind = kind
        self.start = start
        self.hyp = hyp
        self.parent_chain = parent_chain
        self.end = end

    @property
    def depth(self) -> int:
        return len(self.parent_chain) + 1


class Violation(Record):
    __slots__ = __match_args__ = ("line", "code", "detail")

    def __init__(self, line: int, code: str, detail: str):
        _set_line(self, line)
        _set_code(self, code)
        _set_detail(self, detail)

    def __str__(self) -> str:
        return f"line {self.line}: {self.code}: {self.detail}"


class Verdict(Record):
    __slots__ = __match_args__ = ("ok", "violations")

    def __init__(self, ok: bool, violations: tuple[Violation, ...]):
        _set_ok(self, ok)
        _set_violations(self, violations)


class ProofDoc(Record):
    __slots__ = __match_args__ = ("lines", "subproofs")

    def __init__(self, lines: tuple[ProofLine, ...], subproofs: tuple[Subproof, ...]):
        _set_lines(self, lines)
        _set_subproofs(self, subproofs)

    def line(self, number: int) -> ProofLine:
        return self.lines[number - 1]

    def span(self, start: int, end: int) -> Subproof | None:
        for s in self.subproofs:
            if s.start == start and s.end == end:
                return s
        return None

    def premises(self) -> list[Formula]:
        return [l.formula for l in self.lines if l.rule == "premise"]

    def conclusion(self) -> Formula:
        last = self.lines[-1]
        if last.depth != 0:
            raise ValueError("proof ends inside a subproof")
        return last.formula


# Constructors set fields through the slot descriptors themselves, as
# formulas does.
_set_start, _set_end = setters(Citation)
(
    _set_number, _set_depth, _set_formula, _set_rule, _set_citations, _set_chain,
    _set_source_line,
) = setters(ProofLine)
_set_line, _set_code, _set_detail = setters(Violation)
_set_ok, _set_violations = setters(Verdict)
_set_lines, _set_subproofs = setters(ProofDoc)


_MARKED = re.compile(r"([*o]+)\s+(.*)$")
_CITE = re.compile(r"(\d+)-(\d+)$")


def parse_proof(text: str) -> ProofDoc:
    lines: list[ProofLine] = []
    subproofs: list[Subproof] = []
    open_stack: list[Subproof] = []
    # The open subproofs' idents and marker characters, outermost first.
    # They change only when a hyp opens a subproof or a line closes some.
    chain: tuple[int, ...] = ()
    marks = ""
    seen_body = False
    # One node table for the whole proof (see lad.syntax), so a
    # subformula that recurs on any lines is one object, and check's
    # matching and verify_sound's table lookups find it by identity.
    # Proofs restate whole lines too (hypotheses reiterated, case
    # branches ending in the conclusion), so each distinct text is
    # parsed once.
    nodes: dict = {}
    parsed: dict[str, Formula] = {}

    def close_down(keep: int) -> None:
        nonlocal chain, marks
        for sub in open_stack[keep:]:
            sub.end = len(lines)
        del open_stack[keep:]
        chain, marks = chain[:keep], marks[:keep]

    for source_line, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        m = _MARKED.match(stripped)
        if m:
            markers, rest = m.group(1), m.group(2)
        else:
            markers, rest = "", stripped
        depth = len(markers)
        if ";" not in rest:
            raise ProofParseError("missing ';' between formula and rule", source_line)
        formula_text, rule_part = rest.split(";", 1)
        formula = parsed.get(formula_text)
        if formula is None:
            try:
                formula = parse(formula_text, nodes)
            except (ParseError, LayerError) as exc:
                raise ProofParseError(f"bad formula: {exc}", source_line) from exc
            parsed[formula_text] = formula
        fields = rule_part.strip().split(None, 1)
        if not fields:
            raise ProofParseError("missing rule name", source_line)
        rule = fields[0]
        if rule not in RULES:
            raise ProofParseError(f"unknown rule {rule!r}", source_line)
        citations: list[Citation] = []
        if len(fields) > 1:
            for token in fields[1].split(","):
                token = token.strip()
                if token.isdecimal():  # what \d+ matches, without the regex
                    citations.append(Citation(int(token)))
                    continue
                cm = _CITE.fullmatch(token)
                if not cm:
                    raise ProofParseError(f"bad citation {token!r}", source_line)
                citations.append(Citation(int(cm.group(1)), int(cm.group(2))))
        number = len(lines) + 1

        if rule in ("premise", "hyp") and citations:
            raise ProofParseError(f"{rule} takes no citations", source_line)
        if rule == "premise":
            if depth != 0:
                raise ProofParseError("premise inside a subproof", source_line)
            if seen_body:
                raise ProofParseError("premise after a non-premise line", source_line)
        else:
            seen_body = True

        if rule == "hyp":
            if depth == 0:
                raise ProofParseError("hyp outside any subproof", source_line)
            if depth > len(chain) + 1:
                raise ProofParseError("marker depth skips a level", source_line)
            if depth <= len(chain):
                close_down(depth - 1)
            if markers[:-1] != marks:
                raise ProofParseError("marker kind mismatch", source_line)
            sub = Subproof(len(subproofs), _KIND_BY_CHAR[markers[-1]], number, number, chain)
            subproofs.append(sub)
            open_stack.append(sub)
            chain += (sub.ident,)
            marks = markers
        else:
            if depth > len(chain):
                if depth == len(chain) + 1:
                    raise ProofParseError("subproof must start with hyp", source_line)
                raise ProofParseError("marker depth skips a level", source_line)
            if depth < len(chain):
                close_down(depth)
            if markers != marks:
                raise ProofParseError("marker kind mismatch", source_line)

        lines.append(
            ProofLine(number, depth, formula, rule, tuple(citations), chain, source_line)
        )

    if not lines:
        raise ProofParseError("empty proof")
    close_down(0)
    return ProofDoc(tuple(lines), tuple(subproofs))


def accessible(doc: ProofDoc, cited: int, at: int) -> bool:
    """Is plain line ``cited`` usable from line ``at``?"""
    if not 1 <= cited < at <= len(doc.lines):
        return False
    chain_a = doc.line(cited).chain
    chain_x = doc.line(at).chain
    return chain_x[: len(chain_a)] == chain_a


def _innermost_round(doc: ProofDoc, chain: tuple[int, ...]) -> int | None:
    for ident in reversed(chain):
        if doc.subproofs[ident].kind == ROUND:
            return ident
    return None


def check(doc: ProofDoc) -> Verdict:
    violations: list[Violation] = []
    for line in doc.lines:
        if line.rule in ("premise", "hyp"):
            continue
        v = _check_line(doc, line)
        if v is not None:
            violations.append(v)
    return Verdict(not violations, tuple(violations))


def _check_line(doc: ProofDoc, line: ProofLine) -> Violation | None:
    x = line.number

    # Scope pass over every citation, in citation order.
    resolved: list[Formula | Subproof] = []
    for cit in line.citations:
        if cit.is_span:
            sub = doc.span(cit.start, cit.end)
            if (
                sub is None
                or x <= sub.end
                or doc.line(x).chain != sub.parent_chain
            ):
                return Violation(
                    x, CITATION_SCOPE, f"subproof {cit} is not citable from line {x}"
                )
            resolved.append(sub)
        else:
            if not accessible(doc, cit.start, x):
                return Violation(
                    x, CITATION_SCOPE, f"line {cit} is not accessible from line {x}"
                )
            resolved.append(doc.line(cit.start).formula)

    # Unsafe-import pass: only round subproofs restrict what crosses in.
    ring = _innermost_round(doc, line.chain)
    if ring is not None:
        for cit in line.citations:
            if cit.is_span:
                continue
            cited = doc.line(cit.start)
            if ring not in cited.chain and not is_safe(cited.formula):
                return Violation(
                    x,
                    UNSAFE_CITATION,
                    f"line {cit} brings an unsafe formula into a round subproof",
                )

    # Rule schema pass.
    return _check_schema(doc, line, resolved)


def _match(pattern: Formula, phi: Formula, env: dict[str, Formula]) -> bool:
    """Does phi have the shape of pattern?  Each ``Atom`` of the pattern
    is a metavariable: its first occurrence binds it in env to the
    subformula there, and every later one must be == to that binding.
    """
    if pattern.__class__ is Atom:
        bound = env.setdefault(pattern.name, phi)
        return bound is phi or bound == phi
    if pattern.__class__ is not phi.__class__:
        return False
    # Children by name, not through children(): this runs for every
    # pattern node of every checked line.
    if isinstance(pattern, _Binary):
        return _match(pattern.left, phi.left, env) and _match(pattern.right, phi.right, env)
    return not isinstance(pattern, _Unary) or _match(pattern.operand, phi.operand, env)


def _mismatch(line: ProofLine, why: str) -> Violation:
    return Violation(line.number, RULE_MISMATCH, why)


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
    pairs = []  # (hypothesis, conclusion) of each subproof
    for sub in subs:
        last = doc.line(sub.end)
        if last.depth != sub.depth:
            return _mismatch(
                line, f"subproof {sub.start}-{sub.end} has no conclusion at its own depth"
            )
        pairs.append((doc.line(sub.hyp).formula, last.formula))

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

    cited, spans, conclusion, detail = SCHEMAS[rule]
    env: dict[str, Formula] = {}
    for pattern, f in zip(cited, fs):
        if not _match(pattern, f, env):
            return _mismatch(line, _NOT_A_DISJUNCTION.get(rule, detail))
    # Side conditions, reported before the rest of the schema.
    if rule == "ecup" and not is_l_formula(x):
        return Violation(line.number, NOT_L_FORMULA, "ecup concludes extensional formulas only")
    if rule == "ineg" and not is_l_formula(pairs[0][0]):
        return Violation(line.number, NOT_L_FORMULA, "ineg supposes extensional formulas only")
    for (hyp, concl), (h, c) in zip(spans, pairs):
        if not (_match(hyp, h, env) and _match(concl, c, env)):
            return _mismatch(line, detail)
    if _match(conclusion, x, env):
        return None
    return _mismatch(line, detail)


def verify_sound(
    doc: ProofDoc,
    variant: DeniabilityVariant | str = DeniabilityVariant.GAUKER,
    atom_bound: int = DEFAULT_ATOM_BOUND,
) -> bool:
    """Do the premises entail the conclusion semantically?"""
    return entails(doc.premises(), doc.conclusion(), variant, atom_bound)
