import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schema_oracle
from conftest import star_formulas
from lad import corpus
from lad.formulas import (
    FALSUM,
    Atom,
    ExtAnd,
    ExtImp,
    ExtNeg,
    ExtOr,
    IntAnd,
    IntImp,
    IntNeg,
    IntOr,
    all_paths,
    subformula_at,
    substitute,
)
from lad.proofs import (
    CITATION_SCOPE,
    MACRO_SHAPE,
    NOT_L_FORMULA,
    RULE_ARITY,
    RULE_MISMATCH,
    RULES,
    SCHEMAS,
    UNSAFE_CITATION,
    WRONG_SUBPROOF_KIND,
    ProofLine,
    ProofParseError,
    _check_schema,
    accessible,
    check,
    parse_proof,
    verify_sound,
)
from lad.syntax import parse
from lad.transforms import weak_negate


def violations_of(text):
    verdict = check(parse_proof(text))
    return [(v.line, v.code) for v in verdict.violations]


class TestParsing:
    def test_simple_document(self):
        doc = parse_proof("p ; premise\nq ; premise\np /\\ q ; icap 1, 2\n")
        assert len(doc.lines) == 3
        assert doc.premises() == [parse("p"), parse("q")]
        assert doc.conclusion() == parse("p /\\ q")
        assert doc.lines[2].citations[0].start == 1

    def test_comments_and_blanks(self):
        doc = parse_proof("# top\n\np ; premise  # inline\n")
        assert len(doc.lines) == 1

    def test_subproof_markers(self):
        doc = parse_proof(
            "o p ; hyp\no p ; ecap1 1\np -> p ; iimp 1-2\n"
        )
        assert len(doc.subproofs) == 1
        sub = doc.subproofs[0]
        assert sub.kind == "round"
        assert (sub.start, sub.end) == (1, 2)

    def test_sibling_hyp_closes(self):
        doc = parse_proof(
            "p | q ; premise\n"
            "* p ; hyp\n"
            "* p \\/ q ; icup1 2\n"
            "* q ; hyp\n"
            "* p \\/ q ; icup2 4\n"
            "p \\/ q ; eor 1, 2-3, 4-5\n"
        )
        assert len(doc.subproofs) == 2
        assert [(s.start, s.end) for s in doc.subproofs] == [(2, 3), (4, 5)]

    def test_premise_must_lead(self):
        with pytest.raises(ProofParseError):
            parse_proof("p ; premise\np \\/ p ; icup1 1\nq ; premise\n")

    def test_premise_not_inside_subproof(self):
        with pytest.raises(ProofParseError):
            parse_proof("o p ; premise\n")

    def test_hyp_only_at_subproof_start(self):
        with pytest.raises(ProofParseError):
            parse_proof("p ; hyp\n")

    def test_subproof_needs_hyp(self):
        with pytest.raises(ProofParseError):
            parse_proof("p ; premise\no p ; ecap1 1\n")

    def test_depth_jumps_rejected(self):
        with pytest.raises(ProofParseError):
            parse_proof("p ; premise\noo q ; hyp\n")

    def test_marker_kind_mismatch(self):
        with pytest.raises(ProofParseError):
            parse_proof("o p ; hyp\n* q ; ecap1 1\n")

    def test_unknown_rule(self):
        with pytest.raises(ProofParseError):
            parse_proof("p ; axiom\n")

    def test_bad_citation_syntax(self):
        with pytest.raises(ProofParseError):
            parse_proof("p ; premise\np ; ecap1 one\n")

    def test_empty_document(self):
        with pytest.raises(ProofParseError):
            parse_proof("# nothing here\n")

    def test_conclusion_requires_top_level_end(self):
        doc = parse_proof("o p ; hyp\no p ; ecap1 1\n")
        with pytest.raises(ValueError):
            doc.conclusion()

    def test_error_carries_source_line(self):
        try:
            parse_proof("p ; premise\nq ; mystery\n")
        except ProofParseError as exc:
            assert exc.source_line == 2
        else:
            pytest.fail("no ProofParseError")

    def test_equal_lines_share_one_formula(self):
        doc = parse_proof(
            "p | q ; premise\n"
            "* p ; hyp\n"
            "* p \\/ q ; icup1 2\n"
            "* q ; hyp\n"
            "* p \\/ q ; icup2 4\n"
            "p \\/ q ; eor 1, 2-3, 4-5\n"
        )
        assert doc.line(3).formula is doc.line(5).formula is doc.line(6).formula
        assert doc.line(3).formula == parse("p \\/ q")
        assert check(doc).ok

    def test_repeated_bad_formula_reports_its_first_line(self):
        with pytest.raises(ProofParseError) as info:
            parse_proof("p ; premise\np -> ; ecap1 1\np -> ; ecap1 1\n")
        assert info.value.source_line == 2
        assert str(info.value).startswith("line 2: bad formula: ")


class TestAccessibility:
    DOC = (
        "p ; premise\n"            # 1
        "o q ; hyp\n"              # 2
        "o p ; ecap1 1\n"          # 3
        "q -> p ; iimp 2-3\n"      # 4
        "o r ; hyp\n"              # 5
        "o q -> p ; ecap1 4\n"     # 6
        "r -> (q -> p) ; iimp 5-6\n"  # 7
    )

    def test_backward_same_level(self):
        doc = parse_proof(self.DOC)
        assert accessible(doc, 1, 4)
        assert accessible(doc, 4, 7)

    def test_into_open_subproof(self):
        doc = parse_proof(self.DOC)
        assert accessible(doc, 1, 3)
        assert accessible(doc, 2, 3)

    def test_out_of_closed_subproof(self):
        doc = parse_proof(self.DOC)
        assert not accessible(doc, 3, 5)
        assert not accessible(doc, 2, 7)

    def test_forward_never(self):
        doc = parse_proof(self.DOC)
        assert not accessible(doc, 4, 3)
        assert not accessible(doc, 7, 7)


class TestCorpusAccepted:
    @pytest.mark.parametrize("name", sorted(corpus.ACCEPTED_PROOFS))
    def test_static_files_check(self, name):
        verdict = check(parse_proof(corpus.ACCEPTED_PROOFS[name]))
        assert verdict.ok, verdict.violations

    @pytest.mark.parametrize("name", sorted(corpus.ACCEPTED_PROOFS))
    def test_static_files_sound(self, name):
        doc = parse_proof(corpus.ACCEPTED_PROOFS[name])
        assert verify_sound(doc)

    @pytest.mark.parametrize("name", sorted(corpus.generated_accepted()))
    def test_generated_files_check_and_verify(self, name):
        doc = parse_proof(corpus.generated_accepted()[name])
        assert check(doc).ok
        assert verify_sound(doc)


class TestCorpusFiles:
    SHIPPED = pathlib.Path(corpus.__file__).parent

    def test_committed_corpus_matches_generator(self, tmp_path):
        written = corpus.write_corpus(tmp_path)
        on_disk = sorted(
            p.relative_to(self.SHIPPED).as_posix()
            for p in (self.SHIPPED / "proofs").glob("gen_*.prf")
        )
        assert sorted(written) == on_disk
        for rel in written:
            assert (tmp_path / rel).read_bytes() == (self.SHIPPED / rel).read_bytes(), rel

    def test_every_shipped_proof_is_listed_once(self):
        listed = [
            *corpus.ACCEPTED_PROOFS, *corpus.REJECTED_PROOFS, *corpus.generated_accepted()
        ]
        assert len(listed) == len(set(listed))
        shipped = sorted(p.name for p in (self.SHIPPED / "proofs").iterdir())
        assert shipped == sorted(listed)


class TestCorpusRejected:
    @pytest.mark.parametrize("name", sorted(corpus.REJECTED_PROOFS))
    def test_expected_violations(self, name):
        text, expected = corpus.REJECTED_PROOFS[name]
        assert violations_of(text) == list(expected)

    def test_unsafe_lines_in_scope_example(self):
        text, _ = corpus.REJECTED_PROOFS["illegal.prf"]
        assert violations_of(text) == [(7, UNSAFE_CITATION), (13, UNSAFE_CITATION)]


class TestCheckDetails:
    def test_wrong_arity(self):
        assert violations_of("p ; premise\np /\\ p ; icap 1\n") == [
            (2, RULE_MISMATCH)
        ]

    def test_scope_beats_schema(self):
        # line 3 cites into the closed subproof with a rule that also
        # mismatches; only the scope problem is reported
        text = "o p ; hyp\no p \\/ p ; icup1 1\n<>p ; eand1 1\n"
        assert violations_of(text) == [(3, CITATION_SCOPE)]

    def test_unsafe_beats_schema(self):
        # the import is unsafe AND eand1 cannot give q \/ q; only the
        # unsafe citation is reported
        text = (
            "<>p & <>~p ; premise\n"
            "o q ; hyp\n"
            "o q \\/ q ; eand1 1\n"
        )
        assert violations_of(text) == [(3, UNSAFE_CITATION)]

    def test_safe_import_allowed(self):
        text = (
            "p -> q ; premise\n"
            "o p ; hyp\n"
            "o q ; eimp 1, 2\n"
            "p -> q ; iimp 2-3\n"
        )
        assert violations_of(text) == []

    def test_square_subproof_imports_freely(self):
        text = (
            "<>p ; premise\n"
            "p | q ; premise\n"
            "* p ; hyp\n"
            "* <>p ; ecap1 1\n"
        )
        # ecap1 on a non-conjunction is the only complaint; the unsafe
        # import into a square subproof is fine
        assert violations_of(text) == [(4, RULE_MISMATCH)]

    def test_not_l_formula_sites(self):
        text = "o !p ; hyp\no !p | q ; ior1 1\n!!p ; ineg 1-2\n"
        assert violations_of(text) == [(3, NOT_L_FORMULA)]

    def test_macro_shape(self):
        text = "<>p ; premise\n<>(p \\/ q) ; diaplus 1\n"
        assert violations_of(text) == [(2, MACRO_SHAPE)]

    def test_wrong_subproof_kind(self):
        text = "o p ; hyp\no p \\/ p ; icup1 1\np -> p \\/ p ; iimp 1-2\n"
        assert violations_of(text) == []
        text_square = "* p ; hyp\n* p \\/ p ; icup1 1\np -> p \\/ p ; iimp 1-2\n"
        assert violations_of(text_square) == [(3, WRONG_SUBPROOF_KIND)]

    def test_every_rule_has_an_arity(self):
        assert "premise" in RULES and "hyp" in RULES
        assert len(RULE_ARITY) == 32


class TestSoundness:
    def test_em_is_sound(self):
        assert verify_sound(parse_proof(corpus.EM_PROOF))

    def test_calculus_tracks_the_default_variant(self):
        # contextual excluded middle is not valid under the pointwise
        # denial clause, and verify_sound can show that
        doc = parse_proof(corpus.ACCEPTED_PROOFS["cem_only.prf"])
        assert verify_sound(doc, "gauker")
        assert not verify_sound(doc, "nelson")


class TestGenerators:
    CASES = ["p", "~p \\/ q", "!p", "p & q", "p | q", "p -> q", "!(p -> q)"]

    @pytest.mark.parametrize("text", CASES)
    def test_excluded_shape(self, text):
        phi = parse(text)
        doc = parse_proof(corpus.excluded_proof(phi))
        assert check(doc).ok
        assert doc.premises() == []
        assert doc.conclusion() == IntOr(phi, weak_negate(phi))

    @pytest.mark.parametrize("text", CASES)
    def test_clash_shape(self, text):
        phi = parse(text)
        doc = parse_proof(corpus.clash_proof(phi))
        assert check(doc).ok
        assert doc.premises() == [phi, weak_negate(phi)]
        assert doc.conclusion() == FALSUM

    @given(star_formulas(("p", "q"), max_leaves=4))
    @settings(max_examples=60, deadline=None)
    def test_all_generators_check(self, phi):
        for gen in (
            corpus.excluded_proof,
            corpus.negated_excluded_proof,
            corpus.clash_proof,
            corpus.negated_clash_proof,
        ):
            assert check(parse_proof(gen(phi))).ok

    @given(star_formulas(("p", "q"), max_leaves=3))
    @settings(max_examples=20, deadline=None)
    def test_generated_proofs_are_sound(self, phi):
        doc = parse_proof(corpus.excluded_proof(phi))
        assert verify_sound(doc)


# One accepted instance and one near miss per rule.  Each near miss is
# rejected on its last line with the given RULE_MISMATCH detail
# (diaplus reports MACRO_SHAPE instead, its only schema code).
RULE_CASES = [
    ("icap", "p ; premise\nq ; premise\np /\\ q ; icap 1, 2\n",
     "p ; premise\nq ; premise\nq /\\ p ; icap 1, 2\n",
     "conclusion is not the /\\ of the cited lines"),
    ("ecap1", "p /\\ q ; premise\np ; ecap1 1\n", "p /\\ q ; premise\nq ; ecap1 1\n",
     "cited line is not a /\\ with this left part"),
    ("ecap2", "p /\\ q ; premise\nq ; ecap2 1\n", "p /\\ q ; premise\np ; ecap2 1\n",
     "cited line is not a /\\ with this right part"),
    ("icup1", "p ; premise\np \\/ q ; icup1 1\n", "p ; premise\nq \\/ p ; icup1 1\n",
     "conclusion is not a \\/ with the cited line on the left"),
    ("icup2", "q ; premise\np \\/ q ; icup2 1\n", "q ; premise\nq \\/ p ; icup2 1\n",
     "conclusion is not a \\/ with the cited line on the right"),
    ("ecup",
     "p \\/ q ; premise\no p ; hyp\no q \\/ p ; icup2 2\no q ; hyp\no q \\/ p ; icup1 4\n"
     "q \\/ p ; ecup 1, 2-3, 4-5\n",
     "p \\/ q ; premise\no p ; hyp\no q \\/ p ; icup2 2\no q ; hyp\no q \\/ p ; icup1 4\n"
     "p \\/ q ; ecup 1, 2-3, 4-5\n",
     "subproofs do not run from the disjuncts to the conclusion"),
    ("isup", "o p ; hyp\no p \\/ q ; icup1 1\np => p \\/ q ; isup 1-2\n",
     "o p ; hyp\no p \\/ q ; icup1 1\nq => p \\/ q ; isup 1-2\n",
     "conclusion is not hypothesis => subproof conclusion"),
    ("esup", "p => q ; premise\np ; premise\nq ; esup 1, 2\n",
     "p => q ; premise\nq ; premise\np ; esup 1, 2\n",
     "cited lines do not form a => detachment"),
    ("isim",
     "o p /\\ ~p ; hyp\no p ; ecap1 1\no ~p ; ecap2 1\no _|_ ; esim1 2, 3\n~(p /\\ ~p) ; isim 1-4\n",
     "o p /\\ ~p ; hyp\no p ; ecap1 1\no ~p ; ecap2 1\no _|_ ; esim1 2, 3\n~p ; isim 1-4\n",
     "subproof must run from the negated formula to _|_"),
    ("esim1", "p ; premise\n~p ; premise\n_|_ ; esim1 1, 2\n",
     "p ; premise\n~q ; premise\n_|_ ; esim1 1, 2\n",
     "cited lines are not a formula and its ~ negation"),
    ("esim2", "~~p ; premise\np ; esim2 1\n", "~~p ; premise\n~p ; esim2 1\n",
     "cited line is not the double ~ of the conclusion"),
    ("iand", "p ; premise\n<>q ; premise\np & <>q ; iand 1, 2\n",
     "p ; premise\n<>q ; premise\n<>q & p ; iand 1, 2\n",
     "conclusion is not the & of the cited lines"),
    ("eand1", "p & !q ; premise\np ; eand1 1\n", "p & !q ; premise\n!q ; eand1 1\n",
     "cited line is not a & with this left part"),
    ("eand2", "p & !q ; premise\n!q ; eand2 1\n", "p & !q ; premise\np ; eand2 1\n",
     "cited line is not a & with this right part"),
    ("ior1", "p ; premise\np | !q ; ior1 1\n", "p ; premise\n!q | p ; ior1 1\n",
     "conclusion is not a | with the cited line on the left"),
    ("ior2", "p ; premise\n!q | p ; ior2 1\n", "p ; premise\np | !q ; ior2 1\n",
     "conclusion is not a | with the cited line on the right"),
    ("eor",
     "p | q ; premise\n* p ; hyp\n* p \\/ q ; icup1 2\n* q ; hyp\n* p \\/ q ; icup2 4\n"
     "p \\/ q ; eor 1, 2-3, 4-5\n",
     "p | q ; premise\n* p ; hyp\n* p \\/ q ; icup1 2\n* q ; hyp\n* p \\/ q ; icup2 4\n"
     "p \\/ q ; eor 1, 4-5, 2-3\n",
     "subproofs do not run from the disjuncts to the conclusion"),
    ("iimp", "o p ; hyp\no p \\/ q ; icup1 1\np -> p \\/ q ; iimp 1-2\n",
     "o p ; hyp\no p \\/ q ; icup1 1\np \\/ q -> p ; iimp 1-2\n",
     "conclusion is not hypothesis -> subproof conclusion"),
    ("eimp", "p -> q ; premise\np ; premise\nq ; eimp 1, 2\n",
     "p -> q ; premise\nq ; premise\np ; eimp 1, 2\n",
     "cited lines do not form a -> detachment"),
    ("ineg",
     "o p /\\ ~p ; hyp\no p ; ecap1 1\no ~p ; ecap2 1\no _|_ ; esim1 2, 3\n!(p /\\ ~p) ; ineg 1-4\n",
     "o p /\\ ~p ; hyp\no p ; ecap1 1\no ~p ; ecap2 1\no _|_ ; esim1 2, 3\n!p ; ineg 1-4\n",
     "subproof must run from the negated formula to _|_"),
    ("eneg", "p ; premise\n!p ; premise\n_|_ ; eneg 1, 2\n",
     "!p ; premise\np ; premise\n_|_ ; eneg 1, 2\n",
     "cited lines are not a formula and its ! negation"),
    ("efq", "_|_ ; premise\np & !q ; efq 1\n", "p ; premise\nq ; efq 1\n",
     "cited line is not _|_"),
    ("nn1", "!!p ; premise\np ; nn1 1\n", "!!p ; premise\n!p ; nn1 1\n",
     "cited line is not the double ! of the conclusion"),
    ("nn2", "p ; premise\n!!p ; nn2 1\n", "p ; premise\n!!!p ; nn2 1\n",
     "conclusion is not the double ! of the cited line"),
    ("nand1", "!(p & q) ; premise\n!p | !q ; nand1 1\n", "!(p & q) ; premise\n!p & !q ; nand1 1\n",
     "lines are not a !(... & ...) and its | of negations"),
    ("nand2", "!p | !q ; premise\n!(p & q) ; nand2 1\n", "!p | !q ; premise\n!(p | q) ; nand2 1\n",
     "lines are not a | of negations and its !(... & ...)"),
    ("nor1", "!(p | q) ; premise\n!p & !q ; nor1 1\n", "!(p | q) ; premise\n!p | !q ; nor1 1\n",
     "lines are not a !(... | ...) and its & of negations"),
    ("nor2", "!p & !q ; premise\n!(p | q) ; nor2 1\n", "!p & !q ; premise\n!(p & q) ; nor2 1\n",
     "lines are not a & of negations and its !(... | ...)"),
    # The near misses of nimp1/nimp2 use the connexive x -> !y for the
    # unfolding; the calculus uses <>(x & !y).
    ("nimp1", "!(p -> q) ; premise\n<>(p & !q) ; nimp1 1\n", "!(p -> q) ; premise\np -> !q ; nimp1 1\n",
     "lines are not a !(... -> ...) and its <> unfolding"),
    ("nimp2", "<>(p & !q) ; premise\n!(p -> q) ; nimp2 1\n", "p -> !q ; premise\n!(p -> q) ; nimp2 1\n",
     "lines are not a <> unfolding and its !(... -> ...)"),
    ("cem", "(p -> _|_) | <>p ; cem\n", "(p -> _|_) | <>q ; cem\n",
     "conclusion is not of the shape (phi -> _|_) | <>phi"),
    ("diaplus", "<>p & <>q ; premise\n<>(p (+) q) ; diaplus 1\n",
     "<>p & <>q ; premise\n<>(p \\/ q) ; diaplus 1\n",
     "conclusion is not <> of the (+) of the cited possibilities"),
]

# Messages that come before a rule's schema proper.
SIDE_CASES = [
    ("p /\\ q ; premise\no p ; hyp\no q \\/ p ; icup2 2\no q ; hyp\no q \\/ p ; icup1 4\n"
     "q \\/ p ; ecup 1, 2-3, 4-5\n",
     "line 6: RULE_MISMATCH: cited line is not a \\/ disjunction"),
    ("p \\/ q ; premise\no p ; hyp\no p | q ; ior1 2\no q ; hyp\no p | q ; ior2 4\n"
     "p | q ; ecup 1, 2-3, 4-5\n",
     "line 6: NOT_L_FORMULA: ecup concludes extensional formulas only"),
    ("p /\\ q ; premise\n* p ; hyp\n* p \\/ q ; icup1 2\n* q ; hyp\n* p \\/ q ; icup2 4\n"
     "p \\/ q ; eor 1, 2-3, 4-5\n",
     "line 6: RULE_MISMATCH: cited line is not a | disjunction"),
    ("p | q ; premise\no p ; hyp\no p \\/ q ; icup1 2\no q ; hyp\no p \\/ q ; icup2 4\n"
     "p \\/ q ; eor 1, 2-3, 4-5\n",
     "line 6: WRONG_SUBPROOF_KIND: eor needs a square subproof, 2-3 is round"),
    ("o !p ; hyp\no !p | q ; ior1 1\n!!p ; ineg 1-2\n",
     "line 3: NOT_L_FORMULA: ineg supposes extensional formulas only"),
    ("<>p & q ; premise\n<>(p (+) q) ; diaplus 1\n",
     "line 2: MACRO_SHAPE: cited line is not a & chain of <> over extensional formulas"),
]


class TestRuleSchemas:
    def test_every_rule_has_cases(self):
        assert [case[0] for case in RULE_CASES] == list(RULE_ARITY)
        assert sorted(SCHEMAS) == sorted(set(RULE_ARITY) - {"diaplus"})

    @pytest.mark.parametrize("rule, accepted, rejected, detail", RULE_CASES, ids=[c[0] for c in RULE_CASES])
    def test_accepted_and_near_miss(self, rule, accepted, rejected, detail):
        doc = parse_proof(accepted)
        assert doc.lines[-1].rule == rule
        assert check(doc).ok, check(doc).violations
        doc = parse_proof(rejected)
        assert doc.lines[-1].rule == rule
        code = MACRO_SHAPE if rule == "diaplus" else RULE_MISMATCH
        assert [str(v) for v in check(doc).violations] == [f"line {len(doc.lines)}: {code}: {detail}"]

    @pytest.mark.parametrize("text, message", SIDE_CASES)
    def test_messages_before_the_schema(self, text, message):
        assert [str(v) for v in check(parse_proof(text)).violations] == [message]


# Binary connectives of one layer, each mapped to another of that layer.
_SWAP = {ExtAnd: ExtOr, ExtOr: ExtImp, ExtImp: ExtAnd, IntAnd: IntOr, IntOr: IntImp, IntImp: IntAnd}


@st.composite
def one_node_changed(draw, phi):
    """phi with one node changed: an atom renamed, a binary connective
    swapped within its layer, or a negation dropped.  Every change keeps
    the layering, so the result is a formula."""
    path = draw(st.sampled_from(list(all_paths(phi))))
    node = subformula_at(phi, path)
    if node.__class__ in _SWAP:
        new = _SWAP[node.__class__](node.left, node.right)
    elif isinstance(node, (ExtNeg, IntNeg)):
        new = node.operand
    else:
        new = Atom("r") if node != Atom("r") else Atom("p")
    return substitute(phi, path, new)


_STATIC_PROOFS = sorted(corpus.ACCEPTED_PROOFS.values()) + sorted(
    text for text, _ in corpus.REJECTED_PROOFS.values()
)


@st.composite
def perturbed_lines(draw):
    """A proof from the corpus generators (or, for the rules they never
    use, a static corpus file), one of its lines, and that line with its
    rule, cited formulas and conclusion varied.  Two of the three rule
    choices keep the arity, so most draws get past the arity check into
    the schema itself."""
    gen = draw(st.sampled_from([
        corpus.excluded_proof, corpus.negated_excluded_proof,
        corpus.clash_proof, corpus.negated_clash_proof, None,
    ]))
    if gen is None:
        text = draw(st.sampled_from(_STATIC_PROOFS))
    else:
        text = gen(draw(star_formulas(("p", "q"), max_leaves=3)))
    doc = parse_proof(text)
    body = [l for l in doc.lines if l.rule not in ("premise", "hyp")]
    line = draw(st.sampled_from(body))
    formulas = [l.formula for l in doc.lines]

    def vary(phi):
        return draw(st.one_of(st.just(phi), st.sampled_from(formulas), one_node_changed(phi)))

    same_arity = sorted(r for r in RULE_ARITY if RULE_ARITY[r] == RULE_ARITY[line.rule])
    rule = draw(st.one_of(st.just(line.rule), st.sampled_from(same_arity), st.sampled_from(sorted(RULE_ARITY))))
    resolved = []
    for cit in line.citations:
        if cit.is_span:
            resolved.append(draw(st.one_of(st.just(doc.span(cit.start, cit.end)), st.sampled_from(doc.subproofs))))
        else:
            resolved.append(vary(doc.line(cit.start).formula))
    changed = ProofLine(
        line.number, line.depth, vary(line.formula), rule, line.citations, line.chain, line.source_line
    )
    return doc, changed, resolved


class TestSchemaOracle:
    """The rule table against the per-rule checker it replaced
    (tests/schema_oracle.py): the same violation, detail included."""

    def test_same_arity(self):
        assert RULE_ARITY == schema_oracle.RULE_ARITY

    @given(perturbed_lines())
    @settings(max_examples=250, deadline=None)
    def test_matches_oracle(self, case):
        doc, line, resolved = case
        assert _check_schema(doc, line, resolved) == schema_oracle._check_schema(doc, line, resolved)
