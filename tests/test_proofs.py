import pathlib

import pytest
from hypothesis import given, settings

from conftest import star_formulas
from lad import corpus
from lad.formulas import FALSUM, IntOr
from lad.proofs import (
    CITATION_SCOPE,
    MACRO_SHAPE,
    NOT_L_FORMULA,
    RULE_ARITY,
    RULE_MISMATCH,
    RULES,
    UNSAFE_CITATION,
    WRONG_SUBPROOF_KIND,
    ProofParseError,
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
    def test_committed_corpus_matches_generator(self, tmp_path):
        committed = pathlib.Path(__file__).resolve().parent.parent / "corpus"
        written = corpus.write_corpus(tmp_path)
        on_disk = sorted(
            p.relative_to(committed).as_posix() for p in committed.rglob("*") if p.is_file()
        )
        assert sorted(written) == on_disk
        for rel in written:
            assert (tmp_path / rel).read_bytes() == (committed / rel).read_bytes(), rel


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
