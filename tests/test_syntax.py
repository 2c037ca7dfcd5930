import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import recursive_parser
from conftest import star_formulas
from lad.formulas import (
    Atom,
    ExtAnd,
    ExtImp,
    ExtNeg,
    ExtOr,
    FALSUM,
    IntAnd,
    IntImp,
    IntNeg,
    IntOr,
    LayerError,
    atoms_of,
    diamond,
    plus_disj,
    size,
)
from lad.syntax import ParseError, format_formula, parse

P, Q, R = Atom("p"), Atom("q"), Atom("r")


class TestParsing:
    def test_atoms_and_falsum(self):
        assert parse("p") == P
        assert parse("some_atom42") == Atom("some_atom42")
        assert parse("_|_") == FALSUM

    def test_extensional_connectives(self):
        assert parse("~p") == ExtNeg(P)
        assert parse("p /\\ q") == ExtAnd(P, Q)
        assert parse("p \\/ q") == ExtOr(P, Q)
        assert parse("p => q") == ExtImp(P, Q)

    def test_intensional_connectives(self):
        assert parse("!p") == IntNeg(P)
        assert parse("p & q") == IntAnd(P, Q)
        assert parse("p | q") == IntOr(P, Q)
        assert parse("p -> q") == IntImp(P, Q)

    def test_precedence(self):
        # prefixes bind tightest, then conjunction, disjunction, implication
        assert parse("~p /\\ q") == ExtAnd(ExtNeg(P), Q)
        assert parse("p /\\ q \\/ r") == ExtOr(ExtAnd(P, Q), R)
        assert parse("p \\/ q => r") == ExtImp(ExtOr(P, Q), R)
        assert parse("!p & q | r -> p") == IntImp(IntOr(IntAnd(IntNeg(P), Q), R), P)

    def test_right_associativity(self):
        assert parse("p -> q -> r") == IntImp(P, IntImp(Q, R))
        assert parse("p => q => r") == ExtImp(P, ExtImp(Q, R))
        assert parse("p & q & r") == IntAnd(P, IntAnd(Q, R))

    def test_parens(self):
        assert parse("(p -> q) -> r") == IntImp(IntImp(P, Q), R)
        assert parse("p /\\ (q \\/ r)") == ExtAnd(P, ExtOr(Q, R))

    def test_diamond_macro(self):
        assert parse("<>p") == diamond(P)
        assert parse("<>(p & q)") == diamond(IntAnd(P, Q))
        assert parse("<><>p") == diamond(diamond(P))

    def test_plus_macro(self):
        assert parse("p (+) q") == plus_disj([P, Q])
        assert parse("p (+) q (+) r") == plus_disj([P, Q, R])
        assert parse("~p /\\ q (+) p /\\ ~q") == plus_disj(
            [ExtAnd(ExtNeg(P), Q), ExtAnd(P, ExtNeg(Q))]
        )

    def test_one_atom_object_per_name(self):
        phi = parse("p & (q -> p) | ~p /\\ q")
        seen = {}
        stack = [phi]
        while stack:
            node = stack.pop()
            if isinstance(node, Atom):
                assert seen.setdefault(node.name, node) is node
            else:
                stack.extend(node.children())
        assert sorted(seen) == ["p", "q"]
        with pytest.raises(ValueError):
            Atom("1x")

    def test_mixed_layers(self):
        assert parse("!(p => q) -> ~p") == IntImp(IntNeg(ExtImp(P, Q)), ExtNeg(P))


class TestParseErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "p q",
            "(p",
            "p)",
            "p ->",
            "-> p",
            "p # q",
            "<>",
            "p (+)",
            "~",
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse(text)

    def test_layer_clash_is_a_parse_time_error(self):
        # extensional connective over an intensional operand
        with pytest.raises(LayerError):
            parse("!p /\\ q")
        with pytest.raises(LayerError):
            parse("!p (+) q")

    @pytest.mark.parametrize("text, position", [("é", 0), ("pé", 1), ("p²", 1)])
    def test_non_ascii_identifier_is_a_parse_error(self, text, position):
        with pytest.raises(ParseError, match="unexpected character") as info:
            parse(text)
        assert info.value.position == position

    @pytest.mark.parametrize("text", ["p q $", "!p /\\ q $", "(p -> $"])
    def test_bad_character_wins_over_later_errors(self, text):
        with pytest.raises(ParseError, match="unexpected character") as info:
            parse(text)
        assert info.value.position == text.index("$")

    def test_error_reports_position(self):
        try:
            parse("p /\\ )")
        except ParseError as exc:
            assert exc.position is not None
        else:
            pytest.fail("no ParseError")


class TestDeepInput:
    def test_deep_prefixes(self):
        phi = parse("!" * 3000 + "p")
        assert size(phi) == 3001
        for _ in range(3000):
            assert isinstance(phi, IntNeg)
            phi = phi.operand
        assert phi == P

    def test_long_conjunction(self):
        phi = parse(" & ".join(["p"] * 1500))
        assert size(phi) == 2999
        for _ in range(1499):
            assert isinstance(phi, IntAnd) and phi.left == P
            phi = phi.right
        assert phi == P


# Every token of the language, a few identifiers, and characters that
# make bad tokens or glue into other tokens.
SOUP = (
    "_|_", "(+)", "/\\", "\\/", "->", "=>", "<>", "~", "!", "&", "|", "(", ")",
    "p", "q", "r1", "x_y", " ", "$", "1", "_",
)
GAP = st.sampled_from(["", "", "", "", " ", "\t", "\n"])
SPACE = st.sampled_from(["", " ", "  ", "\t", "\r\n"])


def outcome(parser, text):
    """A parse result, or the error's type, message, position and offending operand."""
    try:
        return parser(text)
    except (ParseError, LayerError) as exc:
        return type(exc), str(exc), exc.position, getattr(exc, "offending", None)


class TestAgainstRecursiveDescent:
    """The operator-stack parser against the recursive-descent parser it
    replaced (tests/recursive_parser.py): same formula, or same error."""

    @given(st.lists(st.sampled_from(SOUP), max_size=14))
    @settings(max_examples=1000)
    def test_token_soup(self, tokens):
        text = "".join(tokens)
        assert outcome(parse, text) == outcome(recursive_parser.parse, text)

    @given(star_formulas(max_leaves=8), st.sampled_from(["macro", "full"]), st.data())
    @settings(max_examples=200)
    def test_printed_formulas_with_random_spacing(self, phi, mode, data):
        # Spaces change width or vanish; other whitespace may split a token.
        text = "".join(
            data.draw(SPACE) if ch == " " else data.draw(GAP) + ch
            for ch in format_formula(phi, mode=mode)
        )
        assert outcome(parse, text) == outcome(recursive_parser.parse, text)

    @pytest.mark.parametrize(
        "text",
        [
            "p (+) !q",
            "p \\/ q (+) r",
            "p (+) q \\/ r (+) s",
            "!p (+) q (+) !r",
            "(p (+) q) (+) r",
            "~(p & q) /\\ !r",
            "!p /\\ q r",
            "(!p /\\ q",
            "~p -> (q",
            "p ->",
            "",
        ],
    )
    def test_error_order_and_positions(self, text):
        assert outcome(parse, text) == outcome(recursive_parser.parse, text)


def nodes_of(*formulas):
    """Every node occurrence under the given formulas."""
    stack = list(formulas)
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children())


def assert_shared(*formulas):
    """Equal subformulas anywhere under formulas are one object."""
    first = {}
    for node in nodes_of(*formulas):
        assert first.setdefault(node, node) is node, node


class TestNodeTable:
    """Each distinct subformula of a parse is built once (syntax docstring)."""

    def test_equal_subformulas_are_one_object(self):
        phi = parse("(p & q -> r) | !(p & q -> r) & <>(p & q) & !((p & q) -> _|_)")
        assert_shared(phi)
        left, right = phi.left, phi.right
        assert right.left.operand is left
        assert right.right.left is right.right.right  # <>x is !(x -> _|_)
        assert right.right.left.operand.left is left.left

    def test_plus_expansion_shares_with_what_it_spells(self):
        phi = parse("(p (+) ~q) & (p \\/ ~q) & <>~q & <>p")
        assert_shared(phi)
        plus, rest = phi.left, phi.right
        assert plus.left is rest.left
        assert plus.right.left is rest.right.right
        assert plus.right.right is rest.right.left

    def test_calls_without_a_table_share_nothing(self):
        text = "<>(p (+) q) -> !(r & ~s) | (r & ~s)"
        phi, twin = parse(text), parse(text)
        assert phi == twin
        assert not {id(n) for n in nodes_of(phi)} & {id(n) for n in nodes_of(twin) if n is not FALSUM}

    def test_calls_with_one_table_share(self):
        nodes = {}
        phi = parse("!(p & q) -> r", nodes)
        psi = parse("(p & q) | !(p & q)", nodes)
        assert psi.left is phi.left.operand and psi.right is phi.left
        assert_shared(phi, psi)
        assert parse("p", nodes) is phi.left.operand.left

    @given(star_formulas(max_leaves=8), st.lists(star_formulas(max_leaves=4), max_size=3))
    @settings(max_examples=100)
    def test_atoms_of_any_parse(self, phi, earlier):
        # A parse with its own table sets its root's atom names; a parse
        # into a shared table, or a built formula, is walked by atoms_of.
        # Either way the names are the tree's, and the record is as before.
        want = {n.name for n in nodes_of(phi) if isinstance(n, Atom)}
        own = parse(format_formula(phi))
        assert own._atoms == want
        nodes = {}
        for other in earlier:
            parse(format_formula(other), nodes)
        shared = parse(format_formula(phi), nodes)
        for psi in (own, shared, phi):
            assert atoms_of(psi) == want and atoms_of(psi) is atoms_of(psi)
            assert psi == phi and hash(psi) == hash(phi) and repr(psi) == repr(phi)
            assert pickle.loads(pickle.dumps(psi)) == phi

    @pytest.mark.parametrize("text", ["!p /\\ q", "p (+) !q", "~(p -> q)"])
    def test_layer_error_adds_no_entry(self, text):
        nodes = {}
        parse("p & q", nodes)
        with pytest.raises(LayerError) as first:
            parse(text, nodes)
        # Only the operands built before the error are new entries; the
        # node that failed is not one, so a second try fails the same way.
        assert not any(isinstance(n, (ExtAnd, ExtOr, ExtNeg)) for n in nodes.values())
        with pytest.raises(LayerError) as again:
            parse(text, nodes)
        assert str(again.value) == str(first.value)
        assert again.value.position == first.value.position

    @given(
        st.lists(
            st.one_of(
                star_formulas(max_leaves=6).map(format_formula),
                st.lists(st.sampled_from(SOUP), max_size=14).map("".join),
            ),
            max_size=4,
        ),
        st.one_of(
            star_formulas(max_leaves=8).map(format_formula),
            st.lists(st.sampled_from(SOUP), max_size=14).map("".join),
        ),
    )
    @settings(max_examples=300)
    def test_prefilled_table_against_recursive_descent(self, earlier, text):
        # The table may hold entries from earlier good and bad texts.
        nodes = {}
        for other in earlier:
            try:
                parse(other, nodes)
            except (ParseError, LayerError):
                pass
        result = outcome(lambda t: parse(t, nodes), text)
        assert result == outcome(recursive_parser.parse, text)
        if not isinstance(result, tuple):
            assert_shared(result, *nodes.values())


class TestPrinting:
    def test_minimal_parens(self):
        assert format_formula(parse("(p /\\ q) \\/ r")) == "p /\\ q \\/ r"
        assert format_formula(parse("p /\\ (q \\/ r)")) == "p /\\ (q \\/ r)"
        assert format_formula(parse("(p -> q) -> r")) == "(p -> q) -> r"
        assert format_formula(parse("p -> (q -> r)")) == "p -> q -> r"

    def test_macro_mode_sugars(self):
        assert format_formula(diamond(P)) == "<>p"
        assert format_formula(plus_disj([P, Q])) == "p (+) q"
        assert format_formula(IntNeg(IntImp(P, Q))) == "!(p -> q)"

    def test_full_mode_spells_out(self):
        assert format_formula(diamond(P), mode="full") == "!(p -> _|_)"
        assert "(+)" not in format_formula(plus_disj([P, Q]), mode="full")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            format_formula(P, mode="plain")

    @given(star_formulas())
    @settings(max_examples=300)
    def test_round_trip_macro(self, phi):
        assert parse(format_formula(phi)) == phi

    @given(star_formulas())
    def test_round_trip_full(self, phi):
        assert parse(format_formula(phi, mode="full")) == phi

    @given(star_formulas())
    def test_print_is_stable(self, phi):
        text = format_formula(phi)
        assert format_formula(parse(text)) == text
