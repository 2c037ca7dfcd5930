import pytest
from hypothesis import given, settings

from conftest import all_contexts, enumerate_star, star_formulas
from lad.contexts import Context, DeniabilityVariant, EmptyInputError, World
from lad.formulas import (
    Atom,
    ExtAnd,
    ExtNeg,
    ExtOr,
    IntAnd,
    IntImp,
    IntNeg,
    IntOr,
    atoms_of,
    diamond,
    is_l_formula,
    plus_disj,
)
from lad.semantics import ContextTables, asserts, equivalent, strongly_equivalent
from lad.syntax import format_formula, parse
from lad.transforms import mu_c, nnf, sigma_w, weak_negate, xi_x

P, Q = Atom("p"), Atom("q")
GAUKER = DeniabilityVariant.GAUKER


class TestWeakNegateClauses:
    def test_on_l(self):
        assert weak_negate(P) == diamond(IntNeg(P))
        alpha = ExtAnd(P, ExtNeg(Q))
        assert weak_negate(alpha) == diamond(IntNeg(alpha))

    def test_on_negated_l(self):
        assert weak_negate(IntNeg(P)) == diamond(P)

    def test_double_negation_strips(self):
        phi = IntImp(P, Q)
        assert weak_negate(IntNeg(IntNeg(phi))) == weak_negate(phi)

    def test_implication(self):
        got = weak_negate(IntImp(P, Q))
        assert got == diamond(IntAnd(P, weak_negate(Q)))
        assert format_formula(got) == "<>(p & <>!q)"

    def test_negated_implication(self):
        got = weak_negate(IntNeg(IntImp(P, Q)))
        assert got == IntImp(P, weak_negate(IntNeg(Q)))
        assert format_formula(got) == "p -> <>q"

    def test_conjunction_disjunction_duality(self):
        assert weak_negate(IntAnd(P, Q)) == IntOr(weak_negate(P), weak_negate(Q))
        assert weak_negate(IntOr(P, Q)) == IntAnd(weak_negate(P), weak_negate(Q))

    def test_negated_conjunction_disjunction(self):
        assert weak_negate(IntNeg(IntAnd(P, Q))) == IntAnd(
            weak_negate(IntNeg(P)), weak_negate(IntNeg(Q))
        )
        assert weak_negate(IntNeg(IntOr(P, Q))) == IntOr(
            weak_negate(IntNeg(P)), weak_negate(IntNeg(Q))
        )


class TestWeakNegationLaw:
    def test_complement_on_small_family(self):
        # assertion of -phi is exactly non-assertion of phi, context by context
        tabs = ContextTables(("p", "q"), GAUKER)
        for phi in enumerate_star(("p", "q"), 4):
            a, _ = tabs.tables(phi)
            wa, _ = tabs.tables(weak_negate(phi))
            assert wa == (tabs.nonempty ^ a) & tabs.nonempty, format_formula(phi)

    @given(star_formulas(("p", "q"), max_leaves=4))
    @settings(max_examples=200)
    def test_complement_random(self, phi):
        ctx = Context.full(("p", "q"))
        for sub in ctx.subcontexts():
            assert asserts(sub, weak_negate(phi), GAUKER) != asserts(sub, phi, GAUKER)

    def test_law_is_specific_to_the_default_variant(self):
        # under the pointwise and connexive denial clauses the diamond
        # degenerates and the complement law already fails at an atom
        mixed = Context(("p",), 0b11)
        assert not asserts(mixed, P, "nelson")
        assert not asserts(mixed, weak_negate(P), "nelson")
        p_only = Context(("p",), 0b10)
        assert asserts(p_only, P, "connexive")
        assert asserts(p_only, weak_negate(P), "connexive")


class TestNnf:
    def test_frozen_examples(self):
        chi = parse("!(p -> (q | !q))")
        assert format_formula(nnf(chi, "gauker")) == "<>(p & ~q & q)"
        assert format_formula(nnf(chi, "nelson")) == "p & ~q & q"
        worked = parse("!(!(p & ~s) -> (p \\/ ~q))")
        assert (
            format_formula(nnf(worked, "connexive")) == "~p | ~~s -> ~(p \\/ ~q)"
        )

    # One row per connective, asked positively and under a !: the
    # normal form under gauker, nelson and connexive.
    @pytest.mark.parametrize(
        "text, pinned",
        [
            ("p /\\ q", ("p /\\ q",) * 3),
            ("!(p /\\ q)", ("~(p /\\ q)",) * 3),
            ("!p", ("~p",) * 3),
            ("!!p", ("p",) * 3),
            ("p & !q", ("p & ~q",) * 3),
            ("!(p & !q)", ("~p | q",) * 3),
            ("p | !q", ("p | ~q",) * 3),
            ("!(p | !q)", ("~p & q",) * 3),
            ("!(p -> q) -> r", ("<>(p & ~q) -> r", "p & ~q -> r", "(p -> ~q) -> r")),
            (
                "!(!(p -> q) -> r)",
                ("<>(<>(p & ~q) & ~r)", "(p & ~q) & ~r", "(p -> ~q) -> ~r"),
            ),
        ],
    )
    def test_pinned_per_connective_and_polarity(self, text, pinned):
        variants = ("gauker", "nelson", "connexive")
        assert tuple(format_formula(nnf(parse(text), v)) for v in variants) == pinned

    def test_l_negation_becomes_extensional(self):
        assert nnf(IntNeg(P), "gauker") == ExtNeg(P)
        assert nnf(IntNeg(ExtOr(P, Q)), "connexive") == ExtNeg(ExtOr(P, Q))

    def test_double_negation(self):
        phi = IntImp(P, Q)
        assert nnf(IntNeg(IntNeg(phi)), "gauker") == nnf(phi, "gauker")

    def test_preserves_equivalence_all_variants(self):
        for variant in DeniabilityVariant:
            for phi in enumerate_star(("p", "q"), 4):
                assert equivalent(phi, nnf(phi, variant), variant), (
                    variant.value,
                    format_formula(phi),
                )

    def test_connexive_preserves_strong_equivalence(self):
        for phi in enumerate_star(("p", "q"), 4):
            assert strongly_equivalent(
                phi, nnf(phi, "connexive"), "connexive"
            ), format_formula(phi)

    def test_default_variant_preserves_only_mere_equivalence(self):
        # the frozen counterexample: equivalent but not strongly so
        chi = parse("!(p -> (q | !q))")
        out = nnf(chi, "gauker")
        assert equivalent(chi, out, "gauker")
        assert not strongly_equivalent(chi, out, "gauker")

    def test_connexive_output_has_no_intensional_negation(self):
        def has_intneg(phi):
            if isinstance(phi, IntNeg):
                return True
            return any(
                has_intneg(getattr(phi, attr))
                for attr in ("operand", "left", "right")
                if hasattr(phi, attr)
            )

        for phi in enumerate_star(("p", "q"), 4):
            assert not has_intneg(nnf(phi, "connexive"))

    @given(star_formulas(("p", "q"), max_leaves=4))
    @settings(max_examples=150)
    def test_equivalence_random(self, phi):
        for variant in DeniabilityVariant:
            assert equivalent(phi, nnf(phi, variant), variant)


class TestCharacteristicFormulas:
    def test_sigma(self):
        w = World(("p", "q"), (1, 0))
        assert sigma_w(w) == ExtAnd(P, ExtNeg(Q))
        assert format_formula(sigma_w(w)) == "p /\\ ~q"

    def test_mu_two_worlds(self):
        ctx = Context(("p", "q"), (1 << 1) | (1 << 2))
        assert format_formula(mu_c(ctx)) == "~p /\\ q (+) p /\\ ~q"

    def test_mu_singleton_uses_unary_plus(self):
        ctx = Context(("p",), 0b10)
        assert mu_c(ctx) == plus_disj([P])

    def test_mu_matches_plus_of_sigmas(self):
        ctx = Context(("p", "q"), 0b1011)
        assert mu_c(ctx) == plus_disj([sigma_w(w) for w in ctx.worlds()])

    def test_xi_orders_and_dedupes(self):
        a = Context(("p",), 0b01)
        b = Context(("p",), 0b10)
        assert xi_x([b, a, b]) == IntOr(mu_c(a), mu_c(b))
        assert xi_x([a]) == mu_c(a)

    def test_xi_requires_shared_atoms(self):
        with pytest.raises(ValueError):
            xi_x([Context(("p",), 1), Context(("q",), 1)])

    def test_xi_requires_some_context(self):
        with pytest.raises(EmptyInputError):
            xi_x([])

    def test_characteristic_property_sample(self):
        target = Context(("p", "q"), 0b0110)
        mu = mu_c(target)
        assert is_l_formula(mu) is False and atoms_of(mu) == {"p", "q"}
        for ctx in all_contexts(("p", "q")):
            assert asserts(ctx, mu, GAUKER) == (ctx == target)
