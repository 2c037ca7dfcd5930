import itertools
import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stream_search
from point_evaluator import PointEvaluator
from conftest import all_contexts, contexts_over, enumerate_l, enumerate_star, star_formulas
from lad import semantics
from lad.contexts import Context, DeniabilityVariant, EmptyInputError, World, _atom_masks, world_from_index
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
    cup_chain,
    diamond,
    is_safe,
)
from lad.semantics import (
    AtomBoundExceeded,
    ContextTables,
    ContextTooWide,
    POINT_WORLD_LIMIT,
    TABLE_WORLD_LIMIT,
    UnknownAtomError,
    WorldLimitExceeded,
    _FAMILY_ENTRY_LIMIT,
    _SingletonTables,
    _index_bit_mask,
    _kept_worlds,
    _point_tables,
    _search,
    _space_masks,
    asserts,
    check_characteristic,
    check_characteristic_set,
    countermodel,
    denies,
    entails,
    equivalent,
    evaluate,
    is_persistent,
    persistence_witness,
    persists,
    sequent_atoms,
    strongly_equivalent,
    truth,
)
from lad.syntax import parse
from lad.transforms import sigma_w

P, Q, R = Atom("p"), Atom("q"), Atom("r")
VARIANTS = list(DeniabilityVariant)


class TestTruth:
    def test_classical_clauses(self):
        w = World(("p", "q"), (1, 0))
        assert truth(w, P) and not truth(w, Q)
        assert not truth(w, FALSUM)
        assert truth(w, ExtNeg(Q))
        assert not truth(w, ExtAnd(P, Q))
        assert truth(w, ExtOr(P, Q))
        assert truth(w, ExtImp(Q, P)) and not truth(w, ExtImp(P, Q))

    def test_rejects_intensional(self):
        w = World(("p",), (1,))
        with pytest.raises(LayerError):
            truth(w, IntNeg(P))

    def test_unknown_atom(self):
        with pytest.raises(UnknownAtomError):
            truth(World(("p",), (1,)), Q)

    def test_unknown_atom_names_the_world(self):
        with pytest.raises(UnknownAtomError) as info:
            truth(World(("p",), (True,)), parse("q /\\ (p \\/ r)"))
        assert str(info.value) == "formula mentions atoms the world lacks: q, r"


class TestPointEvaluator:
    def test_truth_masks_agree_with_truth(self):
        ev = PointEvaluator(("p", "q", "r"))
        for alpha in enumerate_l(("p", "q", "r"), 4):
            mask = ev.l_truth_mask(alpha)
            for i in range(8):
                w = world_from_index(("p", "q", "r"), i)
                assert bool(mask >> i & 1) == truth(w, alpha)

    def test_l_formula_judgments_are_universal(self):
        ev = PointEvaluator(("p", "q"))
        alpha = ExtOr(P, Q)
        t = ev.l_truth_mask(alpha)
        for members in range(1, 16):
            assert ev.asserts(members, alpha) == (members & ~t == 0)
            assert ev.denies(members, alpha) == (members & t == 0)

    def test_member_mask_validated(self):
        ev = PointEvaluator(("p",))
        with pytest.raises(ValueError):
            ev.asserts(0, P)
        with pytest.raises(ValueError):
            ev.asserts(4, P)

    def test_unknown_atom(self):
        with pytest.raises(UnknownAtomError):
            PointEvaluator(("p",)).asserts(1, Q)


class TestClauses:
    """Hand-checked judgments pinning each connective's clause."""

    def setup_method(self):
        # worlds over (p, q): index 3 = 11, 2 = 10, 1 = 01, 0 = 00
        self.mixed = Context(("p", "q"), (1 << 2) | (1 << 1))

    def test_negation_swaps(self):
        for variant in VARIANTS:
            assert asserts(self.mixed, IntNeg(ExtAnd(P, Q)), variant)
            assert denies(self.mixed, IntNeg(ExtOr(P, Q)), variant)

    def test_conjunction(self):
        ctx = Context(("p", "q"), 1 << 3)
        assert asserts(ctx, IntAnd(P, Q))
        assert not asserts(self.mixed, IntAnd(P, ExtNeg(Q)))
        # denial needs a deniable conjunct; at {10, 01} neither is
        assert not denies(self.mixed, IntAnd(P, Q))
        assert denies(Context(("p", "q"), 1 << 1), IntAnd(P, Q))

    def test_disjunction_needs_one_assertible_disjunct(self):
        # both worlds make p \/ q true but neither disjunct is assertible
        assert asserts(self.mixed, ExtOr(P, Q))
        assert not asserts(self.mixed, IntOr(P, Q))

    def test_implication_quantifies_over_subcontexts(self):
        # p -> q fails at the full context because {10} asserts p, not q
        full = Context.full(("p", "q"))
        assert not asserts(full, IntImp(P, Q))
        good = Context(("p", "q"), (1 << 3) | (1 << 0))
        assert asserts(good, IntImp(P, Q))

    def test_implication_assert_clause_is_variant_free(self):
        phi = IntImp(ExtOr(P, Q), IntImp(P, Q))
        for ctx in all_contexts(("p", "q")):
            base = asserts(ctx, phi, "gauker")
            for variant in VARIANTS[1:]:
                assert asserts(ctx, phi, variant) == base

    def test_denial_clauses_differ(self):
        # {10, 00}: the subcontext {10} asserts p and denies q, but the
        # whole context asserts neither, so only the subcontext-searching
        # clause denies the conditional
        ctx = Context(("p", "q"), (1 << 2) | (1 << 0))
        imp = IntImp(P, Q)
        assert denies(ctx, imp, "gauker")
        assert not denies(ctx, imp, "nelson")

    def test_connexive_denial_is_universal(self):
        # every p-asserting subcontext of {10} denies q
        ctx = Context(("p", "q"), 1 << 2)
        assert denies(ctx, IntImp(P, Q), "connexive")
        # but {11, 10} has a p-asserting subcontext not denying q
        ctx2 = Context(("p", "q"), (1 << 3) | (1 << 2))
        assert not denies(ctx2, IntImp(P, Q), "connexive")
        assert denies(ctx2, IntImp(P, Q), "gauker")

    def test_diamond_means_some_subcontext_asserts(self):
        for members in range(1, 16):
            ctx = Context(("p", "q"), members)
            want = any(asserts(d, P) for d in ctx.subcontexts())
            assert asserts(ctx, diamond(P)) == want


class TestEngineAgreement:
    def test_tables_match_point_evaluation(self):
        family = enumerate_star(("p", "q"), 4)
        for variant in VARIANTS:
            tab = ContextTables(("p", "q"), variant)
            ev = PointEvaluator(("p", "q"), variant)
            for phi in family:
                a, d = tab.tables(phi)
                assert a & 1 == 0 and d & 1 == 0
                for members in range(1, 16):
                    assert bool(a >> members & 1) == ev.asserts(members, phi)
                    assert bool(d >> members & 1) == ev.denies(members, phi)

    @given(star_formulas(max_leaves=4), contexts_over(("p", "q", "r")))
    @settings(max_examples=150)
    def test_engines_agree_random(self, phi, ctx):
        for variant in VARIANTS:
            tab = ContextTables(ctx.atoms, variant)
            a, d = tab.tables(phi)
            assert bool(a >> ctx.members & 1) == asserts(ctx, phi, variant)
            assert bool(d >> ctx.members & 1) == denies(ctx, phi, variant)


class TestConsistency:
    def test_no_judgment_overlap_gauker_nelson(self):
        for variant in ("gauker", "nelson"):
            tab = ContextTables(("p", "q"), variant)
            for phi in enumerate_star(("p", "q"), 4):
                a, d = tab.tables(phi)
                assert a & d == 0

    def test_connexive_overlap_witness(self):
        core = IntImp(IntAnd(P, IntNeg(P)), IntOr(P, IntNeg(P)))
        both = IntAnd(core, IntNeg(core))
        for ctx in all_contexts(("p",)):
            assert asserts(ctx, both, "connexive")
            assert not asserts(ctx, both, "gauker")
            assert not asserts(ctx, both, "nelson")


class TestEntailment:
    def test_reflexive_and_monotone(self):
        assert entails([parse("p & q")], parse("p"))
        assert entails([parse("p")], parse("p \\/ q"))
        assert entails([], parse("p => p"))

    def test_invalid_with_least_countermodel(self):
        cm = countermodel([parse("p \\/ q")], parse("p"))
        assert cm is not None
        # ascending search: the numerically least refuting member set
        brute = next(
            c
            for c in all_contexts(("p", "q"))
            if asserts(c, parse("p \\/ q")) and not asserts(c, parse("p"))
        )
        assert cm == brute

    def test_empty_premises_use_conclusion_atoms(self):
        assert sequent_atoms([], parse("q -> q")) == ("q",)
        assert sequent_atoms([], FALSUM) == ("p",)
        cm = countermodel([], FALSUM)
        assert cm is not None and cm.atoms == ("p",) and cm.members == 1

    def test_extensional_vs_intensional_disjunction(self):
        # a classically trivial step that fails contextually: neither
        # disjunct is assertible at the mixed context {10, 01}
        cm = countermodel([parse("p \\/ q")], parse("p | q"))
        assert cm is not None and cm.members == 0b0110

    def test_classical_tautology_fails(self):
        cm = countermodel([], parse("(p -> q) | (q -> p)"))
        assert cm is not None
        assert [w.bits() for w in cm.worlds()] == ["01", "10"]

    def test_import_and_export_both_hold(self):
        assert entails([parse("p -> (q -> r)")], parse("p & q -> r"))
        assert entails([parse("p & q -> r")], parse("p -> (q -> r)"))

    def test_bound_checked_before_search(self):
        seq = [parse("a1 & a2 & a3 & a4 & a5")]
        with pytest.raises(AtomBoundExceeded):
            entails(seq, parse("a1"))
        assert entails(seq, parse("a1"), atom_bound=5)

    def test_variants_change_verdicts(self):
        neg_imp = parse("!(p -> q)")
        assert entails([neg_imp], P, "nelson")
        assert not entails([neg_imp], P, "gauker")

    def test_connexive_aristotle(self):
        aristotle = parse("!(p -> !p)")
        assert entails([], aristotle, "connexive")
        assert not entails([], aristotle, "gauker")
        assert not entails([], aristotle, "nelson")


class TestMurderScenario:
    ATOMS = ("p", "q", "r", "s", "t")
    WORLDS = ("10101", "10010", "01011", "01100")
    PREMISES = ["p \\/ q", "p -> (r -> t)", "q -> (s -> t)"]
    CONCLUSION = "(r -> t) | (s -> t)"

    def ctx(self):
        worlds = [
            World(self.ATOMS, tuple(int(c) for c in bits)) for bits in self.WORLDS
        ]
        return Context.from_worlds(worlds)

    def test_claims(self):
        ctx = self.ctx()
        for text in self.PREMISES:
            assert asserts(ctx, parse(text))
            assert not denies(ctx, parse(text))
        assert not asserts(ctx, parse(self.CONCLUSION))
        assert denies(ctx, parse(self.CONCLUSION))
        assert denies(ctx, parse("(r \\/ s) -> t"))
        assert asserts(ctx, parse("<>p & <>q"))

    def test_countermodel(self):
        premises = [parse(t) for t in self.PREMISES]
        conclusion = parse(self.CONCLUSION)
        cm = countermodel(premises, conclusion, atom_bound=5)
        assert cm is not None
        assert [w.bits() for w in cm.worlds()] == ["01100", "10010"]
        for prem in premises:
            assert asserts(cm, prem)
        assert not asserts(cm, conclusion)

    def test_default_bound_refuses(self):
        with pytest.raises(AtomBoundExceeded):
            entails([parse(t) for t in self.PREMISES], parse(self.CONCLUSION))


@st.composite
def sequents(draw, max_atoms=5):
    names = ("p", "q", "r", "s", "t")[: draw(st.integers(1, max_atoms))]
    fs = star_formulas(names, max_leaves=4)
    # Premises rooted at -> are safe, so each one feeds the pruning mask.
    premises = draw(st.lists(st.one_of(fs, st.builds(IntImp, fs, fs)), max_size=3))
    if draw(st.booleans()):
        # An extensional premise true at exactly the drawn worlds: it
        # spans every name and leaves at most 12 kept worlds, scattered.
        worlds = draw(st.sets(st.integers(0, (1 << len(names)) - 1), min_size=1, max_size=12))
        premises.append(cup_chain([sigma_w(world_from_index(names, w)) for w in sorted(worlds)]))
    return premises, draw(fs)


def kept_worlds(premises, atoms, variant, prune=is_safe):
    """Worlds whose singleton context asserts every premise that prune
    accepts (by default every safe premise)."""
    ev = PointEvaluator(atoms, variant)
    pruning = [p for p in premises if prune(p)]
    return [w for w in range(ev.n_worlds) if all(ev.asserts(1 << w, p) for p in pruning)]


@st.composite
def point_queries(draw):
    """A context of 1-12 worlds over 1-6 atoms, and a formula over some
    of those atoms, possibly leaving atoms out."""
    atoms = ("p", "q", "r", "s", "t", "u")[: draw(st.integers(1, 6))]
    used = draw(st.lists(st.sampled_from(atoms), min_size=1, unique=True))
    phi = draw(star_formulas(tuple(sorted(used)), max_leaves=4))
    worlds = draw(st.sets(st.integers(0, (1 << len(atoms)) - 1), min_size=1, max_size=12))
    return Context(atoms, sum(1 << w for w in worlds)), phi


JUDGES = (asserts, denies, evaluate)


@st.composite
def point_sessions(draw):
    """A context of 1-12 worlds over 1-5 atoms, and a drawn order of
    (formula, variant, judges) queries: each of 2-4 formulas under each
    variant, asked of asserts, denies and evaluate in a drawn order.  One
    more formula, over p-u, may name atoms the context lacks."""
    atoms = ("p", "q", "r", "s", "t")[: draw(st.integers(1, 5))]
    worlds = draw(st.sets(st.integers(0, (1 << len(atoms)) - 1), min_size=1, max_size=12))
    phis = draw(st.lists(star_formulas(atoms, max_leaves=4), min_size=2, max_size=4))
    phis += draw(st.lists(star_formulas(("p", "q", "r", "s", "t", "u"), max_leaves=4), max_size=1))
    queries = draw(st.permutations([
        (phi, v, draw(st.permutations(JUDGES))) for phi in phis for v in VARIANTS
    ]))
    return Context(atoms, sum(1 << w for w in worlds)), queries


# Contexts of POINT_WORLD_LIMIT worlds and of one more, over p, q, r, s.
AT_THE_BOUND = Context(("p", "q", "r", "s"), ((1 << POINT_WORLD_LIMIT) - 1) << 3)
PAST_THE_BOUND = Context(("p", "q", "r", "s"), ((1 << POINT_WORLD_LIMIT + 1) - 1) << 3)
BOUND_FORMULA = parse("((p -> q) -> !(r \\/ ~s -> p)) & !(q -> (r \\/ ~s))")


class TestPointEvaluation:
    """asserts/denies, through tables over the context's worlds or over
    classes of them, against the one-context oracle in
    tests/point_evaluator.py."""

    @settings(max_examples=150, deadline=None)
    @given(point_queries())
    @example((Context(("p", "q", "r"), 0b10110110), IntImp(P, IntNeg(IntImp(Q, P)))))
    @example((AT_THE_BOUND, BOUND_FORMULA))
    @example((PAST_THE_BOUND, BOUND_FORMULA))
    def test_matches_the_oracle(self, query):
        ctx, phi = query
        for variant in VARIANTS:
            ev = PointEvaluator(ctx.atoms, variant)
            want = (ev.asserts(ctx.members, phi), ev.denies(ctx.members, phi))
            assert evaluate(ctx, phi, variant) == want
            assert (asserts(ctx, phi, variant), denies(ctx, phi, variant)) == want

    def test_world_tables_up_to_the_bound(self):
        # At the bound the tables span every world; one past it, one world
        # of each class, and BOUND_FORMULA's leaves p, q and r \/ ~s cut
        # the 11 worlds into 7 classes.
        assert len(AT_THE_BOUND) == POINT_WORLD_LIMIT
        assert _point_tables(AT_THE_BOUND, BOUND_FORMULA, "gauker").n_worlds == POINT_WORLD_LIMIT
        assert _point_tables(PAST_THE_BOUND, BOUND_FORMULA, "gauker").n_worlds == 7

    @settings(max_examples=60, deadline=None)
    @given(point_sessions())
    def test_one_context_answers_queries_in_any_order(self, session):
        # The context's world list, atom masks and tables, made as its
        # evaluations read them, serve every later query whatever its
        # formula, variant or judgment, also after a query that names
        # atoms the context lacks.
        ctx, queries = session
        for phi, variant, judges in queries:
            missing = atoms_of(phi).difference(ctx.atoms)
            if missing:
                for judge in judges:
                    with pytest.raises(UnknownAtomError) as info:
                        judge(ctx, phi, variant)
                    assert str(info.value) == (
                        f"formula mentions atoms the context lacks: {', '.join(sorted(missing))}"
                    )
                continue
            ev = PointEvaluator(ctx.atoms, variant)
            want = (ev.asserts(ctx.members, phi), ev.denies(ctx.members, phi))
            for judge in judges:
                assert judge(ctx, phi, variant) == {asserts: want[0], denies: want[1], evaluate: want}[judge]

    def test_a_context_keeps_one_bounded_family_per_variant(self):
        # More distinct formulas than the family holds entries: each is
        # answered from the one family, which starts afresh when it passes
        # the limit and so never holds more.
        ctx = Context(("p", "q"), 0b1101)
        phis = enumerate_star(ctx.atoms, 6)[: _FAMILY_ENTRY_LIMIT + 1]
        family = _point_tables(ctx, phis[0], "connexive")
        assert _point_tables(ctx, phis[0], "nelson") is not family
        ev = PointEvaluator(ctx.atoms, "connexive")
        sizes = []
        for phi in phis:
            want = (ev.asserts(ctx.members, phi), ev.denies(ctx.members, phi))
            assert evaluate(ctx, phi, DeniabilityVariant.CONNEXIVE) == want
            assert _point_tables(ctx, phi, "connexive") is family
            sizes.append(family._entries())
        assert max(sizes) <= _FAMILY_ENTRY_LIMIT
        assert any(b < a for a, b in zip(sizes, sizes[1:]))

    @pytest.mark.parametrize(
        "ctx", [AT_THE_BOUND, Context.full(("p", "q", "r", "s", "t"))], ids=["worlds", "classes"]
    )
    def test_evaluation_leaves_the_context_as_new(self, ctx):
        used = Context(ctx.atoms, ctx.members)
        for variant in VARIANTS:
            evaluate(used, parse("(p -> q) -> !(r -> p)"), variant)
        assert used._index() is used._index()
        fresh = Context(ctx.atoms, ctx.members)
        assert repr(used) == repr(fresh)
        assert used == fresh and hash(used) == hash(fresh)
        assert pickle.dumps(used) == pickle.dumps(fresh)
        again = pickle.loads(pickle.dumps(used))
        assert again == fresh and repr(again) == repr(fresh)

    @settings(max_examples=60, deadline=None)
    @given(sequents())
    def test_kept_worlds_match_the_oracle_singletons(self, sequent):
        # Pruned by every premise that persists by type, which keeps no
        # world that pruning by the safe premises alone drops.
        premises, conclusion = sequent
        atoms = sequent_atoms(premises, conclusion)
        for variant in VARIANTS:
            kept = _kept_worlds(premises, atoms, variant)
            assert kept == kept_worlds(premises, atoms, variant, lambda p: persists(p, variant))
            assert set(kept) <= set(kept_worlds(premises, atoms, variant))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 5), st.data())
    def test_singleton_tables_match_the_oracle(self, n, data):
        atoms = ("p", "q", "r", "s", "t")[:n]
        phi = data.draw(star_formulas(atoms, max_leaves=5))
        for variant in VARIANTS:
            a, d = _SingletonTables(atoms, variant).tables(phi)
            ev = PointEvaluator(atoms, variant)
            for w in range(1 << n):
                assert (a >> w & 1, d >> w & 1) == (ev.asserts(1 << w, phi), ev.denies(1 << w, phi))

    @settings(max_examples=50, deadline=None)
    @given(star_formulas(("p", "q"), max_leaves=5))
    def test_wide_context_with_few_classes(self, phi):
        # 32 worlds over five atoms, but phi sees only p and q: four
        # classes, answered as at the full context over p and q.
        wide = Context.full(("p", "q", "r", "s", "t"))
        for variant in VARIANTS:
            a, d = ContextTables(("p", "q"), variant).tables(phi)
            assert evaluate(wide, phi, variant) == (bool(a >> 15 & 1), bool(d >> 15 & 1))

    def test_too_many_classes(self):
        wide = Context.full(("p", "q", "r", "s", "t"))
        with pytest.raises(ContextTooWide) as info:
            evaluate(wide, parse("(p & q & r) -> (s & t)"))
        assert (info.value.n_classes, info.value.limit) == (32, TABLE_WORLD_LIMIT)


class TestStreamSearch:
    """The table search against the ascending one-context-at-a-time
    search it replaced, kept in tests/stream_search.py."""

    def test_connexive_pruning_keeps_singleton_asserted_worlds(self):
        # The all-false world connexively denies p -> q (no subcontext
        # asserts p), so it asserts every premise and not the conclusion.
        premises = [parse("~p /\\ ~q"), parse("((!(p -> q)) -> s) -> r"), parse("~t")]
        cm = countermodel(premises, parse("r \\/ s"), "connexive", atom_bound=5)
        assert cm is not None
        assert [w.bits() for w in cm.worlds()] == ["00000"]

    @settings(max_examples=150, deadline=None)
    @given(sequents())
    @example(([IntImp(ExtNeg(P), IntNeg(IntImp(P, P)))], P))
    def test_matches_stream_oracle(self, sequent):
        premises, conclusion = sequent
        atoms = sequent_atoms(premises, conclusion)
        for variant in VARIANTS:
            # The oracle visits up to 2**len(kept) - 1 contexts, and all
            # of them on a valid sequent.
            kept = len(kept_worlds(premises, atoms, variant))
            if kept > 16:
                continue
            want = countermodel(premises, conclusion, variant, atom_bound=5)
            if want is None and kept > 10:
                continue
            assert stream_search.countermodel(premises, conclusion, atoms, variant) == want

    # Twelve kept worlds over five atoms: the search's tables hold the
    # first 4, 8 and 12 of them in turn.
    KEPT = (1, 3, 4, 7, 10, 12, 17, 20, 21, 26, 29, 31)

    @pytest.mark.parametrize("rank", [4, 5, 8, 9])
    def test_least_countermodel_just_past_a_widening_step(self, rank):
        atoms = ("p", "q", "r", "s", "t")
        sigma = {w: sigma_w(world_from_index(atoms, w)) for w in self.KEPT}
        premise = cup_chain([sigma[w] for w in self.KEPT])
        low, high = self.KEPT[1], self.KEPT[rank]
        # Refuted exactly by the contexts holding both low and high.
        conclusion = IntOr(ExtNeg(sigma[low]), ExtNeg(sigma[high]))
        want = Context(atoms, 1 << low | 1 << high)
        for variant in VARIANTS:
            assert countermodel([premise], conclusion, variant, atom_bound=5) == want
            assert stream_search.countermodel([premise], conclusion, atoms, variant) == want


class TestWideningSearch:
    """Up to 4 atoms countermodel reads the least countermodel off one
    table family over every context.  The widening search over the kept
    worlds, which answers past 4 atoms, is checked against it here."""

    @settings(max_examples=100, deadline=None)
    @given(sequents(max_atoms=4))
    def test_matches_the_whole_space_tables(self, sequent):
        premises, conclusion = sequent
        atoms = sequent_atoms(premises, conclusion)
        for variant in VARIANTS:
            whole = _search(premises, conclusion, atoms, variant, None)
            assert countermodel(premises, conclusion, variant) == whole
            kept = _kept_worlds(premises, atoms, variant)
            assert _search(premises, conclusion, atoms, variant, kept) == whole

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_tables_built_per_query(self, monkeypatch, n):
        # Up to 4 atoms one family over every context and no singleton
        # tables; past that the singleton tables, then one family over up
        # to 8 kept worlds and one more for each further 4 the search needs.
        built = []
        for cls in (ContextTables, _SingletonTables):
            def recording(self, *args, _init=cls.__init__, **kwargs):
                _init(self, *args, **kwargs)
                built.append((type(self), len(self.worlds)))

            monkeypatch.setattr(cls, "__init__", recording)
        atoms = ("p", "q", "r", "s", "t")[:n]
        premise = parse(" \\/ ".join(atoms))
        for conclusion in (premise, parse(" & ".join(atoms) + " & p")):
            built.clear()
            countermodel([premise, parse("p -> q")], conclusion, atom_bound=5)
            if n <= 4:
                # p -> q brings q in at 1 atom.
                assert built == [(ContextTables, 1 << max(n, 2))]
            else:
                assert built[0] == (_SingletonTables, 32)
                assert {cls for cls, _ in built[1:]} == {ContextTables}
        if n == 5:
            # A premise true at exactly k worlds keeps k; the sequent is
            # valid, so the search runs to its last width.
            for k, widths in ((5, [5]), (8, [8]), (9, [8, 9]), (12, [8, 12])):
                worlds = TestStreamSearch.KEPT[:k]
                kept = cup_chain([sigma_w(world_from_index(atoms, w)) for w in worlds])
                built.clear()
                assert countermodel([kept], kept, atom_bound=5) is None
                assert built == [(_SingletonTables, 32)] + [(ContextTables, w) for w in widths]


def down_closed(phi, variant, deny=False, tab=None):
    """Is phi's assert side (deny side) closed under nonempty
    subcontexts, read off its tables over every context (tab, or new
    tables over phi's atoms)?  The persistence check without the type
    shortcut that persistence_witness takes."""
    if tab is None:
        tab = ContextTables(sequent_atoms((), phi), variant)
    table = tab.table(phi, deny)
    return tab.has_subset(tab.nonempty & ~table) & table == 0


class TestPersistsByType:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 3), st.data())
    def test_typed_formulas_are_persistent(self, n, data):
        phi = data.draw(star_formulas(("p", "q", "r")[:n], max_leaves=6))
        for variant in VARIANTS:
            if persists(phi, variant):
                assert down_closed(phi, variant)
            if persists(phi, variant, deny=True):
                # The deny side of phi is the assert side of !phi.
                assert down_closed(IntNeg(phi), variant)

    @pytest.mark.parametrize("atoms, size", [(("p",), 6), (("p", "q"), 5)])
    def test_every_small_formula(self, atoms, size):
        # Under nelson and connexive both sides of every formula are
        # closed; under gauker every safe formula persists by type.
        family = enumerate_star(atoms, size)
        for variant in ("nelson", "connexive"):
            tab = ContextTables(atoms, variant)
            for phi in family:
                assert down_closed(phi, variant, False, tab) and down_closed(phi, variant, True, tab)
        tab = ContextTables(atoms, "gauker")
        for phi in family:
            if is_safe(phi):
                assert persists(phi, "gauker")
            if persists(phi, "gauker"):
                assert down_closed(phi, "gauker", False, tab)

    def test_gauker_denied_implication(self):
        pq = parse("p -> q")
        assert persists(pq, "gauker") and not persists(pq, "gauker", deny=True)
        assert not persists(IntNeg(pq), "gauker")
        # Not safe, yet persistent by type: two ! flips back to assertion.
        assert persists(IntNeg(IntNeg(pq)), "gauker") and not is_safe(IntNeg(IntNeg(pq)))
        for variant in ("nelson", "connexive"):
            assert persists(IntNeg(pq), variant) and persists(pq, variant, deny=True)

    def test_witness_answers_typed_formulas_at_any_atom_count(self):
        wide = parse("!(a -> b) & c & d & e & f & g")
        for variant in ("nelson", "connexive"):
            assert persistence_witness(wide, variant) is None
        with pytest.raises(AtomBoundExceeded):
            persistence_witness(wide, "gauker")
        assert persistence_witness(parse("!!(a -> b) & c & d & e & f & g"), "gauker") is None


def _random_l(rng, atoms, leaves):
    if leaves == 1:
        atom = Atom(rng.choice(atoms))
        return ExtNeg(atom) if rng.random() < 0.3 else atom
    k = rng.randrange(1, leaves)
    return rng.choice((ExtAnd, ExtOr, ExtImp))(_random_l(rng, atoms, k), _random_l(rng, atoms, leaves - k))


def _random_star(rng, atoms, depth):
    if depth == 0 or rng.random() < 0.2:
        return _random_l(rng, atoms, rng.randrange(1, 4))
    pick = rng.randrange(5)
    if pick == 0:
        return IntNeg(_random_star(rng, atoms, depth - 1))
    cls = (IntAnd, IntOr, IntImp, IntImp)[pick - 1]
    return cls(_random_star(rng, atoms, depth - 1), _random_star(rng, atoms, depth - 1))


class TestTypedPruning:
    """Pruning by every premise that persists by type, against pruning
    by the safe premises alone, on a fixed draw past 4 atoms."""

    def test_decides_more_of_a_fixed_draw(self):
        rng = random.Random(2802)
        undecided = {"safe": 0, "typed": 0}
        oracle_runs = 0
        for _ in range(60):
            atoms = ("a", "b", "c", "d", "e", "f", "g")[: rng.randrange(5, 8)]
            premises = [_random_star(rng, atoms, 3) for _ in range(rng.randrange(1, 4))]
            conclusion = _random_star(rng, atoms, 3)
            variant = DeniabilityVariant(rng.choice(("gauker", "nelson", "connexive")))
            atoms = sequent_atoms(premises, conclusion)
            single = _SingletonTables(atoms, variant)
            safe_kept = single.nonempty
            for p in premises:
                if is_safe(p):
                    safe_kept &= single.assert_table(p)
            safe_kept = [w for w in single.worlds if safe_kept >> w & 1]
            try:
                want = _search(premises, conclusion, atoms, variant, safe_kept)
            except WorldLimitExceeded:
                undecided["safe"] += 1
                want = "undecided"
            try:
                got = countermodel(premises, conclusion, variant, atom_bound=7)
            except WorldLimitExceeded:
                undecided["typed"] += 1
                assert want == "undecided"
                continue
            if want != "undecided":
                assert got == want
            # The one-context-at-a-time oracle, pruned by the safe
            # premises, where it finishes in reasonable time.
            if len(safe_kept) <= 10 or (got is not None and len(safe_kept) <= 14):
                oracle_runs += 1
                assert stream_search.countermodel(premises, conclusion, atoms, variant) == got
        # On this draw 7 undecided become 2, and the oracle checks 21.
        assert undecided["typed"] < undecided["safe"] and oracle_runs >= 10


@st.composite
def world_subsets(draw):
    atoms = ("p", "q", "r", "s")[: draw(st.integers(1, 4))]
    worlds = draw(st.sets(st.integers(0, (1 << len(atoms)) - 1), min_size=1, max_size=8))
    return atoms, sorted(worlds)


class TestWorldTables:
    @settings(max_examples=100, deadline=None)
    @given(world_subsets(), st.data())
    def test_match_the_whole_space_tables(self, space, data):
        atoms, worlds = space
        phi = data.draw(star_formulas(atoms, max_leaves=5))
        for variant in VARIANTS:
            whole = ContextTables(atoms, variant)
            part = ContextTables(atoms, variant, worlds)
            a, d = part.tables(phi)
            wa, wd = whole.tables(phi)
            for position in range(1, 1 << len(worlds)):
                m = part.members(position)
                assert (a >> position & 1, d >> position & 1) == (wa >> m & 1, wd >> m & 1)

    @pytest.mark.parametrize(
        "worlds",
        [[], [2, 1], [1, 1], [-1, 0], [0, 4], list(range(TABLE_WORLD_LIMIT + 1))],
        ids=["empty", "unsorted", "duplicate", "negative", "past-the-atoms", "too-many"],
    )
    def test_rejects_bad_world_lists(self, worlds):
        atoms = tuple(f"a{i}" for i in range(5)) if len(worlds) > 16 else ("p", "q")
        with pytest.raises(ValueError):
            ContextTables(atoms, worlds=worlds)

    def test_every_width_closes_with_the_shared_masks(self, monkeypatch):
        # Widths built in random order from no masks: the one tuple
        # grows to the widest table so far and never shrinks.  Then each
        # table, reading the low bits of the widest masks, closes as its
        # own width's masks would.
        monkeypatch.setattr(semantics, "_clear_bit", ())
        atoms = ("p", "q", "r", "s", "t")
        rng = random.Random(21)
        widths = list(range(1, 18))
        rng.shuffle(widths)
        tables = []
        for width in widths:
            before = semantics._clear_bit
            tables.append(ContextTables(atoms, worlds=range(width)))
            assert len(semantics._clear_bit) == max(width, len(before))
            if width <= len(before):
                assert semantics._clear_bit is before
        for tab in tables:
            width = tab.n_worlds
            table = rng.getrandbits(1 << width)
            want = table
            for b in range(width):
                clear = tab.universe ^ _index_bit_mask(width, b)
                want |= (want & clear) << (1 << b)
            assert tab.has_subset(table) == want


class TestEquivalence:
    def test_commutation(self):
        assert strongly_equivalent(IntAnd(P, Q), IntAnd(Q, P))
        assert equivalent(IntOr(P, Q), IntOr(Q, P))

    def test_disjoint_atoms_padded(self):
        assert not equivalent(P, Q)

    def test_strong_implies_mere(self):
        for phi in enumerate_star(("p",), 3):
            for psi in enumerate_star(("p",), 3):
                if strongly_equivalent(phi, psi):
                    assert equivalent(phi, psi)


class TestPersistence:
    def test_safe_formulas_persist(self):
        # is_persistent answers a safe formula by its type, so the
        # tables check the closure itself.
        for variant in VARIANTS:
            tab = ContextTables(("p", "q"), variant)
            for phi in enumerate_star(("p", "q"), 4):
                if is_safe(phi):
                    assert is_persistent(phi, variant) and down_closed(phi, variant, False, tab)

    def test_negated_implication_witness(self):
        wit = persistence_witness(parse("!(p -> q)"))
        assert wit is not None
        big, small = wit
        # least breaking pair: {10, 00} shrinking to {00}
        assert [w.bits() for w in big.worlds()] == ["00", "10"]
        assert [w.bits() for w in small.worlds()] == ["00"]
        assert asserts(big, parse("!(p -> q)"))
        assert small.members & big.members == small.members
        assert not asserts(small, parse("!(p -> q)"))

    def test_diamond_not_persistent(self):
        assert not is_persistent(diamond(P))

    def test_witness_is_none_for_persistent(self):
        assert persistence_witness(parse("p -> q")) is None

    def test_persistent_past_its_type(self):
        # Its denied -> keeps persists from accepting it under gauker,
        # but no context asserts _|_, so none denies _|_ -> p and none
        # asserts this formula: the tables find no breaking pair.
        phi = parse("!(_|_ -> p)")
        assert not persists(phi, "gauker")
        assert persistence_witness(phi, "gauker") is None


class TestCharacteristic:
    def test_every_two_atom_context(self):
        for ctx in all_contexts(("p", "q")):
            assert check_characteristic(ctx)

    def test_every_context_set_over_one_atom(self):
        pool = all_contexts(("p",))
        for k in range(1, 4):
            for combo in itertools.combinations(pool, k):
                assert check_characteristic_set(list(combo))

    def test_empty_set_is_empty_input(self):
        with pytest.raises(EmptyInputError):
            check_characteristic_set([])


class TestMasks:
    def test_index_bit_mask_matches_closed_form(self):
        for width in range(1, 17):
            ones = (1 << (1 << width)) - 1
            for k in range(width):
                period = 1 << (k + 1)
                block = ((1 << (1 << k)) - 1) << (1 << k)
                assert _index_bit_mask(width, k) == block * (ones // ((1 << period) - 1))

    def test_space_masks_match_the_world_list_masks(self):
        for n in range(1, 11):
            atoms = tuple(f"a{i}" for i in range(n))
            assert _space_masks(atoms) == _atom_masks(atoms, range(1 << n))

    def test_tables_share_the_per_width_masks(self):
        a = ContextTables(("p", "q", "r", "s"))
        b = ContextTables(("a", "b", "c", "d"), "connexive")
        assert not hasattr(a, "_clear_bit") and not hasattr(b, "_clear_bit")
        masks = semantics._clear_bit
        ContextTables(("p", "q", "r"))
        assert semantics._clear_bit is masks and len(masks) >= 16


class TestBounds:
    def test_tables_hard_limit(self):
        with pytest.raises(AtomBoundExceeded):
            ContextTables(("a", "b", "c", "d", "e"))

    def test_equivalence_inherits_limit(self):
        five = parse("a & b & c & d & e")
        with pytest.raises(AtomBoundExceeded):
            equivalent(five, five)

    def test_search_stops_at_the_world_limit(self):
        # p \/ q \/ r keeps 28 of the 32 worlds, and the sequent is valid.
        with pytest.raises(WorldLimitExceeded) as info:
            entails([parse("p \\/ q \\/ r")], parse("((s -> t) -> q) -> ((s -> t) -> q)"), atom_bound=5)
        assert (info.value.n_kept, info.value.searched) == (28, TABLE_WORLD_LIMIT)

    def test_asserts_checks_atoms(self):
        with pytest.raises(UnknownAtomError):
            asserts(Context(("p",), 1), Q)

    def test_every_unknown_atom_named_before_the_class_limit(self):
        # Without zz and b this is test_too_many_classes' formula.
        wide = Context.full(("p", "q", "r", "s", "t"))
        phi = parse("(p & q & r) -> (s & t & zz & b)")
        for judge in (asserts, denies, evaluate):
            with pytest.raises(UnknownAtomError) as info:
                judge(wide, phi)
            assert str(info.value) == "formula mentions atoms the context lacks: b, zz"

    def test_every_unknown_atom_named_over_worlds(self):
        # The same formula at a context of at most POINT_WORLD_LIMIT
        # worlds, whose tables make leaf truths as the build reads them.
        ctx = Context(("p", "q", "r", "s", "t"), 0b1011_0110)
        phi = parse("(p & q & r) -> (s & t & zz & b)")
        for judge in (asserts, denies, evaluate):
            with pytest.raises(UnknownAtomError) as info:
                judge(ctx, phi)
            assert str(info.value) == "formula mentions atoms the context lacks: b, zz"
            # The names are the error's args, so a copy reads the same.
            assert str(pickle.loads(pickle.dumps(info.value))) == str(info.value)


class TestPerSideTables:
    """A judgment builds only the tables its clauses read: ! swaps the
    sides, and only a -> denial reads its antecedent's assert side."""

    def test_asserting_an_implication_runs_one_closure(self, monkeypatch):
        closures = []
        has_subset = ContextTables.has_subset

        def counting(self, table):
            closures.append(table)
            return has_subset(self, table)

        monkeypatch.setattr(ContextTables, "has_subset", counting)
        ctx = Context(("p", "q"), 0b1011)
        assert asserts(ctx, parse("p -> q"), "gauker")
        assert len(closures) == 1
        closures.clear()
        assert not denies(ctx, parse("p -> q"), "gauker")
        assert len(closures) == 1

    @pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.value)
    def test_queries_without_negation_build_no_deny_table(self, monkeypatch, variant):
        sides = []
        build = ContextTables._build

        def recording(self, phi, deny):
            sides.append(deny)
            return build(self, phi, deny)

        monkeypatch.setattr(ContextTables, "_build", recording)
        premises = [parse("p \\/ q"), parse("p -> (r -> s)"), parse("p & (q | r)")]
        countermodel(premises, parse("(q -> s) | r"), variant)
        equivalent(parse("p -> (q -> r)"), parse("p & q -> r"), variant)
        persistence_witness(parse("(p -> q) -> r"), variant)
        asserts(Context(("p", "q", "r"), 0b10110110), parse("(p -> q) -> r"), variant)
        assert sides and not any(sides)
