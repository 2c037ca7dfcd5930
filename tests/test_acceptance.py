"""End-to-end acceptance checks.

One test per acceptance criterion, in order.  Every test prints a
single PASS line with its elapsed time (visible with -s, or in the -v
test listing) and enforces the stated runtime budget.  All checks are
boolean-exact; there is no numeric tolerance anywhere.

Run:  pytest tests/test_acceptance.py -v -s
"""
import itertools
import random
import time

import pytest

from conftest import all_contexts, e_translate, enumerate_star
from lad import corpus
from lad.contexts import Context, DeniabilityVariant, World, world_from_index
from lad.formulas import (
    Atom,
    ExtAnd,
    ExtImp,
    ExtNeg,
    ExtOr,
    FALSUM,
    Falsum,
    IntAnd,
    IntImp,
    IntNeg,
    IntOr,
    atoms_of,
    is_safe,
)
from lad.proofs import UNSAFE_CITATION, check, parse_proof, verify_sound
from lad.semantics import (
    ContextTables,
    asserts,
    check_characteristic,
    check_characteristic_set,
    countermodel,
    denies,
    entails,
    is_persistent,
    persistence_witness,
    truth,
)
from lad.syntax import format_formula, parse
from lad.transforms import mu_c, nnf, weak_negate, xi_x

GAUKER = DeniabilityVariant.GAUKER


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            print(f"\n{self.name}: PASS ({elapsed:.2f}s, budget {self.seconds}s)")
            assert elapsed < self.seconds, (
                f"{self.name} exceeded its {self.seconds}s budget: {elapsed:.2f}s"
            )
        return False


@pytest.fixture(scope="module")
def family7():
    return enumerate_star(("p", "q"), 7)


@pytest.fixture(scope="module")
def family6():
    return enumerate_star(("p", "q"), 6)


@pytest.fixture(scope="module")
def shared_tables():
    cache = {}

    def get(phi, variant=GAUKER):
        names = tuple(sorted(atoms_of(phi))) or ("p",)
        key = (names, DeniabilityVariant.coerce(variant))
        if key not in cache:
            cache[key] = ContextTables(*key)
        return cache[key]

    return get


MURDER_PREMISES = ["p \\/ q", "p -> (r -> t)", "q -> (s -> t)"]
MURDER_CONCLUSION = "(r -> t) | (s -> t)"


def murder_context():
    atoms = ("p", "q", "r", "s", "t")
    return Context.from_worlds(
        [
            World(atoms, tuple(int(c) for c in bits))
            for bits in ("10101", "10010", "01011", "01100")
        ]
    )


def test_criterion_01_murder_scenario():
    with Budget("criterion 1 (murder scenario)", 1.0):
        ctx = murder_context()
        premises = [parse(t) for t in MURDER_PREMISES]
        conclusion = parse(MURDER_CONCLUSION)
        for prem in premises:
            assert asserts(ctx, prem)
        assert not asserts(ctx, conclusion)
        assert not entails(premises, conclusion, atom_bound=5)
        cm = countermodel(premises, conclusion, atom_bound=5)
        assert cm is not None
        for prem in premises:
            assert asserts(cm, prem)
        assert not asserts(cm, conclusion)


def test_criterion_02_consistency(family7, shared_tables):
    with Budget("criterion 2 (consistency sweep)", 120.0):
        for variant in (DeniabilityVariant.GAUKER, DeniabilityVariant.NELSON):
            for phi in family7:
                a, d = shared_tables(phi, variant).tables(phi)
                assert a & d == 0, (variant.value, format_formula(phi))
        # the third denial clause gives up consistency
        core = parse("(p & !p) -> (p | !p)")
        witness = IntAnd(core, IntNeg(core))
        for ctx in all_contexts(("p",)):
            assert asserts(ctx, witness, "connexive")


def test_criterion_03_singleton_collapse(family7, shared_tables):
    with Budget("criterion 3 (singleton collapse)", 30.0):
        worlds = [world_from_index(("p", "q"), i) for i in range(4)]
        tab = ContextTables(("p", "q"), GAUKER)
        for phi in family7:
            a, d = tab.tables(phi)
            e = e_translate(phi)
            for w in worlds:
                members = 1 << w.index
                classically_true = truth(w, e)
                assert bool(a >> members & 1) == classically_true, format_formula(phi)
                assert bool(d >> members & 1) == (not classically_true)


def _classical_truth(assign, alpha):
    # independent oracle: deliberately re-derives the truth conditions
    if isinstance(alpha, Atom):
        return assign[alpha.name]
    if isinstance(alpha, Falsum):
        return False
    if isinstance(alpha, ExtNeg):
        return not _classical_truth(assign, alpha.operand)
    if isinstance(alpha, ExtAnd):
        return _classical_truth(assign, alpha.left) and _classical_truth(
            assign, alpha.right
        )
    if isinstance(alpha, ExtOr):
        return _classical_truth(assign, alpha.left) or _classical_truth(
            assign, alpha.right
        )
    if isinstance(alpha, ExtImp):
        return not _classical_truth(assign, alpha.left) or _classical_truth(
            assign, alpha.right
        )
    raise TypeError(alpha)


def _classical_consequence(premises, conclusion, atoms):
    for bits in itertools.product((False, True), repeat=len(atoms)):
        assign = dict(zip(atoms, bits))
        if all(_classical_truth(assign, p) for p in premises) and not _classical_truth(
            assign, conclusion
        ):
            return False
    return True


def _random_l(rng, atoms, depth):
    if depth == 0 or rng.random() < 0.25:
        leaves = [Atom(a) for a in atoms] + [FALSUM]
        return rng.choice(leaves)
    pick = rng.randrange(4)
    if pick == 0:
        return ExtNeg(_random_l(rng, atoms, depth - 1))
    left = _random_l(rng, atoms, depth - 1)
    right = _random_l(rng, atoms, depth - 1)
    return (ExtAnd, ExtOr, ExtImp)[pick - 1](left, right)


def test_criterion_04_classical_collapse_on_l():
    with Budget("criterion 4 (classical oracle, 500 L-sequents)", 60.0):
        rng = random.Random(20240819)
        atoms = ("p", "q", "r")
        for _ in range(500):
            premises = [
                _random_l(rng, atoms, rng.randrange(1, 4))
                for _ in range(rng.randrange(0, 4))
            ]
            conclusion = _random_l(rng, atoms, rng.randrange(1, 4))
            want = _classical_consequence(premises, conclusion, atoms)
            got = entails(premises, conclusion)
            assert got == want, (
                [format_formula(p) for p in premises],
                format_formula(conclusion),
            )


def test_criterion_05_safety_implies_persistence(family7, shared_tables):
    with Budget("criterion 5 (safe formulas persist)", 120.0):
        for phi in family7:
            if is_safe(phi):
                assert is_persistent(phi), format_formula(phi)
                # is_persistent answers a safe formula by its type, so
                # the tables check the closure itself.
                tab = shared_tables(phi)
                a = tab.assert_table(phi)
                assert tab.has_subset(tab.nonempty & ~a) & a == 0, format_formula(phi)
        wit = persistence_witness(parse("!(p -> q)"))
        assert wit is not None
        big, small = wit
        assert [w.bits() for w in big.worlds()] == ["00", "10"]
        assert [w.bits() for w in small.worlds()] == ["00"]
        assert asserts(big, parse("!(p -> q)"))
        assert not asserts(small, parse("!(p -> q)"))


def test_criterion_06_characteristic_formulas():
    with Budget("criterion 6 (characteristic formulas)", 60.0):
        pool = all_contexts(("p", "q"))
        for target in pool:
            mu = mu_c(target)
            for ctx in pool:
                assert asserts(ctx, mu) == (ctx == target)
            assert check_characteristic(target)
        singles = all_contexts(("p",))
        for k in range(1, len(singles) + 1):
            for combo in itertools.combinations(singles, k):
                xi = xi_x(list(combo))
                chosen = set(combo)
                for ctx in singles:
                    assert asserts(ctx, xi) == (ctx in chosen)
                assert check_characteristic_set(list(combo))


def test_criterion_07_weak_negation_laws(family6, shared_tables):
    with Budget("criterion 7 (weak negation laws)", 120.0):
        for phi in family6:
            tab = shared_tables(phi)
            a, _ = tab.tables(phi)
            wa, _ = tab.tables(weak_negate(phi))
            # complement law over every nonempty context
            assert wa == (tab.nonempty ^ a) & tab.nonempty, format_formula(phi)
            # semantic shadows of the derivations: the excluded middle
            # holds everywhere and the clash pair is jointly unassertible
            assert tab.assert_table(IntOr(phi, weak_negate(phi))) == tab.nonempty
            assert a & wa == 0
        # tie the table computation back to the public entailment API
        for phi in family6[:200]:
            assert entails([], IntOr(phi, weak_negate(phi)))
            assert entails([phi, weak_negate(phi)], FALSUM)


def test_criterion_08_proof_corpus():
    with Budget("criterion 8 (proof corpus)", 10.0):
        generated = corpus.generated_accepted()
        # the eight transcribed induction cases, at concrete atoms
        for tag in ("atom", "and", "or", "imp"):
            assert f"gen_excluded_{tag}.prf" in generated
            assert f"gen_clash_{tag}.prf" in generated
        for name, text in {**corpus.ACCEPTED_PROOFS, **generated}.items():
            doc = parse_proof(text)
            verdict = check(doc)
            assert verdict.ok, (name, verdict.violations)
            assert verify_sound(doc), name
        illegal_text, _ = corpus.REJECTED_PROOFS["illegal.prf"]
        verdict = check(parse_proof(illegal_text))
        assert [(v.line, v.code) for v in verdict.violations] == [
            (7, UNSAFE_CITATION),
            (13, UNSAFE_CITATION),
        ]
        for name, (text, expected) in corpus.REJECTED_PROOFS.items():
            got = [(v.line, v.code) for v in check(parse_proof(text)).violations]
            assert got == list(expected), name


def test_criterion_09_variant_discrimination(family6):
    with Budget("criterion 9 (variant discrimination)", 5.0):
        neg_imp = parse("!(p -> q)")
        assert entails([neg_imp], Atom("p"), "nelson")
        assert not entails([neg_imp], Atom("p"), "gauker")

        def has_intneg(phi):
            if isinstance(phi, IntNeg):
                return True
            return any(
                has_intneg(getattr(phi, attr))
                for attr in ("operand", "left", "right")
                if hasattr(phi, attr)
            )

        for phi in family6:
            assert not has_intneg(nnf(phi, "connexive")), format_formula(phi)
        worked = nnf(parse("!(!(p & ~s) -> (p \\/ ~q))"), "connexive")
        assert format_formula(worked) == "~p | ~~s -> ~(p \\/ ~q)"
        assert worked == parse("~p | ~~s -> ~(p \\/ ~q)")


def _random_star(rng, atoms, depth):
    if depth == 0:
        return _random_l(rng, atoms, 1)
    pick = rng.randrange(8)
    if pick < 4:
        return _random_l(rng, atoms, 2)
    if pick == 4:
        return IntNeg(_random_star(rng, atoms, depth - 1))
    left = _random_star(rng, atoms, depth - 1)
    right = _random_star(rng, atoms, depth - 1)
    return (IntAnd, IntOr, IntImp)[pick - 5](left, right)


def test_criterion_10_atom_locality():
    with Budget("criterion 10 (fresh-atom invariance)", 30.0):
        rng = random.Random(0)
        atoms = ("a", "b", "c")
        for _ in range(200):
            phi = _random_star(rng, atoms, rng.randrange(1, 4))
            members = rng.randrange(1, 1 << 8)
            ctx = Context(atoms, members)
            # duplicate every world with the fresh atom set both ways;
            # "z" sorts last so old index i becomes 2i and 2i+1
            grown = 0
            m = members
            while m:
                low = m & -m
                i = low.bit_length() - 1
                grown |= 1 << (2 * i) | 1 << (2 * i + 1)
                m ^= low
            big = Context(("a", "b", "c", "z"), grown)
            for variant in DeniabilityVariant:
                assert asserts(ctx, phi, variant) == asserts(big, phi, variant)
                assert denies(ctx, phi, variant) == denies(big, phi, variant)
