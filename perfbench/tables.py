"""``tables``: library queries over 1-4 atoms, answered by ContextTables.

One round is 384 queries: four of every kind below for every atom count
1-4 and every variant (weak negation always under gauker, the variant
whose clauses make -phi the complement of phi).  Of each kind's twelve
queries at one atom count, half are built to answer yes and half no,
and their formulas have fixed sizes, six log-spaced ones from 5 nodes up
to 600 at one atom, 250 at two, 120 at three and 50 at four, so every
seed parses the same amount of text; the seed draws the formulas'
shapes, atoms and witnesses.  Formulas are given as text.

The sizes shrink as atoms are added so that every 4-atom query but weak
negation (which builds two tables) costs little more than the 4-atom
ContextTables constructor, 9-13 ms.  Those 84 queries, with the 1- and
2-atom queries of 230-600 nodes that cost about as much, span about the
70th to the 93rd percentile of a round, so the p90 lies inside a run of
near-equal costs.  With 600-node formulas at every atom count the p90
would fall on the edge between query groups whose costs differ by a
factor of two, and move by a quarter between seeds.
"""
from __future__ import annotations

import random

import gen
import reference as R
from core import Op

import lad
from lad import semantics, syntax, transforms

KINDS = ("countermodel", "entails", "equivalent", "strong", "persist", "nnf", "weakneg", "lonly")
BRUTE_FORCE_SIZE = 80     # 3-atom queries at most this big also get brute force
TOP_SIZE = {1: 600, 2: 250, 3: 120, 4: 50}
SIZES = {n: tuple(round(5 * (top / 5) ** (j / 5)) for j in range(6)) for n, top in TOP_SIZE.items()}


def build(seed: int) -> list[Op]:
    rng = random.Random(f"tables:{seed}")
    ops = []
    for n in (1, 2, 3, 4):
        names = gen.ATOMS[:n]
        for kind in KINDS:
            for j in range(4 * len(R.VARIANTS)):
                size = SIZES[n][(j + n) % 6]
                law = gen.LAWS[(j // 2 + n) % len(gen.LAWS)]
                ops.append(_make(rng, kind, names, R.VARIANTS[j // 4], lambda size=size: size,
                                 alt=j % 2 == 1, law=law))
    rng.shuffle(ops)
    return ops


def _formula_maker(rng, names, sizes, neg_over_imp=True):
    return lambda: R.rand_formula(rng, names, sizes(), 2, neg_over_imp)


def _parse_all(T, texts):
    return [T.call("syntax.parse", syntax.parse, t) for t in texts]


def _make(rng, kind, names, variant, sizes, alt: bool, law: str) -> Op:
    make = _formula_maker(rng, names, sizes)
    space = R.Space(names)
    if kind in ("countermodel", "entails"):
        return _sequent_op(rng, kind, names, variant, make, space, alt, law)
    if kind in ("equivalent", "strong"):
        return _pair_op(rng, kind, names, variant, make, space, alt)
    if kind == "persist":
        return _persist_op(rng, names, variant, space, sizes, alt)
    if kind == "nnf":
        return _nnf_op(rng, names, variant, make, space)
    if kind == "weakneg":
        # The complement law is a law of the gauker clauses only.
        return _weakneg_op(rng, names, "gauker", make, space)
    return _lonly_op(rng, names, variant, space, alt, min(sizes(), 120))


def _brute_force(space: R.Space, sizes: int) -> bool:
    return space.n <= 2 or (space.n == 3 and sizes <= BRUTE_FORCE_SIZE)


def _sequent_op(rng, kind, names, variant, make, space, alt, law) -> Op:
    if alt:
        premises, conclusion, witness = gen.witness_sequent(
            rng, names, variant, make, 2, rng.randint(1, 3))
    else:
        premises, conclusion = gen.law_sequent(rng, law, make)
        premises += gen.cover_atoms(premises + [conclusion], names)
        witness = None
    texts = [R.show(f) for f in premises + [conclusion]]
    brute = _brute_force(space, sum(R.size(f) for f in premises + [conclusion]))

    def run(T):
        fs = _parse_all(T, texts)
        if kind == "entails":
            return T.call("semantics.query", semantics.entails, fs[:-1], fs[-1], variant), fs
        return T.call("semantics.query", semantics.countermodel, fs[:-1], fs[-1], variant), fs

    def norm(raw):
        result, _ = raw
        if kind == "entails" or result is None:
            return result
        return result.atoms, result.members

    def check(value):
        if kind == "entails":
            if value != (witness is None):
                return f"entails={value} but the sequent is {'valid by law' if witness is None else 'refuted by a witness'}"
        elif witness is None:
            if value is not None:
                return "countermodel to a sequent valid by law"
        else:
            if value is None:
                return "no countermodel, yet a witness context refutes the sequent"
            atoms, members = value
            if atoms != space.atoms or not space.refutes(premises, conclusion, members, variant):
                return "countermodel does not refute the sequent"
            if members > witness:
                return "countermodel is not the least (a smaller witness exists)"
        if brute:
            least = space.least_countermodel(premises, conclusion, variant)
            got = value if kind == "entails" else (None if value is None else value[1])
            want = least is None if kind == "entails" else least
            if got != want:
                return f"brute force gives {want}, program {got}"
        return None

    return Op(f"tables.{kind}", run, norm, check, extra={"texts": texts})


def _pair_op(rng, kind, names, variant, make, space, alt) -> Op:
    phi = gen.with_atoms(make(), names)
    if alt:
        psi, expected, witness = R.rewrite_equivalent(rng, phi, 3), True, None
    else:
        while True:
            chi = make()
            witness = next((c for c in (gen.random_context(rng, space, rng.randint(1, 3)) for _ in range(20))
                            if space.asserts(phi, c, variant) and not space.asserts(chi, c, variant)), None)
            if witness is not None:
                break
            phi = gen.with_atoms(make(), names)
        psi, expected = ("&", phi, chi), False
    texts = [R.show(phi), R.show(psi)]
    fn = semantics.strongly_equivalent if kind == "strong" else semantics.equivalent
    brute = _brute_force(space, R.size(phi) + R.size(psi))

    def run(T):
        fs = _parse_all(T, texts)
        return T.call("semantics.query", fn, fs[0], fs[1], variant), fs

    def check(value):
        if value != expected:
            return f"{kind} gave {value}, built to be {expected}"
        if witness is not None and space.asserts(psi, witness, variant):
            return "witness context does not tell the pair apart"
        if brute:
            for m in range(1, space.full + 1):
                same = space.asserts(phi, m, variant) == space.asserts(psi, m, variant)
                if kind == "strong":
                    same = same and space.denies(phi, m, variant) == space.denies(psi, m, variant)
                if not same and expected:
                    return f"brute force separates the pair at {m}"
        return None

    return Op(f"tables.{kind}", run, lambda raw: raw[0], check, extra={"texts": texts})


def _persist_op(rng, names, variant, space, sizes, alt) -> Op:
    broken = gen.breaking_formula(rng, names, variant, _formula_maker(rng, names, sizes)) if alt else None
    if broken is None:
        phi = _formula_maker(rng, names, sizes, neg_over_imp=False)()
        expect_break = False
    else:
        phi, expect_break = broken[0], True
    phi = gen.with_atoms(phi, names)
    texts = [R.show(phi)]

    def run(T):
        (f,) = _parse_all(T, texts)
        return T.call("semantics.query", semantics.persistence_witness, f, variant), [f]

    def norm(raw):
        w, _ = raw
        return None if w is None else (w[0].atoms, w[0].members, w[1].members)

    def check(value):
        if not expect_break:
            if not R.is_safe(phi):
                return "generator made an unsafe formula"
            return None if value is None else "a safe formula is reported not persistent"
        if value is None:
            return "reported persistent, yet a breaking pair exists"
        atoms, c, d = value
        if atoms != space.atoms or d & ~c or not d:
            return "witness is not a context and a nonempty subcontext"
        if not space.asserts(phi, c, variant) or space.asserts(phi, d, variant):
            return "witness pair does not break persistence"
        return None

    return Op("tables.persist", run, norm, check, extra={"texts": texts})


def _nnf_op(rng, names, variant, make, space) -> Op:
    phi = gen.with_atoms(make(), names)
    texts = [R.show(phi)]
    probes = [gen.random_context(rng, space, rng.randint(1, 3)) for _ in range(3)]

    def run(T):
        (f,) = _parse_all(T, texts)
        g = T.call("transforms.nnf", transforms.nnf, f, variant)
        return T.call("semantics.query", semantics.equivalent, f, g, variant), g, [f]

    def norm(raw):
        same, g, _ = raw
        return same, R.from_lad(g)

    def check(value):
        same, g = value
        if same is not True:
            return "equivalent(phi, nnf(phi)) is false"
        for m in probes:
            if space.asserts(g, m, variant) != space.asserts(phi, m, variant):
                return f"nnf changes assertion at context {m}"
        return None

    return Op("tables.nnf", run, norm, check, extra={"texts": texts})


def _weakneg_op(rng, names, variant, make, space) -> Op:
    phi = gen.with_atoms(make(), names)
    texts = [R.show(phi)]
    probes = [gen.random_context(rng, space, rng.randint(1, 3)) for _ in range(3)]
    bottom = lad.FALSUM

    def run(T):
        (f,) = _parse_all(T, texts)
        wn = T.call("transforms.weakneg", transforms.weak_negate, f)
        never_both = T.call("semantics.query", semantics.entails, [f, wn], bottom, variant)
        always_one = T.call("semantics.query", semantics.entails, [], lad.IntOr(f, wn), variant)
        return never_both, always_one, wn, [f]

    def norm(raw):
        return raw[0], raw[1], R.from_lad(raw[2])

    def check(value):
        never_both, always_one, wn = value
        if not (never_both and always_one):
            return "weak negation does not complement assertion"
        for m in probes:
            if space.asserts(wn, m, variant) == space.asserts(phi, m, variant):
                return f"-phi and phi agree at context {m}"
        return None

    return Op("tables.weakneg", run, norm, check, extra={"texts": texts})


def _lonly_op(rng, names, variant, space, alt, size) -> Op:
    premises = [R.rand_l(rng, names, size) for _ in range(2)]
    conclusion = R.rand_l(rng, names, size)
    if alt:
        conclusion = ("\\/", conclusion, premises[0])
    premises += gen.cover_atoms(premises + [conclusion], names)
    texts = [R.show(f) for f in premises + [conclusion]]
    allowed = space.full
    for p in premises:
        allowed &= space.truth_mask(p)
    bad = allowed & ~space.truth_mask(conclusion)
    want = None if bad == 0 else 1 << ((bad & -bad).bit_length() - 1)

    def run(T):
        fs = _parse_all(T, texts)
        return T.call("semantics.query", semantics.countermodel, fs[:-1], fs[-1], variant), fs

    def norm(raw):
        return None if raw[0] is None else raw[0].members

    def check(value):
        if value != want:
            return f"classical consequence gives {want}, program {value}"
        return None

    return Op("tables.lonly", run, norm, check, extra={"texts": texts})

