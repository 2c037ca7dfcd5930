"""``wide``: 5- and 6-atom work through PointEvaluator, with no tables.

One round is 105 operations, in seeded order:

* 16 invalid sequents (half over 5 atoms, half over 6; variants in turn;
  formulas of 5, 10, 20 or 40 nodes), each refuted by a witness context
  of 1-3 of the first eight worlds, so ``countermodel(..., atom_bound=5
  or 6)`` stops early;
* 16 valid sequents, instances of laws whose pruned space has size k:
  a premise true at exactly k worlds leaves 2**k - 1 contexts to visit,
  the other premises are unsafe or have tautological extensional
  translations, so they prune nothing.  k runs over 4-7, 9, 9, 10, 11
  and eight times 8 (15 to 2,047 contexts).  The eight searches of 255
  contexts, 40-90 ms each, hold ranks 5-12 from the top of a round, so
  its p90 (ranks 10-11) lies among them and no point evaluation reaches
  them (with two searches per k it would fall among the k = 6 and 7
  searches and the costliest point evaluations, and move by a fifth
  between seeds).  These sequents are the same on every seed: how long
  the search walks subcontexts depends on where the premise's worlds
  fall, by a factor of two between draws, and these few operations take
  most of a round's time;
* 72 evaluations of one context of 5-8 worlds, given as context-file
  text, each running ``asserts`` and ``denies`` on four formulas with
  nested ``->``, one of each fixed shape, over extensional leaves that
  cut the context's worlds in fixed proportions (``_leaves``).  These
  are the same on every seed too: where the leaves' worlds fall moves an
  evaluation's cost by a factor of four, and the p50 of a round lies
  among them;
* the connexive pruning fault, which fails every round.

In the random sequents a formula rooted at ``->`` has no ``!`` over a
``->``.  Such safe formulas obey the singleton collapse under every
variant, so the search's pruning is sound for them; the one input that
breaks it is the fixed fault below, kept so it fails the same way on
every seed.
"""
from __future__ import annotations

import random

import gen
import reference as R
from core import Op

from lad import contexts, semantics, syntax

# The position of each k sets its atoms, variant and law (see ``build``):
# k = 10 and 11 get 5 atoms and the cheaper modus ponens and collapse, so
# no single search takes most of a round.
VALID_SPACES = (4, 5, 6, 7, 8, 8, 8, 8, 8, 8, 8, 8, 10, 9, 11, 9)
INVALID_SIZES = (5, 10, 20, 40)
VALID_LAWS = ("identity", "modus_ponens", "and_elim", "collapse")

# With premises ~p /\ ~q, ((!(p -> q)) -> s) -> r, ~t and conclusion r \/ s,
# connexive: the all-false world asserts every premise (its connexive
# denial of p -> q is vacuous) and not the conclusion, but the search
# prunes it through the extensional translation of the second premise.
FAULT = (("~p /\\ ~q", "((!(p -> q)) -> s) -> r", "~t"), "r \\/ s", "connexive")


def build(seed: int) -> list[Op]:
    rng = random.Random(f"wide:{seed}")
    ops = []
    for i in range(16):
        ops.append(_invalid_op(rng, gen.ATOMS[:5 + i % 2], R.VARIANTS[i // 2 % 3], INVALID_SIZES[i % 4]))
    fixed = random.Random("wide:valid")
    for i, k in enumerate(VALID_SPACES):
        ops.append(_valid_op(fixed, gen.ATOMS[:5 + i % 2], R.VARIANTS[i % 3], VALID_LAWS[(i + i // 8) % 4], k))
    points = random.Random("wide:point")
    for i in range(72):
        ops.append(_point_op(points, gen.ATOMS[:5 + i % 2], R.VARIANTS[i % 3], 5 + i % 4))
    ops.append(_fault_op())
    rng.shuffle(ops)
    return ops


def _search(T, texts, variant, n):
    fs = [T.call("syntax.parse", syntax.parse, t) for t in texts]
    return T.call("semantics.search", semantics.countermodel, fs[:-1], fs[-1], variant, n)


def _norm(cm):
    return None if cm is None else (cm.atoms, cm.members)


def _maker(rng, names, size):
    def make():
        phi = R.rand_formula(rng, names, size, 2)
        if phi[0] == "->" and R.neg_over_imp(phi):
            phi = R.rand_formula(rng, names, size, 2, neg_over_imp=False)
        return phi
    return make


def _invalid_op(rng, names, variant, size) -> Op:
    make = _maker(rng, names, size)
    premises, conclusion, witness = gen.witness_sequent(
        rng, names, variant, make, 2, rng.randint(1, 3), below=8)
    texts = [R.show(f) for f in premises + [conclusion]]
    space = R.Space(names)
    allowed = space.pruned_worlds(premises)

    def check(value):
        if value is None:
            return "no countermodel, yet a witness context refutes the sequent"
        atoms, members = value
        if atoms != space.atoms or not space.refutes(premises, conclusion, members, variant):
            return "countermodel does not refute the sequent"
        if members > witness:
            return "countermodel is not the least (a smaller witness exists)"
        return None

    op = Op("wide.invalid", lambda T: _search(T, texts, variant, len(names)), _norm, check)
    op.extra["space"] = lambda value: R.rank_below(value[1], allowed)
    return op


def _leaf_pool(space: R.Space):
    """Every extensional formula of 1-3 nodes over the atoms, with its
    truth mask."""
    atoms = [R.atom(a) for a in space.atoms]
    pool = atoms + [("~", a) for a in atoms] + [("~", ("~", a)) for a in atoms]
    pool += [(op, a, b) for op in ("/\\", "\\/", "=>") for a in atoms for b in atoms if a != b]
    return [(f, space.truth_mask(f)) for f in pool]


def _leaves(rng, space, mask, k):
    """Extensional leaves a, b, c, d that cut the k worlds of ``mask`` the
    same way on every seed: a /\\ ~b true at one of them, c and d each at
    half; None when no leaves do.  How long an evaluation walks the
    subcontexts for the shapes below depends on these counts."""
    pool = _leaf_pool(space)
    half = [f for f, m in pool if bin(m & mask).count("1") == k // 2]
    pairs = [(f, g) for f, m in pool for g, n in pool if bin(m & ~n & mask).count("1") == 1]
    if not half or not pairs:
        return None
    a, b = rng.choice(pairs)
    return a, b, rng.choice(half), rng.choice(half)


def _valid_op(rng, names, variant, law, k) -> Op:
    space = R.Space(names)
    leaves = None
    while leaves is None:
        alpha, mask = gen.worlds_formula(rng, space, k)
        leaves = _leaves(rng, space, mask, k)
    a, b, c, d = leaves
    x = ("|", ("!", ("->", a, b)), c)               # unsafe, so it prunes nothing
    y = ("&", ("->", a, b), ("|", c, ("!", d)))     # safe; asserting it walks subcontexts
    if law == "identity":
        premises, conclusion = [alpha], ("->", y, y)
    elif law == "modus_ponens":
        z = ("~", d)
        premises, conclusion = [alpha, x, ("->", x, ("|", x, z))], ("|", x, z)
    elif law == "and_elim":
        premises, conclusion = [alpha, ("&", x, y)], y
    else:
        premises, conclusion = [alpha], ("\\/", ("/\\", c, d), alpha)
    premises += gen.cover_atoms(premises + [conclusion], names)
    if space.pruned_worlds(premises) != mask:
        raise AssertionError("valid sequent prunes more than its first premise")
    texts = [R.show(f) for f in premises + [conclusion]]

    def check(value):
        return None if value is None else f"countermodel to a sequent valid by {law}"

    op = Op(f"wide.valid.{law}", lambda T: _search(T, texts, variant, len(names)), _norm, check)
    op.extra["space"] = lambda value: (1 << k) - 1
    return op


POINT_SHAPES = ("(a -> b) -> c", "a -> (b -> c)", "!((a -> b) -> c)", "(a -> b) & !(c -> d)")


def _shape(leaves, shape):
    def fill(node):
        if node[0] == "a":
            return leaves[node[1]]
        return (node[0],) + tuple(fill(k) for k in node[1:])
    return fill(R.read(shape))


def _point_op(rng, names, variant, n_worlds) -> Op:
    """One context, one formula of each shape: what ``lad eval`` does."""
    space = R.Space(names)
    leaves = None
    while leaves is None:
        members = gen.random_context(rng, space, n_worlds)
        leaves = _leaves(rng, space, members, n_worlds)
    leaves = dict(zip("abcd", leaves))
    phis = [_shape(leaves, shape) for shape in POINT_SHAPES]
    worlds = [w for w in range(space.n_worlds) if members >> w & 1]
    ctx_text = " ".join(space.atoms) + "\n" + "".join(
        format(w, f"0{space.n}b") + "\n" for w in worlds)
    texts = [R.show(phi) for phi in phis]

    def run(T):
        ctx = T.call("contexts.parse", contexts.parse_context, ctx_text)
        out = []
        for text in texts:
            f = T.call("syntax.parse", syntax.parse, text)
            out.append(T.call("semantics.point_eval", semantics.asserts, ctx, f, variant))
            out.append(T.call("semantics.point_eval", semantics.denies, ctx, f, variant))
        return tuple(out)

    def check(value):
        want = []
        for phi in phis:
            want += [space.asserts(phi, members, variant), space.denies(phi, members, variant)]
        return None if value == tuple(want) else f"program says {value}, reference {tuple(want)}"

    return Op("wide.point", run, check=check)


def _fault_op() -> Op:
    premises, conclusion, variant = FAULT
    texts = list(premises) + [conclusion]
    tuples = [R.read(t) for t in texts]
    space = R.Space(gen.ATOMS[:5])

    def shows_fault(value):
        return value is None and space.refutes(tuples[:-1], tuples[-1], 1, variant)

    def check(value):
        if value is None:
            return "valid, and the reference does not refute it at the all-false world"
        if value != (space.atoms, 1):
            return f"countermodel {value}, not the all-false world"
        return None

    op = Op("wide.connexive_fault", lambda T: _search(T, texts, variant, 5), _norm, check,
            fault=shows_fault)
    op.extra["space"] = lambda value: (1 << bin(space.pruned_worlds(tuples[:-1])).count("1")) - 1
    return op
