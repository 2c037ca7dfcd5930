"""Seeded inputs whose expected answers follow from how they are built.

* Invalid sequents carry a witness: a small context that the reference
  evaluator sees asserting every premise and not the conclusion.  The
  program's least countermodel must then exist and lie at or below it.
* Valid sequents are instances of laws of the clauses: ``x -> x``,
  modus ponens, ``&``-elimination, ``|``-introduction and classical
  consequence between extensional formulas.
* Non-persistent formulas carry a breaking pair found by the reference
  evaluator; safe formulas are persistent.
"""
from __future__ import annotations

import random

import reference as R

ATOMS = ("p", "q", "r", "s", "t", "u")


def random_context(rng: random.Random, space: R.Space, worlds: int, below: int | None = None) -> int:
    pool = range(below if below is not None else space.n_worlds)
    members = 0
    for w in rng.sample(pool, min(worlds, len(pool))):
        members |= 1 << w
    return members


def cover_atoms(formulas, names):
    """Tautologies ``a \\/ ~a`` for the atoms the formulas leave out, so a
    query always spans exactly ``names``."""
    present = set()
    for f in formulas:
        present |= R.atoms_of(f)
    return [("\\/", R.atom(a), ("~", R.atom(a))) for a in names if a not in present]


def with_atoms(phi, names):
    """phi & (a \/ ~a) & ... for the atoms phi leaves out; asserted and
    denied exactly where phi is, and persistent exactly when phi is."""
    for taut in cover_atoms([phi], names):
        phi = ("&", phi, taut)
    return phi


def witness_sequent(rng, names, variant, make, n_premises, witness_worlds, below=None):
    """(premises, conclusion, witness): formulas from ``make()`` sorted by
    whether a random small context asserts them."""
    space = R.Space(names)
    while True:
        w = random_context(rng, space, witness_worlds, below)
        premises, conclusion = [], None
        for _ in range(40):
            phi = make()
            if space.asserts(phi, w, variant):
                if len(premises) < n_premises:
                    premises.append(phi)
            elif conclusion is None:
                conclusion = phi
            if conclusion is not None and len(premises) >= n_premises:
                premises += cover_atoms(premises + [conclusion], names)
                return premises, conclusion, w


def law_sequent(rng, law, make):
    """A valid sequent built by one law of the clauses."""
    x, y = make(), make()
    if law == "identity":
        return [y], ("->", x, x)
    if law == "modus_ponens":
        return [x, ("->", x, y)], y
    if law == "and_elim":
        return [("&", x, y)], y
    if law == "or_intro":
        return [x], ("|", y, x)
    raise ValueError(law)


LAWS = ("identity", "modus_ponens", "and_elim", "or_intro")


def breaking_formula(rng, names, variant, make, formulas: int = 12, tries: int = 10):
    """(phi, asserting context, failing subcontext) for an unsafe phi,
    or None when none of ``formulas`` random unsafe formulas breaks."""
    space = R.Space(names)
    for _ in range(formulas):
        phi = make()
        if R.is_safe(phi):
            continue
        for _ in range(tries):
            c = random_context(rng, space, rng.randint(2, 3))
            if not space.asserts(phi, c, variant):
                continue
            for d in R.subsets(c):
                if not space.asserts(phi, d, variant):
                    return phi, c, d
    return None


def minterm(space: R.Space, world: int):
    """The /\\ of literals true exactly at one world."""
    lits = [R.atom(a) if space.value(a, world) else ("~", R.atom(a)) for a in space.atoms]
    out = lits[-1]
    for lit in reversed(lits[:-1]):
        out = ("/\\", lit, out)
    return out


def worlds_formula(rng, space: R.Space, k: int):
    """(alpha, mask): an extensional formula true at exactly k random worlds."""
    worlds = rng.sample(range(space.n_worlds), k)
    alpha = minterm(space, worlds[0])
    for w in worlds[1:]:
        alpha = ("\\/", minterm(space, w), alpha)
    return alpha, sum(1 << w for w in worlds)
