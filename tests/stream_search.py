"""The ascending countermodel search that ``lad.semantics`` replaced,
kept as a test oracle: ``countermodel`` here and
``lad.semantics.countermodel`` must return the same least countermodel,
or both None.  Not for use outside the tests.

It tests one context at a time through ``PointEvaluator`` (itself an
oracle, in tests/point_evaluator.py), in ascending member order over
the kept worlds, so a valid sequent with k kept worlds costs 2**k - 1
context evaluations.
"""
from __future__ import annotations

from typing import Sequence

from lad.contexts import Context, DeniabilityVariant
from lad.formulas import Formula, is_safe
from point_evaluator import PointEvaluator


def countermodel(
    premises: Sequence[Formula],
    conclusion: Formula,
    atoms: tuple[str, ...],
    variant: DeniabilityVariant,
) -> Context | None:
    """Exhaustive ascending search, pruned by the safe premises.

    A safe premise is persistent under every variant, so a context
    asserting it asserts it at each of its singleton subcontexts:
    countermodels lie among the worlds whose singleton context asserts
    every safe premise.  Unsafe premises contribute no pruning.
    """
    ev = PointEvaluator(atoms, variant)
    safe = [p for p in premises if is_safe(p)]
    allowed = 0
    for w in range(ev.n_worlds):
        if all(ev.asserts(1 << w, p) for p in safe):
            allowed |= 1 << w
    s = 0
    while True:
        s = (s - allowed) & allowed
        if s == 0:
            return None
        if all(ev.asserts(s, p) for p in premises) and not ev.asserts(s, conclusion):
            return Context(atoms, s)
