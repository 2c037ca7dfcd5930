"""Formula transforms: weak negation, negation normal form,
characteristic formulas for worlds, contexts and context sets.
"""
from __future__ import annotations

from collections.abc import Iterable, Sequence

from .contexts import Context, DeniabilityVariant, EmptyInputError, World
from .formulas import (
    Atom,
    ExtNeg,
    Formula,
    IntAnd,
    IntImp,
    IntNeg,
    IntOr,
    cap_chain,
    diamond,
    is_l_formula,
    or_chain,
    plus_disj,
)


def weak_negate(phi: Formula) -> Formula:
    """The weak negation -phi.

    Asserting -phi is equivalent to failing to assert phi: for every
    context C, C asserts -phi exactly when C does not assert phi.
    Defined by recursion on phi; the base clauses fire first, so a
    negated extensional formula is handled as a unit.
    """
    if is_l_formula(phi):
        return diamond(IntNeg(phi))
    if isinstance(phi, IntNeg):
        inner = phi.operand
        if is_l_formula(inner):
            return diamond(inner)
        if isinstance(inner, IntNeg):
            return weak_negate(inner.operand)
        if isinstance(inner, IntImp):
            return IntImp(inner.left, weak_negate(IntNeg(inner.right)))
        if isinstance(inner, IntAnd):
            return IntAnd(
                weak_negate(IntNeg(inner.left)), weak_negate(IntNeg(inner.right))
            )
        if isinstance(inner, IntOr):
            return IntOr(
                weak_negate(IntNeg(inner.left)), weak_negate(IntNeg(inner.right))
            )
    if isinstance(phi, IntImp):
        return diamond(IntAnd(phi.left, weak_negate(phi.right)))
    if isinstance(phi, IntAnd):
        return IntOr(weak_negate(phi.left), weak_negate(phi.right))
    if isinstance(phi, IntOr):
        return IntAnd(weak_negate(phi.left), weak_negate(phi.right))
    raise TypeError(f"not a formula: {phi!r}")


def nnf(phi: Formula, variant: DeniabilityVariant | str = DeniabilityVariant.GAUKER) -> Formula:
    """Negation normal form.

    Intensional negation gets pushed inward until it sits on
    extensional formulas, where it becomes ~.  How a negated
    implication rewrites depends on the deniability variant:

      gauker     !(x -> y)  ~>  <>(x & !y)   (the <> head keeps one !)
      nelson     !(x -> y)  ~>  x & !y
      connexive  !(x -> y)  ~>  x -> !y

    The result asserts and denies exactly as the input does in the
    chosen variant (mere equivalence; strong equivalence can fail
    under gauker because the rewrite is polarity-asymmetric).
    """
    variant = DeniabilityVariant.coerce(variant)
    return _nnf_pos(phi, variant)


def _nnf_pos(phi: Formula, variant: DeniabilityVariant) -> Formula:
    if is_l_formula(phi):
        return phi
    if isinstance(phi, IntNeg):
        return _nnf_neg(phi.operand, variant)
    if isinstance(phi, IntAnd):
        return IntAnd(_nnf_pos(phi.left, variant), _nnf_pos(phi.right, variant))
    if isinstance(phi, IntOr):
        return IntOr(_nnf_pos(phi.left, variant), _nnf_pos(phi.right, variant))
    if isinstance(phi, IntImp):
        return IntImp(_nnf_pos(phi.left, variant), _nnf_pos(phi.right, variant))
    raise TypeError(f"not a formula: {phi!r}")


def _nnf_neg(phi: Formula, variant: DeniabilityVariant) -> Formula:
    """Normal form of !phi."""
    if is_l_formula(phi):
        return ExtNeg(phi)
    if isinstance(phi, IntNeg):
        return _nnf_pos(phi.operand, variant)
    if isinstance(phi, IntAnd):
        return IntOr(_nnf_neg(phi.left, variant), _nnf_neg(phi.right, variant))
    if isinstance(phi, IntOr):
        return IntAnd(_nnf_neg(phi.left, variant), _nnf_neg(phi.right, variant))
    if isinstance(phi, IntImp):
        left = _nnf_pos(phi.left, variant)
        right = _nnf_neg(phi.right, variant)
        if variant is DeniabilityVariant.CONNEXIVE:
            return IntImp(left, right)
        if variant is DeniabilityVariant.NELSON:
            return IntAnd(left, right)
        return diamond(IntAnd(left, right))
    raise TypeError(f"not a formula: {phi!r}")


def sigma_w(world: World) -> Formula:
    """Characteristic L-formula of a world: the /\\-chain of literals,
    atoms in sorted order, negated where the world makes them false.
    """
    literals: list[Formula] = []
    for name, value in zip(world.atoms, world.values):
        atom = Atom(name)
        literals.append(atom if value else ExtNeg(atom))
    return cap_chain(literals)


def mu_c(context: Context) -> Formula:
    """Characteristic formula of a context: the (+) of its worlds'
    characteristic formulas, ascending world index.
    """
    return plus_disj([sigma_w(w) for w in context.worlds()])


def xi_x(contexts: Iterable[Context] | Sequence[Context]) -> Formula:
    """Characteristic formula of a nonempty set of contexts over one
    atom list: the |-chain of the contexts' characteristic formulas,
    ascending by member bit set.
    """
    pool = list(contexts)
    if not pool:
        raise EmptyInputError("a context set needs at least one context")
    atoms = pool[0].atoms
    for c in pool:
        if c.atoms != atoms:
            raise ValueError("contexts over different atom lists")
    seen: set[int] = set()
    unique: list[Context] = []
    for c in sorted(pool, key=lambda c: c.members):
        if c.members not in seen:
            seen.add(c.members)
            unique.append(c)
    return or_chain([mu_c(c) for c in unique])
