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

    Under the default gauker denial clause, asserting -phi is
    equivalent to failing to assert phi: for every context C, C asserts
    -phi exactly when C does not assert phi.  The law fails under
    nelson and connexive, already at an atom, because there the <> it
    builds on degenerates.  The transform itself takes no variant.
    """
    return _weak(phi, False)


def _weak(phi: Formula, deny: bool) -> Formula:
    """Weak negation of phi, or of !phi when deny is set.  The walk
    stops at L-formulas, so !alpha gives <>alpha."""
    if is_l_formula(phi):
        return diamond(phi if deny else IntNeg(phi))
    if isinstance(phi, IntNeg):
        return _weak(phi.operand, not deny)
    if isinstance(phi, (IntAnd, IntOr)):
        left = _weak(phi.left, deny)
        right = _weak(phi.right, deny)
        # Failing a judgment that takes both operands means failing
        # either, and the other way round.
        return IntOr(left, right) if isinstance(phi, IntAnd) != deny else IntAnd(left, right)
    if isinstance(phi, IntImp):
        if deny:
            return IntImp(phi.left, _weak(phi.right, True))
        return diamond(IntAnd(phi.left, _weak(phi.right, False)))
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
    return _nnf(phi, False, DeniabilityVariant.coerce(variant))


def _nnf(phi: Formula, deny: bool, variant: DeniabilityVariant) -> Formula:
    """Normal form of phi, or of !phi when deny is set.  The polarity
    rules are those of semantics.ContextTables._build."""
    if is_l_formula(phi):
        return ExtNeg(phi) if deny else phi
    if isinstance(phi, IntNeg):
        return _nnf(phi.operand, not deny, variant)
    if isinstance(phi, (IntAnd, IntOr)):
        left = _nnf(phi.left, deny, variant)
        right = _nnf(phi.right, deny, variant)
        # Asserting a conjunction or denying a disjunction takes both
        # operands; the other two judgments take either.
        return IntAnd(left, right) if isinstance(phi, IntAnd) != deny else IntOr(left, right)
    if isinstance(phi, IntImp):
        # The antecedent stays positive on either side; the consequent
        # takes the side asked for.
        left = _nnf(phi.left, False, variant)
        right = _nnf(phi.right, deny, variant)
        if not deny or variant is DeniabilityVariant.CONNEXIVE:
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
