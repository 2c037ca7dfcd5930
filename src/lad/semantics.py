"""Bilateral evaluation, entailment and countermodel search.

Two engines compute the same relation:

* PointEvaluator settles assertibility or deniability of one formula
  at one context, memoising intermediate (context, subformula)
  results.  Works at any atom count; implications cost a walk over
  the subcontexts of the current context.

* ContextTables computes, for every subformula, the table of contexts
  that assert it and the table that deny it, each packed into one big
  integer (bit position = context member set).  By default a table
  spans every context over the atoms, which is viable up to 4 atoms
  (a 5-atom table is 2**32 bits).  Given a sorted list of worlds it
  spans only the contexts made of those worlds, with bit i of a
  position standing for the i-th listed world; that is exact, because
  whether a context asserts or denies a formula depends only on the
  context and its subcontexts.  The per-width masks its subset closure
  uses are constants, built once per world count up to 16 worlds and
  shared by every instance; wider tables build their own.

Entailment has one search at every atom count (up to the caller's
bound).  A safe premise persists, so a countermodel is made of kept
worlds, those whose singleton context asserts every safe premise.
The search builds tables over the first 4 kept worlds, then the first
8, 12 and so on, and stops at the first width that holds a
countermodel.  Any context holding a later kept world is numerically
larger than every context of earlier ones, so the least countermodel
found this way is the least one overall.  Tables stop at
TABLE_WORLD_LIMIT worlds; past that, a search that has found nothing
raises WorldLimitExceeded.
"""
from __future__ import annotations

import functools
from typing import Iterable, Sequence

from .contexts import Context, DeniabilityVariant, World
from .formulas import (
    Atom,
    ExtAnd,
    ExtImp,
    ExtNeg,
    ExtOr,
    Falsum,
    Formula,
    IntAnd,
    IntImp,
    IntNeg,
    IntOr,
    LayerError,
    atoms_of,
    is_l_formula,
    is_safe,
)
from .transforms import mu_c, xi_x

DEFAULT_ATOM_BOUND = 4
TABLE_ATOM_LIMIT = 4
# The widest table the countermodel search builds: 2**24 bits (2 MB)
# per table.
TABLE_WORLD_LIMIT = 24
SEARCH_WORLD_STEP = 4
# Masks up to the whole-space width are kept for the process's life;
# wider ones (2 MB each at 24 worlds) live only as long as their table.
_SHARED_MASK_WORLDS = 1 << TABLE_ATOM_LIMIT


class UnknownAtomError(Exception):
    """Formula mentions an atom the world or context does not carry."""


class AtomBoundExceeded(Exception):
    """A query needs more atoms than the configured bound allows."""

    def __init__(self, n_atoms: int, bound: int):
        super().__init__(
            f"query spans {n_atoms} atoms, bound is {bound}; "
            "raise the bound to force the (exponential) search"
        )
        self.n_atoms = n_atoms
        self.bound = bound


class WorldLimitExceeded(Exception):
    """More worlds are kept than the countermodel search tabulates, and
    no countermodel lies among the first TABLE_WORLD_LIMIT of them; the
    contexts holding a later kept world are not searched."""

    def __init__(self, n_kept: int, searched: int):
        super().__init__(
            f"no countermodel among the first {searched} of {n_kept} kept worlds; "
            f"contexts over more than {searched} worlds are past the search limit"
        )
        self.n_kept = n_kept
        self.searched = searched


def truth(world: World, alpha: Formula) -> bool:
    """Classical truth of an extensional formula at a world."""
    if isinstance(alpha, Atom):
        try:
            return world.value(alpha.name)
        except KeyError:
            raise UnknownAtomError(alpha.name) from None
    if isinstance(alpha, Falsum):
        return False
    if isinstance(alpha, ExtNeg):
        return not truth(world, alpha.operand)
    if isinstance(alpha, ExtAnd):
        return truth(world, alpha.left) and truth(world, alpha.right)
    if isinstance(alpha, ExtOr):
        return truth(world, alpha.left) or truth(world, alpha.right)
    if isinstance(alpha, ExtImp):
        return (not truth(world, alpha.left)) or truth(world, alpha.right)
    raise LayerError("truth at a world is defined for extensional formulas only")


def _index_bit_mask(width: int, k: int) -> int:
    """Over all ``width``-bit indices, the bit set of indices whose
    k-th bit is 1, packed as an integer of 2**width bits.
    """
    total = 1 << width
    period = 1 << (k + 1)
    mask = ((1 << (1 << k)) - 1) << (1 << k)
    while period < total:
        mask |= mask << period
        period <<= 1
    return mask


def _clear_bit_masks(n_worlds: int) -> tuple[int, ...]:
    """For each world bit b, the context positions whose bit b is clear."""
    universe = (1 << (1 << n_worlds)) - 1
    return tuple(universe ^ _index_bit_mask(n_worlds, b) for b in range(n_worlds))


# Constant per world count, so every ContextTables over that many worlds
# shares one tuple; only widths up to _SHARED_MASK_WORLDS are cached.
_shared_clear_bit_masks = functools.cache(_clear_bit_masks)


class PointEvaluator:
    """Memoised assert/deny evaluation over one sorted atom tuple.

    Contexts are passed as member bit sets (as in Context.members).
    The memo persists for the evaluator's lifetime, so reuse one
    instance when probing many contexts over the same atoms.
    """

    def __init__(self, atoms: Sequence[str], variant: DeniabilityVariant | str = DeniabilityVariant.GAUKER):
        self.atoms = tuple(sorted(set(atoms)))
        if not self.atoms:
            raise ValueError("need at least one atom")
        self.variant = DeniabilityVariant.coerce(variant)
        self.n = len(self.atoms)
        self.n_worlds = 1 << self.n
        self.full_worlds = (1 << self.n_worlds) - 1
        self._atom_masks = {
            name: _index_bit_mask(self.n, self.n - 1 - j)
            for j, name in enumerate(self.atoms)
        }
        self._lmask: dict[Formula, int] = {}
        self._memo: dict[tuple[int, Formula, bool], bool] = {}

    def l_truth_mask(self, alpha: Formula) -> int:
        """Bit set of world indices where the extensional alpha is true."""
        cached = self._lmask.get(alpha)
        if cached is not None:
            return cached
        if isinstance(alpha, Atom):
            try:
                mask = self._atom_masks[alpha.name]
            except KeyError:
                raise UnknownAtomError(alpha.name) from None
        elif isinstance(alpha, Falsum):
            mask = 0
        elif isinstance(alpha, ExtNeg):
            mask = self.full_worlds ^ self.l_truth_mask(alpha.operand)
        elif isinstance(alpha, ExtAnd):
            mask = self.l_truth_mask(alpha.left) & self.l_truth_mask(alpha.right)
        elif isinstance(alpha, ExtOr):
            mask = self.l_truth_mask(alpha.left) | self.l_truth_mask(alpha.right)
        elif isinstance(alpha, ExtImp):
            mask = (self.full_worlds ^ self.l_truth_mask(alpha.left)) | self.l_truth_mask(alpha.right)
        else:
            raise LayerError("truth masks are defined for extensional formulas only")
        self._lmask[alpha] = mask
        return mask

    def asserts(self, members: int, phi: Formula) -> bool:
        if not 0 < members <= self.full_worlds:
            raise ValueError("context member set out of range or empty")
        return self._eval(members, phi, True)

    def denies(self, members: int, phi: Formula) -> bool:
        if not 0 < members <= self.full_worlds:
            raise ValueError("context member set out of range or empty")
        return self._eval(members, phi, False)

    def _eval(self, members: int, phi: Formula, positive: bool) -> bool:
        key = (members, phi, positive)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        result = self._clause(members, phi, positive)
        self._memo[key] = result
        return result

    def _clause(self, members: int, phi: Formula, positive: bool) -> bool:
        if is_l_formula(phi):
            t = self.l_truth_mask(phi)
            if positive:
                return members & ~t == 0
            return members & t == 0
        if isinstance(phi, IntNeg):
            return self._eval(members, phi.operand, not positive)
        if isinstance(phi, IntAnd):
            if positive:
                return self._eval(members, phi.left, True) and self._eval(members, phi.right, True)
            return self._eval(members, phi.left, False) or self._eval(members, phi.right, False)
        if isinstance(phi, IntOr):
            if positive:
                return self._eval(members, phi.left, True) or self._eval(members, phi.right, True)
            return self._eval(members, phi.left, False) and self._eval(members, phi.right, False)
        if isinstance(phi, IntImp):
            if positive:
                d = members
                while d:
                    if self._eval(d, phi.left, True) and not self._eval(d, phi.right, True):
                        return False
                    d = (d - 1) & members
                return True
            if self.variant is DeniabilityVariant.NELSON:
                return self._eval(members, phi.left, True) and self._eval(members, phi.right, False)
            if self.variant is DeniabilityVariant.CONNEXIVE:
                d = members
                while d:
                    if self._eval(d, phi.left, True) and not self._eval(d, phi.right, False):
                        return False
                    d = (d - 1) & members
                return True
            d = members
            while d:
                if self._eval(d, phi.left, True) and self._eval(d, phi.right, False):
                    return True
                d = (d - 1) & members
            return False
        raise TypeError(f"not a formula: {phi!r}")


class ContextTables:
    """Assert/deny tables over the nonempty contexts on a small atom set.

    A table is an int whose bit at position m is set exactly when the
    context with member set m has the property.  Bit 0 (the empty set)
    stays clear everywhere.  With ``worlds`` (strictly increasing world
    indices, at most TABLE_WORLD_LIMIT of them) the tables cover only
    the contexts made of those worlds, and bit i of a position stands
    for ``worlds[i]``; ``members`` maps a position back.
    """

    def __init__(
        self,
        atoms: Sequence[str],
        variant: DeniabilityVariant | str = DeniabilityVariant.GAUKER,
        worlds: Sequence[int] | None = None,
    ):
        self.atoms = tuple(sorted(set(atoms)))
        if not self.atoms:
            raise ValueError("need at least one atom")
        self.n = len(self.atoms)
        if worlds is None:
            if self.n > TABLE_ATOM_LIMIT:
                raise AtomBoundExceeded(self.n, TABLE_ATOM_LIMIT)
            worlds = range(1 << self.n)
        self.worlds = tuple(worlds)
        if not (
            0 < len(self.worlds) <= TABLE_WORLD_LIMIT
            and 0 <= self.worlds[0]
            and self.worlds[-1] < 1 << self.n
            and all(a < b for a, b in zip(self.worlds, self.worlds[1:]))
        ):
            raise ValueError(
                f"worlds must be 1 to {TABLE_WORLD_LIMIT} strictly increasing "
                f"world indices below {1 << self.n}"
            )
        self.variant = DeniabilityVariant.coerce(variant)
        self.n_worlds = len(self.worlds)
        self.full_worlds = (1 << self.n_worlds) - 1
        # Bit sets over table positions (contexts), used by the
        # subset-closure transform: position masks whose world-bit b
        # is clear.
        self.universe = (1 << (1 << self.n_worlds)) - 1
        self.nonempty = self.universe & ~1
        if self.n_worlds <= _SHARED_MASK_WORLDS:
            self._clear_bit = _shared_clear_bit_masks(self.n_worlds)
        else:
            self._clear_bit = _clear_bit_masks(self.n_worlds)
        self._point = PointEvaluator(self.atoms, self.variant)
        self._tables: dict[Formula, tuple[int, int]] = {}

    def members(self, position: int) -> int:
        """Member bit set, over all worlds, of the context at a position."""
        out = 0
        for i, w in enumerate(self.worlds):
            if position >> i & 1:
                out |= 1 << w
        return out

    def l_truth_mask(self, alpha: Formula) -> int:
        """Bit set of table worlds, by rank, where the extensional alpha is true."""
        full = self._point.l_truth_mask(alpha)
        if self.n_worlds == self._point.n_worlds:
            return full  # every world, in order: rank is the world index
        mask = 0
        for i, w in enumerate(self.worlds):
            mask |= (full >> w & 1) << i
        return mask

    def subsets_table(self, world_mask: int) -> int:
        """Indicator of all (possibly empty) subsets of world_mask."""
        table = 1
        rest = world_mask
        while rest:
            low = rest & -rest
            table |= table << (1 << (low.bit_length() - 1))
            rest ^= low
        return table

    def has_subset(self, table: int) -> int:
        """Close a table upward: set bit m when some s <= m is set."""
        for b in range(self.n_worlds):
            table |= (table & self._clear_bit[b]) << (1 << b)
        return table

    def tables(self, phi: Formula) -> tuple[int, int]:
        """(assert table, deny table) for phi."""
        cached = self._tables.get(phi)
        if cached is not None:
            return cached
        result = self._build(phi)
        self._tables[phi] = result
        return result

    def _build(self, phi: Formula) -> tuple[int, int]:
        if is_l_formula(phi):
            t = self.l_truth_mask(phi)
            a = self.subsets_table(t) & ~1
            d = self.subsets_table(self.full_worlds ^ t) & ~1
            return a, d
        if isinstance(phi, IntNeg):
            a, d = self.tables(phi.operand)
            return d, a
        if isinstance(phi, IntAnd):
            a1, d1 = self.tables(phi.left)
            a2, d2 = self.tables(phi.right)
            return a1 & a2, d1 | d2
        if isinstance(phi, IntOr):
            a1, d1 = self.tables(phi.left)
            a2, d2 = self.tables(phi.right)
            return a1 | a2, d1 & d2
        if isinstance(phi, IntImp):
            a1, _ = self.tables(phi.left)
            a2, d2 = self.tables(phi.right)
            bad = a1 & (self.universe ^ a2)
            assert_table = self.nonempty & (self.universe ^ self.has_subset(bad))
            if self.variant is DeniabilityVariant.NELSON:
                deny_table = a1 & d2
            elif self.variant is DeniabilityVariant.CONNEXIVE:
                undeny = a1 & (self.universe ^ d2)
                deny_table = self.nonempty & (self.universe ^ self.has_subset(undeny))
            else:
                deny_table = self.has_subset(a1 & d2) & self.nonempty
            return assert_table, deny_table
        raise TypeError(f"not a formula: {phi!r}")

    def assert_table(self, phi: Formula) -> int:
        return self.tables(phi)[0]

    def deny_table(self, phi: Formula) -> int:
        return self.tables(phi)[1]


def check_atoms(context: Context, phi: Formula) -> None:
    """Raise UnknownAtomError naming every atom of phi the context lacks."""
    missing = atoms_of(phi) - set(context.atoms)
    if missing:
        raise UnknownAtomError(", ".join(sorted(missing)))


def asserts(context: Context, phi: Formula, variant: DeniabilityVariant | str = DeniabilityVariant.GAUKER) -> bool:
    """Does the context assert phi?"""
    check_atoms(context, phi)
    return PointEvaluator(context.atoms, variant).asserts(context.members, phi)


def denies(context: Context, phi: Formula, variant: DeniabilityVariant | str = DeniabilityVariant.GAUKER) -> bool:
    """Does the context deny phi?"""
    check_atoms(context, phi)
    return PointEvaluator(context.atoms, variant).denies(context.members, phi)


def sequent_atoms(premises: Iterable[Formula], conclusion: Formula) -> tuple[str, ...]:
    names: set[str] = set(atoms_of(conclusion))
    for p in premises:
        names |= atoms_of(p)
    return tuple(sorted(names)) if names else ("p",)


def countermodel(
    premises: Sequence[Formula],
    conclusion: Formula,
    variant: DeniabilityVariant | str = DeniabilityVariant.GAUKER,
    atom_bound: int = DEFAULT_ATOM_BOUND,
) -> Context | None:
    """Least context asserting every premise but not the conclusion,
    None when the sequent is valid.  Contexts range over the atoms
    mentioned in the sequent (one dummy atom when there are none).

    Searches tables over the first 4, 8, 12, ... kept worlds (see the
    module docstring); raises WorldLimitExceeded when more than
    TABLE_WORLD_LIMIT worlds are kept and none of the searched
    contexts is a countermodel.
    """
    variant = DeniabilityVariant.coerce(variant)
    atoms = sequent_atoms(premises, conclusion)
    n = len(atoms)
    if n > atom_bound:
        raise AtomBoundExceeded(n, atom_bound)
    ev = PointEvaluator(atoms, variant)
    safe = [p for p in premises if is_safe(p)]
    kept = [w for w in range(ev.n_worlds) if all(ev.asserts(1 << w, p) for p in safe)]
    if not kept:
        return None
    top = min(len(kept), TABLE_WORLD_LIMIT)
    for width in (*range(SEARCH_WORLD_STEP, top, SEARCH_WORLD_STEP), top):
        tab = ContextTables(atoms, variant, kept[:width])
        counter = tab.nonempty
        for p in premises:
            counter &= tab.assert_table(p)
        counter &= tab.universe ^ tab.assert_table(conclusion)
        if counter:
            return Context(atoms, tab.members((counter & -counter).bit_length() - 1))
    if len(kept) > TABLE_WORLD_LIMIT:
        raise WorldLimitExceeded(len(kept), TABLE_WORLD_LIMIT)
    return None


def entails(
    premises: Sequence[Formula],
    conclusion: Formula,
    variant: DeniabilityVariant | str = DeniabilityVariant.GAUKER,
    atom_bound: int = DEFAULT_ATOM_BOUND,
) -> bool:
    """Every context over the sequent's atoms that asserts all the
    premises asserts the conclusion.
    """
    return countermodel(premises, conclusion, variant, atom_bound) is None


def _pair_tables(phi: Formula, psi: Formula, variant: DeniabilityVariant | str) -> ContextTables:
    names = atoms_of(phi) | atoms_of(psi)
    atoms = tuple(sorted(names)) if names else ("p",)
    return ContextTables(atoms, variant)


def equivalent(phi: Formula, psi: Formula, variant: DeniabilityVariant | str = DeniabilityVariant.GAUKER) -> bool:
    """Same assertibility at every context over the joint atoms."""
    tab = _pair_tables(phi, psi, variant)
    return tab.assert_table(phi) == tab.assert_table(psi)


def strongly_equivalent(phi: Formula, psi: Formula, variant: DeniabilityVariant | str = DeniabilityVariant.GAUKER) -> bool:
    """Same assertibility and same deniability at every context."""
    tab = _pair_tables(phi, psi, variant)
    return tab.tables(phi) == tab.tables(psi)


def is_persistent(phi: Formula, variant: DeniabilityVariant | str = DeniabilityVariant.GAUKER) -> bool:
    """Assertion survives shrinking to any nonempty subcontext."""
    return persistence_witness(phi, variant) is None


def persistence_witness(
    phi: Formula, variant: DeniabilityVariant | str = DeniabilityVariant.GAUKER
) -> tuple[Context, Context] | None:
    """A pair (C, D) with D a nonempty subcontext of C where C asserts
    phi but D does not, or None when phi is persistent.  Checked over
    the formula's own atoms.
    """
    names = atoms_of(phi)
    atoms = tuple(sorted(names)) if names else ("p",)
    tab = ContextTables(atoms, variant)
    a = tab.assert_table(phi)
    refuted = tab.nonempty & (tab.universe ^ a)
    breaks = tab.has_subset(refuted) & a
    if breaks == 0:
        return None
    c_members = (breaks & -breaks).bit_length() - 1
    d = 0
    while True:
        d = (d - c_members) & c_members
        if d == 0:
            raise AssertionError("witness bookkeeping out of sync")
        if not a >> d & 1:
            return Context(atoms, c_members), Context(atoms, d)


def check_characteristic(context: Context) -> bool:
    """The context's characteristic formula is asserted by that
    context and by no other context over the same atoms.  Specific to
    the default (gauker) variant, whose possibility operator makes the
    world-membership constraints exact.
    """
    tab = ContextTables(context.atoms, DeniabilityVariant.GAUKER)
    return tab.assert_table(mu_c(context)) == 1 << context.members


def check_characteristic_set(contexts: Sequence[Context]) -> bool:
    """The set's characteristic formula is asserted by exactly the
    member contexts (gauker variant).
    """
    pool = list(contexts)
    phi = xi_x(pool)  # raises EmptyInputError on an empty set
    tab = ContextTables(pool[0].atoms, DeniabilityVariant.GAUKER)
    want = 0
    for c in pool:
        want |= 1 << c.members
    return tab.assert_table(phi) == want
