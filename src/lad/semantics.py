"""Bilateral evaluation, entailment and countermodel search.

One engine settles every judgment.  ContextTables computes, for a
subformula, the table of contexts that assert it or the table of those
that deny it, each packed into one big integer (bit position = context
member set).  Each side is built only when a clause reads it: ! swaps
the sides, and a -> denial reads its antecedent's assert side, so a
question about assertion builds deny tables only under a !.

By default a table spans every context over the atoms.  That is
viable up to TABLE_ATOM_LIMIT atoms: the most atoms whose 2**n worlds
fit in one table of TABLE_WORLD_LIMIT (24) worlds, so 4, since 2**4 =
16 <= 24 < 32 = 2**5 (a 5-atom table is 2**32 bits).  Given a sorted
list of worlds it spans only the contexts made of those worlds,
with bit i of a position standing for the i-th listed world; that is
exact, because whether a context asserts or denies a formula depends
only on the context and its subcontexts.  The subset closure reads one
tuple of clear-bit masks shared by every table, built for the widest
table so far and never shrunk: a narrower table's masks are the low
bits of a wider one's, and & costs only the smaller operand.  So the
widest masks live for the life of the process: 24 masks of 2**24 bits
(about 51 MiB as Python ints) once a 24-world table has been built,
about 137 KiB after whole-space tables only.
Extensional formulas are settled by their truth masks over the table's
worlds (_truth_mask, which truth() runs over one world).

One context is evaluated from set-up made once per context: its world
list and each atom's truth mask over those worlds (Context._index),
which every later evaluation of it reuses, whatever the formula or
variant.  A context of at most POINT_WORLD_LIMIT (10) worlds is
tabulated over its own worlds, each maximal extensional subformula's
truth mask made as the build reads it.  Those tables depend on the
context and the variant alone, so the context keeps one family of them
per variant in the same cache: every later asserts, denies or evaluate
on it reads each subformula table and leaf truth mask already made,
whatever formula asked for it.  A family that grows past
_FAMILY_ENTRY_LIMIT entries starts afresh, so a context kept for the
life of a process holds a bounded cache.  10 is the measured crossover:
on contexts over six atoms and formulas of 2-4 extensional leaves, the
world tables took 0.6-0.8 of the class tables' time up to 10 worlds,
0.9-1.7 at 12, and lost from 13 worlds on.  A wider one is first
walked over the formula's intensional nodes, which makes each maximal
extensional subformula's truth mask over the context's worlds once (and
finds every atom the context lacks).  Worlds on which all those masks
agree form a class.  A judgment at a subcontext then depends only on
the classes it meets, so the context asserts or denies the formula
exactly as its subcontext of one world per class does: the lowest
world of each class.  It is tabulated over those worlds (_PointTables),
so a context of any width evaluates when it has at most
TABLE_WORLD_LIMIT classes (else ContextTooWide).  asserts reads only
the assert side and denies only the deny side.

Entailment reads the least countermodel off one table family: the
lowest set bit of the contexts that assert every premise and not the
conclusion.  Up to TABLE_ATOM_LIMIT atoms that family spans every
context, so each formula is walked once.  Past that (up to the caller's
bound) a premise whose assert side persists by type (persists) is
asserted at every singleton subcontext of a context asserting it, so a
countermodel is made of kept worlds, those whose singleton context
asserts every such premise.  Under nelson and connexive that is every
premise; under gauker, every premise reaching no -> denial.  They come
from the same clauses run over the singleton contexts of all worlds at
once (_SingletonTables, each atom's mask over every world made in
closed form by _space_masks).  The search builds tables over the first
8 kept worlds, then the first 12, 16 and so on, and stops at the first
width that holds a countermodel.  It starts at 8 because a table over
at most 8 worlds is an int of at most 256 bits, whose &, | and << cost
what a 16-bit one's do, so a narrower first family would only add a
build whenever the search goes on.  Any context holding a later kept
world is numerically larger than every context of earlier ones, so the
least countermodel found this way is the least one overall, as it is
over every context.  Tables stop at TABLE_WORLD_LIMIT worlds; past
that, a search that has found nothing raises WorldLimitExceeded.
persistence_witness answers None at once, at any atom count, for a
formula that persists by type.
"""
from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from .contexts import DEFAULT_ATOM_BOUND, Context, DeniabilityVariant, World, _atom_masks, _bit_positions
from .formulas import (
    _L_TYPES,
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
)
from .transforms import mu_c, xi_x

# The widest table the countermodel search builds: 2**24 bits (2 MB)
# per table.
TABLE_WORLD_LIMIT = 24
# The most atoms whose 2**n worlds fit in one table: 4.
TABLE_ATOM_LIMIT = TABLE_WORLD_LIMIT.bit_length() - 1
# The search's first table family spans up to this many kept worlds,
# each later one SEARCH_WORLD_STEP more (see the module docstring).
SEARCH_FIRST_WORLDS = 8
SEARCH_WORLD_STEP = 4
# Point evaluation tabulates a context of at most this many worlds over
# its own worlds, a wider one over classes (see the module docstring).
POINT_WORLD_LIMIT = 10
# Memo entries (tables and truth masks) one context's tables for one
# variant hold before they start afresh.
_FAMILY_ENTRY_LIMIT = 4096


class UnknownAtomError(ValueError):
    """Formula mentions atoms the world or context does not carry: the
    names are the error's args."""

    def __str__(self) -> str:
        return f"formula mentions atoms the context lacks: {', '.join(self.args)}"


class AtomBoundExceeded(ValueError):
    """A query needs more atoms than the configured bound allows."""

    def __init__(self, n_atoms: int, bound: int, message: str | None = None):
        super().__init__(
            message
            or f"query spans {n_atoms} atoms, bound is {bound}; "
            "raise the bound to force the (exponential) search"
        )
        self.n_atoms = n_atoms
        self.bound = bound


class WorldLimitExceeded(ValueError):
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


class ContextTooWide(ValueError):
    """A context's worlds fall into more classes than point evaluation
    tabulates (TABLE_WORLD_LIMIT)."""

    def __init__(self, n_classes: int, limit: int):
        super().__init__(
            f"the context's worlds fall into {n_classes} classes under the formula's "
            f"extensional parts; evaluation tabulates at most {limit}"
        )
        self.n_classes = n_classes
        self.limit = limit


def _truth_mask(alpha: Formula, atom_masks: Mapping[str, int], full: int) -> int:
    """Bit set of the worlds where the extensional alpha is true, given
    each atom's bit set and the set of all the worlds."""
    cls = alpha.__class__
    if cls is Atom:
        try:
            return atom_masks[alpha.name]
        except KeyError:
            raise UnknownAtomError(alpha.name) from None
    if cls is ExtAnd:
        return _truth_mask(alpha.left, atom_masks, full) & _truth_mask(alpha.right, atom_masks, full)
    if cls is ExtOr:
        return _truth_mask(alpha.left, atom_masks, full) | _truth_mask(alpha.right, atom_masks, full)
    if cls is ExtNeg:
        return full ^ _truth_mask(alpha.operand, atom_masks, full)
    if cls is ExtImp:
        return (full ^ _truth_mask(alpha.left, atom_masks, full)) | _truth_mask(alpha.right, atom_masks, full)
    if cls is Falsum:
        return 0
    raise LayerError("truth at a world is defined for extensional formulas only")


def truth(world: World, alpha: Formula) -> bool:
    """Classical truth of an extensional formula at a world."""
    masks = {name: 1 if value else 0 for name, value in zip(world.atoms, world.values)}
    return _truth_mask(alpha, masks, 1) == 1


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


def _space_masks(atoms: Sequence[str]) -> dict[str, int]:
    """Each atom's truth mask over all 2**n worlds by index: atom j is
    bit n - 1 - j of a world's index (the first atom most significant)."""
    n = len(atoms)
    return {name: _index_bit_mask(n, n - 1 - j) for j, name in enumerate(atoms)}


# For each world bit b, the context positions whose bit b is clear, at
# the width of the widest table built so far (see the module docstring).
_clear_bit: tuple[int, ...] = ()


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
                raise AtomBoundExceeded(
                    self.n,
                    TABLE_ATOM_LIMIT,
                    f"query spans {self.n} atoms; tables over every context stop at "
                    f"{TABLE_ATOM_LIMIT} atoms, whatever the atom bound",
                )
            self.worlds = range(1 << self.n)
            atom_masks = _space_masks(self.atoms)
        else:
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
            atom_masks = _atom_masks(self.atoms, self.worlds)
        self._setup(variant, atom_masks, len(self.worlds))

    def _setup(
        self, variant: DeniabilityVariant | str, atom_masks: Mapping[str, int], n_worlds: int
    ) -> "ContextTables":
        """Start an empty family over n_worlds worlds, given each atom's
        truth mask over them by rank; returns self.  Every family but
        the singleton one starts here."""
        global _clear_bit
        self.variant = DeniabilityVariant.coerce(variant)
        self._atom_masks = atom_masks
        self._truths: dict[Formula, int] = {}
        # The assert tables and the deny tables, each built on demand.
        self._tables: tuple[dict[Formula, int], dict[Formula, int]] = ({}, {})
        self.n_worlds = n_worlds
        self.full_worlds = (1 << n_worlds) - 1
        self.universe = (1 << (1 << n_worlds)) - 1
        self.nonempty = self.universe & ~1
        if n_worlds > len(_clear_bit):
            _clear_bit = tuple(
                self.universe ^ _index_bit_mask(n_worlds, b) for b in range(n_worlds)
            )
        return self

    def members(self, position: int) -> int:
        """Member bit set, over all worlds, of the context at a position."""
        out = 0
        for i, w in enumerate(self.worlds):
            if position >> i & 1:
                out |= 1 << w
        return out

    def _leaf(self, t: int) -> int:
        """Assert table of an extensional formula true at the table worlds
        t: every nonempty subset of t.  Its deny table is _leaf of the rest."""
        table = 1
        while t:
            low = t & -t
            table |= table << (1 << (low.bit_length() - 1))
            t ^= low
        return table & ~1

    def has_subset(self, table: int) -> int:
        """Close a table upward: set bit m when some s <= m is set."""
        for b in range(self.n_worlds):
            table |= (table & _clear_bit[b]) << (1 << b)
        return table

    def tables(self, phi: Formula) -> tuple[int, int]:
        """(assert table, deny table) for phi."""
        return self.table(phi, False), self.table(phi, True)

    def assert_table(self, phi: Formula) -> int:
        return self.table(phi, False)

    def table(self, phi: Formula, deny: bool) -> int:
        """The deny table of phi when deny is set, else its assert table.
        Each side is built only when a clause reads it."""
        cache = self._tables[deny]
        table = cache.get(phi)
        if table is None:
            table = cache[phi] = self._build(phi, deny)
        return table

    def _build(self, phi: Formula, deny: bool) -> int:
        cls = phi.__class__
        if cls in _L_TYPES:
            # A leaf's truth mask over the table worlds, by rank, is made
            # once, whichever side reads it first.
            t = self._truths.get(phi)
            if t is None:
                t = self._truths[phi] = _truth_mask(phi, self._atom_masks, self.full_worlds)
            return self._leaf(self.full_worlds ^ t if deny else t)
        if cls is IntNeg:
            return self.table(phi.operand, not deny)
        if cls is IntImp:
            a1 = self.table(phi.left, False)
            if not deny:
                bad = a1 & (self.universe ^ self.table(phi.right, False))
                return self.nonempty & (self.universe ^ self.has_subset(bad))
            d2 = self.table(phi.right, True)
            if self.variant is DeniabilityVariant.NELSON:
                return a1 & d2
            if self.variant is DeniabilityVariant.CONNEXIVE:
                undeny = a1 & (self.universe ^ d2)
                return self.nonempty & (self.universe ^ self.has_subset(undeny))
            return self.has_subset(a1 & d2) & self.nonempty
        if cls is IntAnd or cls is IntOr:
            left = self.table(phi.left, deny)
            right = self.table(phi.right, deny)
            # Asserting a conjunction or denying a disjunction takes both
            # operands; the other two judgments take either.
            return left & right if (cls is IntAnd) != deny else left | right
        raise TypeError(f"not a formula: {phi!r}")


class _SingletonTables(ContextTables):
    """The same clauses at the singleton context of every world over the
    atoms at once: bit w stands for the context {w}.  A singleton's one
    nonempty subcontext is itself, so the subset closure is the identity
    and an extensional formula is asserted where it is true and denied
    where it is false.
    """

    def __init__(self, atoms: tuple[str, ...], variant: DeniabilityVariant):
        # Positions here are worlds, not contexts, so ContextTables._setup
        # (the width fields, the closure masks) does not apply.
        self.atoms = atoms
        self.variant = variant
        self.worlds = range(1 << len(atoms))
        self.full_worlds = self.universe = self.nonempty = (1 << len(self.worlds)) - 1
        self._atom_masks = _space_masks(atoms)
        self._truths = {}
        self._tables = ({}, {})

    def _leaf(self, t: int) -> int:
        return t

    def has_subset(self, table: int) -> int:
        return table


class _PointTables(ContextTables):
    """Tables over worlds of one context, bit i of a position standing
    for the i-th; _point_tables starts each through _setup, given each
    atom's mask over those worlds.  A judgment that leaves more than
    _FAMILY_ENTRY_LIMIT memo entries empties them all, so the tables
    start afresh."""

    def holds(self, phi: Formula, deny: bool) -> bool:
        """Does the whole context deny phi, or assert it?"""
        try:
            return bool(self.table(phi, deny) >> self.full_worlds & 1)
        except UnknownAtomError:
            # Over worlds the leaves' truths are made as the build reads
            # them, so the first atom missing stops it: name them all.
            raise _unknown_atoms(phi, self._atom_masks) from None
        finally:
            if self._entries() > _FAMILY_ENTRY_LIMIT:
                self._truths.clear()
                self._tables[0].clear()
                self._tables[1].clear()

    def _entries(self) -> int:
        return len(self._truths) + len(self._tables[0]) + len(self._tables[1])


def _unknown_atoms(phi: Formula, atoms: Iterable[str]) -> UnknownAtomError:
    """The error naming every atom of phi not among the given atoms."""
    return UnknownAtomError(*sorted(atoms_of(phi).difference(atoms)))


def _point_tables(context: Context, phi: Formula, variant: DeniabilityVariant | str) -> _PointTables:
    """The context's own family of tables over its worlds for the variant
    when it has at most POINT_WORLD_LIMIT of them, else new tables over
    one world of each class of its worlds that agree on every maximal
    extensional subformula of phi (see the module docstring).  Raises
    UnknownAtomError naming every atom of phi the context lacks, then
    ContextTooWide past TABLE_WORLD_LIMIT classes."""
    worlds, masks, families = context._index()
    if len(worlds) <= POINT_WORLD_LIMIT:
        variant = DeniabilityVariant.coerce(variant)
        tab = families.get(variant)
        if tab is None:
            tab = object.__new__(_PointTables)._setup(variant, masks, len(worlds))
            families[variant] = tab
        return tab
    full = (1 << len(worlds)) - 1
    # One walk over phi's intensional nodes: the truth mask over the
    # context's worlds of each of its maximal extensional subformulas.
    truths = {}
    stack = [(phi,)]
    try:
        while stack:
            for node in stack.pop():
                if node.__class__ not in _L_TYPES:
                    stack.append(node.children())
                elif node not in truths:
                    truths[node] = _truth_mask(node, masks, full)
    except UnknownAtomError:
        raise _unknown_atoms(phi, masks) from None
    classes = [full]
    for t in truths.values():
        classes = [part for c in classes for part in (c & t, c & ~t) if part]
    if len(classes) > TABLE_WORLD_LIMIT:
        raise ContextTooWide(len(classes), TABLE_WORLD_LIMIT)
    # Keep the lowest world of each class, whose rank is its class's low bit.
    reps = [worlds[(c & -c).bit_length() - 1] for c in classes]
    return object.__new__(_PointTables)._setup(variant, _atom_masks(context.atoms, reps), len(classes))


def evaluate(
    context: Context, phi: Formula, variant: DeniabilityVariant | str = DeniabilityVariant.GAUKER
) -> tuple[bool, bool]:
    """(asserted, denied): does the context assert phi, and deny it?

    Reads the tables over the context's worlds or over classes of them
    (see _point_tables); raises ContextTooWide past TABLE_WORLD_LIMIT
    classes.
    """
    tab = _point_tables(context, phi, variant)
    return tab.holds(phi, False), tab.holds(phi, True)


def asserts(context: Context, phi: Formula, variant: DeniabilityVariant | str = DeniabilityVariant.GAUKER) -> bool:
    """Does the context assert phi?  Builds no table phi's assertion does not read."""
    return _point_tables(context, phi, variant).holds(phi, False)


def denies(context: Context, phi: Formula, variant: DeniabilityVariant | str = DeniabilityVariant.GAUKER) -> bool:
    """Does the context deny phi?  Builds no table phi's denial does not read."""
    return _point_tables(context, phi, variant).holds(phi, True)


def sequent_atoms(premises: Iterable[Formula], conclusion: Formula) -> tuple[str, ...]:
    names: set[str] = set(atoms_of(conclusion))
    for p in premises:
        names |= atoms_of(p)
    return tuple(sorted(names)) if names else ("p",)


def persists(
    phi: Formula, variant: DeniabilityVariant | str = DeniabilityVariant.GAUKER, deny: bool = False
) -> bool:
    """Is phi's assert side (its deny side when deny is set) closed
    under nonempty subcontexts by type?  True means every nonempty
    subcontext of a context asserting (denying) phi asserts (denies) it.

    By induction on phi, for each side:
    - an L-formula is true (false) at every world of a context, and so
      at every world of a subcontext;
    - ! swaps the sides;
    - & and | take the intersection or union of their operands'
      families, which keeps closure;
    - x -> y is asserted when every nonempty subcontext asserting x
      asserts y, and a subcontext's subcontexts are among the context's;
    - x -> y is denied under nelson when the context asserts x and
      denies y, two closed families by induction; under connexive when
      every subcontext asserting x denies y, as for assertion; under
      gauker when some subcontext asserts x and denies y, which holds
      of every supercontext as well, so it is not closed in general.
    So under nelson and connexive every side of every formula is
    closed, and under gauker a side is closed unless its walk, counting
    ! flips, reaches a denied ->.  Every is_safe formula passes, and so
    does !!(p -> q), which is not safe.
    """
    if DeniabilityVariant.coerce(variant) is not DeniabilityVariant.GAUKER:
        return True
    stack = [(phi, deny)]
    while stack:
        node, deny = stack.pop()
        cls = node.__class__
        if cls is IntNeg:
            stack.append((node.operand, not deny))
        elif cls is IntAnd or cls is IntOr:
            stack.append((node.left, deny))
            stack.append((node.right, deny))
        elif cls is IntImp and deny:
            return False
    return True


def _kept_worlds(
    premises: Sequence[Formula], atoms: tuple[str, ...], variant: DeniabilityVariant
) -> list[int]:
    """Worlds whose singleton context asserts every premise that persists."""
    single = _SingletonTables(atoms, variant)
    kept = single.nonempty
    for p in premises:
        if persists(p, variant):
            kept &= single.assert_table(p)
    return _bit_positions(kept)


def countermodel(
    premises: Sequence[Formula],
    conclusion: Formula,
    variant: DeniabilityVariant | str = DeniabilityVariant.GAUKER,
    atom_bound: int = DEFAULT_ATOM_BOUND,
) -> Context | None:
    """Least context asserting every premise but not the conclusion,
    None when the sequent is valid.  Contexts range over the atoms
    mentioned in the sequent (one dummy atom when there are none).

    Up to TABLE_ATOM_LIMIT atoms reads it off the tables over every
    context; past that, searches tables over the first 8, 12, 16, ...
    kept worlds (see the module docstring) and raises
    WorldLimitExceeded when more than TABLE_WORLD_LIMIT worlds are kept
    and none of the searched contexts is a countermodel.
    """
    variant = DeniabilityVariant.coerce(variant)
    atoms = sequent_atoms(premises, conclusion)
    n = len(atoms)
    if n > atom_bound:
        raise AtomBoundExceeded(n, atom_bound)
    kept = None if n <= TABLE_ATOM_LIMIT else _kept_worlds(premises, atoms, variant)
    return _search(premises, conclusion, atoms, variant, kept)


def _search(
    premises: Sequence[Formula],
    conclusion: Formula,
    atoms: tuple[str, ...],
    variant: DeniabilityVariant,
    kept: Sequence[int] | None,
) -> Context | None:
    """The least countermodel in the first table family that holds one:
    the one family over every context when kept is None, else families
    over the first 8, 12, 16, ... of the kept worlds, widening up to
    TABLE_WORLD_LIMIT of them."""
    if kept is None:
        spaces: Iterable[Sequence[int] | None] = (None,)
    else:
        top = min(len(kept), TABLE_WORLD_LIMIT)
        widths = (*range(SEARCH_FIRST_WORLDS, top, SEARCH_WORLD_STEP), top)
        # No width at all when no world is kept (top is 0).
        spaces = (kept[:w] for w in widths if w)
    for worlds in spaces:
        tab = ContextTables(atoms, variant, worlds)
        counter = tab.nonempty
        for p in premises:
            counter &= tab.assert_table(p)
        counter &= tab.universe ^ tab.assert_table(conclusion)
        if counter:
            return Context(atoms, tab.members((counter & -counter).bit_length() - 1))
    if kept is not None and len(kept) > TABLE_WORLD_LIMIT:
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


def equivalent(phi: Formula, psi: Formula, variant: DeniabilityVariant | str = DeniabilityVariant.GAUKER) -> bool:
    """Same assertibility at every context over the joint atoms."""
    tab = ContextTables(sequent_atoms((phi,), psi), variant)
    return tab.assert_table(phi) == tab.assert_table(psi)


def strongly_equivalent(phi: Formula, psi: Formula, variant: DeniabilityVariant | str = DeniabilityVariant.GAUKER) -> bool:
    """Same assertibility and same deniability at every context."""
    tab = ContextTables(sequent_atoms((phi,), psi), variant)
    return tab.tables(phi) == tab.tables(psi)


def is_persistent(phi: Formula, variant: DeniabilityVariant | str = DeniabilityVariant.GAUKER) -> bool:
    """Assertion survives shrinking to any nonempty subcontext."""
    return persistence_witness(phi, variant) is None


def persistence_witness(
    phi: Formula, variant: DeniabilityVariant | str = DeniabilityVariant.GAUKER
) -> tuple[Context, Context] | None:
    """A pair (C, D) with D a nonempty subcontext of C where C asserts
    phi but D does not, or None when phi is persistent.  None at once,
    at any atom count, when phi persists by type (persists); otherwise
    checked over the formula's own atoms, up to TABLE_ATOM_LIMIT.
    """
    if persists(phi, variant):
        return None
    atoms = sequent_atoms((), phi)
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
