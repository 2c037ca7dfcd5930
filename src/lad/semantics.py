"""Bilateral evaluation, entailment and countermodel search.

One engine settles every judgment.  ContextTables computes, for a
subformula, the table of contexts that assert it or the table of those
that deny it, each packed into one big integer (bit position = context
member set).  Each side is built only when a clause reads it: ! swaps
the sides, and a -> denial reads its antecedent's assert side, so a
question about assertion builds deny tables only under a !.

By default a table spans every context over the atoms, which is
viable up to 4 atoms (a 5-atom table is 2**32 bits).  Given a sorted
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

One context is evaluated by one walk over the formula's intensional
nodes, which makes each maximal extensional subformula's truth mask
over the context's worlds once (and finds every atom the context
lacks).  Worlds on which all those masks agree form a class.  Worlds of
one class are interchangeable in every clause, so tables over the
classes, fed the masks by class, are exact (_ClassTables), and a
context of any width evaluates when it has at most TABLE_WORLD_LIMIT
classes (else ContextTooWide).  asserts reads only the assert side and
denies only the deny side.

Entailment has one search at every atom count (up to the caller's
bound).  A safe premise persists, so a countermodel is made of kept
worlds, those whose singleton context asserts every safe premise.
They come from the same clauses run over the singleton contexts of all
worlds at once (_SingletonTables).  The search builds tables over the
first 4 kept worlds, then the first 8, 12 and so on, and stops at the
first width that holds a countermodel.  Any context holding a later
kept world is numerically larger than every context of earlier ones,
so the least countermodel found this way is the least one overall.
Tables stop at TABLE_WORLD_LIMIT worlds; past that, a search that has
found nothing raises WorldLimitExceeded.
"""
from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from .contexts import DEFAULT_ATOM_BOUND, Context, DeniabilityVariant, World
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

TABLE_ATOM_LIMIT = 4
# The widest table the countermodel search builds: 2**24 bits (2 MB)
# per table.
TABLE_WORLD_LIMIT = 24
SEARCH_WORLD_STEP = 4


class UnknownAtomError(Exception):
    """Formula mentions an atom the world or context does not carry."""


class AtomBoundExceeded(Exception):
    """A query needs more atoms than the configured bound allows."""

    def __init__(self, n_atoms: int, bound: int, message: str | None = None):
        super().__init__(
            message
            or f"query spans {n_atoms} atoms, bound is {bound}; "
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


class ContextTooWide(Exception):
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
    if isinstance(alpha, Atom):
        try:
            return atom_masks[alpha.name]
        except KeyError:
            raise UnknownAtomError(alpha.name) from None
    if isinstance(alpha, Falsum):
        return 0
    if isinstance(alpha, ExtNeg):
        return full ^ _truth_mask(alpha.operand, atom_masks, full)
    if isinstance(alpha, (ExtAnd, ExtOr, ExtImp)):
        left = _truth_mask(alpha.left, atom_masks, full)
        right = _truth_mask(alpha.right, atom_masks, full)
        if isinstance(alpha, ExtAnd):
            return left & right
        if isinstance(alpha, ExtOr):
            return left | right
        return (full ^ left) | right
    raise LayerError("truth at a world is defined for extensional formulas only")


def _atom_masks(atoms: Sequence[str], worlds: Sequence[int]) -> dict[str, int]:
    """Each atom's truth mask over the listed world indices: bit i for worlds[i]."""
    n = len(atoms)
    masks = {}
    for j, name in enumerate(atoms):
        shift = n - 1 - j
        mask = 0
        for i, w in enumerate(worlds):
            mask |= (w >> shift & 1) << i
        masks[name] = mask
    return masks


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
        self._set_width(len(self.worlds))
        self._atom_masks = _atom_masks(self.atoms, self.worlds)
        self._truths: dict[Formula, int] = {}
        # The assert tables and the deny tables, each built on demand.
        self._tables: tuple[dict[Formula, int], dict[Formula, int]] = ({}, {})

    def _set_width(self, n_worlds: int) -> None:
        global _clear_bit
        self.n_worlds = n_worlds
        self.full_worlds = (1 << n_worlds) - 1
        self.universe = (1 << (1 << n_worlds)) - 1
        self.nonempty = self.universe & ~1
        if n_worlds > len(_clear_bit):
            _clear_bit = tuple(
                self.universe ^ _index_bit_mask(n_worlds, b) for b in range(n_worlds)
            )

    def members(self, position: int) -> int:
        """Member bit set, over all worlds, of the context at a position."""
        out = 0
        for i, w in enumerate(self.worlds):
            if position >> i & 1:
                out |= 1 << w
        return out

    def l_truth_mask(self, alpha: Formula) -> int:
        """Bit set of table worlds, by rank, where the extensional alpha
        is true; made once, whichever side reads it first."""
        t = self._truths.get(alpha)
        if t is None:
            t = self._truths[alpha] = _truth_mask(alpha, self._atom_masks, self.full_worlds)
        return t

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
        if is_l_formula(phi):
            t = self.l_truth_mask(phi)
            return self._leaf(self.full_worlds ^ t if deny else t)
        if isinstance(phi, IntNeg):
            return self.table(phi.operand, not deny)
        if isinstance(phi, (IntAnd, IntOr)):
            left = self.table(phi.left, deny)
            right = self.table(phi.right, deny)
            # Asserting a conjunction or denying a disjunction takes both
            # operands; the other two judgments take either.
            return left & right if isinstance(phi, IntAnd) != deny else left | right
        if isinstance(phi, IntImp):
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
        raise TypeError(f"not a formula: {phi!r}")


class _SingletonTables(ContextTables):
    """The same clauses at the singleton context of every world over the
    atoms at once: bit w stands for the context {w}.  A singleton's one
    nonempty subcontext is itself, so the subset closure is the identity
    and an extensional formula is asserted where it is true and denied
    where it is false.
    """

    def __init__(self, atoms: tuple[str, ...], variant: DeniabilityVariant):
        # Positions here are worlds, not contexts, so none of
        # ContextTables' set-up (world list, closure masks) applies.
        self.atoms = atoms
        self.variant = variant
        self.worlds = range(1 << len(atoms))
        self.full_worlds = self.universe = self.nonempty = (1 << len(self.worlds)) - 1
        self._atom_masks = _atom_masks(atoms, self.worlds)
        self._truths = {}
        self._tables = ({}, {})

    def _leaf(self, t: int) -> int:
        return t

    def has_subset(self, table: int) -> int:
        return table


class _ClassTables(ContextTables):
    """Tables over the classes of one context's worlds (see _point_tables):
    bit i of a position stands for the i-th class, and the formula's
    maximal extensional subformulas come with their truth masks over the
    classes, so no atom or world list is needed."""

    def __init__(
        self, variant: DeniabilityVariant | str, n_classes: int, leaf_masks: dict[Formula, int]
    ):
        self.variant = DeniabilityVariant.coerce(variant)
        self._set_width(n_classes)
        self._truths = leaf_masks
        self._tables = ({}, {})

    def holds(self, phi: Formula, deny: bool) -> bool:
        """Does the whole context (every class) deny phi, or assert it?"""
        return bool(self.table(phi, deny) >> self.full_worlds & 1)


def _point_tables(context: Context, phi: Formula, variant: DeniabilityVariant | str) -> _ClassTables:
    """Tables over the classes of the context's worlds that agree on every
    maximal extensional subformula of phi (see the module docstring).
    Raises UnknownAtomError naming every atom of phi the context lacks,
    then ContextTooWide past TABLE_WORLD_LIMIT classes."""
    worlds = []
    rest = context.members
    while rest:
        low = rest & -rest
        worlds.append(low.bit_length() - 1)
        rest ^= low
    full = (1 << len(worlds)) - 1
    masks = _atom_masks(context.atoms, worlds)
    # One walk over phi's intensional nodes: the truth mask over the
    # context's worlds of each of its maximal extensional subformulas.
    truths = {}
    stack = [(phi,)]
    try:
        while stack:
            for node in stack.pop():
                if not is_l_formula(node):
                    stack.append(node.children())
                elif node not in truths:
                    truths[node] = _truth_mask(node, masks, full)
    except UnknownAtomError:
        missing = atoms_of(phi).difference(context.atoms)
        raise UnknownAtomError(", ".join(sorted(missing))) from None
    classes = [full]
    for t in truths.values():
        classes = [part for c in classes for part in (c & t, c & ~t) if part]
    if len(classes) > TABLE_WORLD_LIMIT:
        raise ContextTooWide(len(classes), TABLE_WORLD_LIMIT)
    # Re-index each truth mask by class: class j takes the value at its
    # lowest world, of rank reps[j].
    reps = [(c & -c).bit_length() - 1 for c in classes]
    for leaf, t in truths.items():
        truths[leaf] = sum((t >> r & 1) << j for j, r in enumerate(reps))
    return _ClassTables(variant, len(classes), truths)


def evaluate(
    context: Context, phi: Formula, variant: DeniabilityVariant | str = DeniabilityVariant.GAUKER
) -> tuple[bool, bool]:
    """(asserted, denied): does the context assert phi, and deny it?

    Reads the tables over the classes of the context's worlds (see
    _point_tables); raises ContextTooWide past TABLE_WORLD_LIMIT classes.
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


def _kept_worlds(
    premises: Sequence[Formula], atoms: tuple[str, ...], variant: DeniabilityVariant
) -> list[int]:
    """Worlds whose singleton context asserts every safe premise."""
    single = _SingletonTables(atoms, variant)
    kept = single.nonempty
    for p in premises:
        if is_safe(p):
            kept &= single.assert_table(p)
    return [w for w in single.worlds if kept >> w & 1]


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
    kept = _kept_worlds(premises, atoms, variant)
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
    phi but D does not, or None when phi is persistent.  Checked over
    the formula's own atoms.
    """
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
