"""Possible worlds, contexts and the deniability-variant switch.

A world is a truth-value assignment over a finite atom list.  Atom
lists are kept sorted, and each world has a canonical index: read its
truth vector over the sorted atoms as a binary number, first atom as
the most significant bit.  A context is a nonempty set of worlds over
one atom list, stored as a bit set over world indices.

The text format for contexts is one header line of atom names followed
by one 0/1 string per world (one character per atom, header order).
Lines starting with # are comments.
"""
from __future__ import annotations

import enum
from collections.abc import Iterator, Mapping, Sequence

from .formulas import ATOM_NAME
from .records import Record, _set

# The largest atom count an entailment search accepts unless told otherwise.
DEFAULT_ATOM_BOUND = 4


class EmptyInputError(Exception):
    """Empty atom list, world set or context set where one is required."""


class ContextFormatError(Exception):
    """Malformed context file text."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DeniabilityVariant(enum.Enum):
    """Which denial clause governs the intensional implication."""

    GAUKER = "gauker"
    NELSON = "nelson"
    CONNEXIVE = "connexive"

    @classmethod
    def coerce(cls, value: "DeniabilityVariant | str") -> "DeniabilityVariant":
        if isinstance(value, cls):
            return value
        return cls(value)


class World(Record):
    """A classical valuation over a sorted atom tuple."""

    __slots__ = __match_args__ = ("atoms", "values")

    def __init__(self, atoms: tuple[str, ...], values: tuple[bool, ...]):
        if not atoms:
            raise EmptyInputError("a world needs at least one atom")
        if len(atoms) != len(values):
            raise ValueError("atom and value counts differ")
        if list(atoms) != sorted(set(atoms)):
            # Normalise: sort atoms, permuting values alongside.
            pairs = sorted(zip(atoms, values))
            atoms = tuple(a for a, _ in pairs)
            if len(set(atoms)) != len(atoms):
                raise ValueError("duplicate atom in world")
            values = tuple(v for _, v in pairs)
        _set(self, "atoms", atoms)
        _set(self, "values", values)

    @classmethod
    def from_mapping(cls, assignment: Mapping[str, bool]) -> "World":
        names = tuple(sorted(assignment))
        return cls(names, tuple(bool(assignment[a]) for a in names))

    def value(self, atom: str) -> bool:
        try:
            return self.values[self.atoms.index(atom)]
        except ValueError:
            raise KeyError(atom) from None

    @property
    def index(self) -> int:
        """Truth vector as a binary number, first atom most significant."""
        n = 0
        for v in self.values:
            n = (n << 1) | int(v)
        return n

    def bits(self) -> str:
        return "".join("1" if v else "0" for v in self.values)


def world_from_index(atoms: Sequence[str], index: int) -> World:
    atoms = tuple(atoms)
    k = len(atoms)
    values = tuple(bool((index >> (k - 1 - i)) & 1) for i in range(k))
    return World(atoms, values)


class Context(Record):
    """A nonempty set of worlds over one sorted atom tuple.

    members is a bit set over world indices (bit i set means the world
    with index i belongs to the context).
    """

    __slots__ = __match_args__ = ("atoms", "members")

    def __init__(self, atoms: tuple[str, ...], members: int):
        if not atoms:
            raise EmptyInputError("a context needs at least one atom")
        if list(atoms) != sorted(set(atoms)):
            raise ValueError("context atoms must be sorted and unique")
        # Compare bit lengths: the bound itself is a 2**len(atoms)-bit number.
        if members <= 0 or members.bit_length() > 1 << len(atoms):
            raise ValueError("context members out of range or empty")
        _set(self, "atoms", atoms)
        _set(self, "members", members)

    @classmethod
    def from_worlds(cls, worlds: Sequence[World]) -> "Context":
        if not worlds:
            raise EmptyInputError("a context needs at least one world")
        atoms = worlds[0].atoms
        mask = 0
        for w in worlds:
            if w.atoms != atoms:
                raise ValueError("worlds over different atom lists")
            mask |= 1 << w.index
        return cls(atoms, mask)

    @classmethod
    def full(cls, atoms: Sequence[str]) -> "Context":
        atoms = tuple(sorted(set(atoms)))
        if not atoms:
            raise EmptyInputError("a context needs at least one atom")
        return cls(atoms, (1 << (1 << len(atoms))) - 1)

    def worlds(self) -> Iterator[World]:
        """Member worlds in ascending index order."""
        mask = self.members
        while mask:
            low = mask & -mask
            yield world_from_index(self.atoms, low.bit_length() - 1)
            mask ^= low

    def __len__(self) -> int:
        return bin(self.members).count("1")

    def __contains__(self, world: World) -> bool:
        return world.atoms == self.atoms and bool(self.members >> world.index & 1)

    def subcontexts(self) -> Iterator["Context"]:
        """All nonempty subcontexts, ascending by member bit set."""
        sub = 0
        while True:
            sub = (sub - self.members) & self.members
            if sub == 0:
                return
            yield Context(self.atoms, sub)


def parse_context(text: str) -> Context:
    atoms: tuple[str, ...] | None = None
    order: list[int] | None = None
    members = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if atoms is None:
            names = tuple(line.split())
            if len(set(names)) != len(names):
                raise ContextFormatError("duplicate atom in header", lineno)
            for name in names:
                if not ATOM_NAME.fullmatch(name):
                    raise ContextFormatError(f"invalid atom name {name!r}", lineno)
            atoms = tuple(sorted(names))
            # A line's bits, read in sorted-atom order, are its world's index.
            order = None if atoms == names else sorted(range(len(names)), key=names.__getitem__)
            continue
        if len(line) != len(atoms) or line.strip("01"):
            raise ContextFormatError(
                f"world line must be {len(atoms)} characters of 0/1", lineno
            )
        bits = line if order is None else "".join([line[j] for j in order])
        world = 1 << int(bits, 2)
        if members & world:
            raise ContextFormatError(f"duplicate world {line!r}", lineno)
        members |= world
    if atoms is None:
        raise ContextFormatError("missing atom header line")
    if not members:
        raise ContextFormatError("a context needs at least one world")
    return Context(atoms, members)


def format_context(context: Context) -> str:
    lines = [" ".join(context.atoms)]
    lines.extend(w.bits() for w in context.worlds())
    return "\n".join(lines) + "\n"
