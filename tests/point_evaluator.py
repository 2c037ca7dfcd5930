"""The one-context evaluator that ``lad.semantics`` replaced, kept as a
test oracle: ``asserts``/``denies`` here and in ``lad.semantics`` must
agree at every context.  Not for use outside the tests.

It writes every clause out for one context at a time, memoising
(context, subformula, polarity) results, and walks the subcontexts of
the current context for each ``->``.  The tables in ``lad.semantics``
compute the same clauses for every context at once.
"""
from __future__ import annotations

from typing import Sequence

from lad.contexts import DeniabilityVariant
from lad.formulas import (
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
    is_l_formula,
)
from lad.semantics import UnknownAtomError, _index_bit_mask


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
