"""Reference semantics written from the README's clauses, independent of
``lad.semantics``.

Formulas are plain tuples, so the benchmark builds, prints, parses and
judges its inputs without the program:

    ("a", name)  ("F",)                           atoms, falsum
    ("~", x)  ("/\\", x, y)  ("\\/", x, y)  ("=>", x, y)   extensional
    ("!", x)  ("&", x, y)    ("|", x, y)    ("->", x, y)   intensional

Two evaluators:

* ``truth_mask`` is a classical truth table: the set of worlds where an
  extensional formula is true, as a bit set over world indices (the
  first sorted atom is the most significant bit of an index), computed
  column by column from the atoms' columns.
* ``holds`` is the naive assert/deny evaluator.  It recurses over the
  subcontexts of a context for every ``->`` it meets, with no memo and
  no tables, so it is only used on small contexts.
"""
from __future__ import annotations

import random

L_OPS = ("a", "F", "~", "/\\", "\\/", "=>")
FALSUM = ("F",)
EXT_OF = {"!": "~", "&": "/\\", "|": "\\/", "->": "=>"}
VARIANTS = ("gauker", "nelson", "connexive")


def atom(name):
    return ("a", name)


def is_l(phi) -> bool:
    return phi[0] in L_OPS


def diamond(x):
    return ("!", ("->", x, FALSUM))


def atoms_of(phi) -> set:
    if phi[0] == "a":
        return {phi[1]}
    out = set()
    for kid in phi[1:]:
        out |= atoms_of(kid)
    return out


def size(phi) -> int:
    if phi[0] in ("a", "F"):
        return 1
    return 1 + sum(size(kid) for kid in phi[1:])


def contains_imp(phi) -> bool:
    return phi[0] == "->" or any(contains_imp(k) for k in phi[1:] if isinstance(k, tuple))


def neg_over_imp(phi) -> bool:
    """Some ``!`` has a ``->`` in its scope."""
    if phi[0] == "!":
        return contains_imp(phi[1])
    return any(neg_over_imp(k) for k in phi[1:] if isinstance(k, tuple))


def is_safe(phi) -> bool:
    """README: safe when the root is ``->`` or no ``->`` lies inside a ``!``."""
    return phi[0] == "->" or not neg_over_imp(phi)


def e_translate(phi):
    if phi[0] in ("a", "F"):
        return phi
    op = EXT_OF.get(phi[0], phi[0])
    return (op,) + tuple(e_translate(k) for k in phi[1:])


# -- printing and parsing ---------------------------------------------------

_PREC = {"=>": 1, "->": 1, "\\/": 2, "|": 2, "/\\": 3, "&": 3}


def show(phi, min_prec: int = 0) -> str:
    """Concrete syntax with only the parentheses the grammar needs."""
    op = phi[0]
    if op == "a":
        return phi[1]
    if op == "F":
        return "_|_"
    if op in ("~", "!"):
        return op + show(phi[1], 4)
    prec = _PREC[op]
    body = f"{show(phi[1], prec + 1)} {op} {show(phi[2], prec)}"
    return f"({body})" if prec < min_prec else body


_TOKENS = ("_|_", "(+)", "/\\", "\\/", "->", "=>", "<>", "~", "!", "&", "|", "(", ")")


class SyntaxFault(ValueError):
    pass


def tokens(text: str) -> list:
    """Tokens of concrete syntax, longest fixed token first."""
    out, i = [], 0
    while i < len(text):
        if text[i].isspace():
            i += 1
            continue
        tok = next((t for t in _TOKENS if text.startswith(t, i)), None)
        if tok is not None:
            out.append(tok)
            i += len(tok)
            continue
        if not text[i].isalpha():
            raise SyntaxFault(f"bad character {text[i]!r}")
        j = i + 1
        while j < len(text) and (text[j].isalnum() or text[j] == "_"):
            j += 1
        out.append(("id", text[i:j]))
        i = j
    return out


def read(text: str):
    """Parse concrete syntax, expanding ``<>`` and ``(+)`` as the README says."""
    toks = tokens(text)
    pos = [0]

    def peek():
        return toks[pos[0]] if pos[0] < len(toks) else None

    def take():
        pos[0] += 1
        return toks[pos[0] - 1]

    def imp():
        left = disj()
        if peek() in ("->", "=>"):
            op = take()
            return (op, left, imp())
        return left

    def disj():
        items, ops = [conj()], []
        while peek() in ("\\/", "|", "(+)"):
            ops.append(take())
            items.append(conj())
        result, run = items[-1], None
        for k in range(len(ops) - 1, -1, -1):
            if ops[k] == "(+)":
                run = [items[k], result] if run is None else [items[k]] + run
                continue
            if run is not None:
                result, run = plus(run), None
            result = (ops[k], items[k], result)
        return plus(run) if run is not None else result

    def conj():
        left = prefix()
        if peek() in ("/\\", "&"):
            op = take()
            return (op, left, conj())
        return left

    def prefix():
        tok = peek()
        if tok in ("~", "!", "<>"):
            take()
            x = prefix()
            return diamond(x) if tok == "<>" else (tok, x)
        tok = take() if tok is not None else None
        if isinstance(tok, tuple):
            return atom(tok[1])
        if tok == "_|_":
            return FALSUM
        if tok == "(":
            x = imp()
            if take() != ")":
                raise SyntaxFault("missing )")
            return x
        raise SyntaxFault(f"unexpected {tok!r}")

    phi = imp()
    if peek() is not None:
        raise SyntaxFault("trailing input")
    return phi


def plus(ops):
    """(a1 \\/ ... \\/ an) & (<>a1 & ... & <>an), both chains right-nested."""
    union = ops[-1]
    for a in reversed(ops[:-1]):
        union = ("\\/", a, union)
    dias = diamond(ops[-1])
    for a in reversed(ops[:-1]):
        dias = ("&", diamond(a), dias)
    return ("&", union, dias)


def read_context(text: str):
    """(atoms, members) from the README's context file format."""
    atoms, members = None, 0
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if atoms is None:
            atoms = tuple(line.split())
            continue
        members |= 1 << int(line, 2)
    return atoms, members


def from_lad(phi):
    """Tuple form of a ``lad.formulas`` object, read by class name only."""
    name = type(phi).__name__
    if name == "Atom":
        return ("a", phi.name)
    if name == "Falsum":
        return FALSUM
    op = {"ExtNeg": "~", "IntNeg": "!", "ExtAnd": "/\\", "ExtOr": "\\/", "ExtImp": "=>",
          "IntAnd": "&", "IntOr": "|", "IntImp": "->"}[name]
    if op in ("~", "!"):
        return (op, from_lad(phi.operand))
    return (op, from_lad(phi.left), from_lad(phi.right))


# -- classical truth tables -------------------------------------------------

class Space:
    """Worlds over a sorted atom tuple."""

    def __init__(self, atoms):
        self.atoms = tuple(sorted(atoms))
        self.n = len(self.atoms)
        self.n_worlds = 1 << self.n
        self.full = (1 << self.n_worlds) - 1
        # Column j of the truth table: the worlds where atom j is true.
        self.columns = {
            name: sum(1 << w for w in range(self.n_worlds) if w >> (self.n - 1 - j) & 1)
            for j, name in enumerate(self.atoms)
        }

    def value(self, name, world: int) -> bool:
        return bool(self.columns[name] >> world & 1)

    def truth_mask(self, alpha) -> int:
        """The worlds where an extensional formula is true."""
        op = alpha[0]
        if op == "a":
            return self.columns[alpha[1]]
        if op == "F":
            return 0
        if op == "~":
            return self.full ^ self.truth_mask(alpha[1])
        left, right = self.truth_mask(alpha[1]), self.truth_mask(alpha[2])
        if op == "/\\":
            return left & right
        if op == "\\/":
            return left | right
        if op == "=>":
            return (self.full ^ left) | right
        raise ValueError(f"not extensional: {alpha!r}")

    # -- the naive assert/deny evaluator ------------------------------------

    def holds(self, phi, members: int, positive: bool, variant: str) -> bool:
        """Does the context ``members`` assert (positive) or deny phi?"""
        op = phi[0]
        if op in L_OPS:
            true = self.truth_mask(phi)
            return members & (self.full ^ true if positive else true) == 0
        if op == "!":
            return self.holds(phi[1], members, not positive, variant)
        x, y = phi[1], phi[2]
        if op == "&" or op == "|":
            both = (op == "&") == positive
            first = self.holds(x, members, positive, variant)
            if both:
                return first and self.holds(y, members, positive, variant)
            return first or self.holds(y, members, positive, variant)
        subs = list(subsets(members))
        if positive:
            return all(not self.holds(x, d, True, variant) or self.holds(y, d, True, variant)
                       for d in subs)
        if variant == "nelson":
            return self.holds(x, members, True, variant) and self.holds(y, members, False, variant)
        if variant == "connexive":
            return all(not self.holds(x, d, True, variant) or self.holds(y, d, False, variant)
                       for d in subs)
        return any(self.holds(x, d, True, variant) and self.holds(y, d, False, variant)
                   for d in subs)

    def asserts(self, phi, members, variant) -> bool:
        return self.holds(phi, members, True, variant)

    def denies(self, phi, members, variant) -> bool:
        return self.holds(phi, members, False, variant)

    def refutes(self, premises, conclusion, members, variant) -> bool:
        """The context asserts every premise and not the conclusion."""
        return (all(self.asserts(p, members, variant) for p in premises)
                and not self.asserts(conclusion, members, variant))

    def least_countermodel(self, premises, conclusion, variant):
        """Brute force over every nonempty context, ascending by member set."""
        for members in range(1, self.full + 1):
            if self.refutes(premises, conclusion, members, variant):
                return members
        return None

    def pruned_worlds(self, premises) -> int:
        """Worlds left by the extensional translations of the safe premises,
        the space the ascending search enumerates subsets of."""
        allowed = self.full
        for p in premises:
            if is_safe(p):
                allowed &= self.truth_mask(e_translate(p))
        return allowed


def subsets(members: int):
    """Nonempty subsets of a bit set."""
    d = members
    while d:
        yield d
        d = (d - 1) & members


def rank_below(members: int, allowed: int) -> int:
    """Number of nonempty subsets of ``allowed`` up to ``members`` in
    ascending order, i.e. contexts an ascending search visits."""
    rank, bit, pos = 0, 0, 0
    while allowed >> bit:
        if allowed >> bit & 1:
            if members >> bit & 1:
                rank |= 1 << pos
            pos += 1
        bit += 1
    return rank


# -- seeded generators ------------------------------------------------------

def rand_l(rng: random.Random, names, size: int):
    """Random extensional formula of exactly ``size`` nodes."""
    if size <= 1:
        return FALSUM if rng.random() < 0.05 else atom(rng.choice(names))
    if size == 2 or rng.random() < 0.2:
        return ("~", rand_l(rng, names, size - 1))
    left = rng.randint(1, size - 2)
    return (rng.choice(("/\\", "\\/", "=>")), rand_l(rng, names, left),
            rand_l(rng, names, size - 1 - left))


def rand_formula(rng: random.Random, names, size: int, imp_budget: int = 2,
                 neg_over_imp: bool = True, l_leaf: int = 7):
    """Random two-layer formula of exactly ``size`` nodes.  At most
    ``imp_budget`` nested ``->`` on any path; with ``neg_over_imp`` false no
    ``!`` scopes over a ``->``."""
    if size <= l_leaf and rng.random() < 0.5 or size <= 2:
        return rand_l(rng, names, size)
    ops = ["!", "&", "|"] + (["->", "->"] if imp_budget > 0 else [])
    op = rng.choice(ops)
    if op == "!":
        return ("!", rand_formula(rng, names, size - 1, imp_budget if neg_over_imp else 0,
                                  neg_over_imp, l_leaf))
    left = rng.randint(1, size - 2)
    sub = imp_budget - (op == "->")
    return (op, rand_formula(rng, names, left, sub, neg_over_imp, l_leaf),
            rand_formula(rng, names, size - 1 - left, sub, neg_over_imp, l_leaf))


class SizeLadder:
    """Sizes from ``low`` to ``high`` in ``steps`` log-spaced strata, taken
    in turn with a random draw inside each stratum, so every seed gets the
    same spread of sizes."""

    def __init__(self, rng: random.Random, low: int, high: int, steps: int):
        self.rng, self.low, self.ratio, self.steps = rng, low, high / low, steps
        self.i = 0

    def __call__(self) -> int:
        u = (self.i % self.steps + self.rng.random()) / self.steps
        self.i += 1
        return int(round(self.low * self.ratio ** u))


def rewrite_equivalent(rng: random.Random, phi, steps: int):
    """Apply rewrites that keep assertion and denial at every context:
    commuting & | /\\ \\/, double !, and De Morgan over & and |."""
    for _ in range(steps):
        phi = _rewrite_once(rng, phi)
    return phi


def _rewrite_once(rng, phi):
    op = phi[0]
    kids = phi[1:]
    if op in ("a", "F") or rng.random() < 0.3:
        if op in ("&", "|", "/\\", "\\/"):
            return (op, phi[2], phi[1])
        if op == "!" and phi[1][0] in ("&", "|"):
            dual = "|" if phi[1][0] == "&" else "&"
            return (dual, ("!", phi[1][1]), ("!", phi[1][2]))
        if op in ("a", "F") or not is_l(phi):
            return ("!", ("!", phi))
        return phi
    i = rng.randrange(len(kids))
    new = list(kids)
    new[i] = _rewrite_once(rng, kids[i])
    if is_l(phi) and not is_l(new[i]):
        return phi
    return (op,) + tuple(new)
