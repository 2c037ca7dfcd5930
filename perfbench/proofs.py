"""``proofs``: ``parse_proof`` + ``check`` (+ ``verify_sound`` when the
proof checks) on proof text.

One round is 101 proofs, in seeded order:

* the 29 accepted proofs of the corpus;
* the pool's 48 proofs of ``x | -x`` or of ``_|_`` from ``x, -x``
  (12-225 lines), six of each kind in each of four length strata;
* the 8 rejected proofs of the corpus, with their hand-written
  expected violations;
* 16 pool proofs, two seeded picks from each stratum, with lines
  appended that break one rule; the appended lines fix the violation's
  line and code.  The six mutations are taken in turn.

All proof text comes from ``data/proofs.json`` (``freeze.py`` writes it).
"""
from __future__ import annotations

import json
import pathlib
import random
import re

import reference as R
from core import Op

from lad import proofs

DATA = pathlib.Path(__file__).resolve().parent / "data" / "proofs.json"


_MARKERS = re.compile(r"([*o]+)\s+(.*)$")


def _formula_lines(text: str) -> list[tuple[int, str]]:
    """(depth, formula text) of each formula line, read as the README
    describes the format."""
    out = []
    for raw in text.splitlines():
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        m = _MARKERS.match(body)
        markers, rest = (m.group(1), m.group(2)) if m else ("", body)
        out.append((len(markers), rest.split(";", 1)[0].strip()))
    return out


def _mutate(rng, base: str, how: str) -> tuple[str, tuple[int, str]]:
    """Append lines to an accepted proof so that exactly one line breaks
    one rule; returns the text and that (line, code)."""
    lines = _formula_lines(base)
    n = len(lines)
    if how == "rule":
        return base + f"zz ; nn1 {n}\n", (n + 1, "RULE_MISMATCH")
    if how == "scope":
        inner = [i + 1 for i, (depth, _) in enumerate(lines) if depth > 0]
        cited = rng.choice(inner) if inner else n + 5
        return base + f"zz ; nn1 {cited}\n", (n + 1, "CITATION_SCOPE")
    if how == "unsafe":
        unsafe = [i + 1 for i, (depth, f) in enumerate(lines) if depth == 0 and not R.is_safe(R.read(f))]
        u = rng.choice(unsafe)
        return (base + f"o zz ; hyp\no zz & ({lines[u - 1][1]}) ; iand {n + 1}, {u}\n",
                (n + 2, "UNSAFE_CITATION"))
    if how == "kind":
        return base + f"* zz ; hyp\nzz -> zz ; iimp {n + 1}-{n + 1}\n", (n + 2, "WRONG_SUBPROOF_KIND")
    if how == "macro":
        return base + f"<>zz ; diaplus {n}\n", (n + 1, "MACRO_SHAPE")
    if how == "layer":
        return base + f"o !zz ; hyp\n!!zz ; ineg {n + 1}-{n + 1}\n", (n + 2, "NOT_L_FORMULA")
    raise ValueError(how)


MUTATIONS = ("rule", "scope", "unsafe", "kind", "macro", "layer")


def build(seed: int) -> list[Op]:
    rng = random.Random(f"proofs:{seed}")
    data = json.loads(DATA.read_text())
    ops = [_op("proofs.corpus", p["text"], None) for p in data["accepted"]]
    strata: dict[tuple[str, int], list[dict]] = {}
    for p in data["pool"]:
        strata.setdefault((p["kind"], p["stratum"]), []).append(p)
    ops += [_op(f"proofs.{p['kind']}", p["text"], None) for p in data["pool"]]
    for p in data["rejected"]:
        ops.append(_op("proofs.rejected", p["text"], tuple(tuple(v) for v in p["expect"])))
    for i, key in enumerate(sorted(strata) * 2):
        how = MUTATIONS[i % len(MUTATIONS)]
        while True:
            base = rng.choice(strata[key])
            if how != "unsafe" or any(d == 0 and not R.is_safe(R.read(f))
                                      for d, f in _formula_lines(base["text"])):
                break
        text, violation = _mutate(rng, base["text"], how)
        ops.append(_op(f"proofs.mutated.{how}", text, (violation,)))
    rng.shuffle(ops)
    return ops


def _op(kind: str, text: str, expect) -> Op:
    """``expect`` is None for a proof that must check and be sound, else
    the exact (line, code) violations."""

    def run(T):
        doc = T.call("proofs.parse", proofs.parse_proof, text)
        verdict = T.call("proofs.check", proofs.check, doc)
        sound = T.call("proofs.sound", proofs.verify_sound, doc) if verdict.ok else None
        return verdict, sound, len(doc.lines)

    def norm(raw):
        verdict, sound, lines = raw
        return verdict.ok, tuple((v.line, v.code) for v in verdict.violations), sound, lines

    def check(value):
        ok, violations, sound, _ = value
        if expect is None:
            if not ok:
                return f"a derivation is rejected: {violations}"
            return None if sound is True else "a derivation is reported unsound"
        if ok or violations != expect:
            return f"violations {violations}, expected {expect}"
        return None

    tokens = sum(len(R.tokens(f)) for _, f in _formula_lines(text))
    return Op(kind, run, norm, check, extra={"tokens": tokens})
