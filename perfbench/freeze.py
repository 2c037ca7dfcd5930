"""Write ``perfbench/data/proofs.json``: the proof inputs only the program
can generate, frozen so that the benchmark does not take them from the
code it measures.

    python3 perfbench/freeze.py

It holds the accepted and rejected proofs of ``lad.corpus`` (with the
rejected ones' hand-written expected violations), and a pool of proofs
of ``x | -x`` and of ``_|_`` from ``x, -x`` built by ``lad.corpus`` for
random formulas over 2-4 atoms (freeze seed 0), six of each kind in
each of four length strata, from 6 to 260 lines.
"""
from __future__ import annotations

import json
import pathlib
import random
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import reference as R  # noqa: E402

from lad import corpus, parse  # noqa: E402

OUT = HERE / "data" / "proofs.json"
STRATA = {
    "excluded": ((10, 30), (30, 60), (60, 120), (120, 261)),
    "clash": ((6, 15), (15, 30), (30, 50), (50, 100)),
}
PER_STRATUM = 6


def _lines(text: str) -> int:
    return sum(1 for raw in text.splitlines() if raw.split("#", 1)[0].strip())


def pool(seed: int = 0) -> list[dict]:
    rng = random.Random(f"freeze:{seed}")
    want = {(kind, s): PER_STRATUM for kind, strata in STRATA.items() for s in strata}
    out = []
    while any(want.values()):
        n = rng.randint(2, 4)
        names = "pqrs"[:n]
        phi = R.rand_formula(rng, names, rng.randint(4, 40), 2, l_leaf=3)
        if R.atoms_of(phi) != set(names):
            continue
        kind = rng.choice(("excluded", "clash"))
        build = corpus.excluded_proof if kind == "excluded" else corpus.clash_proof
        text = build(parse(R.show(phi)))
        lines = _lines(text)
        stratum = next((s for s in STRATA[kind] if s[0] <= lines < s[1]), None)
        if stratum is None or not want[(kind, stratum)]:
            continue
        want[(kind, stratum)] -= 1
        out.append({"kind": kind, "formula": R.show(phi), "atoms": n, "lines": lines,
                    "stratum": STRATA[kind].index(stratum), "text": text})
    return out


def main() -> int:
    data = {
        "accepted": [{"name": name, "text": text, "lines": _lines(text)}
                     for name, text in {**corpus.ACCEPTED_PROOFS, **corpus.generated_accepted()}.items()],
        "rejected": [{"name": name, "text": text, "expect": [list(v) for v in expect]}
                     for name, (text, expect) in corpus.REJECTED_PROOFS.items()],
        "pool": pool(),
    }
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(json.dumps(data, indent=1) + "\n")
    print(f"{OUT.relative_to(HERE.parent)}: {len(data['accepted'])} accepted, "
          f"{len(data['rejected'])} rejected, {len(data['pool'])} pool proofs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
