"""``cli``: ``python3 -m lad ...`` commands run one at a time as child
processes, as a user runs them.

One round is 23 commands, in seeded order: ``fmt`` x3, ``fmt --plain``,
``eval`` x3 (context on stdin), ``entail`` x3, ``countermodel`` x2,
``equiv`` x2, ``persistent`` x2, ``check`` x3 (proof on stdin, one with
``--sound``, one rejected), and four error inputs that must exit 2 with a
single stderr line.  Expected exit codes and outputs come from the
reference evaluator and from how each input was built.
"""
from __future__ import annotations

import json
import os
import pathlib
import random
import subprocess
import sys

import gen
import reference as R
from core import Op

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = ROOT / "perfbench" / "data" / "proofs.json"


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "LAD_"))}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(argv: list[str], stdin: str = "") -> tuple[int, str, str, float]:
    """(exit code, stdout, stderr, peak RSS in MB) of one child process."""
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=child_env(), cwd=ROOT)
    try:
        proc.stdin.write(stdin.encode())
        proc.stdin.close()
        out = proc.stdout.read().decode()
        err = proc.stderr.read().decode()
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    return proc.returncode, out, err, usage.ru_maxrss / 1024


class Peak:
    """Largest child RSS seen, in MB."""
    mb = 0.0


def _lad(T, args, stdin=""):
    argv = [sys.executable, "-m", "lad", *args]
    code, out, err, rss = T.call("cli.process", run_child, argv, stdin)
    Peak.mb = max(Peak.mb, rss)
    return code, out, err


def _op(kind, args, stdin, check) -> Op:
    return Op(f"cli.{kind}", lambda T: _lad(T, args, stdin), check=check,
              extra={"argv": args, "stdin": stdin})


def _context_text(space: R.Space, members: int) -> str:
    worlds = [w for w in range(space.n_worlds) if members >> w & 1]
    return " ".join(space.atoms) + "\n" + "".join(format(w, f"0{space.n}b") + "\n" for w in worlds)


def _expect(code, stdout=None):
    def check(value):
        got, out, err = value
        if got != code:
            return f"exit {got}, expected {code} ({err.strip()[:80]})"
        if stdout is not None and out.strip() != stdout:
            return f"printed {out.strip()[:80]!r}, expected {stdout!r}"
        return None
    return check


def build(seed: int) -> list[Op]:
    rng = random.Random(f"cli:{seed}")
    ops = []
    names = gen.ATOMS[:4]
    space = R.Space(names)
    sizes = R.SizeLadder(rng, 5, 80, 4)
    make = lambda: R.rand_formula(rng, names, sizes(), 2)  # noqa: E731

    for plain in (False, False, False, True):
        phi = make()

        def check(value, phi=phi):
            code, out, err = value
            if code != 0:
                return f"exit {code}"
            return None if R.read(out.strip()) == phi else "output does not re-parse to the input"
        ops.append(_op("fmt", ["fmt", "--plain", R.show(phi)] if plain else ["fmt", R.show(phi)], "", check))

    for variant in R.VARIANTS:
        phis = [make(), make()]
        members = gen.random_context(rng, space, rng.randint(2, 4))

        def check(value, phis=phis, members=members, variant=variant):
            code, out, err = value
            if code != 0:
                return f"exit {code}"
            rows = out.strip().splitlines()
            for phi, row in zip(phis, rows):
                shown, _, verdict = row.rpartition(": asserted=")
                want = (f"{str(space.asserts(phi, members, variant)).lower()} denied="
                        f"{str(space.denies(phi, members, variant)).lower()}")
                if R.read(shown) != phi or verdict != want:
                    return f"row {row[-40:]!r} disagrees with the reference ({want})"
            return None if len(rows) == 2 else "wrong number of rows"
        ops.append(_op("eval", ["eval", "--variant", variant, "-", *map(R.show, phis)],
                       _context_text(space, members), check))

    def sequent(valid, variant):
        if valid:
            premises, conclusion = gen.law_sequent(rng, rng.choice(gen.LAWS), make)
            return premises, conclusion, None
        return gen.witness_sequent(rng, names, variant, make, 2, rng.randint(1, 2))

    def refutation_check(premises, conclusion, witness, variant, code, read_members):
        def check(value):
            got, out, err = value
            if got != code:
                return f"exit {got}, expected {code}"
            members = read_members(out)
            if not space.refutes(premises, conclusion, members, variant) or members > witness:
                return "printed countermodel is wrong or not the least"
            return None
        return check

    def entail_members(out):
        head, _, worlds = out.strip().rpartition(": ")
        if not head.startswith("invalid (countermodel over "):
            raise ValueError(out)
        return sum(1 << int(w, 2) for w in worlds.rstrip(")").split())

    for valid, variant in ((True, "gauker"), (False, "nelson"), (False, "connexive")):
        premises, conclusion, witness = sequent(valid, variant)
        args = ["entail", "--variant", variant, *map(R.show, premises + [conclusion])]
        check = _expect(0, "valid") if valid else refutation_check(
            premises, conclusion, witness, variant, 1, entail_members)
        ops.append(_op("entail", args, "", check))

    for valid in (True, False):
        premises, conclusion, witness = sequent(valid, "gauker")
        args = ["countermodel", *map(R.show, premises + [conclusion])]
        check = _expect(1, "none") if valid else refutation_check(
            premises, conclusion, witness, "gauker", 0, lambda out: R.read_context(out)[1])
        ops.append(_op("countermodel", args, "", check))

    phi = gen.with_atoms(make(), names)
    ops.append(_op("equiv", ["equiv", R.show(phi), R.show(R.rewrite_equivalent(rng, phi, 3))], "",
                   _expect(0, "equivalent")))
    while True:
        phi, chi = make(), make()
        c = gen.random_context(rng, space, 2)
        if space.asserts(phi, c, "gauker") and not space.asserts(chi, c, "gauker"):
            break
    ops.append(_op("equiv", ["equiv", "--strong", R.show(phi), R.show(("&", phi, chi))], "",
                   _expect(1, "not equivalent")))

    safe = R.rand_formula(rng, names, sizes(), 2, neg_over_imp=False)
    ops.append(_op("persistent", ["persistent", R.show(safe)], "", _expect(0, "persistent")))
    broken = None
    while broken is None:
        broken = gen.breaking_formula(rng, names, "gauker", make)
    phi = gen.with_atoms(broken[0], names)

    def persist_check(value, phi=phi):
        code, out, err = value
        if code != 1 or not out.startswith("not persistent"):
            return f"exit {code}, {out[:40]!r}"
        _, big, small = out.split("# ")
        c = R.read_context(big.split("\n", 1)[1])[1]
        d = R.read_context(small.split("\n", 1)[1])[1]
        if d & ~c or not space.asserts(phi, c, "gauker") or space.asserts(phi, d, "gauker"):
            return "printed pair does not break persistence"
        return None
    ops.append(_op("persistent", ["persistent", R.show(phi)], "", persist_check))

    data = json.loads(DATA.read_text())
    good = rng.sample(data["pool"], 2)
    ops.append(_op("check", ["check", "-"], good[0]["text"], _expect(0, f"ok ({good[0]['lines']} lines)")))
    ops.append(_op("check", ["check", "--sound", "-"], good[1]["text"],
                   _expect(0, f"ok ({good[1]['lines']} lines) sound")))
    bad = rng.choice(data["rejected"])
    want = [f"line {line}: {code}:" for line, code in bad["expect"]]

    def rejected_check(value):
        code, out, err = value
        rows = out.strip().splitlines()
        if code != 1 or len(rows) != len(want) or any(not r.startswith(w) for r, w in zip(rows, want)):
            return f"exit {code}, {out.strip()[:80]!r}, expected {want}"
        return None
    ops.append(_op("check", ["check", "-"], bad["text"], rejected_check))

    five = gen.ATOMS[:5]
    errors = [
        (["fmt", R.show(make()) + " & & p"], ""),
        (["fmt", f"!{R.show(R.rand_l(rng, names, 3))} /\\ p"], ""),
        (["entail", " \\/ ".join(five[:3]), " /\\ ".join(five[2:])], ""),
        (["eval", "-", "p"], "p q\n01\n01\n"),
    ]
    for args, stdin in errors:
        ops.append(_op("error", args, stdin, _error_check))
    rng.shuffle(ops)
    return ops


def _error_check(value):
    code, out, err = value
    lines = err.strip().splitlines()
    if code != 2 or len(lines) != 1 or not lines[0].startswith("error: ") or out:
        return f"exit {code} with {len(lines)} stderr lines, expected exit 2 and one 'error:' line"
    return None
