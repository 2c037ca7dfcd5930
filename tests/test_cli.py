import json
import os
import pathlib
import subprocess
import sys

import pytest

import lad
from lad.cli import main
from lad.contexts import parse_context
from lad.corpus import ILLEGAL_PROOF, MURDER_CONTEXT, REJECTED_PROOFS
from lad.semantics import ContextTables, _PointTables

MURDER_SEQUENT = [
    "p \\/ q",
    "p -> (r -> t)",
    "q -> (s -> t)",
    "(r -> t) | (s -> t)",
]


@pytest.fixture
def murder_file(tmp_path):
    path = tmp_path / "murder.ctx"
    path.write_text(MURDER_CONTEXT)
    return str(path)


SELF_IMPLICATION = "((s -> t) -> q) -> ((s -> t) -> q)"


# Every world over five atoms, as a context file.
FULL_FIVE_ATOM_CONTEXT = "p q r s t\n" + "".join(f"{w:05b}\n" for w in range(32))


def run_lad(argv, env=None, stdin="", preexec_fn=None):
    """Run ``python -m lad`` in a fresh process on this checkout's source."""
    src = str(pathlib.Path(lad.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "lad", *argv],
        env=dict(os.environ, PYTHONPATH=src, **(env or {})),
        input=stdin,
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=preexec_fn,
    )


def run_lad_capped(tmp_path, worlds, *formulas):
    """``lad eval`` on a context file over 36 atoms with the given world
    lines, in a child whose address space is capped at 1.5 GB."""
    resource = pytest.importorskip("resource")
    cap = 1536 << 20

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    atoms = [f"a{i:02}" for i in range(36)]
    path = tmp_path / "wide.ctx"
    path.write_text(" ".join(atoms) + "\n" + "".join(w + "\n" for w in worlds))
    return run_lad(["eval", str(path), *formulas], preexec_fn=limit_memory)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_exit(capsys, *argv):
    """(exit code, stdout, stderr) of a command that argparse ends."""
    with pytest.raises(SystemExit) as stop:
        main(list(argv))
    out = capsys.readouterr()
    return stop.value.code, out.out, out.err


def run_python_s(code):
    """Run ``code`` under ``python -S`` on this checkout's source; -S keeps
    site-packages .pth files from preloading any module."""
    src = str(pathlib.Path(lad.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )


class TestFmt:
    def test_canonical(self, capsys):
        code, out, _ = run(capsys, "fmt", "((p))->(q&p)")
        assert code == 0 and out.strip() == "p -> q & p"

    def test_plain_expands_macros(self, capsys):
        code, out, _ = run(capsys, "fmt", "--plain", "<>p")
        assert code == 0 and out.strip() == "!(p -> _|_)"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "--json", "fmt", "<>p")
        assert code == 0 and json.loads(out) == {"formula": "<>p"}

    def test_parse_error_is_exit_2(self, capsys):
        code, _, err = run(capsys, "fmt", "p ->")
        assert code == 2 and err.startswith("error:")


class TestEval:
    def test_lines(self, capsys, murder_file):
        code, out, _ = run(
            capsys, "eval", murder_file, "p \\/ q", "(r -> t) | (s -> t)"
        )
        assert code == 0
        assert out.splitlines() == [
            "p \\/ q: asserted=true denied=false",
            "(r -> t) | (s -> t): asserted=false denied=true",
        ]

    def test_variant_flag(self, capsys, murder_file):
        code, out, _ = run(
            capsys, "--variant", "nelson", "eval", murder_file, "!(p -> (r -> t))"
        )
        assert code == 0 and "asserted=false denied=true" in out

    def test_unknown_atom(self, capsys, murder_file):
        code, _, err = run(capsys, "eval", murder_file, "zz")
        assert code == 2 and "error:" in err

    def test_one_evaluator_for_both_passes(self, capsys, murder_file, monkeypatch):
        # Each formula is evaluated once: one set of tables over the
        # context's worlds answers both the assert and the deny pass,
        # and no other tables are built.
        built = []
        for cls in (ContextTables, _PointTables):
            def counting_init(self, *args, _init=cls.__init__, **kwargs):
                built.append(self)
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting_init)
        code, _, _ = run(capsys, "eval", murder_file, "p -> (r -> t)", "!(q -> s)")
        assert code == 0 and len(built) == 2

    def test_few_worlds_over_36_atoms_under_a_memory_cap(self, tmp_path):
        # members is 3, but a bound of 1 << 2**36 on it would be an 8 GB
        # number.  The cap makes any such allocation fail at once.
        proc = run_lad_capped(tmp_path, ["0" * 36, "0" * 35 + "1"], "a00 -> a35", "!(a35 -> a00)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "a00 -> a35: asserted=true denied=false",
            "!(a35 -> a00): asserted=true denied=false",
        ]

    def test_high_index_world_over_36_atoms_under_a_memory_cap(self, tmp_path):
        # The world 1...1 has index 2**36 - 1: its member bit alone is an
        # 8 GB number, which the cap refuses.
        proc = run_lad_capped(tmp_path, ["1" * 36, "0" * 36], "a00 -> a35")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == ["error: out of memory"]

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "eval", "no/such/file.ctx", "p")
        assert code == 2 and "error:" in err


class TestEntail:
    def test_valid(self, capsys):
        code, out, _ = run(capsys, "entail", "p & q", "p")
        assert code == 0 and out.strip() == "valid"

    def test_invalid(self, capsys):
        code, out, _ = run(capsys, "entail", "p \\/ q", "p | q")
        assert code == 1 and out.startswith("invalid")

    def test_bound_error(self, capsys):
        code, _, err = run(capsys, "entail", *MURDER_SEQUENT)
        assert code == 2 and "bound" in err

    def test_bound_flag(self, capsys):
        code, out, _ = run(capsys, "--atom-bound", "5", "entail", *MURDER_SEQUENT)
        assert code == 1 and "01100 10010" in out

    def test_flags_after_subcommand(self, capsys):
        code, out, _ = run(capsys, "entail", "--atom-bound", "5", *MURDER_SEQUENT)
        assert code == 1 and "01100 10010" in out
        code, out, _ = run(capsys, "nnf", "--variant", "nelson", "!(p -> (q | !q))")
        assert code == 0 and out.strip() == "p & ~q & q"

    def test_bound_env(self, capsys, monkeypatch):
        monkeypatch.setenv("LAD_ATOM_BOUND", "5")
        code, _, _ = run(capsys, "entail", *MURDER_SEQUENT)
        assert code == 1

    def test_json_countermodel(self, capsys):
        code, out, _ = run(capsys, "--json", "entail", "p \\/ q", "p | q")
        assert code == 1
        payload = json.loads(out)
        assert payload["valid"] is False
        assert payload["countermodel"]["worlds"] == ["01", "10"]


class TestCountermodel:
    def test_output_round_trips(self, capsys):
        code, out, _ = run(
            capsys, "--atom-bound", "5", "countermodel", *MURDER_SEQUENT
        )
        assert code == 0
        ctx = parse_context(out)
        assert [w.bits() for w in ctx.worlds()] == ["01100", "10010"]

    def test_none_found(self, capsys):
        code, out, _ = run(capsys, "countermodel", "p", "p")
        assert code == 1 and out.strip() == "none"


class TestEquivPersistent:
    def test_equiv(self, capsys):
        assert run(capsys, "equiv", "p & q", "q & p")[0] == 0
        assert run(capsys, "equiv", "p", "q")[0] == 1

    def test_strong_flag_separates(self, capsys):
        chi = "!(p -> (q | !q))"
        nnf_chi = "<>(p & ~q & q)"
        assert run(capsys, "equiv", chi, nnf_chi)[0] == 0
        assert run(capsys, "equiv", "--strong", chi, nnf_chi)[0] == 1

    def test_persistent(self, capsys):
        code, out, _ = run(capsys, "persistent", "p -> q")
        assert code == 0 and out.strip() == "persistent"

    def test_not_persistent_prints_witness(self, capsys):
        code, out, _ = run(capsys, "--json", "persistent", "!(p -> q)")
        assert code == 1
        payload = json.loads(out)
        assert payload["persistent"] is False
        assert payload["context"]["worlds"] == ["00", "10"]
        assert payload["subcontext"]["worlds"] == ["00"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["equiv", "a & b & c & d & e", "e & d & c & b & a"],
            ["persistent", "a & b & c & d & e"],
        ],
        ids=["equiv", "persistent"],
    )
    def test_five_atoms_name_the_table_limit_whatever_the_bound(self, argv):
        child = run_lad(["--atom-bound", "9", *argv])
        assert child.returncode == 2
        lines = child.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "stop at 4 atoms" in lines[0] and "raise the bound" not in lines[0]


class TestTransformCommands:
    def test_weakneg(self, capsys):
        code, out, _ = run(capsys, "weakneg", "p -> q")
        assert code == 0 and out.strip() == "<>(p & <>!q)"

    def test_nnf_variants(self, capsys):
        chi = "!(p -> (q | !q))"
        assert run(capsys, "nnf", chi)[1].strip() == "<>(p & ~q & q)"
        assert (
            run(capsys, "--variant", "nelson", "nnf", chi)[1].strip()
            == "p & ~q & q"
        )

    def test_charform_single(self, capsys, tmp_path):
        f = tmp_path / "c.ctx"
        f.write_text("p q\n01\n10\n")
        code, out, _ = run(capsys, "charform", str(f))
        assert code == 0 and out.strip() == "~p /\\ q (+) p /\\ ~q"

    def test_charform_set(self, capsys, tmp_path):
        a = tmp_path / "a.ctx"
        b = tmp_path / "b.ctx"
        a.write_text("p\n1\n")
        b.write_text("p\n0\n1\n")
        code, out, _ = run(capsys, "charform", str(a), str(b))
        assert code == 0 and " | " in out

    def test_charform_sigma(self, capsys, tmp_path):
        f = tmp_path / "w.ctx"
        f.write_text("p q\n10\n")
        code, out, _ = run(capsys, "charform", "--sigma", str(f))
        assert code == 0 and out.strip() == "p /\\ ~q"

    def test_sigma_needs_single_world(self, capsys, tmp_path):
        f = tmp_path / "c.ctx"
        f.write_text("p\n0\n1\n")
        code, _, err = run(capsys, "charform", "--sigma", str(f))
        assert code == 2 and "error:" in err


class TestCheck:
    def test_ok(self, capsys, tmp_path):
        from lad.corpus import ACCEPTED_PROOFS

        f = tmp_path / "em.prf"
        f.write_text(ACCEPTED_PROOFS["em.prf"])
        code, out, _ = run(capsys, "check", str(f), "--sound")
        assert code == 0 and "sound" in out

    def test_violations(self, capsys, tmp_path):
        f = tmp_path / "illegal.prf"
        f.write_text(ILLEGAL_PROOF)
        code, out, _ = run(capsys, "check", str(f))
        assert code == 1
        assert out.splitlines() == [
            "line 7: UNSAFE_CITATION: line 1 brings an unsafe formula into a round subproof",
            "line 13: UNSAFE_CITATION: line 1 brings an unsafe formula into a round subproof",
        ]

    def test_rule_mismatch_detail(self, capsys, tmp_path):
        f = tmp_path / "wrong_rule.prf"
        f.write_text(REJECTED_PROOFS["wrong_rule.prf"][0])
        code, out, _ = run(capsys, "check", str(f))
        assert code == 1
        assert out.splitlines() == [
            "line 2: RULE_MISMATCH: cited line is not a /\\ with this left part",
        ]

    def test_parse_error(self, capsys, tmp_path):
        f = tmp_path / "bad.prf"
        f.write_text("p ; made_up_rule\n")
        code, _, err = run(capsys, "check", str(f))
        assert code == 2 and "error:" in err

    def test_json_payload(self, capsys, tmp_path):
        f = tmp_path / "illegal.prf"
        f.write_text(ILLEGAL_PROOF)
        code, out, _ = run(capsys, "--json", "check", str(f))
        assert code == 1
        payload = json.loads(out)
        assert payload["ok"] is False and payload["lines"] == 15
        assert [v["line"] for v in payload["violations"]] == [7, 13]


class TestErrorContract:
    """Bad input ends with exit 2 and one error line, never a traceback."""

    @pytest.mark.parametrize(
        "env, argv",
        [
            ({"LAD_ATOM_BOUND": "x"}, ["entail", "p", "p"]),
            ({}, ["fmt", "!" * 3000 + "p"]),
            ({}, ["fmt", " & ".join(["p"] * 1500)]),
            ({}, ["entail", "--atom-bound", "5", "p \\/ q \\/ r", SELF_IMPLICATION]),
            ({}, ["eval", "-", "(p & q & r) -> (s & t)"]),
        ],
        ids=[
            "bad-atom-bound-env",
            "deep-negation",
            "long-conjunction",
            "past-the-world-limit",
            "too-many-world-classes",
        ],
    )
    def test_exit_2_without_traceback(self, env, argv):
        child = run_lad(argv, env, stdin=FULL_FIVE_ATOM_CONTEXT)
        assert child.returncode == 2
        assert "Traceback" not in child.stderr
        lines = child.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")


class TestBoundBelowOne:
    """Every query spans at least one atom, so a bound below 1 is an
    input error, reported with its source before any work is done."""

    def test_flag(self):
        child = run_lad(["--atom-bound", "-1", "entail", "p", "p"])
        assert (child.returncode, child.stdout) == (2, "")
        assert child.stderr.splitlines() == ["error: --atom-bound must be at least 1, got -1"]

    def test_environment(self, tmp_path):
        from lad.corpus import ACCEPTED_PROOFS

        f = tmp_path / "em.prf"
        f.write_text(ACCEPTED_PROOFS["em.prf"])
        child = run_lad(["check", "--sound", str(f)], env={"LAD_ATOM_BOUND": "0"})
        assert (child.returncode, child.stdout) == (2, "")
        assert child.stderr.splitlines() == ["error: $LAD_ATOM_BOUND must be at least 1, got 0"]


class TestImportPath:
    def test_cli_import_skips_heavy_stdlib_modules(self):
        # -S keeps site-packages .pth files from preloading any of them.
        src = str(pathlib.Path(lad.__file__).resolve().parents[1])
        heavy = ("dataclasses", "inspect", "ast", "typing", "json")
        child = subprocess.run(
            [sys.executable, "-S", "-c",
             f"import lad.cli, sys; print(*[m for m in {heavy!r} if m in sys.modules])"],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (child.returncode, child.stdout, child.stderr) == (0, "\n", "")

    def test_package_import_loads_no_submodule(self):
        child = run_python_s("import lad, sys; print(*[m for m in sys.modules if m.startswith('lad.')])")
        assert (child.returncode, child.stdout, child.stderr) == (0, "\n", "")

    def test_cli_import_loads_no_engine(self):
        engines = ("lad.semantics", "lad.proofs", "lad.transforms", "lad.corpus")
        child = run_python_s(f"import lad.cli, sys; print(*[m for m in {engines!r} if m in sys.modules])")
        assert (child.returncode, child.stdout, child.stderr) == (0, "\n", "")

    def test_fmt_runs_without_semantics_or_proofs(self):
        child = run_python_s(
            "import lad.cli, sys; code = lad.cli.main(['fmt', 'p']); "
            "print(code, *[m for m in ('lad.semantics', 'lad.proofs') if m in sys.modules])"
        )
        assert (child.returncode, child.stdout, child.stderr) == (0, "p\n0\n", "")

    def test_modules_resolve_as_package_attributes(self):
        child = run_python_s("import lad; print(lad.semantics.__name__, lad.proofs.parse.__module__)")
        assert (child.returncode, child.stdout, child.stderr) == (0, "lad.semantics lad.syntax\n", "")

    def test_dir_lists_every_public_name(self):
        child = run_python_s("import lad; print(*sorted(set(lad.__all__) - set(dir(lad))))")
        assert (child.returncode, child.stdout, child.stderr) == (0, "\n", "")


class TestUsage:
    """What argparse itself prints: help, and the errors before any command runs."""

    HELP_LINES = {
        "fmt": "parse a formula and print it canonically",
        "eval": "assert/deny status of formulas at a context",
        "entail": "premises |= conclusion over their atoms",
        "countermodel": "least context refuting the sequent",
        "equiv": "same assertibility everywhere",
        "persistent": "does assertion survive subcontexts",
        "weakneg": "weak negation of a formula (--variant is ignored)",
        "nnf": "negation normal form of a formula",
        "charform": "characteristic formula of context file(s)",
        "check": "verify a proof file",
    }

    def test_help_lists_every_command_with_its_help_line(self, capsys):
        code, out, err = run_exit(capsys, "-h")
        assert (code, err) == (0, "")
        listed = [line.split(None, 1) for line in out.splitlines() if line.startswith("  ")]
        for name, help_line in self.HELP_LINES.items():
            assert [name, help_line] in listed

    def test_command_help_shows_its_usage_and_the_common_flags(self, capsys):
        code, out, err = run_exit(capsys, "entail", "-h")
        assert (code, err) == (0, "")
        assert out.startswith("usage: lad entail ")
        for flag in ("--variant", "--atom-bound", "--json"):
            assert flag in out

    def test_no_command(self, capsys):
        code, out, err = run_exit(capsys)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == "lad: error: the following arguments are required: command"

    def test_unknown_command(self, capsys):
        code, out, err = run_exit(capsys, "bogus")
        assert (code, out) == (2, "")
        choices = ", ".join(repr(name) for name in self.HELP_LINES)
        assert err.splitlines()[-1] == (
            f"lad: error: argument command: invalid choice: 'bogus' (choose from {choices})"
        )


class TestHookedNames:
    """perfbench/traced.py times parsing, formatting and context parsing by
    patching these attributes of lad.cli, so handlers read them from the
    module when they run."""

    def test_handlers_call_the_module_attributes(self, capsys, monkeypatch, murder_file):
        import lad.cli

        called = []
        for name in ("parse", "format_formula", "parse_context"):
            def spy(*args, _name=name, _real=getattr(lad.cli, name), **kwargs):
                called.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(lad.cli, name, spy)
        assert run(capsys, "eval", murder_file, "p \\/ q")[0] == 0
        assert sorted(set(called)) == ["format_formula", "parse", "parse_context"]


class TestSearchBound:
    def test_valid_sequent_with_twenty_kept_worlds(self):
        # p => (q /\ r) keeps 20 of the 32 worlds, and the sequent is
        # valid, so every width up to 20 is searched.
        child = run_lad(["entail", "--atom-bound", "5", "p => (q /\\ r)", SELF_IMPLICATION])
        assert (child.returncode, child.stdout, child.stderr) == (0, "valid\n", "")


class TestWideContexts:
    def test_eval_on_every_world_over_five_atoms(self):
        # 32 worlds, but each formula splits them into at most 4 classes.
        child = run_lad(["eval", "-", "p -> p", "(p /\\ q) -> (r \\/ s \\/ t)"], stdin=FULL_FIVE_ATOM_CONTEXT)
        assert (child.returncode, child.stderr) == (0, "")
        assert child.stdout.splitlines() == [
            "p -> p: asserted=true denied=false",
            "p /\\ q -> r \\/ s \\/ t: asserted=false denied=true",
        ]
