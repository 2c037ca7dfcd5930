"""Command line front end.

One subcommand per entry of ``COMMANDS`` (``lad -h`` lists them).
Formulas are given inline, contexts and proofs live in files ('-'
reads stdin).  Exit codes: 0 for yes (valid, equivalent, persistent,
countermodel found, proof ok), 1 for no, 2 for errors of any kind.
"""
from __future__ import annotations

import argparse
import os
import sys

# Only what every command needs loads with the front end: each handler
# imports the engine it runs.
from .contexts import DEFAULT_ATOM_BOUND, Context, DeniabilityVariant, format_context, parse_context
from .formulas import Formula
from .syntax import format_formula, parse

ATOM_BOUND_ENV = "LAD_ATOM_BOUND"


def _env_bound() -> int:
    raw = os.environ.get(ATOM_BOUND_ENV)
    if raw is None:
        return DEFAULT_ATOM_BOUND
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{ATOM_BOUND_ENV} must be an integer, got {raw!r}") from None


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _context_json(ctx: Context) -> dict:
    return {"atoms": list(ctx.atoms), "worlds": [w.bits() for w in ctx.worlds()]}


def _add_common(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # The same flags hang off the top parser and each command's parser,
    # so they parse on either side of the command.  The command parser's
    # copies suppress their defaults; an absent flag then leaves the
    # top-level value alone instead of clobbering it with None.
    def dflt(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument(
        "--variant",
        choices=[v.value for v in DeniabilityVariant],
        default=dflt(DeniabilityVariant.GAUKER.value),
        help="denial clause for -> (default: gauker)",
    )
    parser.add_argument(
        "--atom-bound",
        type=int,
        default=dflt(None),
        metavar="N",
        help=f"largest atom count entailment search will accept "
        f"(default: ${ATOM_BOUND_ENV} or {DEFAULT_ATOM_BOUND})",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        default=dflt(False),
        help="machine readable output",
    )


def build_parser() -> argparse.ArgumentParser:
    """The ``lad`` parser: the common flags and the command name, whose
    arguments it leaves to that command's own parser (``main``)."""
    width = max(map(len, COMMANDS))
    listing = "".join(f"\n  {name:<{width}}  {line}" for name, (line, _, _) in COMMANDS.items())
    top = argparse.ArgumentParser(
        prog="lad",
        description="Assertibility and deniability over finite contexts.",
        epilog=f"commands:{listing}\n\n'lad COMMAND -h' lists a command's own arguments.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    _add_common(top, suppress=False)
    # PARSER takes the command name, checked against the choices, and
    # every argument after it, flags included.
    top.add_argument(
        "command",
        choices=COMMANDS,
        nargs=argparse.PARSER,
        help="the command, then its own arguments",
    )
    return top


def _command_parser(name: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog=f"lad {name}")
    _add_common(parser, suppress=True)
    for flags, kwargs in COMMANDS[name][2]:
        parser.add_argument(*flags, **kwargs)
    return parser


def main(argv: list[str] | None = None) -> int:
    top = build_parser()
    args = top.parse_args(argv)
    args.command, *rest = args.command
    # Only the chosen command's parser is built.
    args, extra = _command_parser(args.command).parse_known_args(rest, args)
    if extra:
        # Reported by the lad parser, with its usage, as argparse does.
        top.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        name, bound = "--atom-bound", args.atom_bound
        if bound is None:
            name, bound = f"${ATOM_BOUND_ENV}", _env_bound()
        if bound < 1:
            # Every query spans at least one atom, so no query fits.
            raise ValueError(f"{name} must be at least 1, got {bound}")
        args.atom_bound = bound
        return COMMANDS[args.command][1](args)
    except (ValueError, OSError) as exc:
        # Every error lad raises for bad input or a limit is a ValueError.
        return _error(exc)
    except RecursionError:
        return _error("formula nested too deeply")
    except MemoryError:
        # A context stores its worlds as a bit set over world indices, so
        # one world of high index over many atoms can exhaust memory.
        return _error("out of memory")


def _error(message) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _print_json(payload: dict) -> None:
    # Imported here: plain-text commands, the common case, do not need it.
    import json

    print(json.dumps(payload, indent=2))


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        _print_json(payload)
    else:
        print(text)


def _print_formula(args, phi: Formula, mode: str = "macro") -> int:
    out = format_formula(phi, mode=mode)
    _emit(args, {"formula": out}, out)
    return 0


def _cmd_fmt(args) -> int:
    return _print_formula(args, parse(args.formula), "full" if args.plain else "macro")


def _cmd_eval(args) -> int:
    from .semantics import evaluate

    ctx = parse_context(_read_text(args.context))
    results = []
    lines = []
    for text in args.formulas:
        phi = parse(text)
        a, d = evaluate(ctx, phi, args.variant)
        shown = format_formula(phi)
        results.append({"formula": shown, "asserted": a, "denied": d})
        lines.append(f"{shown}: asserted={str(a).lower()} denied={str(d).lower()}")
    _emit(args, {"context": _context_json(ctx), "results": results}, "\n".join(lines))
    return 0


def _split_sequent(texts: list[str]) -> tuple[list[Formula], Formula]:
    formulas = [parse(t) for t in texts]
    return formulas[:-1], formulas[-1]


def _cmd_entail(args) -> int:
    from .semantics import countermodel

    premises, conclusion = _split_sequent(args.formulas)
    cm = countermodel(premises, conclusion, args.variant, args.atom_bound)
    if cm is None:
        _emit(args, {"valid": True, "countermodel": None}, "valid")
        return 0
    worlds = " ".join(w.bits() for w in cm.worlds())
    _emit(
        args,
        {"valid": False, "countermodel": _context_json(cm)},
        f"invalid (countermodel over {' '.join(cm.atoms)}: {worlds})",
    )
    return 1


def _cmd_countermodel(args) -> int:
    from .semantics import countermodel

    premises, conclusion = _split_sequent(args.formulas)
    cm = countermodel(premises, conclusion, args.variant, args.atom_bound)
    if cm is None:
        _emit(args, {"found": False, "context": None}, "none")
        return 1
    if args.json:
        _print_json({"found": True, "context": _context_json(cm)})
    else:
        sys.stdout.write(format_context(cm))
    return 0


def _cmd_equiv(args) -> int:
    from .semantics import equivalent, strongly_equivalent

    left, right = parse(args.left), parse(args.right)
    fn = strongly_equivalent if args.strong else equivalent
    same = fn(left, right, args.variant)
    _emit(
        args,
        {"equivalent": same, "strong": args.strong},
        "equivalent" if same else "not equivalent",
    )
    return 0 if same else 1


def _cmd_persistent(args) -> int:
    from .semantics import persistence_witness

    phi = parse(args.formula)
    witness = persistence_witness(phi, args.variant)
    if witness is None:
        _emit(args, {"persistent": True, "context": None, "subcontext": None}, "persistent")
        return 0
    big, small = witness
    text = (
        "not persistent\n# asserting context\n"
        + format_context(big)
        + "# failing subcontext\n"
        + format_context(small)
    ).rstrip("\n")
    _emit(
        args,
        {
            "persistent": False,
            "context": _context_json(big),
            "subcontext": _context_json(small),
        },
        text,
    )
    return 1


def _cmd_weakneg(args) -> int:
    from .transforms import weak_negate

    return _print_formula(args, weak_negate(parse(args.formula)))


def _cmd_nnf(args) -> int:
    from .transforms import nnf

    return _print_formula(args, nnf(parse(args.formula), args.variant))


def _cmd_charform(args) -> int:
    from .transforms import mu_c, sigma_w, xi_x

    ctxs = [parse_context(_read_text(path)) for path in args.contexts]
    if args.sigma:
        if len(ctxs) != 1 or len(ctxs[0]) != 1:
            raise ValueError("--sigma needs exactly one context with exactly one world")
        phi = sigma_w(next(ctxs[0].worlds()))
    elif len(ctxs) == 1:
        phi = mu_c(ctxs[0])
    else:
        phi = xi_x(ctxs)
    return _print_formula(args, phi)


def _cmd_check(args) -> int:
    from .proofs import check as check_proof, parse_proof, verify_sound

    doc = parse_proof(_read_text(args.proof))
    verdict = check_proof(doc)
    sound = None
    if verdict.ok and args.sound:
        sound = verify_sound(doc, args.variant, args.atom_bound)
    payload = {
        "ok": verdict.ok,
        "lines": len(doc.lines),
        "violations": [
            {"line": v.line, "code": v.code, "detail": v.detail}
            for v in verdict.violations
        ],
        "sound": sound,
    }
    if verdict.ok:
        text = f"ok ({len(doc.lines)} lines)"
        if sound is not None:
            text += " sound" if sound else " UNSOUND"
        _emit(args, payload, text)
        return 0 if sound in (None, True) else 1
    _emit(args, payload, "\n".join(str(v) for v in verdict.violations))
    return 1


def _arg(*flags, **kwargs) -> tuple:
    return flags, kwargs


_FORMULA = _arg("formula")
_SEQUENT = _arg("formulas", nargs="+", metavar="formula", help="premises then conclusion")

# Each command: its help line, its handler and its own arguments.
COMMANDS = {
    "fmt": ("parse a formula and print it canonically", _cmd_fmt, [
        _FORMULA,
        _arg("--plain", action="store_true", help="spell <> and (+) out instead of sugaring"),
    ]),
    "eval": ("assert/deny status of formulas at a context", _cmd_eval, [
        _arg("context", help="context file, or - for stdin"),
        _arg("formulas", nargs="+", metavar="formula"),
    ]),
    "entail": ("premises |= conclusion over their atoms", _cmd_entail, [_SEQUENT]),
    "countermodel": ("least context refuting the sequent", _cmd_countermodel, [_SEQUENT]),
    "equiv": ("same assertibility everywhere", _cmd_equiv, [
        _arg("left"),
        _arg("right"),
        _arg("--strong", action="store_true", help="also require the same deniability"),
    ]),
    "persistent": ("does assertion survive subcontexts", _cmd_persistent, [_FORMULA]),
    "weakneg": ("weak negation of a formula (--variant is ignored)", _cmd_weakneg, [_FORMULA]),
    "nnf": ("negation normal form of a formula", _cmd_nnf, [_FORMULA]),
    "charform": ("characteristic formula of context file(s)", _cmd_charform, [
        _arg("contexts", nargs="+", metavar="context"),
        _arg(
            "--sigma",
            action="store_true",
            help="characteristic L-formula of the single world in a one-world context",
        ),
    ]),
    "check": ("verify a proof file", _cmd_check, [
        _arg("proof", help="proof file, or - for stdin"),
        _arg("--sound", action="store_true", help="also test premises |= conclusion semantically"),
    ]),
}


if __name__ == "__main__":
    sys.exit(main())
