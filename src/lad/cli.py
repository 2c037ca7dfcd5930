"""Command line front end.

Subcommands: fmt, eval, entail, countermodel, equiv, persistent,
weakneg, nnf, charform, check.  Formulas are given inline, contexts
and proofs live in files ('-' reads stdin).  Exit codes: 0 for yes
(valid, equivalent, persistent, countermodel found, proof ok), 1 for
no, 2 for errors of any kind.
"""
from __future__ import annotations

import argparse
import os
import sys

from .contexts import (
    Context,
    ContextFormatError,
    DeniabilityVariant,
    EmptyInputError,
    format_context,
    parse_context,
)
from .formulas import Formula, LayerError
from .proofs import ProofParseError, check as check_proof, parse_proof, verify_sound
from .semantics import (
    AtomBoundExceeded,
    ContextTooWide,
    DEFAULT_ATOM_BOUND,
    UnknownAtomError,
    WorldLimitExceeded,
    countermodel,
    equivalent,
    evaluate,
    persistence_witness,
    strongly_equivalent,
)
from .syntax import ParseError, format_formula, parse
from .transforms import mu_c, nnf, sigma_w, weak_negate, xi_x

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
    # The same flags hang off the top parser and every subparser, so
    # they parse on either side of the subcommand.  The subparser
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
    top = argparse.ArgumentParser(
        prog="lad",
        description="Assertibility and deniability over finite contexts.",
    )
    _add_common(top, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_common(common, suppress=True)
    sub = top.add_subparsers(dest="command", required=True)

    def add_parser(name, handler, **kwargs):
        p = sub.add_parser(name, parents=[common], **kwargs)
        p.set_defaults(handler=handler)
        return p

    p = add_parser("fmt", _cmd_fmt, help="parse a formula and print it canonically")
    p.add_argument("formula")
    p.add_argument(
        "--plain", action="store_true", help="spell <> and (+) out instead of sugaring"
    )

    p = add_parser("eval", _cmd_eval, help="assert/deny status of formulas at a context")
    p.add_argument("context", help="context file, or - for stdin")
    p.add_argument("formulas", nargs="+", metavar="formula")

    p = add_parser("entail", _cmd_entail, help="premises |= conclusion over their atoms")
    p.add_argument("formulas", nargs="+", metavar="formula", help="premises then conclusion")

    p = add_parser("countermodel", _cmd_countermodel, help="least context refuting the sequent")
    p.add_argument("formulas", nargs="+", metavar="formula", help="premises then conclusion")

    p = add_parser("equiv", _cmd_equiv, help="same assertibility everywhere")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument(
        "--strong", action="store_true", help="also require the same deniability"
    )

    p = add_parser("persistent", _cmd_persistent, help="does assertion survive subcontexts")
    p.add_argument("formula")

    p = add_parser("weakneg", _cmd_weakneg, help="weak negation of a formula (--variant is ignored)")
    p.add_argument("formula")

    p = add_parser("nnf", _cmd_nnf, help="negation normal form of a formula")
    p.add_argument("formula")

    p = add_parser("charform", _cmd_charform, help="characteristic formula of context file(s)")
    p.add_argument("contexts", nargs="+", metavar="context")
    p.add_argument(
        "--sigma",
        action="store_true",
        help="characteristic L-formula of the single world in a one-world context",
    )

    p = add_parser("check", _cmd_check, help="verify a proof file")
    p.add_argument("proof", help="proof file, or - for stdin")
    p.add_argument(
        "--sound",
        action="store_true",
        help="also test premises |= conclusion semantically",
    )
    return top


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        name, bound = "--atom-bound", args.atom_bound
        if bound is None:
            name, bound = f"${ATOM_BOUND_ENV}", _env_bound()
        if bound < 1:
            # Every query spans at least one atom, so no query fits.
            raise ValueError(f"{name} must be at least 1, got {bound}")
        args.atom_bound = bound
        return args.handler(args)
    except (
        ParseError,
        LayerError,
        ContextFormatError,
        ProofParseError,
        EmptyInputError,
        UnknownAtomError,
        AtomBoundExceeded,
        WorldLimitExceeded,
        ContextTooWide,
        OSError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: formula nested too deeply", file=sys.stderr)
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


def _cmd_fmt(args) -> int:
    phi = parse(args.formula)
    out = format_formula(phi, mode="full" if args.plain else "macro")
    _emit(args, {"formula": out}, out)
    return 0


def _cmd_eval(args) -> int:
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
    out = format_formula(weak_negate(parse(args.formula)))
    _emit(args, {"formula": out}, out)
    return 0


def _cmd_nnf(args) -> int:
    out = format_formula(nnf(parse(args.formula), args.variant))
    _emit(args, {"formula": out}, out)
    return 0


def _cmd_charform(args) -> int:
    ctxs = [parse_context(_read_text(path)) for path in args.contexts]
    if args.sigma:
        if len(ctxs) != 1 or len(ctxs[0]) != 1:
            raise ValueError("--sigma needs exactly one context with exactly one world")
        phi = sigma_w(next(ctxs[0].worlds()))
    elif len(ctxs) == 1:
        phi = mu_c(ctxs[0])
    else:
        phi = xi_x(ctxs)
    out = format_formula(phi)
    _emit(args, {"formula": out}, out)
    return 0


def _cmd_check(args) -> int:
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


if __name__ == "__main__":
    sys.exit(main())
