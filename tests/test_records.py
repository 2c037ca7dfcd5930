"""The record classes keep the behaviour of the frozen dataclasses they
replaced: repr, ==/hash, read-only fields, pickling and copying."""
import copy
import pickle

import pytest

from lad.contexts import Context, World
from lad.formulas import (
    Atom,
    ExtAnd,
    ExtImp,
    ExtNeg,
    ExtOr,
    Falsum,
    IntAnd,
    IntImp,
    IntNeg,
    IntOr,
)
from lad.proofs import Citation, ProofDoc, ProofLine, Subproof, Violation, Verdict

P, Q = "Atom(name='p')", "Atom(name='q')"
LINE = (
    "ProofLine(number=3, depth=1, formula=Atom(name='p'), rule='hyp', citations="
    "(Citation(start=1, end=None), Citation(start=2, end=4)), chain=(0,), source_line=5)"
)
VIOLATION = "Violation(line=7, code='RULE_MISMATCH', detail='no match')"


def _line():
    return ProofLine(3, 1, Atom("p"), "hyp", (Citation(1), Citation(2, 4)), (0,), 5)


# Each case builds a fresh record and gives the repr a dataclass gave it.
CASES = {
    "Atom": (lambda: Atom("p"), P),
    "Falsum": (Falsum, "Falsum()"),
    "ExtNeg": (lambda: ExtNeg(Atom("p")), f"ExtNeg(operand={P})"),
    "ExtAnd": (lambda: ExtAnd(Atom("p"), Atom("q")), f"ExtAnd(left={P}, right={Q})"),
    "ExtOr": (lambda: ExtOr(Atom("p"), Atom("q")), f"ExtOr(left={P}, right={Q})"),
    "ExtImp": (lambda: ExtImp(Atom("p"), Atom("q")), f"ExtImp(left={P}, right={Q})"),
    "IntNeg": (lambda: IntNeg(Atom("p")), f"IntNeg(operand={P})"),
    "IntAnd": (
        lambda: IntAnd(Atom("p"), IntNeg(Atom("q"))),
        f"IntAnd(left={P}, right=IntNeg(operand={Q}))",
    ),
    "IntOr": (lambda: IntOr(Atom("p"), Atom("q")), f"IntOr(left={P}, right={Q})"),
    "IntImp": (lambda: IntImp(Atom("p"), Atom("q")), f"IntImp(left={P}, right={Q})"),
    "World": (
        lambda: World(("q", "p"), (True, False)),
        "World(atoms=('p', 'q'), values=(False, True))",
    ),
    "Context": (lambda: Context(("p", "q"), 5), "Context(atoms=('p', 'q'), members=5)"),
    "Citation": (lambda: Citation(1), "Citation(start=1, end=None)"),
    "ProofLine": (_line, LINE),
    "Subproof": (
        lambda: Subproof(0, "round", 2, 2, (), end=4),
        "Subproof(ident=0, kind='round', start=2, hyp=2, parent_chain=(), end=4)",
    ),
    "Violation": (lambda: Violation(7, "RULE_MISMATCH", "no match"), VIOLATION),
    "Verdict": (
        lambda: Verdict(False, (Violation(7, "RULE_MISMATCH", "no match"),)),
        f"Verdict(ok=False, violations=({VIOLATION},))",
    ),
    "ProofDoc": (lambda: ProofDoc((_line(),), ()), f"ProofDoc(lines=({LINE},), subproofs=())"),
}
FROZEN = [name for name in CASES if name != "Subproof"]


def build(name):
    return CASES[name][0]()


@pytest.mark.parametrize("name", CASES)
def test_repr_is_pinned(name):
    assert repr(build(name)) == CASES[name][1]


@pytest.mark.parametrize("name", CASES)
def test_pickle_and_copy_round_trip(name):
    record = build(name)
    twins = [pickle.loads(pickle.dumps(record, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    twins += [copy.copy(record), copy.deepcopy(record)]
    for twin in twins:
        assert type(twin) is type(record)
        assert twin == record and repr(twin) == repr(record)


@pytest.mark.parametrize("name", CASES)
def test_separately_built_records_are_equal(name):
    first, second = build(name), build(name)
    assert first is not second and first == second
    if name == "Subproof":
        with pytest.raises(TypeError):
            hash(first)
    else:
        assert hash(first) == hash(second)


@pytest.mark.parametrize("name", FROZEN)
def test_fields_are_read_only(name):
    record = build(name)
    for field in (*record.__match_args__, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert repr(record) == CASES[name][1]


def test_subproof_end_stays_assignable():
    sub = Subproof(0, "square", 2, 2, (1,))
    assert sub.end == -1
    sub.end = 6
    assert sub == Subproof(0, "square", 2, 2, (1,), 6)
