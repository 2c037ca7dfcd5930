import copy
import os
import pathlib
import pickle
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    PathError,
    all_paths,
    e_translate,
    l_formulas,
    star_formulas,
    subformula_at,
    substitute,
)
import lad
from lad.formulas import (
    Atom,
    ExtAnd,
    ExtImp,
    ExtNeg,
    ExtOr,
    FALSUM,
    Falsum,
    Formula,
    IntAnd,
    IntImp,
    IntNeg,
    IntOr,
    LayerError,
    atoms_of,
    cap_chain,
    cup_chain,
    diamond,
    is_l_formula,
    is_safe,
    match_diamond,
    match_plus,
    plus_disj,
    size,
)
from lad.syntax import format_formula, parse

P, Q, R = Atom("p"), Atom("q"), Atom("r")


def _rebuild(phi):
    """A fresh copy of phi sharing no node with it."""
    if isinstance(phi, Atom):
        return Atom(phi.name)
    if isinstance(phi, Falsum):
        return Falsum()
    return type(phi)(*(_rebuild(c) for c in phi.children()))


class TestLayering:
    def test_extensional_rejects_intensional_operands(self):
        for bad in (IntNeg(P), IntAnd(P, Q), IntOr(P, Q), IntImp(P, Q)):
            with pytest.raises(LayerError):
                ExtNeg(bad)
            with pytest.raises(LayerError):
                ExtAnd(bad, Q)
            with pytest.raises(LayerError):
                ExtOr(P, bad)
            with pytest.raises(LayerError):
                ExtImp(bad, bad)

    def test_intensional_accepts_anything(self):
        IntNeg(IntImp(P, IntAnd(Q, FALSUM)))
        IntAnd(ExtNeg(P), IntOr(P, Q))

    def test_is_l_formula_by_root(self):
        assert is_l_formula(P)
        assert is_l_formula(FALSUM)
        assert is_l_formula(ExtImp(ExtNeg(P), ExtOr(P, Q)))
        assert not is_l_formula(IntNeg(P))
        assert not is_l_formula(IntAnd(P, Q))

    @given(l_formulas())
    def test_random_l_formulas_are_l(self, phi):
        assert is_l_formula(phi)

    def test_layer_error_carries_offender(self):
        try:
            ExtAnd(IntNeg(P), Q)
        except LayerError as exc:
            assert exc.offending == IntNeg(P)
        else:
            pytest.fail("no LayerError")


class TestStructure:
    def test_equality_and_hash_are_structural(self):
        assert ExtAnd(P, Q) == ExtAnd(Atom("p"), Atom("q"))
        assert len({ExtAnd(P, Q), ExtAnd(P, Q), ExtOr(P, Q)}) == 2
        assert Falsum() == FALSUM

    def test_node_type_is_part_of_equality_and_hash(self):
        assert IntAnd(P, Q) != IntOr(P, Q)
        assert hash(IntAnd(P, Q)) != hash(IntOr(P, Q))
        assert ExtNeg(P) != IntNeg(P)

    @given(star_formulas())
    def test_equal_formulas_hash_equally(self, phi):
        for twin in (_rebuild(phi), parse(format_formula(phi))):
            assert twin == phi and hash(twin) == hash(phi)

    @given(star_formulas())
    def test_pickle_and_copy_rebuild_the_node(self, phi):
        for twin in (pickle.loads(pickle.dumps(phi)), copy.copy(phi), copy.deepcopy(phi)):
            assert twin == phi and hash(twin) == hash(phi)

    def test_unpickled_in_another_hash_seed_is_a_dict_key(self):
        # str hashes are salted per process: a hash cached in the child
        # would be wrong here, so unpickling must recompute it.
        text = "<>(p (+) q) -> !(r & ~s)"
        src = str(pathlib.Path(lad.__file__).resolve().parents[1])
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        child = subprocess.run(
            [sys.executable, "-c",
             "import pickle, sys; from lad import parse; "
             f"sys.stdout.buffer.write(pickle.dumps((hash('p'), parse({text!r}))))"],
            env=env, capture_output=True, check=True,
        )
        child_hash_p, phi = pickle.loads(child.stdout)
        assert child_hash_p != hash("p")
        fresh = parse(text)
        assert phi == fresh and hash(phi) == hash(fresh)
        assert {fresh: 1}[phi] == 1 and {phi: 1}[fresh] == 1

    @pytest.mark.parametrize(
        "text, other",
        [
            ("!" * 5000 + "p", "!" * 5000 + "q"),
            (" & ".join(["p"] * 1500), " & ".join(["p"] * 1499 + ["q"])),
        ],
        ids=["5000 !", "1500 &"],
    )
    def test_deep_formulas_compare_without_recursion(self, text, other):
        # Separate parse calls share no node, so == walks every level.
        phi, twin, odd = parse(text), parse(text), parse(other)
        assert phi is not twin
        assert phi == twin and not phi != twin
        assert phi != odd and odd != phi
        assert {phi: 1}[twin] == 1 and twin in {phi} and odd not in {phi}
        # With the root hashes made to collide, only the walk down to the
        # bottom atom can tell them apart.
        Formula._hash.__set__(odd, hash(phi))
        assert phi != odd and odd != phi

    def test_atoms_of(self):
        assert atoms_of(IntImp(ExtAnd(P, Q), IntNeg(R))) == {"p", "q", "r"}
        assert atoms_of(FALSUM) == frozenset()

    def test_size_counts_nodes(self):
        assert size(P) == 1
        assert size(ExtNeg(P)) == 2
        assert size(IntImp(ExtAnd(P, Q), FALSUM)) == 5

    @given(star_formulas())
    def test_size_vs_paths(self, phi):
        assert size(phi) == len(list(all_paths(phi)))


class TestPaths:
    def test_subformula_at(self):
        phi = ExtImp(ExtNeg(P), Q)
        assert subformula_at(phi, ()) == phi
        assert subformula_at(phi, (0,)) == ExtNeg(P)
        assert subformula_at(phi, (0, 0)) == P
        assert subformula_at(phi, (1,)) == Q

    def test_bad_path_raises(self):
        with pytest.raises(PathError):
            subformula_at(P, (0,))
        with pytest.raises(PathError):
            subformula_at(ExtNeg(P), (1,))

    def test_substitute(self):
        phi = IntAnd(P, IntNeg(Q))
        assert substitute(phi, (1, 0), R) == IntAnd(P, IntNeg(R))
        assert substitute(phi, (), FALSUM) == FALSUM

    def test_substitute_respects_layering(self):
        with pytest.raises(LayerError):
            substitute(ExtNeg(P), (0,), IntNeg(P))

    @given(star_formulas())
    def test_every_path_resolves(self, phi):
        for path in all_paths(phi):
            sub = subformula_at(phi, path)
            assert substitute(phi, path, sub) == phi


class TestSafety:
    def test_l_formulas_are_safe(self):
        assert is_safe(ExtImp(ExtNeg(P), ExtOr(P, Q)))

    def test_root_implication_is_safe(self):
        assert is_safe(IntImp(IntNeg(IntImp(P, Q)), FALSUM))

    def test_neg_over_implication_is_unsafe(self):
        assert not is_safe(IntNeg(IntImp(P, Q)))
        assert not is_safe(IntAnd(P, IntNeg(IntImp(P, Q))))

    def test_diamond_is_unsafe(self):
        assert not is_safe(diamond(P))

    def test_neg_without_implication_is_safe(self):
        assert is_safe(IntNeg(ExtAnd(P, Q)))
        assert is_safe(IntAnd(IntNeg(P), IntOr(Q, R)))

    @staticmethod
    def _under_negations(phi, depth=3000):
        for _ in range(depth):
            phi = IntNeg(phi)
        return phi

    def test_deep_negation_over_implication(self):
        assert not is_safe(self._under_negations(IntImp(P, Q)))

    def test_deep_negation_over_atom(self):
        assert is_safe(self._under_negations(P))

    @given(star_formulas())
    def test_matches_recursive_definition(self, phi):
        assert is_safe(phi) == _safe_oracle(phi)


# The recursive definition that is_safe replaced, kept as its oracle.
def _contains_int_imp(phi):
    if isinstance(phi, IntImp):
        return True
    if is_l_formula(phi):
        return False
    return any(_contains_int_imp(c) for c in phi.children())


def _neg_over_imp(phi):
    if is_l_formula(phi):
        return False
    if isinstance(phi, IntNeg):
        return _contains_int_imp(phi.operand)
    return any(_neg_over_imp(c) for c in phi.children())


def _safe_oracle(phi):
    return isinstance(phi, IntImp) or not _neg_over_imp(phi)


class TestTranslation:
    def test_connective_mapping(self):
        phi = IntImp(IntAnd(P, IntNeg(Q)), IntOr(Q, FALSUM))
        assert e_translate(phi) == ExtImp(ExtAnd(P, ExtNeg(Q)), ExtOr(Q, FALSUM))

    def test_l_fixed_point(self):
        alpha = ExtImp(ExtNeg(P), Q)
        assert e_translate(alpha) == alpha

    @given(star_formulas())
    def test_result_is_extensional(self, phi):
        e = e_translate(phi)
        assert is_l_formula(e)
        assert atoms_of(e) == atoms_of(phi)


class TestMacros:
    def test_diamond_shape(self):
        assert diamond(P) == IntNeg(IntImp(P, FALSUM))

    @given(star_formulas())
    def test_match_diamond_inverts(self, phi):
        assert match_diamond(diamond(phi)) == phi

    def test_match_diamond_rejects_others(self):
        assert match_diamond(IntNeg(IntImp(P, Q))) is None
        assert match_diamond(IntNeg(P)) is None

    def test_plus_singleton(self):
        assert plus_disj([P]) == IntAnd(P, diamond(P))

    def test_plus_nary(self):
        got = plus_disj([P, Q])
        assert got == IntAnd(ExtOr(P, Q), IntAnd(diamond(P), diamond(Q)))

    def test_plus_requires_l_operands(self):
        with pytest.raises(LayerError):
            plus_disj([P, IntNeg(Q)])

    def test_match_plus_round_trip(self):
        ops = (P, Q, ExtNeg(P))
        assert match_plus(plus_disj(ops)) == ops
        assert match_plus(IntAnd(P, Q)) is None
        # singleton expansion is not an n-ary pattern
        assert match_plus(plus_disj([P])) is None

    @given(st.lists(l_formulas(), min_size=2, max_size=6))
    def test_match_plus_inverts_plus_disj(self, ops):
        assert match_plus(plus_disj(ops)) == tuple(ops)

    def test_match_plus_splits_by_the_diamonds(self):
        # Both expansions share the union p \/ (q \/ r); the diamonds decide.
        assert match_plus(plus_disj([P, ExtOr(Q, R)])) == (P, ExtOr(Q, R))
        assert match_plus(plus_disj([P, Q, R])) == (P, Q, R)
        assert match_plus(plus_disj([ExtOr(P, Q), R])) == (ExtOr(P, Q), R)

    @pytest.mark.parametrize(
        "phi",
        [
            IntAnd(ExtOr(P, Q), diamond(P)),
            IntAnd(ExtOr(P, Q), IntAnd(diamond(P), IntAnd(diamond(Q), diamond(R)))),
            IntAnd(ExtOr(P, ExtOr(Q, R)), IntAnd(diamond(P), diamond(Q))),
            IntAnd(ExtOr(P, Q), IntAnd(diamond(Q), diamond(P))),
            IntAnd(ExtAnd(P, Q), IntAnd(diamond(P), diamond(Q))),
            IntAnd(IntOr(P, Q), IntAnd(diamond(P), diamond(Q))),
            IntAnd(ExtOr(P, Q), IntOr(diamond(P), diamond(Q))),
            IntAnd(ExtOr(P, Q), IntAnd(diamond(P), IntNeg(IntImp(Q, P)))),
            IntAnd(ExtOr(P, Q), IntAnd(diamond(P), diamond(IntNeg(Q)))),
            IntAnd(diamond(P), diamond(Q)),
            plus_disj([ExtOr(P, Q)]),
        ],
        ids=[
            "one-diamond-short",
            "one-diamond-too-many",
            "union-too-long",
            "diamonds-swapped",
            "cap-for-cup",
            "int-or-for-cup",
            "int-or-joins-diamonds",
            "last-not-a-diamond",
            "diamond-over-intensional",
            "no-union",
            "singleton-over-a-cup",
        ],
    )
    def test_match_plus_near_misses(self, phi):
        assert match_plus(phi) is None

    def test_chains(self):
        assert cap_chain([P]) == P
        assert cap_chain([P, Q, R]) == ExtAnd(P, ExtAnd(Q, R))
        assert cup_chain([P, Q]) == ExtOr(P, Q)
        with pytest.raises(ValueError):
            cap_chain([])
