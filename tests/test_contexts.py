import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import all_contexts, contexts_over
from lad.contexts import (
    Context,
    ContextFormatError,
    DeniabilityVariant,
    EmptyInputError,
    World,
    format_context,
    parse_context,
    world_from_index,
)
from lad.semantics import evaluate
from lad.syntax import parse


class TestWorld:
    def test_sorted_construction(self):
        w = World(("p", "q"), (1, 0))
        assert w.value("p") == 1 and w.value("q") == 0

    def test_unsorted_atoms_are_permuted(self):
        assert World(("q", "p"), (0, 1)) == World(("p", "q"), (1, 0))

    def test_duplicate_atoms_rejected(self):
        with pytest.raises(ValueError):
            World(("p", "p"), (0, 1))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            World(("p", "q"), (1,))

    def test_from_mapping(self):
        assert World.from_mapping({"q": True, "p": False}) == World(
            ("p", "q"), (0, 1)
        )

    def test_unknown_atom(self):
        with pytest.raises(KeyError):
            World(("p",), (1,)).value("z")

    def test_index_is_msb_first(self):
        # first atom in sorted order is the most significant bit
        assert World(("p", "q"), (1, 0)).index == 2
        assert World(("p", "q"), (0, 1)).index == 1
        assert World(("p", "q"), (1, 1)).bits() == "11"

    def test_world_from_index_round_trip(self):
        atoms = ("a", "b", "c")
        for i in range(8):
            assert world_from_index(atoms, i).index == i


class TestEmptyAndMixedInput:
    def test_world_without_atoms(self):
        with pytest.raises(EmptyInputError, match="^a world needs at least one atom$"):
            World((), ())

    def test_full_context_without_atoms(self):
        with pytest.raises(EmptyInputError, match="^a context needs at least one atom$"):
            Context.full(())

    def test_from_worlds_over_two_atom_lists(self):
        with pytest.raises(ValueError, match="^worlds over different atom lists$"):
            Context.from_worlds([World(("p",), (1,)), World(("q",), (1,))])


class TestContext:
    def test_member_bounds(self):
        with pytest.raises(ValueError):
            Context(("p",), 0)
        with pytest.raises(ValueError):
            Context(("p",), 4)
        with pytest.raises(ValueError):
            Context(("p", "q"), -1)
        with pytest.raises(ValueError):
            Context(("p", "q"), 1 << 4)
        assert Context(("p",), 3).members == 3
        assert Context(("p", "q"), 0b1111).members == 0b1111

    def test_few_worlds_over_many_atoms_cost_little(self):
        # Two worlds over 28 atoms: members is 3, where the bound
        # 1 << 2**28 on it would be a 32 MB number.
        atoms = [f"a{i:02}" for i in range(28)]
        text = " ".join(atoms) + "\n" + "0" * 28 + "\n" + "0" * 27 + "1\n"
        phi = parse("a00 -> a27")
        tracemalloc.start()
        try:
            ctx = parse_context(text)
            judged = evaluate(ctx, phi)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ctx.members == 0b11 and judged == (True, False)
        assert peak < 1 << 20

    def test_unsorted_atoms_rejected(self):
        # silently permuting atoms would renumber the member worlds
        with pytest.raises(ValueError):
            Context(("q", "p"), 1)
        with pytest.raises(EmptyInputError):
            Context((), 1)

    def test_from_worlds_and_back(self):
        worlds = [World(("p", "q"), (1, 0)), World(("p", "q"), (0, 1))]
        ctx = Context.from_worlds(worlds)
        assert ctx.members == (1 << 2) | (1 << 1)
        assert list(ctx.worlds()) == sorted(worlds, key=lambda w: w.index)

    def test_full(self):
        ctx = Context.full(("p", "q"))
        assert len(ctx) == 4
        assert ctx.members == 0b1111

    def test_contains(self):
        ctx = Context(("p",), 0b10)
        assert World(("p",), (1,)) in ctx
        assert World(("p",), (0,)) not in ctx

    def test_subcontexts_ascending_and_complete(self):
        ctx = Context(("p", "q"), 0b1010)
        subs = list(ctx.subcontexts())
        assert [s.members for s in subs] == [0b0010, 0b1000, 0b1010]
        assert all(s.members & ~ctx.members == 0 for s in subs)

    @given(contexts_over(("p", "q")))
    def test_subcontext_count(self, ctx):
        assert len(list(ctx.subcontexts())) == (1 << len(ctx)) - 1

    def test_enumeration_over_two_atoms(self):
        assert len(all_contexts(("p", "q"))) == 15


class TestContextFiles:
    GOOD = "# evidence\np q r\n101\n010\n\n# trailing comment\n"

    def test_parse(self):
        ctx = parse_context(self.GOOD)
        assert ctx.atoms == ("p", "q", "r")
        assert [w.bits() for w in ctx.worlds()] == ["010", "101"]

    def test_round_trip(self):
        ctx = parse_context(self.GOOD)
        assert parse_context(format_context(ctx)) == ctx

    @given(contexts_over(("a", "b")))
    def test_round_trip_property(self, ctx):
        assert parse_context(format_context(ctx)) == ctx

    def test_empty_input(self):
        with pytest.raises(ContextFormatError):
            parse_context("# nothing\n\n")
        with pytest.raises(EmptyInputError):
            Context.from_worlds([])

    def test_no_worlds(self):
        with pytest.raises(ContextFormatError):
            parse_context("p q\n")

    def test_wrong_width(self):
        with pytest.raises(ContextFormatError) as exc:
            parse_context("p q\n101\n")
        assert exc.value.line == 2

    def test_bad_valuation_chars(self):
        with pytest.raises(ContextFormatError):
            parse_context("p q\n1x\n")

    def test_duplicate_world(self):
        with pytest.raises(ContextFormatError) as exc:
            parse_context("p\n1\n1\n")
        assert exc.value.line == 3

    def test_duplicate_atom(self):
        with pytest.raises(ContextFormatError):
            parse_context("p p\n11\n")

    def test_bad_atom_name(self):
        with pytest.raises(ContextFormatError):
            parse_context("p 2q\n11\n")
        with pytest.raises(ContextFormatError):
            parse_context("pé\n1\n")

    def test_header_out_of_sorted_order(self):
        # Columns follow the header: "10" under "q p" is q true, p false.
        ctx = parse_context("q p\n10\n11\n")
        assert ctx.atoms == ("p", "q")
        assert [w.bits() for w in ctx.worlds()] == ["01", "11"]
        assert ctx == parse_context("p q\n01\n11\n")

    def test_duplicate_world_under_an_unsorted_header(self):
        with pytest.raises(ContextFormatError) as exc:
            parse_context("r p q\n100\n# note\n\n001\n100\n")
        assert exc.value.line == 6 and "'100'" in str(exc.value)

    @given(st.data())
    def test_matches_the_world_records(self, data):
        names = data.draw(st.lists(st.sampled_from(["p", "q", "r", "s", "a1", "zz"]),
                                   min_size=1, max_size=5, unique=True))
        rows = data.draw(st.lists(st.tuples(*[st.booleans()] * len(names)),
                                  min_size=1, max_size=8, unique=True))
        text = " ".join(names) + "\n" + "".join(
            "".join("1" if v else "0" for v in row) + "  # a world\n" for row in rows)
        want = Context.from_worlds([World(tuple(names), row) for row in rows])
        assert parse_context(text) == want


class TestVariant:
    def test_coerce(self):
        assert DeniabilityVariant.coerce("nelson") is DeniabilityVariant.NELSON
        for member in DeniabilityVariant:
            assert DeniabilityVariant.coerce(member) is member
            assert DeniabilityVariant.coerce(member.value) is member

    def test_coerce_rejects_unknown(self):
        # Each with the enum's own error.  A member's name hashes as the
        # member does, but is no value of one.
        for value in ("classical", "GAUKER", "", 0, None, ["gauker"]):
            with pytest.raises(ValueError) as info:
                DeniabilityVariant.coerce(value)
            with pytest.raises(ValueError) as direct:
                DeniabilityVariant(value)
            assert str(info.value) == str(direct.value)
