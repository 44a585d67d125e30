"""Strategy-space model, CSV parsing, neighborhoods, feature encoding."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import all_strategies, binary_space, decode, rank_of, reference_neighbors, space_from
from stratlearn.sampler import SamplerConfig, run_chain
from stratlearn.space import (
    ParameterDomain,
    SpaceFormatError,
    Strategy,
    StrategySpace,
    builtin_space,
    default_strategy,
    encode_features,
    neighbors,
    parse_space,
    serialize_space,
)


class TestParse:
    def test_compact_table_has_216_settings(self, small_space):
        assert len(all_strategies(small_space)) == 216
        assert small_space.k == 6

    def test_wide_table_has_8192_settings(self, large_space):
        assert len(all_strategies(large_space)) == 8192
        assert large_space.k == 13

    def test_minimal_single_row(self):
        space = parse_space("name,default,alternatives\nx,1,0\n")
        assert len(all_strategies(space)) == 2
        assert default_strategy(space) == Strategy(("1",))

    def test_comments_and_blank_lines_ignored(self):
        space = parse_space("# a comment\n\nname,default,alternatives\n# another\nx,1,0\n")
        assert space.names == ("x",)

    def test_bad_header_rejected(self):
        with pytest.raises(SpaceFormatError, match="header"):
            parse_space("nom,def,alts\nx,1,0\n")

    def test_duplicate_name_reports_row(self):
        text = "name,default,alternatives\nx,1,0\nx,2,3\n"
        with pytest.raises(SpaceFormatError, match="row 3.*duplicate parameter name"):
            parse_space(text)

    def test_empty_alternatives_reports_row(self):
        with pytest.raises(SpaceFormatError, match="row 2.*empty alternatives"):
            parse_space("name,default,alternatives\nx,1,\n")

    def test_duplicated_value_in_row_reports_row(self):
        with pytest.raises(SpaceFormatError, match="row 2"):
            parse_space("name,default,alternatives\nx,1,1\n")

    def test_wrong_cell_count_reports_row(self):
        with pytest.raises(SpaceFormatError, match="row 2.*3 comma-separated"):
            parse_space("name,default,alternatives\nx,1\n")


class TestDomainInvariants:
    def test_default_cannot_repeat_in_alternatives(self):
        with pytest.raises(ValueError, match="twice"):
            ParameterDomain("x", "1", ("0", "1"))

    def test_values_orders_default_first(self):
        d = ParameterDomain("x", "6", ("3", "9"))
        assert d.values == ("6", "3", "9")

    def test_space_needs_a_domain(self):
        with pytest.raises(ValueError):
            StrategySpace(())


class TestDefaults:
    def test_compact_defaults(self, small_space):
        assert default_strategy(small_space).assignments == ("1", "1", "1", "1", "2", "6")

    def test_wide_defaults(self, large_space):
        expected = ("1", "10", "1", "500", "2000", "100", "1", "100", "1000", "1", "10", "1000", "100")
        assert default_strategy(large_space).assignments == expected


class TestRanks:
    """A rank is the mixed-radix number a strategy's codes spell, the last position fastest."""

    @pytest.mark.parametrize(
        "space", [builtin_space("kissat_small"), binary_space(5)], ids=["kissat_small", "binary_5"]
    )
    def test_rank_and_unrank_round_trip_on_every_strategy(self, space):
        strategies = all_strategies(space)  # itertools.product order: the last position fastest
        assert [rank_of(space, v) for v in strategies] == list(range(len(strategies)))
        for v in strategies:
            codes = space.codes(v)
            assert space.unrank(space.rank(codes)) == codes
            assert decode(space, rank_of(space, v)) == v

    def test_strides_and_sizes(self, small_space):
        assert small_space.sizes == (2, 2, 3, 3, 2, 3)
        assert small_space.strides == (108, 54, 18, 6, 3, 1)


def all_neighbors(space, rank):
    """Neighbour ``j`` of ``rank`` for every ``j`` a chain can draw."""
    return [neighbors(space, rank, j) for j in range(len(space.moves))]


class TestNeighbors:
    """``neighbors`` moves a rank to one neighbour by index; over every index, decoded, it must equal the eager
    enumeration."""

    def test_wide_default_has_13_neighbors(self, large_space):
        assert len(all_neighbors(large_space, rank_of(large_space, default_strategy(large_space)))) == 13

    def test_compact_default_has_9_neighbors(self, small_space):
        assert len(all_neighbors(small_space, rank_of(small_space, default_strategy(small_space)))) == 9

    def test_single_binary_domain(self):
        space = binary_space(1)
        (only,) = all_neighbors(space, rank_of(space, default_strategy(space)))
        assert decode(space, only) == Strategy(("0",))

    def test_count_formula_on_every_strategy(self, small_space):
        expected = sum(d.size - 1 for d in small_space.domains)
        for v in all_strategies(small_space):
            codes = small_space.codes(v)
            found = set(all_neighbors(small_space, small_space.rank(codes)))
            assert len(found) == expected
            assert all(sum(a != b for a, b in zip(small_space.unrank(w), codes)) == 1 for w in found)

    @pytest.mark.parametrize(
        "space",
        [
            builtin_space("kissat_small"),
            space_from([("a", "1", ("0",)), ("b", "x", ("y", "z")), ("c", "0", ("1", "2", "3"))]),
            binary_space(4),
        ],
        ids=["kissat_small", "mixed_2x3x4", "binary_4"],
    )
    def test_every_strategy_and_index_equals_the_reference(self, space):
        for v in all_strategies(space):
            expected = reference_neighbors(space, v)
            assert [decode(space, w) for w in all_neighbors(space, rank_of(space, v))] == expected

    def test_symmetry_exhaustive(self):
        space = space_from([("a", "1", ("0", "2")), ("b", "x", ("y",)), ("c", "0", ("1", "2", "3"))])
        assert len(all_strategies(space)) <= 256
        universe = [rank_of(space, v) for v in all_strategies(space)]
        table = {v: set(all_neighbors(space, v)) for v in universe}
        for v in universe:
            for w in universe:
                assert (w in table[v]) == (v in table[w])

    def test_deterministic_order(self, small_space):
        v = rank_of(small_space, default_strategy(small_space))
        assert all_neighbors(small_space, v) == all_neighbors(small_space, v)
        first = neighbors(small_space, v, 0)
        assert decode(small_space, first).assignments == ("0", "1", "1", "1", "2", "6")


class TestCodeTable:
    """One value -> code lookup validates and encodes; ``strategy`` decodes."""

    CASES = [
        (("1", "1", "1", "1", "2"), "strategy has 5 assignments, space has 6 parameters"),
        (("1", "1", "1", "1", "2", "7"), "value '7' is not legal for parameter 'tier2'"),
        (("9", "1", "1", "1", "2", "6"), "value '9' is not legal for parameter 'chrono'"),
    ]

    @pytest.mark.parametrize("assignments,message", CASES, ids=["length", "unknown", "other_domain"])
    def test_every_entry_point_raises_the_same_message(self, small_space, assignments, message):
        strategy = Strategy(assignments)
        for call in (
            lambda: small_space.codes(strategy),
            lambda: run_chain(small_space, lambda codes: 1.0, strategy, 1, SamplerConfig()),
        ):
            with pytest.raises(ValueError) as excinfo:
                call()
            assert str(excinfo.value) == message

    def test_cached_tables_change_neither_equality_nor_hash(self):
        def fresh():
            return parse_space(serialize_space(builtin_space("kissat_small")))

        used, untouched = fresh(), fresh()
        v = default_strategy(used)
        decode(used, neighbors(used, rank_of(used, v), 0))
        assert used.domains[0].codes == {"1": 0, "0": 1}
        assert used == untouched and hash(used) == hash(untouched)
        for a, b in zip(used.domains, untouched.domains):
            assert a == b and hash(a) == hash(b)
        assert parse_space(serialize_space(used)) == used
        assert serialize_space(used) == serialize_space(untouched)


class TestEncodeFeatures:
    def test_defaults_encode_to_zero(self, small_space):
        v = default_strategy(small_space)
        assert encode_features(small_space.codes(v), 7) == (0, 0, 0, 0, 0, 0, 7)

    def test_alternative_positions(self, small_space):
        v = Strategy(("1", "1", "2", "1", "2", "9"))
        assert encode_features(small_space.codes(v), 3) == (0, 0, 2, 0, 0, 2, 3)

    def test_index_zero(self, small_space):
        v = default_strategy(small_space)
        assert encode_features(small_space.codes(v), 0)[-1] == 0

    def test_strategy_inverts_codes(self, small_space):
        for v in all_strategies(small_space):
            assert small_space.strategy(small_space.codes(v)) == v

    def test_injective_over_strategy_and_index(self):
        space = space_from([("a", "1", ("0", "2")), ("b", "0", ("1",))])
        seen = {}
        for v in all_strategies(space):
            for index in range(3):
                code = encode_features(space.codes(v), index)
                assert code not in seen, f"collision with {seen[code]}"
                seen[code] = (v, index)


# Hypothesis machinery for random valid spaces -------------------------------

_token = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=4)


@st.composite
def spaces(draw):
    k = draw(st.integers(min_value=1, max_value=4))
    names = draw(
        st.lists(_token, min_size=k, max_size=k, unique=True)
    )
    domains = []
    for name in names:
        values = draw(st.lists(_token, min_size=2, max_size=4, unique=True))
        domains.append(ParameterDomain(name, values[0], tuple(values[1:])))
    return StrategySpace(tuple(domains))


@settings(max_examples=75, deadline=None)
@given(spaces())
def test_parse_serialize_round_trip(space):
    assert parse_space(serialize_space(space)) == space


@settings(max_examples=50, deadline=None)
@given(spaces(), st.integers(min_value=0, max_value=1000))
def test_neighbor_count_formula(space, index):
    start = default_strategy(space)
    v = space.codes(start)
    assert len(space.moves) == sum(d.size - 1 for d in space.domains)
    assert [decode(space, w) for w in all_neighbors(space, space.rank(v))] == reference_neighbors(space, start)
    # encoding stays within the ordinal ranges
    code = encode_features(v, index)
    assert code[-1] == index and all(c == 0 for c in code[:-1])
