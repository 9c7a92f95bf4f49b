import random
from itertools import combinations, combinations_with_replacement, product
from math import comb

import pytest

from mazelab import bridge, multisets
from mazelab.errors import EnumerationLimitError
from mazelab.multisets import (
    MultiSet,
    all_cardinality_multisets,
    compositions,
    covering_count,
    covering_counts,
    covering_sets,
    enumerate_sub_multisets,
    enumerate_supported,
    support_lift,
    table_count,
    tables,
)


def ms(*names):
    return MultiSet(list(names))


def support_project(name):
    """Undo support_lift on a single tagged name: the oracle that projects
    a lifted instance back to its element."""
    return name.rsplit(multisets.LIFT_SEP, 1)[0]


def test_construction_canonical():
    assert ms("b", "a", "a") == MultiSet({"a": 2, "b": 1})
    assert MultiSet({"a": 0}) == MultiSet()
    assert ms("a", "a", "b").cardinality == 3
    assert ms("a", "a", "b").degree == 2
    assert ms("a", "a", "a", "b", "b").degree == 12


@pytest.mark.parametrize("mult", [1.5, 2.0, True, "2"])
def test_multiset_refuses_non_int_multiplicities(mult):
    with pytest.raises(ValueError, match="multiplicity"):
        MultiSet({"a": mult})
    with pytest.raises(ValueError, match="multiplicity"):
        MultiSet([("b", 1), ("a", mult)])


def test_operations():
    a = ms("a", "a", "b")
    b = ms("a", "c")
    assert a.disjoint_union(b) == ms("a", "a", "a", "b", "c")
    assert a.union(b) == ms("a", "a", "b", "c")
    assert a.intersection(b) == ms("a")
    assert a.difference(ms("a", "b", "b")) == ms("a")
    assert ms("a", "a").product(ms("x")) == MultiSet({"a,x": 2})


def test_is_sub():
    assert ms("a").is_sub(ms("a", "a"))
    assert not ms("a", "a", "a").is_sub(ms("a", "a"))
    assert MultiSet().is_sub(MultiSet())


def test_algebra_properties_random():
    rng = random.Random(3)
    names = ["a", "b", "c", "d"]
    for _ in range(100):
        a = MultiSet({n: rng.randint(0, 3) for n in names})
        b = MultiSet({n: rng.randint(0, 3) for n in names})
        assert a.disjoint_union(b).cardinality == a.cardinality + b.cardinality
        assert a.intersection(b).is_sub(a)
        assert a.is_sub(a.union(b))


def test_support_lift():
    assert support_lift(ms("x", "x", "y")) == ("x#1", "x#2", "y#1")
    assert support_lift(ms("a")) == ("a#1",)
    assert support_lift(MultiSet()) == ()
    assert support_project("x#2") == "x"


def test_support_lift_cardinality():
    for m in [ms(), ms("a"), ms("a", "a", "b"), ms("q", "q", "q")]:
        assert len(support_lift(m)) == m.cardinality


def test_enumerate_supported_set():
    got = enumerate_supported({"a", "b", "c"}, 4)
    assert got == [
        ms("a", "a", "b", "c"),
        ms("a", "b", "b", "c"),
        ms("a", "b", "c", "c"),
    ]
    assert enumerate_supported({"a"}, 1) == [ms("a")]
    assert enumerate_supported({"a", "b"}, 1) == []
    assert enumerate_supported(set(), 0) == [MultiSet()]
    assert enumerate_supported(set(), 2) == []


def test_enumerate_supported_multiset_lifts():
    # A multi-set support enumerates over its tagged instances; projecting
    # the tags away reproduces the plain multi-sets (with collisions).
    n = ms("x", "x", "y")
    lifted = enumerate_supported(n, 4)
    assert len(lifted) == 3
    projected = [
        MultiSet([support_project(e) for e in m.elements()]) for m in lifted
    ]
    assert projected == [ms("x", "x", "x", "y"), ms("x", "x", "x", "y"),
                         ms("x", "x", "y", "y")]


def test_enumerate_supported_stars_and_bars():
    for size in range(1, 5):
        support = {f"e{i}" for i in range(size)}
        for n in range(size, 9):
            assert len(enumerate_supported(support, n)) == comb(n - 1, size - 1)


def test_enumerate_sub_multisets():
    assert enumerate_sub_multisets(ms("a", "a")) == [ms(), ms("a"), ms("a", "a")]
    assert enumerate_sub_multisets(ms("a", "b")) == \
        [ms(), ms("a"), ms("b"), ms("a", "b")]
    assert enumerate_sub_multisets(ms()) == [ms()]


def test_enumeration_guard():
    with pytest.raises(EnumerationLimitError):
        enumerate_supported({f"e{i}" for i in range(30)}, 60)
    with pytest.raises(EnumerationLimitError):
        enumerate_sub_multisets(MultiSet({f"e{i}": 3 for i in range(15)}))


def test_tables_margins():
    assert list(tables([("a", 2)], [("x", 1)])) == []
    assert list(tables([], [("x", 1)])) == []
    assert list(tables([("a", 0)], [])) == [{}]
    assert list(tables([], [])) == [{}]
    got = list(tables([("a", 2), ("b", 1)], [("x", 1), ("y", 2)]))
    assert sorted(sorted(t.items()) for t in got) == [
        [(("a", "x"), 1), (("a", "y"), 1), (("b", "y"), 1)],
        [(("a", "y"), 2), (("b", "x"), 1)],
    ]


def tables_oracle(rows, cols):
    """Every table with the margins by brute force: each cell, row by row,
    from 0 to the smaller of its two margins, kept when the margins hold;
    a table is its nonzero cells in that order."""
    cells = [(x, y) for x, _ in rows for y, _ in cols]
    caps = [min(r, c) for _, r in rows for _, c in cols]
    out = []
    for values in product(*(range(cap + 1) for cap in caps)):
        grid = dict(zip(cells, values))
        if all(sum(grid[x, y] for y, _ in cols) == r for x, r in rows) and \
                all(sum(grid[x, y] for x, _ in rows) == c for y, c in cols):
            out.append([(cell, v) for cell, v in zip(cells, values) if v])
    return out


def margins_up_to(total, length):
    """Every margin of at most `length` counts summing to at most `total`,
    zeros and the empty margin included."""
    return [counts for k in range(length + 1)
            for counts in product(range(total + 1), repeat=k)
            if sum(counts) <= total]


def listed(rows, cols):
    return [list(t.items()) for t in tables(rows, cols)]


def test_tables_with_one_row_or_column_match_the_oracle():
    for one in range(5):
        for counts in margins_up_to(4, 4):
            line = [("a", one)]
            other = list(zip("wxyz", counts))
            assert listed(line, other) == tables_oracle(line, other)
            other = list(zip("abcd", counts))
            line = [("x", one)]
            assert listed(other, line) == tables_oracle(other, line)


def test_tables_of_two_and_three_lines_match_the_oracle_in_order():
    # The recursive path: every pair of margins of two or three counts
    # with equal sums up to 4.
    margins = [m for m in margins_up_to(4, 3) if len(m) >= 2]
    found = 0
    for r, c in product(margins, margins):
        if sum(r) == sum(c):
            rows, cols = list(zip("abc", r)), list(zip("xyz", c))
            got = listed(rows, cols)
            assert got == tables_oracle(rows, cols)
            found += len(got)
    assert found == 1205


def test_table_count_counts_what_tables_lists():
    # Every pair of margins of up to four counts, zeros among them, with
    # sums up to 5, and wide unit margins the listing could not reach.
    margins = margins_up_to(5, 4)
    for r, c in product(margins, margins):
        assert table_count(r, c) == len(listed(list(enumerate(r)),
                                               list(enumerate(c)))), (r, c)
    assert table_count((1,) * 10, (1,) * 10) == 3628800
    assert table_count((2, 2, 2), (3, 3)) == 7
    assert table_count((1,) * 40, (40,)) == 1


def test_json_roundtrip():
    m = ms("b", "a", "a")
    assert MultiSet.from_json(m.to_json()) == m


def test_compositions_run_largest_first_at_any_length():
    for total in range(8):
        for parts in range(5):
            assert compositions(total, parts) == sorted(
                (c for c in product(range(1, total + 1), repeat=parts)
                 if sum(c) == total), reverse=True), (total, parts)
    # A thousand parts, one of them 2, from first to last: the listing
    # goes part by part, so no recursion limit stops it.
    many = compositions(1001, 1000)
    assert len(many) == 1000
    assert many[0] == (2,) + (1,) * 999 and many[-1] == (1,) * 999 + (2,)


def cardinality_multisets_oracle(universe, n):
    """The enumeration as it was written before it went through
    compositions: one multi-set per combination with replacement."""
    universe = tuple(sorted(set(universe)))
    if n == 0:
        return [MultiSet()]
    if not universe:
        return []
    return sorted((MultiSet(list(combo))
                   for combo in combinations_with_replacement(universe, n)),
                  key=MultiSet.sort_key)


@pytest.mark.parametrize("universe", [
    "", "1", "21", "123", "4321", "abcd", "aab", ["b", "a", "b", "c"],
    ("x", "y", "x", "y", "z", "w")])
def test_all_cardinality_multisets_matches_the_oracle(universe):
    for n in range(6):
        want = cardinality_multisets_oracle(universe, n)
        got = all_cardinality_multisets(universe, n)
        assert got == want
        assert [hash(m) for m in got] == [hash(m) for m in want]
        assert bridge.all_cardinality_multisets(universe, n) == want


@pytest.mark.parametrize("universe", [["a", ""], [2, 1], [("a",), ("b",)]])
def test_all_cardinality_multisets_refuses_what_multi_sets_refuse(universe):
    # The multi-sets are built unchecked, so the names are checked first.
    for n in range(3):
        with pytest.raises(ValueError, match="invalid element name"):
            all_cardinality_multisets(universe, n)


def test_all_cardinality_multisets_guard_trips_first(monkeypatch):
    def fail(*args):
        raise AssertionError("compositions ran before the guard")

    monkeypatch.setattr(multisets, "compositions", fail)
    with pytest.raises(EnumerationLimitError,
                       match="^all_cardinality_multisets "):
        bridge.all_cardinality_multisets("abcd", 200)


@pytest.mark.parametrize("a, b", list(product(range(5), repeat=2)))
def test_covering_counts_count_the_covering_sets_at_every_cap(a, b):
    counts = dict(covering_counts(a, b))
    for cap in range(a * b + 1):
        sets = covering_sets(a, b, cap)
        assert len(sets) == sum(c for s, c in counts.items() if s <= cap)
        assert len(set(sets)) == len(sets)
        assert all(list(cover) == sorted(cover) for cover in sets)


@pytest.mark.parametrize("a, b", list(product(range(4), repeat=2)))
def test_covering_sets_are_the_covering_subsets_by_brute_force(a, b):
    cells = range(a * b)
    for cap in range(a * b + 1):
        brute = {chosen for k in range(cap + 1)
                 for chosen in combinations(cells, k)
                 if {i // b for i in chosen} == set(range(a))
                 and {i % b for i in chosen} == set(range(b))}
        assert set(covering_sets(a, b, cap)) == brute


def test_covering_count_convolves_the_shapes_up_to_n():
    shapes = [(2, 2), (1, 3), (3, 2)]
    for n in range(14):
        families = [sizes for sizes in product(*(
            [len(cover) for cover in covering_sets(a, b, a * b)]
            for a, b in shapes)) if sum(sizes) <= n]
        assert covering_count(shapes, n) == len(families)
    assert covering_count([], 0) == 1
    # The covering subsets of loop x5 after loop x5: the edge covers of
    # K5,5, on which plain composition is refused.
    assert covering_count([(5, 5)], 25) == 24997921


def test_covering_count_of_a_wide_point_is_a_bound_past_the_guard():
    # A line has its one covering set at any length; a point of two sides
    # above 1 wider than the guard's bits is refused on 2^bits at once.
    assert covering_count([(1, 10**6), (10**6, 1)], 2 * 10**6) == 1
    bits = multisets.ENUM_LIMIT.bit_length()
    assert covering_count([(2, bits + 1)], 2 * bits + 2) == 1 << bits
    # Up to the bits the count is exact: each column is one of three
    # nonempty subsets of two rows, and two choices leave a row empty.
    assert covering_count([(2, bits)], 2 * bits) == 3**bits - 2
