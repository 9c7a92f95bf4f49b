"""Finite multi-sets over an ordered universe of named elements.

A multi-set is a map from element names to positive multiplicities.  The
cardinality counts elements with multiplicity; the degree is the product
of the factorials of the multiplicities, which is the symmetry factor
that divided-power bookkeeping keeps dividing by.

Elements are short strings compared lexicographically.
"""

from functools import lru_cache
from itertools import combinations, product
from math import comb, factorial, prod

from .errors import EnumerationLimitError, Immutable

# Ceiling on the number of items any enumeration in the package may
# produce.  Composition sums are exponential in passage count; desk scale
# keeps well under this.
ENUM_LIMIT = 2**20

# How many structure-constant sets each category keeps per process, the
# most recently used: a presentation's check keeps its generators'
# columns, and compose_in_laby_n the Laby_n blocks it asks for; every
# block of Laby_5 filled holds 3255542 composites.
CONSTANTS_KEPT = 4


def json_int(value, what: str) -> int:
    """An integer read from JSON, such as a multiplicity or a matrix
    entry: an int, never a float, string or bool, so that 1.5 is refused
    rather than truncated.  `what` names the value in the error."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} {value!r} is not an integer")
    return value


def json_list(value, what: str):
    """A list read from JSON, such as a maze's ends: never a string, which
    unpacking takes apart letter by letter.  `what` names it in errors."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{what} {value!r} is not a list")
    return value


def check_names(names):
    """Refuse, as MultiSet does, any name that is not a nonempty string;
    for the callers that then build multi-sets over the names unchecked."""
    for name in names:
        if not isinstance(name, str) or not name:
            raise ValueError(f"invalid element name {name!r}")


class MultiSet(Immutable):
    """Immutable multi-set with canonically sorted support."""

    __slots__ = ("_items", "_hash")

    def __init__(self, elements=()):
        """Build from an iterable of names, or of (name, multiplicity) pairs,
        or a mapping name -> multiplicity."""
        counts = {}
        if hasattr(elements, "items"):
            pairs = elements.items()
        else:
            elements = list(elements)
            if elements and isinstance(elements[0], tuple) and len(elements[0]) == 2 \
                    and isinstance(elements[0][1], int):
                pairs = elements
            else:
                pairs = [(name, 1) for name in elements]
        for name, mult in pairs:
            if not isinstance(name, str) or not name:
                raise ValueError(f"invalid element name {name!r}")
            if json_int(mult, "multiplicity") < 0:
                raise ValueError(f"negative multiplicity for {name!r}")
            if mult:
                counts[name] = counts.get(name, 0) + mult
        self._store(tuple(sorted(counts.items())))

    @classmethod
    def _trusted(cls, items):
        """A multi-set from package arithmetic, unchecked: (name, positive
        int) pairs, each nonempty string name once, sorted by name."""
        ms = object.__new__(cls)
        ms._store(items)
        return ms

    def _store(self, items):
        object.__setattr__(self, "_items", items)
        # A tuple of names and ints hashes in C, cheaply, so at once.
        object.__setattr__(self, "_hash", hash(items))

    def items(self):
        return self._items

    @property
    def support(self):
        return tuple(name for name, _ in self._items)

    @property
    def cardinality(self) -> int:
        return sum(m for _, m in self._items)

    @property
    def degree(self) -> int:
        return prod(factorial(m) for _, m in self._items)

    def elements(self):
        """All elements with multiplicity, in canonical order."""
        return [name for name, m in self._items for _ in range(m)]

    def __eq__(self, other):
        return isinstance(other, MultiSet) and self._items == other._items

    def __hash__(self):
        return self._hash

    def sort_key(self):
        return self._items

    def __repr__(self):
        return "{" + ",".join(self.elements()) + "}"

    def to_json(self):
        return [[name, mult] for name, mult in self._items]

    @classmethod
    def from_json(cls, data):
        return cls([(name, json_int(mult, "multiplicity"))
                    for name, mult in data])


def guard_count(count: int, operation: str, sizes):
    """Refuse an enumeration whose estimate `count` passes ENUM_LIMIT,
    before any of it runs; the error names the operation and its input
    sizes, the text `sizes()` returns, formatted only on a refusal."""
    if count > ENUM_LIMIT:
        raise EnumerationLimitError(
            f"{operation} ({sizes()}): an estimated {count} items exceed the "
            f"guard of {ENUM_LIMIT}")


def compositions(total: int, parts: int):
    """All tuples of `parts` positive integers summing to `total`.

    Ordered with earlier parts largest first, which is the conventional
    display order for multi-sets of fixed support and growing tail.
    """
    if parts == 0:
        return [()] if total == 0 else []
    if total <= parts:  # all ones, or none
        return [(1,) * parts] if total == parts else []
    guard_count(comb(total - 1, parts - 1), "compositions",
                lambda: f"total {total}, parts {parts}")
    # Part by part, each prefix followed by its extensions in turn: the
    # order of a depth-first listing, without its recursion depth.
    level = [((), total)]
    for slots in range(parts, 1, -1):
        level = [(prefix + (first,), remaining - first)
                 for prefix, remaining in level
                 for first in range(remaining - slots + 1, 0, -1)]
    return [prefix + (remaining,) for prefix, remaining in level]


def all_cardinality_multisets(universe, n: int):
    """All multi-sets of cardinality n with support inside the universe,
    in canonical order: each composition of n + |universe| into
    |universe| parts gives every letter a part one more than its
    multiplicity."""
    universe = tuple(sorted(set(universe)))
    guard_count(comb(max(len(universe) + n - 1, 0), n),
                "all_cardinality_multisets",
                lambda: f"universe {len(universe)}, cardinality {n}")
    check_names(universe)
    return sorted(
        (MultiSet._trusted(tuple((x, d - 1) for x, d in zip(universe, parts)
                                 if d > 1))
         for parts in compositions(n + len(universe), len(universe))),
        key=MultiSet.sort_key)


def tables(row_counts, col_counts):
    """All nonnegative integer matrices with the given row and column sums.

    row_counts / col_counts are (name, nonnegative count) sequences;
    yields dicts (row_name, col_name) -> positive count.  Margins with
    unequal sums give nothing; empty margins give one empty table.
    Multations, the middle matchings of their composition and pure mazes
    are all such tables.
    """
    rows = list(row_counts)
    cols = list(col_counts)
    if sum(c for _, c in rows) != sum(c for _, c in cols):
        return
    if len(rows) == 1 or len(cols) == 1:
        # The margins force the only table: each cell is the smaller of
        # its two margins, since the single line's count is the total.
        yield {(x, y): min(r, c) for x, r in rows for y, c in cols if r and c}
        return

    def rec(i, remaining, acc):
        if i == len(rows):
            if all(r == 0 for r in remaining):
                yield dict(acc)
            return
        name, need = rows[i]

        def fill(j, left, partial):
            if j == len(cols):
                if left == 0:
                    yield partial
                return
            cap = min(left, remaining[j])
            for take in range(cap + 1):
                yield from fill(j + 1, left - take, partial + [take])

        for row in fill(0, need, []):
            for j, take in enumerate(row):
                remaining[j] -= take
            yield from rec(i + 1, remaining,
                           acc + [((name, cols[j][0]), t)
                                  for j, t in enumerate(row) if t])
            for j, take in enumerate(row):
                remaining[j] += take

    yield from rec(0, [c for _, c in cols], [])


@lru_cache(maxsize=256)
def table_count(rows, cols) -> int:
    """The number of tables with these row and column sums (tuples of
    counts), found without listing them.  Row by row, each way to fill a
    row from the column sums left is counted once per resulting multi-set
    of sums left: the g columns with v left, k_t of them taking t, give
    g! / prod k_t! ways.  The count does not depend on the columns'
    order, so the sums left are kept sorted, and equal ones merge."""
    if sum(rows) != sum(cols):
        return 0
    level = {tuple(sorted(cols)): 1}
    for r in rows:
        step = {}
        for left, count in level.items():
            fills = [((), r, count)]  # sums left, units to place, ways
            for v in sorted(set(left)):
                grown = []
                for done, need, ways in fills:
                    parts = [(done, need, ways, left.count(v))]
                    for t in range(1, min(v, need) + 1):
                        parts = [(d + (v - t,) * k, rest - t * k,
                                  w * comb(free, k), free - k)
                                 for d, rest, w, free in parts
                                 for k in range(min(free, rest // t) + 1)]
                    grown += [(d + (v,) * free, rest, w)
                              for d, rest, w, free in parts]
                fills = grown
            for done, need, ways in fills:
                if not need:
                    key = tuple(sorted(x for x in done if x))
                    step[key] = step.get(key, 0) + ways
        level = step
    return sum(level.values())


@lru_cache(maxsize=64)  # the shapes and caps of composition at degree 4
def covering_sets(a: int, b: int, cap: int):
    """Every a x b 0/1 matrix with no zero row or column and at most `cap`
    ones, as the increasing tuple of its ones' cells, (i, j) numbered
    i b + j: a middle point's share of a covering subset in maze
    composition, since each pair and each instance passes one point.  A
    row is added only if the matrix can still be completed, so the work
    follows the output, which callers guard by covering_count."""
    level = [((), 0, 0)]  # the cells so far, the columns hit, the ones
    for i in range(a):
        later, grown = a - 1 - i, []
        for chosen, hit, ones in level:
            empty = [j for j in range(b) if not hit >> j & 1]
            full = [j for j in range(b) if hit >> j & 1]
            # k empty columns, then up to `spare` hit ones, one in all at
            # least: the rows left need a one each and the empty columns
            # one each, so the last row takes every empty column.
            for k in range(0 if later else len(empty), len(empty) + 1):
                spare = cap - ones - k - max(later, len(empty) - k)
                for new in combinations(empty, k) if spare >= (k == 0) else ():
                    now = hit | sum(1 << j for j in new)
                    for r in range(k == 0, min(spare, len(full)) + 1):
                        grown.extend((chosen + tuple(
                            i * b + j for j in sorted(new + old)),
                            now, ones + k + r)
                            for old in combinations(full, r))
        level = grown
    # With no rows nothing above checks the columns.
    return tuple(chosen for chosen, hit, _ in level if hit == (1 << b) - 1)


@lru_cache(maxsize=256)
def covering_counts(a: int, b: int):
    """(s, count) for the a x b 0/1 matrices with no zero row or column
    and s ones, where nonzero: by inclusion-exclusion over the i rows and
    j columns kept empty, sum (-1)^(i + j) C(a, i) C(b, j) C((a - i)(b -
    j), s)."""
    if min(a, b) == 1:  # the one line is all ones
        return ((max(a, b), 1),)
    counts = [0] * (a * b + 1)
    for i, j in product(range(a + 1), range(b + 1)):
        cells = (a - i) * (b - j)
        term = (-1) ** (i + j) * comb(a, i) * comb(b, j)
        for s in range(cells + 1):
            counts[s] += term
            term = term * (cells - s) // (s + 1)  # the next binomial
    return tuple((s, count) for s, count in enumerate(counts) if count)


def covering_count(shapes, n: int) -> int:
    """The choices of one covering set per shape (a, b), n ones at most in
    all: the counts by size convolved up to n.  When the least sizes,
    max(a, b), fit in n, a shape of sides above 1 has surj(max(a, b),
    min(a, b)) >= 2^(max(a, b) - 1) covering sets, so one wider than the
    guard's bits gives 2^bits, refused as the exact count would be."""
    if sum(max(shape) for shape in shapes) > n:
        return 0
    bits, total = ENUM_LIMIT.bit_length(), {0: 1}
    for a, b in shapes:
        if min(a, b) > 1 and max(a, b) > bits:
            return 1 << bits
        step = {}
        for t, x in total.items():
            for s, y in covering_counts(a, b):
                if t + s <= n:
                    step[t + s] = step.get(t + s, 0) + x * y
        total = step
    return sum(total.values())


def enumerate_supported(s, n: int):
    """All multi-sets with support exactly `s`, an iterable of names, and
    cardinality `n`, in canonical (lexicographic) order."""
    names = tuple(sorted(set(s)))
    return [MultiSet(list(zip(names, degs)))
            for degs in compositions(n, len(names))]
