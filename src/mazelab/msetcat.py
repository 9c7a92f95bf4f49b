"""The multi-set category: multations and their composition.

A multation A -> B is a sub-multi-set of A x B whose marginals are
exactly A and B; it generalizes a permutation.  Read as a formal product
of divided powers of its columns, composition multiplies those products:
each repeated column z appearing with exponents i and j merges into
z^(i+j) with a binomial factor, and matching middle letters are summed
over all ways of pairing them off.

Compositions are computed in integers: each matching contributes the
merged columns' degree divided by its table's factorials, a product of
multinomials, and every such division is asserted exact.  The
divided-power structure guarantees integrality, so a failure means a
bug.  Composites join the composed ends by construction, so they skip
the validating constructors, which serve input from outside.

A middle letter's matchings depend only on the multiplicities of its
incoming and outgoing columns, so they are kept by that shape (85 up to
multiplicity 4), as cells by index, and the letters are put in on use.
The structure constants of MSet_n compose each pair they are asked for;
the presentation check asks only for the divided powers' columns.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct
from math import factorial, prod

from .errors import DomainMismatchError, IntegralityError
from .multisets import (CONSTANTS_KEPT, MultiSet, all_cardinality_multisets,
                        guard_count, json_int, table_count, tables)
from .scalars import HomComb, LinComb, StructureConstants


class Multation:
    """A multation between multi-sets of equal cardinality.

    `pairs` maps columns (a, b) to positive multiplicities; the multi-set
    of first coordinates must equal dom and of second coordinates cod.
    """

    __slots__ = ("dom", "cod", "pairs", "_hash")

    def __init__(self, dom: MultiSet, cod: MultiSet, pairs):
        if hasattr(pairs, "items"):
            pairs = pairs.items()
        counts = {}
        for (a, b), mult in pairs:
            if json_int(mult, "multiplicity") <= 0:
                raise ValueError("column multiplicities must be positive")
            counts[(a, b)] = counts.get((a, b), 0) + mult
        firsts = {}
        seconds = {}
        for (a, b), mult in counts.items():
            firsts[a] = firsts.get(a, 0) + mult
            seconds[b] = seconds.get(b, 0) + mult
        if tuple(sorted(firsts.items())) != dom.items():
            raise ValueError("first coordinates do not reproduce the domain")
        if tuple(sorted(seconds.items())) != cod.items():
            raise ValueError("second coordinates do not reproduce the codomain")
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "cod", cod)
        object.__setattr__(self, "pairs", tuple(sorted(counts.items())))
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _trusted(cls, dom: MultiSet, cod: MultiSet, pairs):
        """A multation whose sorted, merged, positive `pairs` have the
        marginals dom and cod by construction, so they are not derived
        again."""
        mu = object.__new__(cls)
        object.__setattr__(mu, "dom", dom)
        object.__setattr__(mu, "cod", cod)
        object.__setattr__(mu, "pairs", pairs)
        object.__setattr__(mu, "_hash", None)
        return mu

    def __setattr__(self, name, value):
        raise AttributeError("Multation is immutable")

    @classmethod
    def identity(cls, a: MultiSet):
        """iota_A: every element paired off with itself; the support of a
        is sorted, so the columns (x, x) are too."""
        return cls._trusted(a, a, tuple(((x, x), m) for x, m in a.items()))

    @property
    def degree(self) -> int:
        out = 1
        for _, m in self.pairs:
            out *= factorial(m)
        return out

    @property
    def cardinality(self) -> int:
        return sum(m for _, m in self.pairs)

    def columns(self):
        """Columns with multiplicity, in canonical order."""
        out = []
        for col, m in self.pairs:
            out.extend([col] * m)
        return out

    def __eq__(self, other):
        return (isinstance(other, Multation) and self.dom == other.dom
                and self.cod == other.cod and self.pairs == other.pairs)

    def __hash__(self):
        # Derived on first use: most multations are sorted, never hashed.
        if self._hash is None:
            object.__setattr__(self, "_hash",
                               hash((self.dom, self.cod, self.pairs)))
        return self._hash

    def sort_key(self):
        return (self.dom.sort_key(), self.cod.sort_key(), self.pairs)

    def __repr__(self):
        cols = self.columns()
        top = " ".join(a for a, _ in cols)
        bot = " ".join(b for _, b in cols)
        return f"[{top}; {bot}]"

    def to_json(self):
        return {
            "dom": self.dom.to_json(),
            "cod": self.cod.to_json(),
            "pairs": [[[a, b], m] for (a, b), m in self.pairs],
        }

    @classmethod
    def from_json(cls, data):
        return cls(
            MultiSet.from_json(data["dom"]),
            MultiSet.from_json(data["cod"]),
            [((a, b), json_int(m, "multiplicity"))
             for (a, b), m in data["pairs"]],
        )


class MultHom(HomComb):
    """A formal linear combination of multations sharing dom and cod."""

    __slots__ = ()
    basis = Multation

    @staticmethod
    def norm_ends(ends):
        return ends

    ends_to_json = staticmethod(MultiSet.to_json)
    ends_from_json = staticmethod(MultiSet.from_json)


def _matchings(rows, cols):
    """The tables() between margins of these multiplicities, in its order,
    each as its cells (i, j, t) by the margins' indices and the product of
    the cells' factorials: a middle letter's matchings, by shape."""
    return tuple(
        (cells, prod(factorial(t) for _, _, t in cells))
        for cells in (tuple((i, j, t) for (i, j), t in table.items())
                      for table in tables(enumerate(rows), enumerate(cols))))


# Every shape of a letter up to multiplicity 5, 85 + 256 of them of at most
# 5! tables; a larger one is counted, then listed per call, as 8! tables
# hold 26 MB.
_kept_matchings = lru_cache(maxsize=341)(_matchings)


def multation_compose(mu: Multation, nu: Multation) -> MultHom:
    """Compose mu . nu by summing over all ways of matching middle letters.

    Equal middle letters are grouped; for each letter the pairings of
    incoming against outgoing columns are enumerated as contingency tables
    rather than raw permutations, which collapses the equal terms up front.
    """
    if nu.cod != mu.dom:
        raise DomainMismatchError(
            f"cannot compose: middle multi-sets differ ({nu.cod!r} vs {mu.dom!r})")
    middle = nu.cod

    # The pairs are sorted, so each letter's columns come in letter order.
    # A larger letter stays a shape until the guard has passed: it is
    # counted from its margins, for 10 unit columns each way hold 10!
    # tables.  The count is exact, so the guard decides as on the listing.
    ends, per_letter, large, count = [], [], [], 1
    for b, size in middle.items():
        into = [(a, m) for (a, b2), m in nu.pairs if b2 == b]
        out = [(c, m) for (b2, c), m in mu.pairs if b2 == b]
        ends.append(([a for a, _ in into], [c for c, _ in out]))
        shape = tuple(m for _, m in into), tuple(m for _, m in out)
        if size <= 5:
            per_letter.append(_kept_matchings(*shape))
            count *= len(per_letter[-1])
        else:
            large.append(len(per_letter))
            per_letter.append(shape)
            count *= table_count(*shape)

    guard_count(count, "multation_compose",
                lambda: f"cardinality {middle.cardinality}")
    for k in large:
        per_letter[k] = _matchings(*per_letter[k])

    # Each family pairs every incoming column of a middle letter with an
    # outgoing one, so the merged columns' marginals are nu.dom and mu.cod.
    accum = {}
    for family in iproduct(*per_letter):
        cols = {}
        table_factor = 1
        for (into, out), (cells, factor) in zip(ends, family):
            table_factor *= factor
            for i, j, t in cells:
                col = into[i], out[j]
                cols[col] = cols.get(col, 0) + t
        basis = Multation._trusted(nu.dom, mu.cod, tuple(sorted(cols.items())))
        coeff, rest = divmod(basis.degree, table_factor)
        if rest:
            raise IntegralityError(
                f"non-integral composition coefficient "
                f"{basis.degree}/{table_factor} at {basis!r}")
        accum[basis] = accum.get(basis, 0) + coeff

    return MultHom._trusted(nu.dom, mu.cod, LinComb._trusted(
        {b: Fraction(c) for b, c in accum.items()}))


def multhom_compose(f: MultHom, g: MultHom) -> MultHom:
    """Bilinear extension of multation composition (f after g)."""
    if g.cod != f.dom:
        raise DomainMismatchError("cannot compose: middle multi-sets differ")
    accum = {}
    for mu, c in f.comb:
        for nu, d in g.comb:
            for basis, e in multation_compose(mu, nu).comb:
                accum[basis] = accum.get(basis, 0) + c * d * e
    return MultHom._trusted(g.dom, f.cod, LinComb._trusted(accum))


def all_multations(a: MultiSet, b: MultiSet):
    """All multations a -> b, in canonical order (empty if |a| != |b|)."""
    if a.cardinality != b.cardinality:
        return []
    # A table lists its positive cells row by row: canonical.
    out = [Multation._trusted(a, b, tuple(t.items()))
           for t in tables(a.items(), b.items())]
    return sorted(out, key=Multation.sort_key)


@lru_cache(maxsize=CONSTANTS_KEPT)
def mset_structure_constants(universe, n: int) -> StructureConstants:
    """Composition in the degree-n multation category over a universe, a
    sorted tuple of letters, kept for the last few asked for: the
    multations between every two cardinality-n multi-sets over it, in
    all_multations order, and each column of composites asked for, in
    integers (see StructureConstants)."""
    objs = all_cardinality_multisets(universe, n)
    return StructureConstants(
        {(a, b): all_multations(a, b) for a in objs for b in objs},
        multation_compose)


@lru_cache(maxsize=CONSTANTS_KEPT)
def divided_powers(universe, n: int):
    """The divided powers of adjacent letters in degree n over a sorted
    universe: the basis multations with one column x -> y off the diagonal,
    x and y adjacent, which pair copies of x with y and the rest of the
    domain with itself.  With the identities they generate MSet_n over Z
    (S. Doty and A. Giaquinto, "Presenting Schur algebras", IMRN 2002)."""
    adjacent = {*zip(universe, universe[1:]), *zip(universe[1:], universe)}
    return tuple(mu for mu in mset_structure_constants(universe, n).index
                 if len(off := [c for c, _ in mu.pairs if c[0] != c[1]]) == 1
                 and off[0] in adjacent)


def mset2_generators():
    """The three non-identity basis multations of the degree-2 skeleton."""
    m11 = MultiSet(["1", "1"])
    m12 = MultiSet(["1", "2"])
    alpha = Multation(m11, m12, [(("1", "1"), 1), (("1", "2"), 1)])
    beta = Multation(m12, m11, [(("1", "1"), 1), (("2", "1"), 1)])
    sigma = Multation(m12, m12, [(("1", "2"), 1), (("2", "1"), 1)])
    return {"alpha": alpha, "beta": beta, "sigma": sigma}


def mset2_table():
    """All pairwise composites of the degree-2 generators, read off the
    degree-2 structure constants over the letters 1, 2.

    Returns a dict (row, col) -> MultHom for row . col where the pair is
    composable, None where it is not.
    """
    return mset_structure_constants(("1", "2"), 2).table(
        MultHom, mset2_generators())
