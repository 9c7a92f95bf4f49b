"""Exact scalar arithmetic and formal linear combinations.

Scalars are arbitrary-precision rationals (``fractions.Fraction``), which
already keeps them reduced with a positive denominator.  Nothing in this
package ever touches floating point.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb

from .errors import DomainMismatchError

ONE = Fraction(1)


def scalar(value) -> Fraction:
    """Coerce an int, string ("p" or "p/q") or Fraction to a scalar."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a scalar")


def scalar_str(value: Fraction) -> str:
    """Serialize as "p" or "p/q" in reduced form."""
    value = scalar(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def integer(x) -> int:
    """x as an int: ints pass, a Fraction must have denominator 1, and
    anything else (a bool or a float) is refused rather than truncated."""
    if type(x) is int or isinstance(x, int) and not isinstance(x, bool):
        return int(x)
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    raise ValueError(f"{x!r} is not an integer")


def binomial(r, k: int) -> int | Fraction:
    """Generalized binomial coefficient r(r-1)...(r-k+1) / k!.

    Defined for any rational r and natural k; k < 0 is rejected.  An int
    r gives an int, through math.comb and, for r < 0, the reflection
    binom(r, k) = (-1)^k binom(k - r - 1, k); any other r a Fraction.
    """
    if k < 0:
        raise ValueError(f"binomial undefined for k = {k} < 0")
    if isinstance(r, int) and not isinstance(r, bool):
        if r >= 0:
            return comb(r, k)
        return (-1) ** k * comb(k - r - 1, k)
    r = scalar(r)
    num = ONE
    for i in range(k):
        num *= r - i
    den = 1
    for i in range(2, k + 1):
        den *= i
    return num / den


@lru_cache(maxsize=256)
def surjections(t: int, r: int) -> int:
    """The number of maps of a t-set onto an r-set (inclusion-exclusion)."""
    return sum((-1)**j * comb(r, j) * (r - j)**t for j in range(r + 1))


def _canonical(merged):
    """The terms of a {basis: coefficient} dict without zeros, sorted; zero
    or one term is read off at once, with no list and no sort."""
    if len(merged) < 2:
        return tuple(merged.items()) if all(merged.values()) else ()
    kept = [(b, c) for b, c in merged.items() if c != 0]
    kept.sort(key=lambda bc: bc[0].sort_key())
    return tuple(kept)


class LinComb:
    """A formal linear combination over an ordered basis.

    Stored canonically: terms sorted by the basis element's ``sort_key()``,
    duplicates merged, zero coefficients dropped.  Instances are immutable;
    all operations return new combinations.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        merged = {}
        for basis, coeff in terms:
            coeff = scalar(coeff)
            if basis in merged:
                merged[basis] += coeff
            else:
                merged[basis] = coeff
        object.__setattr__(self, "terms", _canonical(merged))

    @classmethod
    def _trusted(cls, merged):
        """The combination of a {basis: Fraction} dict, unchecked."""
        comb = object.__new__(cls)
        object.__setattr__(comb, "terms", _canonical(merged))
        return comb

    def __setattr__(self, name, value):
        raise AttributeError("LinComb is immutable")

    def __iter__(self):
        return iter(self.terms)

    def __len__(self):
        return len(self.terms)

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, LinComb) and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __add__(self, other):
        return LinComb(self.terms + other.terms)

    def __sub__(self, other):
        return LinComb(self.terms + tuple((b, -c) for b, c in other.terms))

    def scale(self, factor):
        factor = scalar(factor)
        return LinComb((b, factor * c) for b, c in self.terms)

    def __repr__(self):
        if not self.terms:
            return "LinComb(0)"
        bits = " + ".join(f"{scalar_str(c)}*{b!r}" for b, c in self.terms)
        return f"LinComb({bits})"


class HomComb:
    """A formal linear combination of basis arrows sharing dom and cod.

    Subclasses name the basis class and how endpoints are normalized
    (``norm_ends``) and serialized (``ends_to_json``, ``ends_from_json``);
    equality is exact on type, so combinations from different categories
    never compare equal.  Instances are immutable.
    """

    __slots__ = ("dom", "cod", "comb")

    def __init__(self, dom, cod, comb: LinComb):
        dom = self.norm_ends(dom)
        cod = self.norm_ends(cod)
        for arrow, _ in comb:
            if arrow.dom != dom or arrow.cod != cod:
                raise ValueError("all terms must share dom and cod")
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "cod", cod)
        object.__setattr__(self, "comb", comb)

    @classmethod
    def _trusted(cls, dom, cod, comb: LinComb):
        """A combination from package arithmetic: dom and cod are already
        normalized ends and every term of comb joins them by construction,
        so neither is checked again."""
        h = object.__new__(cls)
        object.__setattr__(h, "dom", dom)
        object.__setattr__(h, "cod", cod)
        object.__setattr__(h, "comb", comb)
        return h

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls, dom, cod):
        return cls(dom, cod, LinComb())

    @classmethod
    def of(cls, arrow, coeff=ONE):
        """coeff * arrow: checked as by the constructor, built trusted."""
        coeff = scalar(coeff)
        dom, cod = cls.norm_ends(arrow.dom), cls.norm_ends(arrow.cod)
        if coeff and (arrow.dom != dom or arrow.cod != cod):
            raise ValueError("all terms must share dom and cod")
        return cls._trusted(dom, cod, LinComb._trusted({arrow: coeff}))

    @classmethod
    def from_terms(cls, dom, cod, terms):
        return cls(dom, cod, LinComb(terms))

    def __eq__(self, other):
        return (type(other) is type(self) and self.dom == other.dom
                and self.cod == other.cod and self.comb == other.comb)

    def __hash__(self):
        return hash((self.dom, self.cod, self.comb))

    def __add__(self, other):
        if other.dom != self.dom or other.cod != self.cod:
            raise DomainMismatchError("cannot add arrows with different endpoints")
        return type(self)(self.dom, self.cod, self.comb + other.comb)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, factor):
        return type(self)(self.dom, self.cod, self.comb.scale(factor))

    def is_zero(self):
        return self.comb.is_zero()

    def __repr__(self):
        if self.is_zero():
            return "0"
        return " + ".join(
            (f"{scalar_str(c)}*" if c != 1 else "") + repr(arrow)
            for arrow, c in self.comb)

    def to_json(self):
        return {
            "dom": self.ends_to_json(self.dom),
            "cod": self.ends_to_json(self.cod),
            "terms": [[scalar_str(c), arrow.to_json()]
                      for arrow, c in self.comb],
        }

    @classmethod
    def from_json(cls, data):
        terms = [(cls.basis.from_json(a), scalar(c)) for c, a in data["terms"]]
        return cls(cls.ends_from_json(data["dom"]),
                   cls.ends_from_json(data["cod"]), LinComb(terms))


class StructureConstants:
    """Composition of basis arrows in one category, kept as integers.

    `arrows` maps each (dom, cod) to its basis arrows in canonical order,
    and `index` maps a basis arrow to its position in that list.  A
    composite is kept as (position in arrows[a, c], int coefficient)
    pairs in position order.  Beyond the basis arrows only ints are kept,
    and equal term tuples are stored once.

    `column(a, b, c, k)` holds the composites of arrows[b, c][k] after
    every arrow of arrows[a, b], each pair composed once, by `compose(f,
    g)`, a HomComb f . g, on the column's first ask; `terms` reads them.
    Listing the arrows composes nothing."""

    __slots__ = ("arrows", "index", "compose", "columns", "shared")

    def __init__(self, arrows, compose):
        self.arrows = {ends: tuple(fs) for ends, fs in arrows.items()}
        self.index = {f: t for fs in self.arrows.values()
                      for t, f in enumerate(fs)}
        self.compose = compose
        self.columns = {}
        self.shared = {}

    def column(self, a, b, c, k):
        """The composites of arrows[b, c][k] after each of arrows[a, b]."""
        column = self.columns.get((a, b, c, k))
        if column is None:
            f = self.arrows[b, c][k]
            column = self.columns[a, b, c, k] = tuple(
                self.encode(f, g) for g in self.arrows[a, b])
        return column

    def share(self, terms):
        """The stored copy of a term tuple."""
        return self.shared.setdefault(terms, terms)

    def encode(self, f, g):
        """The composite f . g as stored terms, shared when equal."""
        return self.share(tuple((self.index[x], integer(c))
                                for x, c in self.compose(f, g).comb))

    def terms(self, f, g):
        """The composite f . g of two basis arrows, as stored."""
        return self.column(g.dom, g.cod, f.cod, self.index[f])[self.index[g]]

    def hom(self, hom_type, f, g):
        """The composite f . g of two basis arrows as a hom_type."""
        arrows = self.arrows[g.dom, f.cod]
        return hom_type._trusted(g.dom, f.cod, LinComb._trusted(
            {arrows[t]: Fraction(c) for t, c in self.terms(f, g)}))

    def table(self, hom_type, gens):
        """Every composite row . col of the named basis arrows in `gens`,
        keyed (row, col), as a hom_type; None where not composable."""
        return {(r, c): self.hom(hom_type, f, g) if g.cod == f.dom else None
                for r, f in gens.items() for c, g in gens.items()}

    def span(self, generators, identity):
        """The exact span test, on the generators' columns only: a walk
        from each source a builds an integer echelon form of the span of
        the words in `generators` and the identities (identity(a) that of
        a).  When every term of a composite g . y, y a pivot, is a pivot
        but one, x, of coefficient e = 1 or -1, x = e (g . y - the other
        terms) becomes a pivot: a spanned hom-set's rows form a
        unitriangular matrix.  Returns the rows (a, i, g, u, terms) in walk
        order, y = arrows[a, g.dom][i], x = arrows[a, g.cod][u], terms g . y,
        and the nonempty hom-sets (a, c) left unspanned by the walk."""
        out, rows, missing = {}, [], []
        for g in generators:
            out.setdefault(g.dom, []).append((g, self.index[g]))
        ends = list(dict.fromkeys(x for x, _ in self.arrows))
        for a in ends:
            # A composite waits as [its terms off the pivots, g, i, terms]
            # under each such term (end, position).
            pivots, waiting = set(), {}
            new = [(a, self.index[identity(a)], None)]
            while new:
                b, i, made = new.pop()
                if (b, i) in pivots:
                    continue
                pivots.add((b, i))
                if made:
                    rows.append(made)
                found = waiting.pop((b, i), [])
                for row in found:
                    row[0] -= 1
                for g, k in out.get(b, ()):
                    row = [0, g, i, self.column(a, b, g.cod, k)[i]]
                    for u, _ in row[3]:
                        if (g.cod, u) not in pivots:
                            row[0] += 1
                            waiting.setdefault((g.cod, u), []).append(row)
                    found.append(row)
                for count, g, j, terms in found:
                    if count == 1:
                        new.extend((g.cod, u, (a, j, g, u, terms))
                                   for u, e in terms
                                   if (g.cod, u) not in pivots and abs(e) == 1)
            found = Counter(c for c, _ in pivots)
            missing += [(a, c) for c in ends
                        if len(self.arrows[a, c]) > found[c]]
        return rows, missing
