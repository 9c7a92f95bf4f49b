"""Translation between the maze and multation worlds.

The forward functor expands a maze over the weights of total n of its
distinct passages, each repeated r times and weighted t standing for its
instances through surj(t, r); its value on a maze is a matrix of
multation arrows indexed by the cardinality-n multi-sets supported on
the endpoints.  The reverse functor sends a multation to its underlying pure maze scaled by the
reciprocal of its degree.  On exactly-n pure mazes these are mutually
inverse, and that is checked exhaustively at desk scale.  Both functors
and matrix composition sum into one dict of exact coefficients and build
their results, down to the mazes, multations and multi-sets, unchecked;
input from outside passes the validating constructors, and ariadne_hom
refuses passages off a maze's ends, and names that are not nonempty
strings, first.

The span category of surjections is not modelled on its own; its basis
is translated to pure mazes by fiber counts and composition on the span
side is defined by transport through this translation.
"""

from itertools import combinations
from math import comb

from .errors import DomainMismatchError
from .labycat import Maze, MazeHom, pure_mazes_between, pure_passage
from .msetcat import MultHom, Multation
from .multisets import (MultiSet, all_cardinality_multisets, check_names,
                        compositions, enumerate_supported, json_int)
from .scalars import LinComb, surjections


class AriadneMatrix:
    """A matrix of multation arrows indexed by multi-sets.

    Entry (B, A) is a MultHom from A to B; absent entries are zero.  Rows
    carry multi-sets supported in the codomain set, columns multi-sets
    supported in the domain set.
    """

    __slots__ = ("dom", "cod", "n", "entries")

    def __init__(self, dom, cod, n, entries=None):
        dom = tuple(sorted(set(dom)))
        cod = tuple(sorted(set(cod)))
        clean = {}
        for (b, a), hom in (entries or {}).items():
            if hom.is_zero():
                continue
            if not set(a.support) <= set(dom) or not set(b.support) <= set(cod):
                raise ValueError("entry index outside the endpoint sets")
            if a.cardinality != n or b.cardinality != n:
                raise ValueError("entry index of wrong cardinality")
            clean[(b, a)] = hom
        for name, value in zip(self.__slots__, (dom, cod, n, clean)):
            object.__setattr__(self, name, value)

    @classmethod
    def _trusted(cls, dom, cod, n, terms):
        """The matrix summing terms[B, A], a {multation A -> B: Fraction}
        dict, at (B, A); from package arithmetic, so nothing is checked."""
        entries = {}
        for (b, a), coeffs in terms.items():
            comb = LinComb._trusted(coeffs)
            if comb:
                entries[b, a] = MultHom._trusted(a, b, comb)
        matrix = object.__new__(cls)
        for name, value in zip(cls.__slots__, (dom, cod, n, entries)):
            object.__setattr__(matrix, name, value)
        return matrix

    def __setattr__(self, name, value):
        raise AttributeError("AriadneMatrix is immutable")

    def entry(self, b: MultiSet, a: MultiSet) -> MultHom:
        hom = self.entries.get((b, a))
        if hom is None:
            return MultHom.zero(a, b)
        return hom

    def is_zero(self):
        return not self.entries

    def __eq__(self, other):
        return (isinstance(other, AriadneMatrix) and self.dom == other.dom
                and self.cod == other.cod and self.n == other.n
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.dom, self.cod, self.n,
                     tuple(sorted(self.entries.items(),
                                  key=lambda kv: (kv[0][0].sort_key(),
                                                  kv[0][1].sort_key())))))

    def scale(self, factor):
        return AriadneMatrix(self.dom, self.cod, self.n,
                             {k: h.scale(factor) for k, h in self.entries.items()})

    def compose(self, other: "AriadneMatrix") -> "AriadneMatrix":
        """Ordinary matrix composition, summing over middle indices."""
        if self.n != other.n:
            raise DomainMismatchError("degrees differ")
        if set(self.dom) != set(other.cod):
            raise DomainMismatchError("matrix endpoints do not line up")
        from .msetcat import multhom_compose

        terms = {}
        for (c, b1), left in self.entries.items():
            for (b2, a), right in other.entries.items():
                if b1 == b2:
                    entry = terms.setdefault((c, a), {})
                    for mu, x in multhom_compose(left, right).comb:
                        entry[mu] = entry.get(mu, 0) + x
        return AriadneMatrix._trusted(other.dom, self.cod, self.n, terms)

    def nonzero_keys(self):
        return sorted(self.entries,
                      key=lambda k: (k[0].sort_key(), k[1].sort_key()))

    def to_json(self):
        rows = enumerate_supported(set(self.cod), self.n)
        cols = enumerate_supported(set(self.dom), self.n)
        row_index = {b: i for i, b in enumerate(rows)}
        col_index = {a: i for i, a in enumerate(cols)}
        entries = [[row_index[b], col_index[a], self.entries[b, a].to_json()]
                   for b, a in self.nonzero_keys()]
        return {
            "n": self.n,
            "dom": list(self.dom),
            "cod": list(self.cod),
            "rows": [b.to_json() for b in rows],
            "cols": [a.to_json() for a in cols],
            "entries": entries,
        }

    @classmethod
    def from_json(cls, data):
        rows = [MultiSet.from_json(b) for b in data["rows"]]
        cols = [MultiSet.from_json(a) for a in data["cols"]]
        entries = {}
        for ri, ci, hom in data["entries"]:
            entries[(rows[ri], cols[ci])] = MultHom.from_json(hom)
        return cls(data["dom"], data["cod"], json_int(data["n"], "degree"),
                   entries)


def ariadne_maze(p: Maze, n: int) -> AriadneMatrix:
    """Value of the forward functor on one maze."""
    return ariadne_hom(MazeHom.of(p), n)


def ariadne_hom(h: MazeHom, n: int) -> AriadneMatrix:
    """The forward functor: a maze whose passage p, labelled L_p, is
    repeated r_p times gives per choice of weights t_p >= r_p summing to n
    its coefficient times prod L_p^t_p surj(t_p, r_p), times the
    multinomial of the t's of each column several passages share, at the
    multation of the merged columns.  Proof: summed over the splits of t_p
    into r_p positive instance weights, the multinomials give surj(t_p,
    r_p) and the labels L_p^t_p."""
    terms = {}
    # Every maze has the hom's ends: its names are checked once, after the
    # first maze's passages, as a check per maze would first fail there.
    dom_set, cod_set = set(h.dom), set(h.cod)
    for i, (maze, c) in enumerate(h.comb):
        if not all(p.src in dom_set and p.dst in cod_set
                   for p, _ in maze.passages):
            raise ValueError("entry index outside the endpoint sets")
        if i == 0:
            check_names(h.dom + h.cod)  # the marginals are unchecked
        passages = maze.passages
        # One part t_p - r_p + 1 per passage: they sum to n - m + k.
        for parts in compositions(n - maze.size + len(passages),
                                  len(passages)):
            coeff, k = c, 1
            cols, dom, cod = {}, {}, {}
            for (p, r), part in zip(passages, parts):
                t = r + part - 1
                k *= surjections(t, r)
                if p.label != 1:
                    coeff *= p.label ** t
                col = p.src, p.dst
                if col in cols:  # a passage beside it: merge the columns
                    k *= comb(cols[col] + t, t)
                cols[col] = cols.get(col, 0) + t
                dom[p.src] = dom.get(p.src, 0) + t
                cod[p.dst] = cod.get(p.dst, 0) + t
            # The passages, so the columns and their sources, are sorted.
            dom_ms = MultiSet._trusted(tuple(dom.items()))
            cod_ms = MultiSet._trusted(tuple(sorted(cod.items())))
            mu = Multation._trusted(dom_ms, cod_ms, tuple(cols.items()))
            entry = terms.setdefault((cod_ms, dom_ms), {})
            coeff *= k
            entry[mu] = entry[mu] + coeff if mu in entry else coeff
    return AriadneMatrix._trusted(h.dom, h.cod, n, terms)


def theseus_multation(mu: Multation, n: int) -> MazeHom:
    """The reverse functor on one multation."""
    return theseus_hom(MultHom.of(mu), n)


def theseus_hom(hom: MultHom, n: int) -> MazeHom:
    """The reverse functor: each multation goes to its pure maze of
    columns, scaled by the reciprocal of its degree."""
    # Every multation has the hom's ends, so they are checked once.
    if hom.comb and (hom.dom.cardinality != n or hom.cod.cardinality != n):
        raise DomainMismatchError(
            f"multation endpoints must have cardinality {n}")
    dom, cod, terms = hom.dom.support, hom.cod.support, {}
    for mu, c in hom.comb:
        # A multation's sorted, merged columns are its maze's passages.
        maze = Maze._trusted(dom, cod, tuple(
            (pure_passage(a, b), m) for (a, b), m in mu.pairs))
        terms[maze] = c / mu.degree  # one maze per multation
    return MazeHom._trusted(dom, cod, LinComb._trusted(terms))


def all_pure_mazes_on(universe, n: int):
    """All pure mazes with exactly n passages whose endpoint sets are the
    supports of the passage multiset, inside the universe."""
    universe = sorted(set(universe))
    subsets = [s for k in range(len(universe) + 1)
               for s in combinations(universe, k)]
    return sorted((maze for dom in subsets for cod in subsets
                   for maze in pure_mazes_between(dom, cod, [n])),
                  key=Maze.sort_key)


def roundtrip_failures(universe, n: int):
    """Counterexamples to the inverse-pair property, as strings.

    Checks forward-after-reverse on every basis multation between
    cardinality-n multi-sets over the universe, and reverse-after-forward
    on every exactly-n pure maze inside it.
    """
    from .msetcat import all_multations

    failures = []
    objs = all_cardinality_multisets(universe, n)
    for a in objs:
        for b in objs:
            for mu in all_multations(a, b):
                back = ariadne_hom(theseus_multation(mu, n), n)
                keys = back.nonzero_keys()
                if keys != [(b, a)] or back.entry(b, a) != MultHom.of(mu):
                    failures.append(f"forward(reverse({mu!r})) != {mu!r}")
    for maze in all_pure_mazes_on(universe, n):
        forward = ariadne_maze(maze, n)
        keys = forward.nonzero_keys()
        if len(keys) != 1:
            failures.append(f"forward({maze!r}) is not a single entry")
            continue
        (b, a) = keys[0]
        back = theseus_hom(forward.entry(b, a), n)
        if back != MazeHom.of(maze):
            failures.append(f"reverse(forward({maze!r})) = {back!r}")
    return failures


class Correspondence:
    """A span of surjections cod <- middle -> dom, read right to left."""

    __slots__ = ("cod", "middle", "dom", "left", "right")

    def __init__(self, cod, middle, dom, left, right):
        cod = tuple(sorted(set(cod)))
        middle = tuple(sorted(set(middle)))
        dom = tuple(sorted(set(dom)))
        left = dict(left)
        right = dict(right)
        if set(left) != set(middle) or set(right) != set(middle):
            raise ValueError("maps must be defined exactly on the middle set")
        if set(left.values()) != set(cod):
            raise ValueError("left leg is not surjective")
        if set(right.values()) != set(dom):
            raise ValueError("right leg is not surjective")
        object.__setattr__(self, "cod", cod)
        object.__setattr__(self, "middle", middle)
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __setattr__(self, name, value):
        raise AttributeError("Correspondence is immutable")

    def fiber_counts(self):
        counts = {}
        for u in self.middle:
            key = (self.right[u], self.left[u])
            counts[key] = counts.get(key, 0) + 1
        return counts

    def __eq__(self, other):
        return (isinstance(other, Correspondence) and self.dom == other.dom
                and self.cod == other.cod
                and self.fiber_counts() == other.fiber_counts())

    def __hash__(self):
        return hash((self.dom, self.cod,
                     tuple(sorted(self.fiber_counts().items()))))

    def to_json(self):
        return {
            "cod": list(self.cod),
            "middle": list(self.middle),
            "dom": list(self.dom),
            "left": [[u, self.left[u]] for u in self.middle],
            "right": [[u, self.right[u]] for u in self.middle],
        }

    @classmethod
    def from_json(cls, data):
        return cls(data["cod"], data["middle"], data["dom"],
                   {u: y for u, y in data["left"]},
                   {u: x for u, x in data["right"]})


def xi_correspondence(c: Correspondence) -> Maze:
    """The pure maze whose passage multiplicities are the fiber counts of
    the span's joint map."""
    return Maze(c.dom, c.cod, [(pure_passage(x, y), count)
                               for (x, y), count in c.fiber_counts().items()])


def xi_inverse(maze: Maze) -> Correspondence:
    """The canonical span of a pure maze: one middle element per tagged
    passage instance."""
    if not maze.is_pure():
        raise ValueError("only pure mazes correspond to spans")
    middle = []
    left = {}
    right = {}
    for i, p in enumerate(maze.instances()):
        u = f"u{i + 1}"
        middle.append(u)
        left[u] = p.dst
        right[u] = p.src
    return Correspondence(maze.cod, middle, maze.dom, left, right)


def factorization_verify(h, j, n: int) -> bool:
    """Whether a maze-side presentation factors through a multation-side
    one: every stored pure maze value must equal j's ariadne_pullback to
    it.  Only multi-sets supported on a skeleton set 1..k are compared, so
    a value of j with an end elsewhere, such as {2,2}, lies outside.

    Shape disagreements (wrong degree, blocks that do not assemble to the
    stored groups) and values j lacks report False rather than raising;
    they are exactly what the verifier exists to detect.
    """
    from .functor_lab import ariadne_pullback
    from .labycat import skeleton

    if getattr(j, "degree", None) != n or getattr(h, "degree", None) != n:
        return False
    universe = set(j.universe)
    for k in range(n + 1):
        names = skeleton(k)
        if not set(names) <= universe and k > 0:
            return False
        blocks = enumerate_supported(set(names), n)
        expect = []
        for b in blocks:
            if b not in j.groups:
                return False
            expect.extend(j.groups[b].orders)
        if tuple(expect) != h.groups[k].orders:
            return False
    try:
        return all(h.hom(m) == ariadne_pullback(j, m) for m in h.mazes())
    except KeyError:  # j lacks a value that a pullback reads
        return False
