"""Mazes and the labyrinth category with its quotients.

A maze is a multi-set of labelled passages between two finite sets, with
no dead ends.  Arrows of the category are formal linear combinations of
mazes; composition sums over all sub-multi-sets of the composable-pair
product whose projections cover both factors.

Repeated passages are handled with tagged-instance semantics: every
instance of a repeated passage counts separately both when forming the
pair product and when checking that a subset covers it.  This is what
makes composition functorial under the multation translation and is
validated against the degree-2 multiplication table.

Two normal forms are provided: the numerical quotient rewrites every
maze into pure mazes with at most n passages via the binomial expansion
axiom, which merges all instances of a passage kind (src, dst) into one
pure passage, so one truncated series per kind weighs its repetitions;
the homogeneous quotient further rewrites pure mazes with fewer than n
passages into exactly-n ones by the label-scaling axiom, in closed form:
each pure maze goes to the x^n coefficient of its own expansion
relabelled by x, whose coefficients count surjections.

Composition factors over the middle points: a covering subset is one
0/1 matrix per point with no zero row or column, its rows the instances
of the right factor entering the point, its columns those of the left
one leaving it.  Proof: a pair joins its two instances through one
point and each instance passes through one, so a subset covers both
factors exactly when each point's pairs cover that point's instances.

A maze with more than n passages is zero in the degree-n numerical
quotient, whatever its labels.  Composition in the quotient hands n to
maze_compose, which then never builds such a composite.  Composites
and normal forms are summed into one dict and built once, through the
trusted constructors.

Composition in the quotient commutes with renaming the points of the
three sets, so compose_in_laby_n reads a composite of normalised
factors off the structure constants of Laby_n, ends renamed to skeleta
in sorted order and back.  A block of the constants, one per triple of
end sizes, is composed directly on its first ask and filled on its
second, so one cold compose lists nothing.  The fill (LabyConstants)
composes each orbit of the block's pairs with maze_hom_compose, the one
engine, which also serves plain composition and the tests as the
oracle; it never calls compose_in_laby_n, so the route cannot recurse.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import chain, product
from math import comb, factorial, prod

from .errors import DomainMismatchError, EnumerationLimitError
from .multisets import (CONSTANTS_KEPT, MultiSet, compositions,
                        covering_count, covering_sets, guard_count, json_int,
                        tables)
from .scalars import (HomComb, LinComb, StructureConstants, scalar, scalar_str,
                      surjections)


class Passage:
    """A labelled formal arrow between elements of two finite sets."""

    __slots__ = ("src", "dst", "label", "_hash", "_key")

    def __init__(self, src: str, dst: str, label=1):
        label = scalar(label)
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "label", label)
        # Every passage is hashed and sorted soon after it is built, and a
        # Fraction hashes in Python, so both are derived once, here.
        object.__setattr__(self, "_hash", hash((src, dst, label)))
        object.__setattr__(self, "_key",
                           (src, dst, label.numerator, label.denominator))

    def __setattr__(self, name, value):
        raise AttributeError("Passage is immutable")

    def sort_key(self):
        return self._key

    def __eq__(self, other):
        # A Fraction is reduced, so equal keys mean equal labels.
        return (isinstance(other, Passage) and self._hash == other._hash
                and self._key == other._key)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"{self.src} -({scalar_str(self.label)})-> {self.dst}"


@lru_cache(maxsize=256)  # a 16 x 16 grid of names
def pure_passage(src: str, dst: str) -> Passage:
    """The passage src -> dst labelled 1, one shared per pair of names."""
    return Passage(src, dst, 1)


class Maze:
    """A multi-set of passages X -> Y.

    The constructor does not reject dead ends so that validity itself can
    be queried; every operation that composes or normalizes assumes valid
    input (see validate_maze).  The passage count and purity are derived
    on their first ask and stored: the maze is immutable, so they hold.
    """

    __slots__ = ("dom", "cod", "passages", "_hash", "_key", "_size", "_pure")

    def __init__(self, dom, cod, passages=()):
        if hasattr(passages, "items"):
            passages = passages.items()
        counts = {}
        for entry in passages:
            if isinstance(entry, Passage):
                p, mult = entry, 1
            else:
                p, mult = entry
                if json_int(mult, "multiplicity") <= 0:
                    raise ValueError("passage multiplicities must be positive")
            counts[p] = counts.get(p, 0) + mult
        dom = tuple(sorted(set(dom)))
        cod = tuple(sorted(set(cod)))
        passages = tuple(sorted(counts.items(), key=lambda pm: pm[0]._key))
        self._store(dom, cod, passages)

    @classmethod
    def _trusted(cls, dom, cod, passages):
        """A maze from package arithmetic, unchecked: sorted ends, and each
        passage once with a positive int multiplicity, in sort-key order."""
        maze = object.__new__(cls)
        maze._store(dom, cod, passages)
        return maze

    def _store(self, dom, cod, passages):
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "cod", cod)
        object.__setattr__(self, "passages", passages)
        # Every maze built is a dict key at once, as Passage is.
        object.__setattr__(self, "_hash", hash((dom, cod, passages)))
        object.__setattr__(self, "_key", (
            dom, cod, tuple((p._key, m) for p, m in passages)))
        # The normal forms ask these of a maze again and again; most mazes
        # built are never asked.
        object.__setattr__(self, "_size", None)
        object.__setattr__(self, "_pure", None)

    def __setattr__(self, name, value):
        raise AttributeError("Maze is immutable")

    @classmethod
    def identity(cls, names):
        names = tuple(sorted(set(names)))
        return cls(names, names, [Passage(x, x, 1) for x in names])

    @classmethod
    def pure(cls, pair_list, dom=None, cod=None):
        """Pure maze from (src, dst) pairs with repetition; dom and cod
        default to the supports of the pairs."""
        passages = [Passage(a, b, 1) for a, b in pair_list]
        if dom is None:
            dom = {p.src for p in passages}
        if cod is None:
            cod = {p.dst for p in passages}
        return cls(dom, cod, passages)

    @property
    def size(self) -> int:
        """Number of passages counted with multiplicity, summed once."""
        size = self._size
        if size is None:
            size = sum(m for _, m in self.passages)
            object.__setattr__(self, "_size", size)
        return size

    def instances(self):
        """Passage instances with repetition, in canonical order."""
        return [p for p, m in self.passages for _ in range(m)]

    def is_pure(self) -> bool:
        """Whether every label is 1, compared once."""
        pure = self._pure
        if pure is None:
            pure = all(p.label == 1 for p, _ in self.passages)
            object.__setattr__(self, "_pure", pure)
        return pure

    def relabel_all(self, a):
        """a [.] P: multiply every label by a."""
        a = scalar(a)
        return Maze(self.dom, self.cod,
                    [(Passage(p.src, p.dst, a * p.label), m)
                     for p, m in self.passages])

    def sort_key(self):
        return self._key

    def __eq__(self, other):
        return (isinstance(other, Maze) and self._hash == other._hash
                and self._key == other._key)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        inner = ", ".join(
            repr(p) + (f" x{m}" if m > 1 else "")
            for p, m in self.passages)
        dom = ", ".join(map(repr, self.dom))
        cod = ", ".join(map(repr, self.cod))
        return f"[{inner or 'empty'}: {{{dom}}}->{{{cod}}}]"

    def to_json(self):
        return {
            "dom": list(self.dom),
            "cod": list(self.cod),
            "passages": [[[p.src, p.dst, scalar_str(p.label)], m]
                         for p, m in self.passages],
        }

    @classmethod
    def from_json(cls, data):
        return cls(data["dom"], data["cod"],
                   [(Passage(s, d, scalar(lab)), json_int(m, "multiplicity"))
                    for (s, d, lab), m in data["passages"]])


def validate_maze(m: Maze) -> bool:
    """True iff endpoints lie in dom/cod and there are no dead ends."""
    sources = set()
    targets = set()
    for p, _ in m.passages:
        if p.src not in m.dom or p.dst not in m.cod:
            return False
        sources.add(p.src)
        targets.add(p.dst)
    return sources == set(m.dom) and targets == set(m.cod)


class MazeHom(HomComb):
    """A formal linear combination of mazes sharing dom and cod."""

    __slots__ = ()
    basis = Maze

    @staticmethod
    def norm_ends(names):
        return tuple(sorted(set(names)))

    ends_to_json = staticmethod(list)
    ends_from_json = norm_ends

    @classmethod
    def identity(cls, names):
        return cls.of(Maze.identity(names))


def maze_compose(p: Maze, q: Maze, n=None) -> MazeHom:
    """p . q as the sum over the covering subsets of the pair product, the
    subsets whose projections hit every instance of both mazes, each read
    as the maze of composed passages with multiplied labels.

    They factor over the middle points (see the module notes), so they are
    counted and guarded before any is listed.  Then each point lists its
    covering sets, merging equal composites, and the points combine.  With
    a degree n only composites of at most n passages are built, the others
    being zero in the degree-n numerical quotient; with n None this is the
    plain composition of the labyrinth category.
    """
    if not (validate_maze(p) and validate_maze(q)):
        raise ValueError("maze_compose requires valid mazes")
    if set(p.dom) != set(q.cod):
        raise DomainMismatchError(
            f"cannot form pair product: {set(q.cod)} != {set(p.dom)}")
    entering, leaving = {y: [] for y in q.cod}, {y: [] for y in p.dom}
    for passage, m in q.passages:
        entering[passage.dst].append((passage, m))
    for passage, m in p.passages:
        leaving[passage.src].append((passage, m))
    shapes = [(sum(m for _, m in entering[y]), sum(m for _, m in leaving[y]))
              for y in q.cod]
    n = sum(a * b for a, b in shapes) if n is None else n
    count = covering_count(shapes, n)
    guard_count(count, "maze_compose",
                lambda: f"{p.size} passages after {q.size}")
    if not count:
        return MazeHom._trusted(q.dom, p.cod, LinComb())
    # The composed passage of each pair through each point, row by row;
    # between pure mazes it is the shared pure passage of its ends.
    pure = p.is_pure() and q.is_pure()
    cells = [[pure_passage(s.src, t.dst) if pure else
              Passage(s.src, t.dst, t.label * s.label)
              for s, m in entering[y] for _ in range(m)
              for t, r in leaving[y] for _ in range(r)] for y in q.cod]
    # With one covering subset every point is a line, all of whose pairs
    # cover it: two sides above 1 give two covering sets at least.
    if count == 1:
        return MazeHom._trusted(q.dom, p.cod, LinComb._trusted({
            Maze._trusted(q.dom, p.cod, tuple(sorted(
                Counter(chain.from_iterable(cells)).items(),
                key=lambda pm: pm[0]._key))): Fraction(1)}))
    # A composite is its size and its passage counts, `width` bits each in
    # sort-key order, packed into an int, so that the points add theirs as
    # ints: no count passes n.  A point takes max(a, b) pairs at least, so
    # it is listed up to n less the other points' least sizes.
    order = sorted(set(chain.from_iterable(cells)), key=Passage.sort_key)
    width = n.bit_length()
    weight = {passage: 1 << width * k for k, passage in enumerate(order)}
    least = later = sum(max(shape) for shape in shapes)
    found = {(0, 0): 1}
    for point, (a, b) in zip(cells, shapes):
        later -= max(a, b)
        point, here = [weight[x] for x in point], {}
        for cover in covering_sets(a, b, min(n - least + max(a, b), a * b)):
            key = len(cover), sum(map(point.__getitem__, cover))
            here[key] = here.get(key, 0) + 1
        here, step = sorted(here.items()), {}
        for (size, packed), c in found.items():
            for (more, extra), d in here:
                if size + more + later > n:
                    break
                key = size + more, packed + extra
                step[key] = step.get(key, 0) + c * d
        found = step
    mask = (1 << width) - 1
    return MazeHom._trusted(q.dom, p.cod, LinComb._trusted({
        Maze._trusted(q.dom, p.cod, tuple(
            (passage, packed >> width * k & mask)
            for k, passage in enumerate(order) if packed >> width * k & mask)):
        Fraction(c) for (_, packed), c in found.items()}))


def maze_hom_compose(f: MazeHom, g: MazeHom, n=None) -> MazeHom:
    """Bilinear extension of maze composition (f after g), summed into one
    dict and built once; a degree n drops what the degree-n quotient kills."""
    if set(g.cod) != set(f.dom):
        raise DomainMismatchError("cannot compose: middle sets differ")
    accum = {}
    for p, c in f.comb:
        for q, d in g.comb:
            for maze, e in maze_compose(p, q, n).comb:
                accum[maze] = accum.get(maze, 0) + c * d * e
    return MazeHom._trusted(g.dom, f.cod, LinComb._trusted(accum))


def expand_label(p: Maze, passage: Passage, parts) -> MazeHom:
    """Split one passage whose label is a sum into the sum over nonempty
    subsets of parallel passages labelled by the parts."""
    parts = [scalar(x) for x in parts]
    if not parts:
        raise ValueError("parts must be nonempty")
    if sum(parts) != passage.label:
        raise ValueError("parts must sum to the passage label")
    remaining = dict(p.passages)
    if remaining.get(passage, 0) < 1:
        raise ValueError("passage not present in maze")
    remaining[passage] -= 1
    if not remaining[passage]:
        del remaining[passage]
    terms = []
    n = len(parts)
    for mask in range(1, 1 << n):
        new = dict(remaining)
        for i in range(n):
            if mask >> i & 1:
                q = Passage(passage.src, passage.dst, parts[i])
                new[q] = new.get(q, 0) + 1
        terms.append((Maze(p.dom, p.cod, new), 1))
    return MazeHom(p.dom, p.cod, LinComb(terms))


def collapse_parallel(p: Maze, group) -> MazeHom:
    """Inverse rewriting: replace a group of parallel passages by the
    signed sum over subsets of a single passage labelled by the subset sum.

    The empty subset contributes its zero-labelled passage with sign; that
    term is killed later by numerical normalization.
    """
    group = list(group)
    if not group:
        raise ValueError("group must be nonempty")
    src, dst = group[0].src, group[0].dst
    if any(q.src != src or q.dst != dst for q in group):
        raise ValueError("passages are not parallel")
    remaining = dict(p.passages)
    for q in group:
        if remaining.get(q, 0) < 1:
            raise ValueError("group passage not present in maze")
        remaining[q] -= 1
        if not remaining[q]:
            del remaining[q]
    n = len(group)
    terms = []
    for mask in range(1 << n):
        total = sum((group[i].label for i in range(n) if mask >> i & 1),
                    Fraction(0))
        sign = (-1) ** (n - bin(mask).count("1"))
        new = dict(remaining)
        q = Passage(src, dst, total)
        new[q] = new.get(q, 0) + 1
        terms.append((Maze(p.dom, p.cod, new), sign))
    return MazeHom(p.dom, p.cod, LinComb(terms))


def _numerical_terms(maze: Maze, n: int):
    """Binomial expansion of a labelled maze of at most n passages into
    (coefficient, pure maze) pairs.  A kind (src, dst) of c instances
    labelled L_i repeats its pure passage c + d times, weighed by [x^d] of
    prod_i ((1 + x)^L_i - 1) / x = prod_i sum_e binomial(L_i, e + 1) x^e,
    truncated at the room n - |maze| and, for positive integer labels, at
    its degree sum (L_i - 1); a term takes one such weight per kind.
    """
    room, kinds = n - maze.size, {}
    for p, m in maze.passages:
        if p.label == 0:  # its factor is 0
            return
        # The degree of the factor, with the room standing in for no bound.
        deg = (p.label.numerator - 1
               if p.label.denominator == 1 and p.label > 0 else room)
        kinds.setdefault((p.src, p.dst), []).append((p.label, m, deg))
    # Guard on the terms and on the series products before any arithmetic.
    # A term takes d_k <= cap_k from each of the K kinds, sum d_k <= room;
    # a product of degrees a and b truncated at c multiplies min((a + 1)(b
    # + 1), C(c + 2, 2)) pairs.
    caps, products = [], 0
    for factors in kinds.values():
        caps.append(min(room, sum(deg * r for _, r, deg in factors)))
        a, *rest = [min(caps[-1], deg) for _, r, deg in factors
                    for _ in range(r)]
        for b in rest:
            c = min(a + b, caps[-1])
            products += min((a + 1) * (b + 1), comb(c + 2, 2))
            a = c
    guard_count(max(min(comb(room + len(caps), len(caps)),
                        prod(cap + 1 for cap in caps)), products),
                "normalize_numerical",
                lambda: f"{maze.size} passages, degree {n}")
    level = [(1, (), room)]
    for ((src, dst), factors), cap in zip(kinds.items(), caps):
        series = None
        for lab, r, deg in factors:
            f = [lab]  # binomial(L, e + 1) from binomial(L, e)
            for e in range(1, min(cap, deg) + 1):
                f.append(f[-1] * (lab - e) / (e + 1))
            if lab.denominator == 1:  # so the products run in ints
                f = [x.numerator for x in f]
            for _ in range(r):
                series = f if series is None else [
                    sum(series[i] * f[d - i]
                        for i in range(max(0, d - len(f) + 1),
                                       min(d, len(series) - 1) + 1))
                    for d in range(min(len(series) + len(f) - 2, cap) + 1)]
        pure, count = pure_passage(src, dst), sum(r for _, r, _ in factors)
        level = [(coeff * series[d], passages + ((pure, count + d),), left - d)
                 for coeff, passages, left in level
                 for d in range(min(len(series) - 1, left) + 1) if series[d]]
    for coeff, passages, _ in level:
        # One pure passage per kind, in the maze's kind order: canonical.
        yield coeff, Maze._trusted(maze.dom, maze.cod, passages)


def normalize_numerical(h: MazeHom, n: int) -> MazeHom:
    """Normal form in the degree-n numerical quotient: a combination of
    pure mazes with at most n passages, summed into one dict and built
    once.  A larger maze is zero, and a pure one its own normal form
    (binomial(1, d) = 0 for d > 1), so h is returned as it is when all
    its mazes are pure with at most n passages."""
    if all(maze.size <= n and maze.is_pure() for maze, _ in h.comb):
        return h
    accum = {}
    for maze, c in h.comb:
        if maze.size <= n:
            expansion = ([(1, maze)] if maze.is_pure()
                         else _numerical_terms(maze, n))
            for coeff, pure in expansion:
                accum[pure] = accum.get(pure, 0) + c * coeff
    # Each term keeps the ends of the maze it expands.
    return MazeHom._trusted(h.dom, h.cod, LinComb._trusted(accum))


class LabyConstants(StructureConstants):
    """Laby_n's structure constants with the blocks compose_in_laby_n
    reads: block(a, b, c)[i][k] is column(a, b, c, k)[i].  Renaming a
    pair at its source, middle and target renames its composite at its
    source and target, and an adjacent transposition of a skeleton maps
    it to itself.  So a block's first ask walks its pairs under the
    transpositions of its three ends, composing one pair per orbit; the
    other pairs take its terms, positions renamed and re-sorted."""

    __slots__ = ("moved", "blocks")

    def __init__(self, arrows, compose):
        super().__init__(arrows, compose)
        self.moved = {}
        self.blocks = {}

    def moves(self, x, y):
        """The transpositions on arrows[x, y] as int arrays: one per
        adjacent transposition of x, giving the position of each maze with
        its source renamed, and one per adjacent transposition of y, with
        its target renamed."""
        moves = self.moved.get((x, y))
        if moves is None:
            fs, index = self.arrows[x, y], self.index
            moves = self.moved[x, y] = (
                [[index[rename_maze(f, s, None)] for f in fs]
                 for s in _skeleton_swaps(x)],
                [[index[rename_maze(f, None, s)] for f in fs]
                 for s in _skeleton_swaps(y)])
        return moves

    def block(self, a, b, c):
        """The composites of arrows[b, c] after arrows[a, b]."""
        block = self.blocks.get((a, b, c))
        if block is None:
            block = self.blocks[a, b, c] = self._fill(a, b, c)
        return block

    def _fill(self, a, b, c):
        """The block (a, b, c), one composition per orbit of its pairs."""
        (ab_a, ab_b), (bc_b, bc_c), (ac_a, ac_c) = (
            self.moves(a, b), self.moves(b, c), self.moves(a, c))
        # Each step moves the positions in arrows[a, b], arrows[b, c] and
        # arrows[a, c]; None where a position stays.
        steps = ([(g, None, h) for g, h in zip(ab_a, ac_a)]
                 + [(g, f, None) for g, f in zip(ab_b, bc_b)]
                 + [(None, f, h) for f, h in zip(bc_c, ac_c)])
        rows = [[None] * len(self.arrows[b, c]) for _ in self.arrows[a, b]]
        for i, g in enumerate(self.arrows[a, b]):
            for k, f in enumerate(self.arrows[b, c]):
                if rows[i][k] is not None:
                    continue
                rows[i][k] = terms = self.encode(f, g)
                todo = [(i, k, terms)]
                while todo:
                    i1, k1, terms = todo.pop()
                    for g_move, f_move, h_move in steps:
                        i2 = i1 if g_move is None else g_move[i1]
                        k2 = k1 if f_move is None else f_move[k1]
                        if rows[i2][k2] is None:
                            moved = terms if h_move is None else self.share(
                                tuple(sorted([(h_move[u], x)
                                              for u, x in terms])))
                            rows[i2][k2] = moved
                            todo.append((i2, k2, moved))
        return tuple(map(tuple, rows))


# The blocks of Laby_n's structure constants asked of compose_in_laby_n,
# keyed (n, |dom|, |middle|, |cod|): True where the next ask reads the
# block off the constants, False where an end larger than n puts the
# block off them or where the guard refused them.
_asked = {}


def reset_laby_constants():
    """Drop the structure constants of every Laby_n and the blocks asked
    of them, so that compose_in_laby_n starts cold."""
    laby_structure_constants.cache_clear()
    _asked.clear()


def on_skeleton(maze: Maze):
    """The maze moved to skeleton sets by the order-preserving renamings
    of its two ends; None if a passage lies off them, as the renaming
    could then make another, valid maze of it."""
    dom, cod = skeleton(len(maze.dom)), skeleton(len(maze.cod))
    if (maze.dom, maze.cod) == (dom, cod):
        return maze
    src, dst = dict(zip(maze.dom, dom)), dict(zip(maze.cod, cod))
    if not all(p.src in src and p.dst in dst for p, _ in maze.passages):
        return None
    return rename_maze(maze, src, dst)


def _read_off(sc: LabyConstants, f: MazeHom, g: MazeHom):
    """f . g summed from the structure constants sc, the block filled if
    need be; None if a term is not a basis maze."""
    gs, fs = ([(sc.index.get(on_skeleton(maze)), c) for maze, c in h.comb]
              for h in (g, f))
    if any(t is None for t, _ in chain(gs, fs)):
        return None
    a, b, c = skeleton(len(g.dom)), skeleton(len(g.cod)), skeleton(len(f.cod))
    block, accum = sc.block(a, b, c), {}
    for i, d in gs:
        row = block[i]
        for k, e in fs:
            # Integral coefficients keep the sums in ints.
            scale = (e.numerator * d.numerator
                     if e.denominator == d.denominator == 1 else e * d)
            for t, x in row[k]:
                accum[t] = accum.get(t, 0) + scale * x
    mazes = sc.arrows[a, c]
    if (g.dom, f.cod) != (a, c):
        src, dst = dict(zip(a, g.dom)), dict(zip(c, f.cod))
        mazes = {t: rename_maze(mazes[t], src, dst) for t in accum}
    return MazeHom._trusted(g.dom, f.cod, LinComb._trusted(
        {mazes[t]: Fraction(x) for t, x in accum.items()}))


def compose_in_laby_n(f: MazeHom, g: MazeHom, n: int) -> MazeHom:
    """Composite in the degree-n numerical quotient, in normal form.

    Both factors are normalised.  The first ask of a block of the
    structure constants of Laby_n, one per triple of end sizes whatever
    the names of the ends, composes directly, so one cold compose touches
    neither the constants nor a hom-set listing.  From its second ask the
    composite is read off the constants, the block filled then, the ends
    renamed to skeleta in sorted order and back.  The fill composes with
    maze_hom_compose, the one engine, never through this function.  A
    block with an end larger than n lies off the constants, and one whose
    constants or fill the guard refuses is composed directly from then
    on, until reset_laby_constants.  A compose with a zero factor counts
    as an ask but reads nothing off: the engine gives the zero
    combination, and no block is filled for it.  One whose terms are not
    basis mazes is direct too, so that the engine raises: nothing is
    refused that the engine answers."""
    # Normalised factors are pure with at most n passages, so with n every
    # composite is too, built from shared pure passages: in normal form.
    f, g = normalize_numerical(f, n), normalize_numerical(g, n)
    if set(g.cod) != set(f.dom):
        raise DomainMismatchError("cannot compose: middle sets differ")
    key = n, len(g.dom), len(g.cod), len(f.cod)
    h = None
    if f.comb and g.comb and _asked.get(key):
        try:
            h = _read_off(laby_structure_constants(n), f, g)
        except EnumerationLimitError:  # refused: direct from now on
            _asked[key] = False
    else:
        _asked.setdefault(key, max(key[1:]) <= n)
    return maze_hom_compose(f, g, n) if h is None else h


def normalize_homogeneous(h: MazeHom, n: int) -> MazeHom:
    """Normal form in the degree-n homogeneous quotient, where x [.] P is
    x^n P: a rational combination of pure mazes with exactly n passages.

    A pure maze P of normalize_numerical's output, passage p repeated r_p
    times, goes to the sum over t_p >= r_p with sum n of the maze P_t
    repeating p t_p times, times prod surj(t_p, r_p) / t_p!, where
    surj(t, r) counts the maps of a t-set onto an r-set.  Proof: x [.] P
    expands to the sum over sum t_p <= n of c_t(x) P_t, where c_t sums
    prod C(x, d) over the splits of each t_p into r_p positive parts, a
    polynomial of degree sum t_p and top coefficient prod surj / t_p!.  So
    x^n H(P) = sum c_t(x) H(P_t) for every integer x, H(P_t) = P_t when
    sum t_p = n, and the coefficients of x^n give the sum.  A numerical
    form whose mazes all have n passages is returned as it is, guarded.
    """
    numerical = normalize_numerical(h, n)
    if all(maze.size == n for maze, _ in numerical.comb):
        guard_count(0, "normalize_homogeneous",
                    lambda: f"0 mazes to expand, degree {n}")
        return numerical
    # Guard before the work, on the passages listed and the weights' bits.
    # A maze of m passages on k distinct ones lists C(n - m + k - 1, k - 1)
    # terms of k passages each.  Its weights surj(t, r) / t!, built once
    # per (t, r), have t = r + n - m when k = 1 and t from r up to that
    # when k > 1; each is a gcd with t! of about t log t bits, one item a
    # bit, and r + 1 powers of as many bits at most, one item a 64-bit
    # word.  The empty maze lists none.
    below = [(maze, c) for maze, c in numerical.comb if 0 < maze.size < n]
    estimate = 0
    for maze, _ in below:
        k, room = len(maze.passages), n - maze.size
        estimate += comb(room + k - 1, k - 1) * k
        for r in {r for _, r in maze.passages}:
            t = r + room
            estimate += ((1 if k == 1 else room + 1)
                         * t * t.bit_length() * (r + 65) // 64)
    guard_count(estimate, "normalize_homogeneous",
                lambda: f"{len(below)} mazes to expand, degree {n}")
    merged = {maze: c for maze, c in numerical.comb if maze.size == n}
    weights = {}
    for maze, c in below:
        passages = maze.passages
        # One part t_p - r_p + 1 per passage: they sum to n - m + k.
        for parts in compositions(n - maze.size + len(passages),
                                  len(passages)):
            coeff = c
            counts = []
            for (p, r), part in zip(passages, parts):
                t = r + part - 1
                counts.append((p, t))
                if t == r:  # surj(r, r) / r! is 1
                    continue
                if (t, r) not in weights:  # surj(t, r) / t!
                    weights[t, r] = Fraction(surjections(t, r), factorial(t))
                coeff *= weights[t, r]
            # counts follows maze.passages, each t >= r >= 1: canonical.
            pure = Maze._trusted(maze.dom, maze.cod, tuple(counts))
            merged[pure] = merged.get(pure, 0) + coeff
    return MazeHom._trusted(h.dom, h.cod, LinComb._trusted(merged))


def splitting_idempotents(names, n: int):
    """The direct-sum system splitting the identity of a set in the
    degree-n homogeneous quotient.

    Returns (S, e_S) pairs: S assigns each element a positive multiplicity
    summing to n, and e_S is the loop maze repeating each identity passage
    that often, scaled by 1/deg S.  Empty when |names| > n.
    """
    names = tuple(sorted(set(names)))
    out = []
    if not names or len(names) > n:
        return out
    for degs in compositions(n, len(names)):
        s = MultiSet(list(zip(names, degs)))
        maze = Maze(names, names,
                    [(Passage(x, x, 1), d) for x, d in zip(names, degs)])
        out.append((s, MazeHom.of(maze, Fraction(1, s.degree))))
    return out


def rename_maze(maze: Maze, dom_map, cod_map) -> Maze:
    """Transport a maze along bijective renamings of its two endpoints.
    A name a map lacks stays, and a map of None moves no name."""
    src = (dom_map or {}).get
    dst = (cod_map or {}).get
    return Maze(
        [src(x, x) for x in maze.dom],
        [dst(y, y) for y in maze.cod],
        [(Passage(src(p.src, p.src), dst(p.dst, p.dst), p.label), m)
         for p, m in maze.passages])


def _guard_pure_mazes(dom, cod, sizes):
    """Refuse the pure mazes dom -> cod of the given sizes before any is
    listed.  Multi-sets of s passages over |dom| * |cod| kinds bound the
    count; the max keeps comb defined for s = 0 on empty ends."""
    for s in sizes:
        guard_count(comb(max(len(dom) * len(cod) + s - 1, 0), s),
                    "pure_mazes_between",
                    lambda: f"{len(dom)} -> {len(cod)} points, {s} passages")


def pure_mazes_between(dom, cod, sizes):
    """All pure mazes with dom/cod exactly the given sets and passage count
    in `sizes`, canonically ordered.

    A pure maze of s passages is a table of passage counts whose row and
    column sums are positive compositions of s.
    """
    dom = tuple(sorted(set(dom)))
    cod = tuple(sorted(set(cod)))
    sizes = tuple(sizes)
    _guard_pure_mazes(dom, cod, sizes)
    out = []
    for s in sizes:
        for rows in compositions(s, len(dom)):
            for cols in compositions(s, len(cod)):
                # A table lists its positive cells row by row: canonical.
                out.extend(
                    Maze._trusted(dom, cod, tuple(
                        (pure_passage(x, y), m) for (x, y), m in t.items()))
                    for t in tables(zip(dom, rows), zip(cod, cols)))
    return sorted(out, key=Maze.sort_key)


@lru_cache(maxsize=16)  # every lookup on the skeleton compares ends with it
def skeleton(k: int):
    """The canonical k-element set {"1", ..., "k"}."""
    return tuple(str(i) for i in range(1, k + 1))


def _skeleton_swaps(names):
    """The adjacent transpositions of a skeleton set's points."""
    return [{x: y, y: x} for x, y in zip(names, names[1:])]


@lru_cache(maxsize=CONSTANTS_KEPT)
def laby_structure_constants(n: int) -> LabyConstants:
    """Composition in the degree-n numerical quotient, kept for the last
    few degrees asked for: the pure mazes of at most n passages between
    every two skeleton sets [0..n], in pure_mazes_between order, and,
    from its first use, each composite in normal form, in integers.

    A transposition of a set's points acts on a pure maze by renaming,
    and composing with the transposition's maze gives the renamed maze
    with coefficient 1, so a block fills by orbits under the
    transpositions of its three ends (see LabyConstants).  Every hom-set
    is guarded before any is listed."""
    sets = [skeleton(k) for k in range(n + 1)]
    for x, y in product(sets, sets):
        _guard_pure_mazes(x, y, range(n + 1))
    return LabyConstants(
        {(x, y): pure_mazes_between(x, y, range(n + 1))
         for x in sets for y in sets},
        lambda p, q: maze_hom_compose(MazeHom.of(p), MazeHom.of(q), n))


def elementary_mazes(n: int):
    """The adjacent transpositions of each skeleton [k], 2 <= k <= n, and
    for k < n the split A_k: [k] -> [k+1] of the last point and the merge
    B_k back: with the identities, their words span Laby_n over Z at each
    n <= 5 the guard allows (span tests).  The doubled loop C_k on the
    last point is B_k A_k, so it is left out."""
    out = []
    for k in range(1, n + 1):
        names, up = skeleton(k), skeleton(k + 1)
        ones, x, y = [(z, z) for z in names], names[-1], up[-1]
        out += [(names, names, ones[:i] + [(u, v), (v, u)] + ones[i + 2:])
                for i, (u, v) in enumerate(zip(names, names[1:]))]
        if k < n:
            out += [(names, up, ones + [(x, y)]),
                    (up, names, ones + [(y, x)])]
    return [Maze._trusted(dom, cod, tuple(
        (pure_passage(*p), m) for p, m in sorted(Counter(pairs).items())))
        for dom, cod, pairs in out]


def quadratic_generators():
    """The paper's quadratic generators A, B, C = B A and S, the
    elementary mazes of the degree-2 skeleton with the doubled loop C,
    plus the identities, keyed by their conventional names."""
    a, b, s = elementary_mazes(2)
    c = Maze._trusted(a.dom, a.dom, ((pure_passage("1", "1"), 2),))
    return {"A": a, "B": b, "C": c, "S": s} | {
        f"I{k}": Maze.identity(skeleton(k)) for k in range(3)}


def laby2_table():
    """All pairwise composites of A, B, C, S in the degree-2 numerical
    quotient, read off its structure constants: dict (row, col) ->
    normal-form MazeHom, None if the pair is not composable."""
    gens = quadratic_generators()
    return laby_structure_constants(2).table(
        MazeHom, {name: gens[name] for name in ("A", "B", "C", "S")})
