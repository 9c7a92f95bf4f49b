"""Module functors and their combinatorial presentations.

Functors on free modules are represented by callables on integer
matrices.  Their deviations (inclusion-exclusion multilinearization
defects) and cross-effect projectors are computed directly; a functor's
maze-side presentation stores the projector-restricted deviation matrix
of every small pure maze, and the multation-side presentation stores the
divided-power action on every small multation.

Both presentations are evaluated back into honest matrix maps on free
modules by one blockwise formula: each block sums stored values, each
weighted by a product over its passages (or columns) of binom(entry, d)
on the maze side and entry ** d on the multation side, d the
multiplicity; blocks and values are walked once per matrix shape, into a
plan of nonzeros the presentation keeps.  The round trips and the thread,
which compares a multation module's deviations with its ariadne_pullback
to each maze, linear in the table, are the consistency checks.

Carriers are finitely generated abelian groups in invariant-factor form;
maps between direct sums are integer matrices compared entrywise modulo
the target generator orders.
"""

from collections import namedtuple
from functools import cache
from itertools import accumulate, chain, combinations, compress, product
from typing import NamedTuple

from . import bridge
from .errors import ShapeMismatchError
from .labycat import (
    Maze,
    MazeHom,
    elementary_mazes,
    laby_structure_constants,
    normalize_numerical,
    on_skeleton,
    pure_mazes_between,
    skeleton,
)
from .matrices import (IntMat, column_lattice_basis, combination_rows,
                       kron_power, nonzero_rows, row_products,
                       solve_in_lattice)
from .msetcat import Multation, divided_powers, mset_structure_constants
from .multisets import (MultiSet, all_cardinality_multisets, covering_count,
                        covering_sets, enumerate_supported, guard_count,
                        json_int)
from .scalars import binomial, integer

MAX_FUNCTOR_DEGREE = 3
MAX_MATRIX_SIDE = 3
_INDEX_OF_LETTER = {x: i for i, x in enumerate(skeleton(MAX_MATRIX_SIDE))}


# ---------------------------------------------------------------------------
# matrix functors and the deviation calculus


class MatrixFunctor:
    """A functor on free modules presented by matrices.

    `dim` maps a rank to the value's rank; `arrow` maps a b x a integer
    matrix to a dim(b) x dim(a) one.  The callable must be pure; identity
    and composition preservation are checked by tests, not assumed.
    """

    __slots__ = ("name", "dim", "arrow", "ce_basis_cache")

    def __init__(self, name, dim, arrow):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "arrow", arrow)
        # rank -> cross_effect_basis result; it lives as long as the functor.
        object.__setattr__(self, "ce_basis_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("MatrixFunctor is immutable")

    def __call__(self, m: IntMat) -> IntMat:
        out = self.arrow(m)
        if out.nrows != self.dim(m.nrows) or out.ncols != self.dim(m.ncols):
            raise ShapeMismatchError(
                f"functor {self.name} returned a wrongly shaped value")
        return out

    def __repr__(self):
        return f"MatrixFunctor({self.name})"


def tensor_power_functor(n: int) -> MatrixFunctor:
    """The n-fold tensor power, for n = 1 the identity functor."""
    if not 1 <= n <= MAX_FUNCTOR_DEGREE:
        raise ValueError(f"tensor power degree must be in 1..{MAX_FUNCTOR_DEGREE}")

    def arrow(m: IntMat) -> IntMat:
        return kron_power(m, n)

    return MatrixFunctor(f"tensor^{n}", lambda a: a**n, arrow)


def identity_functor() -> MatrixFunctor:
    return tensor_power_functor(1)


def direct_sum_functor(f: MatrixFunctor, g: MatrixFunctor) -> MatrixFunctor:
    def dim(a):
        return f.dim(a) + g.dim(a)

    def arrow(m: IntMat) -> IntMat:
        top = f(m)
        bot = g(m)
        rows = [list(r) + [0] * bot.ncols for r in top.rows]
        rows += [[0] * top.ncols + list(r) for r in bot.rows]
        return IntMat(top.nrows + bot.nrows, top.ncols + bot.ncols, rows)

    return MatrixFunctor(f"{f.name}+{g.name}", dim, arrow)


def deviation(f, maps):
    """Alternating sum of f over subset sums of the given maps.

    With k maps this is the (k-1)-st deviation; the empty subset
    contributes f of the zero map with sign (-1)^k, and with no maps at
    all that zero map is the 0 x 0 one of the empty maze.  Each subset
    sum is one addition away from that of the subset without its lowest
    map.  The 2^k signed values of f, IntMats of a MatrixFunctor or AbHoms
    of an evaluated presentation, are summed once, skipping zeros.
    """
    maps = list(maps)
    nrows, ncols = (maps[0].nrows, maps[0].ncols) if maps else (0, 0)
    for m in maps:
        if (m.nrows, m.ncols) != (nrows, ncols):
            raise ShapeMismatchError("deviation maps must share their shape")
    k = len(maps)
    sums = [IntMat.zeros(nrows, ncols)]
    for mask in range(1, 1 << k):
        low = mask & -mask
        sums.append(sums[mask ^ low] + maps[low.bit_length() - 1])
    return _value_sum([(f(s), -1 if (k - bin(mask).count("1")) & 1 else 1)
                       for mask, s in enumerate(sums)])


def _value_sum(terms):
    """The sum of c * value over (value, c) pairs of the first's shape."""
    first = terms[0][0]
    if isinstance(first, AbHom):
        return AbHom.combination(first.dom_orders, first.cod_orders, terms)
    return IntMat._trusted(first.nrows, first.ncols, combination_rows(
        first.nrows, first.ncols, terms))


def signed_cover_sum(m: int, n: int, l_pairs) -> int:
    """Sum of (-1)^|K| over all K between l_pairs and [m] x [n] whose two
    projections are surjective, counted from that definition row by row:
    each row's share of K is a nonempty set of columns holding that row's
    given pairs, and the signed number of ways to cover each set of
    columns is carried from row to row.  About m * 4^n steps."""
    valid = {(i, j) for i in range(1, m + 1) for j in range(1, n + 1)}
    given = set(l_pairs)
    need = [0] * m
    for p in given:
        if p not in valid:
            raise ValueError(f"pair {p} outside [{m}] x [{n}]")
        need[p[0] - 1] |= 1 << (p[1] - 1)
    guard_count(m << 2 * n, "signed_cover_sum",
                lambda: f"{m} x {n}, {len(given)} pairs given")
    full = (1 << n) - 1
    covered = {0: 1}
    for row_need in need:
        shares = [(s, -1 if bin(s).count("1") & 1 else 1)
                  for s in range(1, full + 1) if s & row_need == row_need]
        reached = {}
        for cols, ways in covered.items():
            for share, sign in shares:
                key = cols | share
                reached[key] = reached.get(key, 0) + sign * ways
        covered = reached
    return covered.get(full, 0)


def check_deviation_formula(f: MatrixFunctor, alphas, betas) -> bool:
    """Deviation of compositions against the sum over surjective pair
    subsets of deviations of products; exact matrix equality."""
    alphas = list(alphas)
    betas = list(betas)
    if not alphas or not betas:
        raise ValueError("need at least one map on each side")
    if alphas[0].ncols != betas[0].nrows:
        raise ShapeMismatchError("alpha and beta shapes are not composable")
    lhs = deviation(f, alphas) @ deviation(f, betas)
    m, n = len(alphas), len(betas)
    rhs = IntMat.zeros(lhs.nrows, lhs.ncols)
    guard_count(covering_count([(m, n)], m * n), "check_deviation_formula",
                lambda: f"{m} x {n}")
    for cover in covering_sets(m, n, m * n):
        prods = [alphas[k // n] @ betas[k % n] for k in cover]
        rhs = rhs + deviation(f, prods)
    return lhs == rhs


def index_subsets(a: int):
    """Subsets of [a] as 1-based tuples, ordered by size then entries."""
    return [s for k in range(a + 1) for s in combinations(range(1, a + 1), k)]


def cross_effect_projectors(f: MatrixFunctor, a: int):
    """The complete orthogonal system of projectors slicing f of rank a
    into its cross-effects, indexed by subsets of [a].

    The subset X contributes f deviated over the coordinate projections
    it names.  Its subset sums are the projections onto subsets of X, so
    f is evaluated once on each of the 2^a projections for all X.
    Idempotence and completeness are asserted; a functor that fails them
    is not additive-compatible.
    """
    if a > MAX_MATRIX_SIDE:
        raise ValueError(f"rank {a} above the guard {MAX_MATRIX_SIDE}")
    pis, values = [IntMat.unit(a, a, i, i) for i in range(a)], cache(f)
    out = [(x, deviation(values, [pis[i - 1] for i in x]) if x
            else values(IntMat.zeros(a, a))) for x in index_subsets(a)]
    dim = f.dim(a)
    total = IntMat.zeros(dim, dim)
    for x, e in out:
        if e @ e != e:
            raise ValueError(f"projector for {x} is not idempotent")
        total = total + e
    # Idempotents summing to the identity are orthogonal: their ranks are
    # their traces, which add up to the dimension, so the images form a
    # direct sum.  For a functor f(identity) is that identity.
    if total != IntMat.identity(dim):
        raise ValueError("projectors do not sum to the identity")
    return out


def cross_effect_basis(f: MatrixFunctor, a: int):
    """Echelon lattice basis of the top cross-effect image at rank a, that
    of the last projector; cached on the functor, as it is deterministic."""
    if a not in f.ce_basis_cache:
        f.ce_basis_cache[a] = column_lattice_basis(
            cross_effect_projectors(f, a)[-1][1])
    return f.ce_basis_cache[a]


def transport_maps(maze: Maze):
    """The cod x dom unit matrix of each passage instance, scaled by its
    label; labels must be integers."""
    if not maze.passages and (maze.dom or maze.cod):
        raise ValueError("a maze without passages must be empty-to-empty")
    dom_idx = {x: i for i, x in enumerate(maze.dom)}
    cod_idx = {y: i for i, y in enumerate(maze.cod)}
    maps = []
    for p in maze.instances():
        if p.label.denominator != 1:
            raise ValueError("transport labels must be integers")
        maps.append(IntMat.unit(len(maze.cod), len(maze.dom), cod_idx[p.dst],
                                dom_idx[p.src], p.label.numerator))
    return maps


def covering_deviation(f, maze: Maze):
    """The terms f(sum of S) (-1)^(k - |S|) of deviation(f, transport_maps(
    maze)) whose instance set S has a passage out of every source, summed
    over the product of the sources' nonempty instance subsets, each sum
    one addition from one before; with no such S, 0 f(0) of f's shape."""
    maps = transport_maps(maze)
    zero = IntMat.zeros(len(maze.cod), len(maze.dom))
    terms = [(zero, len(maps))]
    for x in maze.dom:
        fresh = []
        for m in [m for p, m in zip(maze.instances(), maps) if p.src == x]:
            fresh += [(s + m, c - 1) for s, c in terms + fresh]
        terms = fresh
    return _value_sum([(f(s), -1 if c & 1 else 1) for s, c in terms]
                      or [(f(zero), 0)])


def restricted_functor(f: MatrixFunctor, a: int):
    """S -> f(S) B for the b x a matrices S, B the basis columns of f's top
    cross-effect at rank a.  B's rows are listed by their nonzero entries
    once, for every S, and the one product kernel multiplies only the
    nonzero entries of f(S) by them."""
    basis = cross_effect_basis(f, a)[1]
    right = nonzero_rows(zip(*basis))

    def value(s: IntMat) -> IntMat:
        fs = f(s)
        return IntMat._trusted(fs.nrows, len(basis), row_products(
            fs.rows, right, len(basis)))

    return value


def phi_forward(f: MatrixFunctor, maze: Maze):
    """The presentation value of one maze: the deviation of the labelled
    transport maps, restricted to the top cross-effect of the source and
    corestricted to that of the target.

    The deviation is linear in f, so it deviates restricted_functor(f, a)
    and solves its columns in the target's basis.  f must preserve
    composition, so only covering_deviation's terms count: a subset missing
    the source x sums to s = s pi_T, pi_T the projection onto T = [a] - {x},
    and f(s) B = f(s) f(pi_T) e_[a] B = 0, as f(pi_T) sums the projectors
    e_X, X in T, orthogonal to e_[a].  Labels must be integers; a failed
    corestriction raises.
    """
    a, b = len(maze.dom), len(maze.cod)
    dev = covering_deviation(restricted_functor(f, a), maze)
    piv_y, basis_y = cross_effect_basis(f, b)
    cols = [solve_in_lattice(piv_y, basis_y, w) for w in dev.columns()]
    if None in cols:
        raise ValueError(
            "deviation does not map the source cross-effect into the "
            "target one; functor is not free-valued or not functorial")
    return IntMat._trusted(len(basis_y), len(cols), tuple(
        tuple([col[i] for col in cols]) for i in range(len(basis_y))))


# ---------------------------------------------------------------------------
# finitely generated abelian groups and their maps


class FgAbGroup:
    """Free rank plus an invariant-factor chain of torsion orders."""

    __slots__ = ("rank", "torsion")

    def __init__(self, rank: int, torsion=()):
        rank = json_int(rank, "rank")
        torsion = tuple(json_int(d, "torsion order") for d in torsion)
        if rank < 0:
            raise ValueError("rank must be nonnegative")
        if any(d < 2 for d in torsion):
            raise ValueError("torsion orders must be >= 2")
        if any(d2 % d1 for d1, d2 in zip(torsion, torsion[1:])):
            raise ValueError("torsion orders must form a divisibility chain")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "torsion", torsion)

    def __setattr__(self, name, value):
        raise AttributeError("FgAbGroup is immutable")

    @property
    def orders(self):
        """Per-generator orders, 0 marking free generators."""
        return (0,) * self.rank + self.torsion

    @property
    def dim(self) -> int:
        return self.rank + len(self.torsion)

    def is_trivial(self) -> bool:
        return self.dim == 0

    def __eq__(self, other):
        return (isinstance(other, FgAbGroup) and self.rank == other.rank
                and self.torsion == other.torsion)

    def __hash__(self):
        return hash((self.rank, self.torsion))

    def __repr__(self):
        parts = ["Z"] * self.rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"

    def to_json(self):
        return {"rank": self.rank, "torsion": list(self.torsion)}

    @classmethod
    def from_json(cls, data):
        return cls(data["rank"], data.get("torsion", ()))


def json_rows(rows, nrows: int, ncols: int):
    """The rows of an nrows x ncols integer matrix read from JSON, every
    entry through json_int; any other shape is malformed data."""
    rows = [[json_int(x, "matrix entry") for x in row] for row in rows]
    if len(rows) != nrows or any(len(r) != ncols for r in rows):
        raise ValueError(f"matrix rows do not make {nrows} x {ncols}")
    return rows


def _reduce_rows(rows, cod_orders):
    """The rows as tuples, each reduced modulo its generator's order when
    that order is nonzero; all-free codomains pass unchanged."""
    if not any(cod_orders):
        return rows
    return tuple(tuple([x % d for x in row]) if d else row
                 for row, d in zip(rows, cod_orders))


def _checked_mat(hom, dom_orders, cod_orders):
    """The matrix of hom, which must map between these orders."""
    if hom.dom_orders != dom_orders or hom.cod_orders != cod_orders:
        raise ShapeMismatchError("homomorphisms have different endpoints")
    return hom.mat


def _combination_rows(dom_orders, cod_orders, terms):
    """The reduced rows of the sum of c * hom over the (hom, c) pairs of
    `terms`; see AbHom.combination and matrices.combination_rows."""
    return _reduce_rows(combination_rows(len(cod_orders), len(dom_orders), (
        (_checked_mat(hom, dom_orders, cod_orders), integer(c))
        for hom, c in terms)), cod_orders)


class AbHom:
    """An integer-matrix map between direct sums of cyclic groups.

    dom_orders and cod_orders list the generator orders (0 for free).
    Entries in torsion rows are kept reduced, so structural equality is
    congruence.  Well-definedness demands that each domain generator's
    order annihilate its image column.

    The constructor checks its input.  Sums, integer multiples,
    composites and blocks of maps that passed it are well defined by
    construction, so the arithmetic below builds its results through
    `_trusted`, which only reduces the torsion rows.
    """

    __slots__ = ("dom_orders", "cod_orders", "mat")

    def __init__(self, dom_orders, cod_orders, mat: IntMat):
        dom_orders = tuple(json_int(d, "order") for d in dom_orders)
        cod_orders = tuple(json_int(d, "order") for d in cod_orders)
        if mat.nrows != len(cod_orders) or mat.ncols != len(dom_orders):
            raise ShapeMismatchError("matrix does not match the generator counts")
        for j, dj in enumerate(dom_orders):
            if dj == 0:
                continue
            for i, di in enumerate(cod_orders):
                v = dj * mat.rows[i][j]
                if (v % di if di else v) != 0:
                    raise ValueError(
                        f"column {j} is not well defined on a generator of "
                        f"order {dj}")
        if any(cod_orders):
            mat = IntMat._trusted(mat.nrows, mat.ncols,
                                  _reduce_rows(mat.rows, cod_orders))
        object.__setattr__(self, "dom_orders", dom_orders)
        object.__setattr__(self, "cod_orders", cod_orders)
        object.__setattr__(self, "mat", mat)

    @classmethod
    def _trusted(cls, dom_orders, cod_orders, rows):
        """A map from package arithmetic on checked maps: the orders are
        tuples of ints, `rows` a tuple of int tuples of the right shape
        whose columns are well defined.  Only the torsion rows are
        reduced."""
        hom = object.__new__(cls)
        object.__setattr__(hom, "dom_orders", dom_orders)
        object.__setattr__(hom, "cod_orders", cod_orders)
        object.__setattr__(hom, "mat", IntMat._trusted(
            len(cod_orders), len(dom_orders),
            _reduce_rows(rows, cod_orders)))
        return hom

    def __setattr__(self, name, value):
        raise AttributeError("AbHom is immutable")

    @classmethod
    def zero(cls, dom_orders, cod_orders):
        return cls(dom_orders, cod_orders,
                   IntMat.zeros(len(cod_orders), len(dom_orders)))

    @classmethod
    def identity(cls, orders):
        return cls(orders, orders, IntMat.identity(len(orders)))

    @classmethod
    def combination(cls, dom_orders, cod_orders, terms):
        """The sum of c * hom over the (hom, c) pairs of `terms`, every hom
        between the given orders and every c an integer (an int or a
        Fraction of denominator 1).  A sum of integer multiples of well
        defined maps is well defined, so only the torsion rows of the
        result are reduced."""
        dom_orders = tuple(map(int, dom_orders))
        cod_orders = tuple(map(int, cod_orders))
        return cls._trusted(dom_orders, cod_orders, _combination_rows(
            dom_orders, cod_orders, terms))

    @classmethod
    def of_groups(cls, dom: FgAbGroup, cod: FgAbGroup, rows):
        return cls(dom.orders, cod.orders,
                   IntMat(cod.dim, dom.dim, rows))

    def __eq__(self, other):
        return (isinstance(other, AbHom)
                and self.dom_orders == other.dom_orders
                and self.cod_orders == other.cod_orders
                and self.mat == other.mat)

    def __hash__(self):
        return hash((self.dom_orders, self.cod_orders, self.mat))

    def __add__(self, other):
        return self.combination(self.dom_orders, self.cod_orders,
                                ((self, 1), (other, 1)))

    def __sub__(self, other):
        return self.combination(self.dom_orders, self.cod_orders,
                                ((self, 1), (other, -1)))

    def scale(self, factor: int):
        return self.combination(self.dom_orders, self.cod_orders,
                                ((self, factor),))

    def compose(self, other: "AbHom") -> "AbHom":
        if other.cod_orders != self.dom_orders:
            raise ShapeMismatchError("homomorphisms are not composable")
        return AbHom._trusted(other.dom_orders, self.cod_orders,
                              (self.mat @ other.mat).rows)

    def is_zero(self):
        return self.mat.is_zero()

    def __repr__(self):
        return f"AbHom({self.mat!r}: {self.dom_orders}->{self.cod_orders})"

    def to_json(self):
        return self.mat.to_json()


def _int_orders(orders) -> tuple:
    """Block orders as ints: 2.5, 2.0, True or "2" is refused, not read."""
    return tuple(d if type(d) is int else json_int(d, "order")
                 for d in orders)


def abhom_block(grid, col_orders_list, row_orders_list) -> AbHom:
    """Assemble a block matrix of AbHoms into one AbHom; grid[i][j] maps
    the j-th column block to the i-th row block, between exactly their
    orders."""
    col_orders_list = [_int_orders(orders) for orders in col_orders_list]
    row_orders_list = [_int_orders(orders) for orders in row_orders_list]
    rows = []
    for i, row_orders in enumerate(row_orders_list):
        for j, col_orders in enumerate(col_orders_list):
            hom = grid[i][j]
            if (hom.cod_orders != row_orders
                    or hom.dom_orders != col_orders):
                raise ShapeMismatchError(
                    f"block ({i},{j}) has the wrong shape")
        rows.extend(tuple([x for hom in grid[i] for x in hom.mat.rows[r]])
                    for r in range(len(row_orders)))
    return AbHom._trusted(sum(col_orders_list, ()), sum(row_orders_list, ()),
                          tuple(rows))


# ---------------------------------------------------------------------------
# what both presentation sides share


class HomSet(NamedTuple):
    """One hom-set of a presentation's index: the basis arrows of the
    side's structure constants, their stored values (None if missing) and
    each value's nonzeros listed once, row by row, as row, column, entry."""

    arrows: tuple
    values: list
    nonzeros: list

    def value(self, t: int) -> AbHom:
        """The stored value of arrows[t]; a missing one raises when used."""
        if self.values[t] is None:
            raise KeyError(f"presentation lacks a value for "
                           f"{self.arrows[t]!r}")
        return self.values[t]


class Presentation:
    """What both presentation sides share, as HomComb is for MazeHom and
    MultHom: the table, checked against the carriers on load, hom,
    eval_hom, check and the hom-set index, one HomSet per hom-set of the
    side's structure constants, each built on first use, with one EvalPlan
    per matrix shape beside it.  A side gives the `carrier` of some ends,
    the table `key` of an arrow, the `identity` arrow of some ends, its
    structure `constants`, the `triples` of a basis arrow, its `ends()` as
    (name in errors, ends) pairs and the `generators()` that, with the
    identities, generate its category over Z: on the multation side the
    divided powers of adjacent letters (S. Doty and A. Giaquinto,
    "Presenting Schur algebras", IMRN 2002), on the maze side the
    elementary mazes, by exact span tests at every degree n <= 5 the
    constants' guard allows.  So check is one loop over the generators,
    and a refusal names a generator pair.  Every arrow the table stores is
    a basis arrow of the structure constants."""

    __slots__ = ("degree", "groups", "table", "hom_sets", "plans")

    def __init__(self, degree: int, groups, table, check):
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "hom_sets", {})
        object.__setattr__(self, "plans", {})
        for arrow, hom in table.items():
            if (hom.dom_orders != self.carrier(arrow.dom).orders
                    or hom.cod_orders != self.carrier(arrow.cod).orders):
                raise ShapeMismatchError(
                    f"value of {arrow!r} does not match the carriers")
        if check:
            self.check()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def hom(self, arrow) -> AbHom:
        """The stored value of an arrow, looked up under its key."""
        value = self.table.get(self.key(arrow))
        if value is None:
            raise KeyError(f"presentation lacks a value for {arrow!r}")
        return value

    def eval_hom(self, h) -> AbHom:
        """Evaluate on a combination of arrows sharing endpoints; the
        coefficients must be integers."""
        return AbHom.combination(self.carrier(h.dom).orders,
                                 self.carrier(h.cod).orders,
                                 ((self.hom(x), c) for x, c in h.comb))

    def hom_set(self, dom, cod) -> HomSet:
        """The index entry of the hom-set dom -> cod; empty for ends
        outside the structure constants."""
        entry = self.hom_sets.get((dom, cod))
        if entry is None:
            arrows = self.constants().arrows.get((dom, cod), ())
            values = [self.table.get(x) for x in arrows]
            entry = self.hom_sets[dom, cod] = HomSet(arrows, values, [
                None if value is None else tuple(chain.from_iterable(
                    (i, j, x) for i, row in enumerate(value.mat.rows)
                    for j, x in compress(enumerate(row), row)))
                for value in values])
        return entry

    def check(self):
        """Refuse a table that is not a functor: identities must map to
        identities, every basis arrow needs a value, and hom(y . x) =
        hom(y) hom(x) on every composable pair of basis arrows.  The
        arrows y for which that holds for every basis arrow x form a
        Z-submodule, closed under composition, holding the identities;
        with these, the side's generators() generate it all (the class
        docstring).  So one loop compares hom(g . x), read off the
        generator's column of the structure constants, with hom(g) hom(x)
        for every generator g and basis arrow x into its source, as
        reduced integer rows, each hom-set's values side by side and summed
        over the nonzeros its index entry lists.  No block is filled.  A
        missing value raises KeyError naming the first in the constants'
        arrow order; a failure raises ValueError naming the generator g and
        the first x of the hom-set on which the two sides differ."""
        for name, ends in self.ends():
            if self.hom(self.identity(ends)) != AbHom.identity(
                    self.carrier(ends).orders):
                raise ValueError(f"identity of {name} does not map to "
                                 "identity")
        sc, out = self.constants(), {}
        for hom_set in (self.hom_set(*ends) for ends in sc.arrows):
            if None in hom_set.values:
                hom_set.value(hom_set.values.index(None))
        for g in self.generators():
            out.setdefault(g.dom, []).append((g, self.hom(g).mat.rows,
                                              self.carrier(g.cod).orders))
        for (a, b), xs in sc.arrows.items():
            # The hom-set's values side by side, xs[t] from column w t on.
            w = len(self.carrier(a).orders)
            width = w * len(xs)
            wide = [[] for _ in self.carrier(b).orders]
            for t, listed in enumerate(self.hom_set(a, b).nonzeros):
                for i, j, x in zip(*[iter(listed)] * 3):
                    wide[i].append((w * t + j, x))
            for g, left, cod in out.get(b, ()) if xs else ():
                gx = self.hom_set(a, g.cod).nonzeros
                acc = [0] * (len(cod) * width)
                for t, terms in enumerate(sc.column(a, b, g.cod, sc.index[g])):
                    at = w * t
                    for u, e in terms:
                        for i, j, x in zip(*[iter(gx[u])] * 3):
                            acc[at + i * width + j] += e * x
                lhs = _reduce_rows(tuple(tuple(acc[r * width:(r + 1) * width])
                                         for r in range(len(cod))), cod)
                rhs = _reduce_rows(row_products(left, wide, width), cod)
                if lhs != rhs:
                    t = next(t for t in range(len(xs)) if any(
                        x[w * t:w * (t + 1)] != y[w * t:w * (t + 1)]
                        for x, y in zip(lhs, rhs)))
                    raise ValueError(f"table is not functorial on {g!r} "
                                     f"after {xs[t]!r}")


# ---------------------------------------------------------------------------
# maze-side presentations


class LabyModulePresentation(Presentation):
    """A linear functor out of the degree-n maze quotient, as finite data:
    carriers on the skeleton [0..n] and one map per small pure maze.  The
    table stores basis mazes of Laby_n only and refuses any other maze: a
    labelled maze has its value by binomial expansion and a larger one
    vanishes by truncation.  A maze between other small sets is looked up
    on the skeleton."""

    __slots__ = ()

    def __init__(self, degree: int, groups, table, check=True):
        groups = list(groups)
        if len(groups) != degree + 1:
            raise ValueError("need one carrier per skeleton set 0..degree")
        table = dict(table)
        index = laby_structure_constants(degree).index
        for maze in sorted(table.keys() - index.keys(), key=Maze.sort_key):
            raise ValueError(
                f"{maze!r} is not a basis maze of degree {degree}: one that "
                f"is pure, has no dead end and at most {degree} passages, "
                f"and joins skeleton sets [0..{degree}]")
        super().__init__(degree, groups, table, check)

    key = staticmethod(on_skeleton)
    identity = staticmethod(Maze.identity)

    def carrier(self, ends) -> FgAbGroup:
        return self.groups[len(ends)]

    def constants(self):
        return laby_structure_constants(self.degree)

    def generators(self):
        return elementary_mazes(self.degree)

    @staticmethod
    def triples(maze: Maze):
        return [(p.src, p.dst, d) for p, d in maze.passages]

    def block_group(self, k: int) -> FgAbGroup:
        """Carrier for a block index; trivial beyond the degree, where
        the truncation axiom forces the value to vanish."""
        if k > self.degree:
            return FgAbGroup(0)
        return self.groups[k]

    def mazes(self):
        return sorted(self.table, key=Maze.sort_key)

    def ends(self):
        return [(f"[{k}]", skeleton(k)) for k in range(self.degree + 1)]

    def eval_labeled(self, maze: Maze) -> AbHom:
        """Binomial-expand a labelled maze into the pure table and
        evaluate."""
        return self.eval_hom(normalize_numerical(MazeHom.of(maze), self.degree))

    def to_json(self):
        return {
            "degree": self.degree,
            "groups": [g.to_json() for g in self.groups],
            "homs": [{"maze": m.to_json(), "matrix": self.table[m].to_json()}
                     for m in self.mazes()],
        }

    @classmethod
    def from_json(cls, data, check=True):
        degree = json_int(data["degree"], "degree")
        groups = [FgAbGroup.from_json(g) for g in data["groups"]]
        table = {}
        for item in data["homs"]:
            maze = Maze.from_json(item["maze"])
            j, k = len(maze.dom), len(maze.cod)
            if (max(j, k) >= len(groups) or set(maze.dom) != set(skeleton(j))
                    or set(maze.cod) != set(skeleton(k))):
                raise ValueError(f"{maze!r} does not join skeleton sets "
                                 f"with carriers in degree {degree}")
            table[maze] = AbHom.of_groups(groups[j], groups[k], json_rows(
                item["matrix"], groups[k].dim, groups[j].dim))
        return cls(degree, groups, table, check=check)

    @classmethod
    def quadratic(cls, k_group: FgAbGroup, x_group: FgAbGroup,
                  y_group: FgAbGroup, alpha: AbHom, beta: AbHom, check=True):
        """Degree-2 presentation from the classifying diagram: carriers
        for [0], [1], [2] and the two crossing maps."""
        from .labycat import quadratic_generators

        gens = quadratic_generators()
        if alpha.dom_orders != x_group.orders or \
                alpha.cod_orders != y_group.orders:
            raise ShapeMismatchError("alpha must map the [1] carrier to [2]")
        if beta.dom_orders != y_group.orders or \
                beta.cod_orders != x_group.orders:
            raise ShapeMismatchError("beta must map the [2] carrier to [1]")
        table = {
            gens["I0"]: AbHom.identity(k_group.orders),
            gens["I1"]: AbHom.identity(x_group.orders),
            gens["I2"]: AbHom.identity(y_group.orders),
            gens["A"]: alpha,
            gens["B"]: beta,
            gens["C"]: beta.compose(alpha),
            gens["S"]: alpha.compose(beta) - AbHom.identity(y_group.orders),
        }
        return cls(2, [k_group, x_group, y_group], table, check=check)

    @classmethod
    def from_functor(cls, f: MatrixFunctor, degree: int, check=True):
        """The presentation of a free-valued matrix functor f preserving
        composition (phi_forward): carriers are the top cross-effects,
        values the restricted deviations, trusted.  Only the elementary
        mazes g are evaluated.  f preserves composition, as covering_deviation
        assumes, so each row x = e (g . y - the other terms) of the
        constants' span walk gives hom(x) = e (hom(g) hom(y) - theirs).  The
        rows are unitriangular with pivots e = 1 or -1, so the generators'
        values fix the table, in integers.  An unspanned hom-set raises."""
        if degree > MAX_FUNCTOR_DEGREE:
            raise ValueError("degree above the guard")
        sc, gens = laby_structure_constants(degree), elementary_mazes(degree)
        rows, missing = sc.span(gens, Maze.identity)
        for a, c in missing:
            raise ValueError(f"the elementary mazes leave the hom-set "
                             f"[{len(a)}] -> [{len(c)}] unspanned")
        groups = [FgAbGroup(len(cross_effect_basis(f, k)[1]))
                  for k in range(degree + 1)]
        orders = [group.orders for group in groups]
        table = {Maze.identity(skeleton(k)): AbHom.identity(orders[k])
                 for k in range(degree + 1)}
        table |= {g: AbHom._trusted(orders[len(g.dom)], orders[len(g.cod)],
                                    phi_forward(f, g).rows) for g in gens}
        for a, i, g, u, terms in rows:
            xs, e = sc.arrows[a, g.cod], dict(terms)[u]
            if xs[u] not in table:
                gy = table[g].compose(table[sc.arrows[a, g.dom][i]])
                table[xs[u]] = AbHom.combination(
                    orders[len(a)], orders[len(g.cod)], [(gy, e)] + [
                        (table[xs[v]], -e * c) for v, c in terms if v != u])
        try:
            return cls(degree, groups, table, check=check)
        except ValueError as exc:
            if degree >= MAX_MATRIX_SIDE or not cross_effect_basis(
                    f, degree + 1)[1]:
                raise
            raise ValueError(f"{f.name} has degree above {degree}: {exc}")


# ---------------------------------------------------------------------------
# evaluation of presentations on matrices


EvalPlan = namedtuple("EvalPlan", ["col_index", "row_index", "dom_orders",
                                   "cod_orders", "width", "terms", "cuts"])


def _eval_blockwise(pres, m: IntMat, index, place, weight) -> AbHom:
    """The evaluation formula of both presentation sides: block (x, y) of
    the value on m sums the stored values between their ends, each times
    the product of weight(entry, d) over its triples, d the multiplicity.

    A shape's first evaluation checks the side guard, gets the (blocks,
    orders) of rank k from `index(k)` and a block's ends in the hom-set
    index, with the index into m of their names, from `place(block)`.  Its
    one walk over the blocks checks the stored values' orders and makes
    each listed value a term of the shape's EvalPlan: (nonzeros, cells),
    its (flat position, entry) pairs placed from the index's listing; a
    cell folds a triple's (d, row, column) into an index of the weights of
    m's entries at each d up to the degree.  A walk that raises keeps no
    plan.  Evaluations add the nonzeros times their terms' nonzero weights
    and reduce the torsion rows once."""
    b, a = shape = m.nrows, m.ncols
    plan = pres.plans.get(shape)
    if plan is None:
        if max(shape) > MAX_MATRIX_SIDE:
            raise ValueError("matrix side above the guard")
        col_index = index(a)
        row_index = col_index if b == a else index(b)
        dom_orders = sum(col_index[1], ())
        plan = EvalPlan(col_index, row_index, dom_orders,
                        sum(row_index[1], ()), len(dom_orders), [], {})
        size, cols = b * a, [place(x) for x in col_index[0]]
        width, at_row = plan.width, 0
        for y, y_orders in zip(*row_index):
            cod, row_of = place(y)
            at = at_row
            for (dom, col_of), x_orders in zip(cols, col_index[1]):
                hom_set = pres.hom_set(dom, cod)
                for t, listed in enumerate(hom_set.nonzeros):
                    _checked_mat(hom_set.value(t), x_orders, y_orders)
                    if listed:
                        plan.terms.append(([(at + i * width + j, x)
                            for i, j, x in zip(*[iter(listed)] * 3)], tuple([
                            (d - 1) * size + row_of[r] * a + col_of[s]
                            for s, r, d in pres.triples(hom_set.arrows[t])])))
                at += len(x_orders)
            at_row += width * len(y_orders)
        pres.plans[shape] = plan
    table = [weight(x, d) for d in range(1, pres.degree + 1)
             for row in m.rows for x in row]
    width = plan.width
    acc = [0] * (width * len(plan.cod_orders))
    for nonzeros, cells in plan.terms:
        w = 1
        for c in cells:
            w *= table[c]
            if w == 0:
                break
        if w:
            for p, x in nonzeros:
                acc[p] += w * x
    return AbHom._trusted(plan.dom_orders, plan.cod_orders, tuple(
        tuple(acc[r * width:(r + 1) * width])
        for r in range(len(plan.cod_orders))))


def phi_block_index(h: LabyModulePresentation, a: int):
    """The blocks of the evaluated functor on rank a: the subsets of [a]
    with their carriers, in (size, entries) order."""
    subsets = index_subsets(a)
    return subsets, [h.block_group(len(x)).orders for x in subsets]


def phi_inverse_eval(h: LabyModulePresentation, m: IntMat) -> AbHom:
    """Evaluate the presented functor on an integer matrix.

    The value on rank a is the direct sum of the carriers over subsets of
    [a].  Block (x, y) sums the stored pure mazes [|x|] -> [|y|] of at
    most h.degree passages, each weighted by binom(m_yx, d) for every
    passage x -> y of multiplicity d: the binomial expansion of the
    sub-mazes of the matrix labelled by its entries.  The blocks and
    their stored values are walked once per shape of m, into h's plan.
    """
    def place(x):
        ends = skeleton(len(x))
        return ends, dict(zip(ends, (i - 1 for i in x)))

    return _eval_blockwise(h, m, lambda k: phi_block_index(h, k), place,
                           binomial)


def _deviation_block(evaluate, pres, maze: Maze, cols, rows) -> AbHom:
    """Deviation of an evaluated functor along a maze's transports, cut
    to the column blocks `cols` and the row blocks `rows`, each list in
    the caller's order, with a consistency assertion that the rows outside
    `rows` vanish on `cols`.

    `evaluate` is phi_inverse_eval or psi_inverse_eval on `pres`.  Each
    column block has exact full support: a stored arrow into it has a
    passage (or column) of multiplicity d >= 1 out of every source, and
    binom(0, d) = 0 ** d = 0, so only covering_deviation's terms count.
    The cut's generator positions come from the shape's plan, once a cut."""
    total = covering_deviation(lambda mat: evaluate(pres, mat), maze)
    plan = pres.plans[len(maze.cod), len(maze.dom)]

    def positions(index, wanted):
        ends = list(accumulate(map(len, index[1]), initial=0))
        at = {x: range(ends[i], ends[i + 1]) for i, x in enumerate(index[0])}
        return [p for x in wanted for p in at[x]]

    key = tuple(cols), tuple(rows)
    col_at, row_at = plan.cuts.get(key) or plan.cuts.setdefault(key, (
        positions(plan.col_index, cols), positions(plan.row_index, rows)))
    kept, mat = set(row_at), total.mat.rows
    if any(row[c] for i, row in enumerate(mat) if i not in kept
           for c in col_at):
        raise AssertionError(
            "deviation leaks outside the exact-support blocks")
    return AbHom._trusted(tuple([total.dom_orders[c] for c in col_at]),
                          tuple([total.cod_orders[r] for r in row_at]),
                          tuple(tuple([mat[r][c] for c in col_at])
                                for r in row_at))


def _phi_deviation(h: LabyModulePresentation, maze: Maze) -> AbHom:
    """The deviation block of the maze-side evaluation on the full
    subsets, the one cross-effect a stored value lives on."""
    return _deviation_block(phi_inverse_eval, h, maze,
                            [tuple(range(1, len(maze.dom) + 1))],
                            [tuple(range(1, len(maze.cod) + 1))])


def phi_roundtrip_failures(h: LabyModulePresentation):
    """Re-derive every stored value from the evaluated functor by
    deviations and compare; returns mismatch descriptions."""
    return [f"round trip differs on {maze!r}" for maze in h.mazes()
            if _phi_deviation(h, maze) != h.hom(maze)]


def numerical_axiom_check(h: LabyModulePresentation, maze: Maze) -> bool:
    """The binomial expansion law on one labelled maze: the deviation
    evaluation must equal the expanded pure-table evaluation."""
    return _phi_deviation(h, maze) == h.eval_labeled(maze)


def quasi_homogeneous_check(h: LabyModulePresentation) -> bool:
    """Whether rescaling every label by a scales stored values by a^n.

    For a stored maze P, a -> eval(a [.] P) - a^n h(P) is a sum over
    i <= n of binom(a, i) c_i with c_i in the carrier, and c_i is its
    i-th finite difference at 0.  So it vanishes at every integer iff it
    vanishes at a = 0..n, which is where this looks.
    """
    n = h.degree
    for maze in h.mazes():
        for a in range(n + 1):
            if h.eval_labeled(maze.relabel_all(a)) != h.hom(maze).scale(a**n):
                return False
    return True


# ---------------------------------------------------------------------------
# multation-side presentations


class MSetModulePresentation(Presentation):
    """A linear functor out of the degree-n multation category over a
    finite universe, as finite data."""

    __slots__ = ("universe",)

    def __init__(self, degree: int, universe, groups, table, check=True):
        universe = tuple(sorted(set(universe)))
        groups = dict(groups)
        objs = all_cardinality_multisets(universe, degree)
        for a in objs:
            if a not in groups:
                raise ValueError(f"missing carrier for {a!r}")
        for a in sorted(groups.keys() - set(objs), key=MultiSet.sort_key):
            raise ValueError(f"carrier for {a!r} is not a multi-set of "
                             f"cardinality {degree} over the universe")
        object.__setattr__(self, "universe", universe)
        super().__init__(degree, groups, dict(table), check)

    @staticmethod
    def key(mu: Multation) -> Multation:
        return mu

    identity = staticmethod(Multation.identity)

    def carrier(self, ends) -> FgAbGroup:
        group = self.groups.get(ends)
        if group is None:
            raise ValueError(f"{ends!r} has no carrier")
        return group

    def constants(self):
        return mset_structure_constants(self.universe, self.degree)

    def generators(self):
        return divided_powers(self.universe, self.degree)

    @staticmethod
    def triples(mu: Multation):
        return [(x, y, d) for (x, y), d in mu.pairs]

    def objects(self):
        return all_cardinality_multisets(self.universe, self.degree)

    def ends(self):
        return [(repr(a), a) for a in self.objects()]

    def to_json(self):
        objs = self.objects()
        mus = sorted(self.table, key=Multation.sort_key)
        return {
            "degree": self.degree,
            "universe": list(self.universe),
            "groups": [{"multiset": a.to_json(),
                        **self.groups[a].to_json()} for a in objs],
            "homs": [{"multation": mu.to_json(),
                      "matrix": self.table[mu].to_json()} for mu in mus],
        }

    @classmethod
    def from_json(cls, data, check=True):
        universe = data["universe"]
        if not isinstance(universe, list) or not all(
                isinstance(x, str) and x for x in universe):
            raise ValueError("the universe must be a list of non-empty "
                             "strings")
        groups = {}
        for item in data["groups"]:
            groups[MultiSet.from_json(item["multiset"])] = \
                FgAbGroup.from_json(item)
        table = {}
        for item in data["homs"]:
            mu = Multation.from_json(item["multation"])
            if mu.dom not in groups or mu.cod not in groups:
                raise ValueError(f"{mu!r} does not join two carriers")
            dom, cod = groups[mu.dom], groups[mu.cod]
            table[mu] = AbHom.of_groups(dom, cod, json_rows(
                item["matrix"], cod.dim, dom.dim))
        return cls(json_int(data["degree"], "degree"), universe, groups, table,
                   check=check)

    @classmethod
    def tensor_power(cls, n: int, universe, check=True):
        """The multation module of the n-fold tensor power: carriers are
        spanned by words with prescribed letter content, and a multation
        mu sends a word w to every word v whose columns zip(w, v) make up
        mu, each once."""
        universe = tuple(sorted(set(universe)))
        words = {a: [] for a in all_cardinality_multisets(universe, n)}
        for w in product(universe, repeat=n):
            words[MultiSet(w)].append(w)
        groups = {a: FgAbGroup(len(ws)) for a, ws in words.items()}
        table = {}
        hom_sets = mset_structure_constants(universe, n).arrows
        for (a, b), mus in hom_sets.items():
            rows = [[[0] * len(words[a]) for _ in words[b]] for _ in mus]
            # A multation's sorted columns with repeats are what sorting
            # the columns of a pair of words gives.
            at = {tuple(mu.columns()): mu_rows
                  for mu, mu_rows in zip(mus, rows)}
            for j, w in enumerate(words[a]):
                for i, v in enumerate(words[b]):
                    at[tuple(sorted(zip(w, v)))][i][j] = 1
            for mu, mu_rows in zip(mus, rows):
                table[mu] = AbHom._trusted(groups[a].orders, groups[b].orders,
                                           tuple(map(tuple, mu_rows)))
        return cls(n, universe, groups, table, check=check)

    @classmethod
    def frobenius_twist(cls, carrier: FgAbGroup, universe, degree: int,
                        check=True):
        """A linear carrier placed in the given degree along power maps:
        constant multi-sets x^n carry the group, everything else is zero,
        and the single-column multations act as the identity."""
        universe = tuple(sorted(set(universe)))
        zero = FgAbGroup(0)
        groups = {a: carrier if len(a.support) == 1 else zero
                  for a in all_cardinality_multisets(universe, degree)}
        hom_sets = mset_structure_constants(universe, degree).arrows
        table = {mu: AbHom.identity(carrier.orders)
                 if len(a.support) == len(b.support) == 1
                 else AbHom.zero(groups[a].orders, groups[b].orders)
                 for (a, b), mus in hom_sets.items() for mu in mus}
        return cls(degree, universe, groups, table, check=check)


def psi_block_index(j: MSetModulePresentation, names):
    """Blocks of the evaluated functor on a set of the universe's letters:
    the cardinality-n multi-sets supported inside it, with carriers."""
    if not set(names) <= set(j.universe):
        raise ValueError("matrix is larger than the presentation's universe")
    blocks = all_cardinality_multisets(names, j.degree)
    return blocks, [j.groups[a].orders for a in blocks]


def psi_inverse_eval(j: MSetModulePresentation, m: IntMat) -> AbHom:
    """Evaluate the presented functor on an integer matrix: blocks are
    indexed by cardinality-n multi-sets, and each multation between them
    contributes its monomial in the matrix entries times its stored map:
    entry ** d for every column x -> y of multiplicity d.  The blocks and
    their stored values are walked once per shape of m, into j's plan."""
    return _eval_blockwise(j, m, lambda k: psi_block_index(j, skeleton(k)),
                           lambda block: (block, _INDEX_OF_LETTER), pow)


def ariadne_pullback(j: MSetModulePresentation, maze: Maze) -> AbHom:
    """The multation presentation j pulled back to one pure maze along
    ariadne: block (B, A) is j on the ariadne entry A -> B, over the
    multi-sets of degree j.degree supported exactly on the maze's ends, in
    enumerate_supported order; j's values at other ends are not read."""
    cols = enumerate_supported(maze.dom, j.degree)
    rows = enumerate_supported(maze.cod, j.degree)
    matrix = bridge.ariadne_maze(maze, j.degree)
    return abhom_block([[j.eval_hom(matrix.entry(b, a)) for a in cols]
                        for b in rows], [j.groups[a].orders for a in cols],
                       [j.groups[b].orders for b in rows])


def ariadne_thread_failures(j: MSetModulePresentation):
    """Compare the deviation evaluation of the multation module, cut to
    the exact-support blocks, with its ariadne_pullback on all small pure
    mazes inside the universe; a mismatch names its maze.  Both sides are
    linear in the stored table, so this checks the evaluation and
    translation formulas, not the table: that is what check() does."""
    max_side = min(len(j.universe), MAX_MATRIX_SIDE)
    if not set(skeleton(max_side)) <= set(j.universe):
        raise ValueError(f"the thread check needs the letters 1..{max_side}"
                         f" of its matrices in the universe {list(j.universe)}")
    supported = [enumerate_supported(skeleton(k), j.degree)
                 for k in range(max_side + 1)]
    return [f"thread mismatch on {maze!r}"
            for a, b in product(range(max_side + 1), repeat=2)
            for maze in pure_mazes_between(skeleton(a), skeleton(b),
                                           range(j.degree + 1))
            if _deviation_block(psi_inverse_eval, j, maze, supported[a],
                                supported[b]) != ariadne_pullback(j, maze)]


# ---------------------------------------------------------------------------
# the degree-2 classification


def quadratic_relations_check(k_group: FgAbGroup, x_group: FgAbGroup,
                              y_group: FgAbGroup, alpha: AbHom,
                              beta: AbHom) -> bool:
    """The two classifying relations of degree-2 presentations."""
    x, y = x_group.orders, y_group.orders
    if ((alpha.dom_orders, alpha.cod_orders, beta.dom_orders,
         beta.cod_orders) != (x, y, y, x)):
        raise ShapeMismatchError("alpha and beta do not fit the carriers")
    bab = beta.compose(alpha).compose(beta)
    aba = alpha.compose(beta).compose(alpha)
    return bab == beta.scale(2) and aba == alpha.scale(2)


def quadratic_homogeneous_criterion(k_group: FgAbGroup, x_group: FgAbGroup,
                                    y_group: FgAbGroup, alpha: AbHom,
                                    beta: AbHom) -> bool:
    """Effective criterion for a degree-2 presentation to carry a
    homogeneous structure: trivial constant part and beta alpha = 2."""
    if not quadratic_relations_check(k_group, x_group, y_group, alpha, beta):
        raise ValueError("the classifying relations do not hold")
    if not k_group.is_trivial():
        return False
    doubled = AbHom.identity(x_group.orders).scale(2)
    return beta.compose(alpha) == doubled
