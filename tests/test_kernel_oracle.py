"""The integer kernel sums deviations into one flat list of entries that
skips zeros, evaluates presentations over the nonzero entries of the
stored values, listed once in each shape's plan, restricts a maze's
deviation to the source cross-effect before summing, sums there only the
transport subsets that reach every source, and solves in the lattice
over the nonzero rows of the basis only.  It is checked here against the earlier dense
implementations, kept below as the oracle: they add and scale whole
matrices one at a time through the checking constructors, and the
lattice basis comes from the earlier column elimination.  Every matrix
product multiplies only nonzero entries; the earlier dense product, which
multiplies every entry pair, is its oracle.  Results must agree in type,
shape, rows and serialized form, and failures in type and message."""

import json
import os
import random
import re
from functools import cache
from itertools import accumulate, product
from math import gcd
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from mazelab import bridge, functor_lab
from mazelab.errors import ShapeMismatchError
from mazelab.functor_lab import (
    AbHom,
    EvalPlan,
    FgAbGroup,
    HomSet,
    LabyModulePresentation,
    MSetModulePresentation,
    MatrixFunctor,
    abhom_block,
    ariadne_thread_failures,
    covering_deviation,
    cross_effect_basis,
    cross_effect_projectors,
    deviation,
    identity_functor,
    index_subsets,
    numerical_axiom_check,
    phi_block_index,
    phi_forward,
    phi_inverse_eval,
    phi_roundtrip_failures,
    psi_block_index,
    psi_inverse_eval,
    quadratic_relations_check,
    restricted_functor,
    tensor_power_functor,
    transport_maps,
)
from mazelab.labycat import (Maze, Passage, laby_structure_constants,
                             pure_mazes_between, quadratic_generators,
                             skeleton)
from mazelab.matrices import IntMat, column_lattice_basis, solve_in_lattice
from mazelab.msetcat import mset_structure_constants
from mazelab.multisets import all_cardinality_multisets, enumerate_supported
from mazelab.scalars import binomial
from mazelab.verify import _random_unimodular, random_quadratic_presentation
from oracles import direct_sum_functor
from test_structure_constants import assert_checks_agree

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

# ---------------------------------------------------------------- oracle


def dense_row_products(rows, cols):
    """The rows, as tuples, of the product of the matrix with these rows
    and the matrix with these columns."""
    return tuple(tuple([sum(map(mul, row, col)) for col in cols])
                 for row in rows)


def dense_add(x, y):
    if isinstance(x, AbHom):
        if (x.dom_orders, x.cod_orders) != (y.dom_orders, y.cod_orders):
            raise ShapeMismatchError("homomorphisms have different endpoints")
        return AbHom(x.dom_orders, x.cod_orders, dense_add(x.mat, y.mat))
    if (x.nrows, x.ncols) != (y.nrows, y.ncols):
        raise ShapeMismatchError("matrix shapes differ")
    return IntMat(x.nrows, x.ncols, [[a + b for a, b in zip(ra, rb)]
                                     for ra, rb in zip(x.rows, y.rows)])


def dense_scale(x, c):
    if isinstance(x, AbHom):
        return AbHom(x.dom_orders, x.cod_orders, dense_scale(x.mat, c))
    return IntMat(x.nrows, x.ncols, [[c * a for a in row] for row in x.rows])


def old_deviation(f, maps):
    maps = list(maps)
    nrows, ncols = (maps[0].nrows, maps[0].ncols) if maps else (0, 0)
    for m in maps:
        if (m.nrows, m.ncols) != (nrows, ncols):
            raise ShapeMismatchError("deviation maps must share their shape")
    k = len(maps)
    sums = [IntMat.zeros(nrows, ncols)]
    total = dense_scale(f(sums[0]), (-1) ** k)
    for mask in range(1, 1 << k):
        low = mask & -mask
        sums.append(sums[mask ^ low] + maps[low.bit_length() - 1])
        total = dense_add(total, dense_scale(
            f(sums[mask]), (-1) ** (k - bin(mask).count("1"))))
    return total


def old_column_lattice_basis(m):
    cols = [list(col) for col in m.columns()]
    basis = []
    pivots = []
    row = 0
    while row < m.nrows and cols:
        live = [c for c in cols if any(c[row:])]
        cols = live
        if not cols:
            break
        nz = [c for c in cols if c[row] != 0]
        if not nz:
            row += 1
            continue
        while len([c for c in cols if c[row] != 0]) > 1:
            nz = sorted((c for c in cols if c[row] != 0),
                        key=lambda c: abs(c[row]))
            small, nxt = nz[0], nz[1]
            q = nxt[row] // small[row]
            for i in range(m.nrows):
                nxt[i] -= q * small[i]
        pivot = next(c for c in cols if c[row] != 0)
        if pivot[row] < 0:
            for i in range(m.nrows):
                pivot[i] = -pivot[i]
        cols.remove(pivot)
        basis.append(tuple(pivot))
        pivots.append(row)
        row += 1
    return pivots, basis


def old_solve_in_lattice(pivots, basis, vector):
    v = list(vector)
    coords = []
    for prow, bcol in zip(pivots, basis):
        lead = bcol[prow]
        if v[prow] % lead != 0:
            return None
        t = v[prow] // lead
        coords.append(t)
        for i in range(len(v)):
            v[i] -= t * bcol[i]
    if any(v):
        return None
    return coords


def old_cross_effect_basis(f, a):
    full = tuple(range(1, a + 1))
    if not full:
        return old_column_lattice_basis(f(IntMat.zeros(0, 0)))
    return old_column_lattice_basis(old_deviation(
        f, [IntMat.unit(a, a, i - 1, i - 1) for i in full]))


def old_phi_forward(f, maze, values=None):
    a, b = len(maze.dom), len(maze.cod)
    dev = old_deviation(values or f, transport_maps(maze))
    piv_x, basis_x = old_cross_effect_basis(f, a)
    piv_y, basis_y = old_cross_effect_basis(f, b)
    cols = []
    for v in basis_x:
        w = dev @ IntMat(len(v), 1, [[x] for x in v])
        coords = old_solve_in_lattice(piv_y, basis_y, [r[0] for r in w.rows])
        if coords is None:
            raise ValueError(
                "deviation does not map the source cross-effect into the "
                "target one; functor is not free-valued or not functorial")
        cols.append(coords)
    return IntMat(len(basis_y), len(basis_x),
                  [[cols[j][i] for j in range(len(cols))]
                   for i in range(len(basis_y))])


def old_from_functor(f, degree):
    groups = [FgAbGroup(len(old_cross_effect_basis(f, k)[1]))
              for k in range(degree + 1)]
    table = {}
    for (dom, cod), mazes in laby_structure_constants(degree).arrows.items():
        values = cache(f)
        for maze in mazes:
            table[maze] = AbHom.of_groups(
                groups[len(dom)], groups[len(cod)],
                old_phi_forward(f, maze, values).rows)
    return LabyModulePresentation(degree, groups, table, check=False)


def old_quadratic_table(k, x, y, alpha, beta):
    """The table quadratic wrote by hand before it filled through
    Presentation.fill: the identities, A and B, C = B A and S = A B - 1."""
    gens = quadratic_generators()
    return {gens["I0"]: AbHom.identity(k.orders),
            gens["I1"]: AbHom.identity(x.orders),
            gens["I2"]: AbHom.identity(y.orders),
            gens["A"]: alpha, gens["B"]: beta,
            gens["C"]: beta.compose(alpha),
            gens["S"]: alpha.compose(beta) - AbHom.identity(y.orders)}


def old_combination(dom_orders, cod_orders, terms):
    total = AbHom.zero(dom_orders, cod_orders)
    for hom, c in terms:
        total = dense_add(total, dense_scale(hom, c))
    return total


def old_eval_blockwise(pres, m, col_index, row_index, place, weight):
    def weighted(hom_set, col_of, row_of):
        for t, triples in enumerate([pres.triples(x) for x in hom_set.arrows]):
            w = 1
            for s, r, d in triples:
                w *= weight(m.rows[row_of[r]][col_of[s]], d)
                if w == 0:
                    break
            yield hom_set.value(t), w

    col_blocks, col_orders = col_index
    row_blocks, row_orders = row_index
    cols = [place(x) for x in col_blocks]
    grid = []
    for y, cod_orders in zip(row_blocks, row_orders):
        cod, row_of = place(y)
        grid.append([old_combination(
            dom_orders, cod_orders,
            weighted(pres.hom_set(dom, cod), col_of, row_of))
            for (dom, col_of), dom_orders in zip(cols, col_orders)])
    return abhom_block(grid, col_orders, row_orders)


def old_phi_inverse_eval(h, m):
    b, a = m.nrows, m.ncols
    if max(a, b) > 3:
        raise ValueError("matrix side above the guard")

    def place(x):
        ends = skeleton(len(x))
        return ends, dict(zip(ends, (i - 1 for i in x)))

    return old_eval_blockwise(h, m, phi_block_index(h, a),
                              phi_block_index(h, b), place, binomial)


def old_psi_inverse_eval(j, m):
    b, a = m.nrows, m.ncols
    if max(a, b) > 3:
        raise ValueError("matrix side above the guard")
    names = {x: int(x) - 1 for x in skeleton(max(a, b))}
    if not set(names) <= set(j.universe):
        raise ValueError("matrix is larger than the presentation's universe")
    return old_eval_blockwise(j, m, psi_block_index(j, skeleton(a)),
                              psi_block_index(j, skeleton(b)),
                              lambda block: (block, names), pow)


def extract_block(hom, row_orders_list, col_orders_list, row_index,
                  col_index):
    r0 = sum(len(o) for o in row_orders_list[:row_index])
    r1 = r0 + len(row_orders_list[row_index])
    c0 = sum(len(o) for o in col_orders_list[:col_index])
    c1 = c0 + len(col_orders_list[col_index])
    return AbHom(col_orders_list[col_index], row_orders_list[row_index],
                 IntMat(r1 - r0, c1 - c0, [row[c0:c1]
                                           for row in hom.mat.rows[r0:r1]]))


def old_deviation_block(evaluate, pres, maze, col_index, row_index, exact):
    col_blocks, col_orders = col_index
    row_blocks, row_orders = row_index
    total = old_deviation(lambda mat: evaluate(pres, mat),
                          transport_maps(maze))
    cols = [j for j, x in enumerate(col_blocks) if exact(x, len(maze.dom))]
    rows = [i for i, y in enumerate(row_blocks) if exact(y, len(maze.cod))]
    grid = [[extract_block(total, row_orders, col_orders, i, j) for j in cols]
            for i in range(len(row_blocks))]
    if any(not hom.is_zero() for i, row in enumerate(grid) if i not in rows
           for hom in row):
        raise AssertionError(
            "deviation leaks outside the exact-support blocks")
    return ([grid[i] for i in rows], [col_blocks[j] for j in cols],
            [row_blocks[i] for i in rows])


def old_phi_deviation(h, maze):
    [[block]], _, _ = old_deviation_block(
        old_phi_inverse_eval, h, maze, phi_block_index(h, len(maze.dom)),
        phi_block_index(h, len(maze.cod)), lambda x, k: len(x) == k)
    return block


def old_phi_roundtrip_failures(h):
    return [f"round trip differs on {maze!r}" for maze in h.mazes()
            if old_phi_deviation(h, maze) != h.hom(maze)]


def old_numerical_axiom_check(h, maze):
    return old_phi_deviation(h, maze) == h.eval_labeled(maze)


def old_ariadne_thread_failures(j):
    n = j.degree
    failures = []
    max_side = min(len(j.universe), 3)
    if not set(skeleton(max_side)) <= set(j.universe):
        raise ValueError(f"the thread check needs the letters 1..{max_side}"
                         f" of its matrices in the universe {list(j.universe)}")
    for a_size in range(max_side + 1):
        for b_size in range(max_side + 1):
            for maze in pure_mazes_between(skeleton(a_size), skeleton(b_size),
                                           range(n + 1)):
                grid, col_blocks, row_blocks = old_deviation_block(
                    old_psi_inverse_eval, j, maze,
                    psi_block_index(j, skeleton(a_size)),
                    psi_block_index(j, skeleton(b_size)),
                    lambda blk, k: len(blk.support) == k)
                matrix = bridge.ariadne_maze(maze, n)
                for bi, bb in enumerate(row_blocks):
                    for ai, aa in enumerate(col_blocks):
                        expected = j.eval_hom(matrix.entry(bb, aa))
                        if grid[bi][ai] != expected:
                            failures.append(
                                f"thread mismatch on {maze!r} at "
                                f"({bb!r}, {aa!r})")
    return failures

# ------------------------------------------------------------ comparison


def described(value):
    """Type, shape, endpoints, rows and serialized form of a result."""
    if isinstance(value, AbHom):
        return ("AbHom", value.dom_orders, value.cod_orders,
                described(value.mat), json.dumps(value.to_json()))
    return (type(value).__name__, value.nrows, value.ncols, value.rows,
            json.dumps(value.to_json()))


def outcome(fn, *args):
    """The described result of fn(*args), or the type and message of what
    it raised."""
    try:
        return described(fn(*args))
    except (ValueError, KeyError, ShapeMismatchError) as exc:
        return ("raised", type(exc).__name__, str(exc))


def matrices(rng, per_shape):
    """Every shape up to 3 x 3, 0 x k and k x 0 among them: the zero
    matrix, then seeded ones whose entries in [-2, 2] include zeros."""
    for rows in range(4):
        for cols in range(4):
            yield IntMat.zeros(rows, cols)
            for _ in range(per_shape):
                yield IntMat(rows, cols, [[rng.randint(-2, 2)
                                           for _ in range(cols)]
                                          for _ in range(rows)])


def load(cls, name):
    with open(os.path.join(FIXTURES, name)) as fh:
        return cls.from_json(json.load(fh), check=False)


def constant_plus_identity():
    """Z + identity: its value on the zero map is not zero."""
    def arrow(m):
        return IntMat(1 + m.nrows, 1 + m.ncols, [[1] + [0] * m.ncols]
                      + [[0] + list(row) for row in m.rows])

    return MatrixFunctor("Z+identity", lambda a: 1 + a, arrow)


FUNCTORS = {
    "Z+identity": constant_plus_identity,
    "identity": identity_functor,
    "tensor^2": lambda: tensor_power_functor(2),
    "tensor^3": lambda: tensor_power_functor(3),
    "identity+tensor^2": lambda: direct_sum_functor(
        identity_functor(), tensor_power_functor(2)),
}


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(FUNCTORS))
def test_from_functor_matches_the_oracle(name, degree):
    new = LabyModulePresentation.from_functor(FUNCTORS[name](), degree,
                                              check=False)
    old = old_from_functor(FUNCTORS[name](), degree)
    assert new.groups == old.groups
    assert new.table.keys() == old.table.keys()
    for maze, value in old.table.items():
        assert described(new.table[maze]) == described(value), maze
    assert json.dumps(new.to_json()) == json.dumps(old.to_json())
    f = FUNCTORS[name]()
    for maze in new.mazes():
        assert described(phi_forward(f, maze)) == described(
            old_phi_forward(f, maze)), maze


def unchecked_quadratic(rng):
    """random_quadratic_presentation's draw from rng, built unchecked."""
    r = rng.randint(1, 2)
    u, u_inv = _random_unimodular(rng, r)
    x, y, k = FgAbGroup(r), FgAbGroup(r), FgAbGroup(rng.randint(0, 2))
    if rng.random() < 0.5:
        alpha, beta = u.rows, u_inv.scale(2).rows
    else:
        alpha, beta = u.scale(2).rows, u_inv.rows
    return LabyModulePresentation.quadratic(
        k, x, y, AbHom.of_groups(x, y, alpha), AbHom.of_groups(y, x, beta),
        check=False)


# The corpora are built unchecked, so that a fault in a check fails the
# test below that runs it, not the collection of this module.
def laby_corpus():
    zero, z2 = FgAbGroup(0), FgAbGroup(0, (2,))
    out = [("frobenius_laby.json", load(LabyModulePresentation,
                                        "frobenius_laby.json")),
           ("identity_laby.json", load(LabyModulePresentation,
                                       "identity_laby.json")),
           ("quadratic Z/2", LabyModulePresentation.quadratic(
               zero, z2, zero, AbHom.of_groups(z2, zero, []),
               AbHom.of_groups(zero, z2, [[]]), check=False))]
    out += [(f"{name} degree {n}",
             LabyModulePresentation.from_functor(FUNCTORS[name](), n,
                                                 check=False))
            for name in ("tensor^2", "tensor^3") for n in (2, 3)
            if name != "tensor^3" or n == 3]
    rng = random.Random(19)
    out += [(f"random quadratic #{i}", unchecked_quadratic(rng))
            for i in range(4)]
    return out


def mset_corpus():
    return [("frobenius_mset.json", load(MSetModulePresentation,
                                         "frobenius_mset.json")),
            ("square_mset.json", load(MSetModulePresentation,
                                      "square_mset.json")),
            ("tensor_power(2, 123)", MSetModulePresentation.tensor_power(
                2, "123", check=False)),
            ("tensor_power(3, 123)", MSetModulePresentation.tensor_power(
                3, "123", check=False)),
            ("frobenius_twist Z/2 + Z/4", MSetModulePresentation.
             frobenius_twist(FgAbGroup(0, (2, 4)), "123", 3, check=False))]


LABY = laby_corpus()
MSET = mset_corpus()


@pytest.mark.parametrize("name, h", LABY, ids=[name for name, _ in LABY])
def test_phi_inverse_eval_matches_the_oracle(name, h):
    for m in matrices(random.Random(name), 2):
        assert outcome(phi_inverse_eval, h, m) == outcome(
            old_phi_inverse_eval, h, m), (name, m)


@pytest.mark.parametrize("name, j", MSET, ids=[name for name, _ in MSET])
def test_psi_inverse_eval_matches_the_oracle(name, j):
    for m in matrices(random.Random(name), 2):
        assert outcome(psi_inverse_eval, j, m) == outcome(
            old_psi_inverse_eval, j, m), (name, m)


def test_a_missing_value_is_named_alike():
    h = LabyModulePresentation.from_functor(tensor_power_functor(2), 2)
    table = dict(h.table)
    del table[min(table, key=lambda x: (x.size, repr(x)))]
    partial = LabyModulePresentation(2, h.groups, table, check=False)
    for m in matrices(random.Random(3), 1):
        assert outcome(phi_inverse_eval, partial, m) == outcome(
            old_phi_inverse_eval, partial, m), m
        # A walk that raised kept no plan, so the shape's second
        # evaluation walks again and raises the same text.
        assert outcome(phi_inverse_eval, partial, m) == outcome(
            old_phi_inverse_eval, partial, m), m
    assert partial.plans == {}


# ------------------------------------------------------ evaluation plans


def fresh(pres):
    """A copy of pres with no hom-set index and no evaluation plan yet."""
    return type(pres).from_json(pres.to_json(), check=False)


def evaluators(pres):
    """The evaluation of pres's side and its oracle."""
    if isinstance(pres, LabyModulePresentation):
        return phi_inverse_eval, old_phi_inverse_eval
    return psi_inverse_eval, old_psi_inverse_eval


def interleaved(rng):
    """The matrices of every shape up to 3 x 3 in a seeded shuffled order,
    so that the shapes interleave."""
    ms = list(matrices(rng, 2))
    rng.shuffle(ms)
    return ms


CORPUS = LABY + MSET


@pytest.mark.parametrize("name, pres", CORPUS,
                         ids=[name for name, _ in CORPUS])
def test_plans_evaluate_interleaved_shapes_as_the_oracle(name, pres):
    # Twice over every matrix: most evaluations read a kept plan.
    pres = fresh(pres)
    evaluate, oracle = evaluators(pres)
    ms = interleaved(random.Random(name))
    for m in ms + ms:
        assert outcome(evaluate, pres, m) == outcome(oracle, pres, m), m


def test_a_plan_is_built_once_per_presentation_and_shape(monkeypatch):
    built = []

    def counted(*fields):
        built.append(fields)
        return EvalPlan(*fields)

    monkeypatch.setattr(functor_lab, "EvalPlan", counted)
    refused = 0
    for name, pres in CORPUS:
        pres, evaluate = fresh(pres), evaluators(pres)[0]
        built.clear()
        ok = set()
        for m in interleaved(random.Random(name)) * 3:
            if outcome(evaluate, pres, m)[0] != "raised":
                ok.add((m.nrows, m.ncols))
        # One plan for each shape that evaluates, however often it does.
        assert set(pres.plans) == ok, name
        assert len(built) == len(ok), name
        refused += 16 - len(ok)
    # The two-letter universes refuse the shapes with a side of 3 before
    # a plan is begun.
    assert refused == 2 * 7


def place(pres, block):
    """The ends of a block's hom-sets: a subset of [a] reads as the
    skeleton of its size on the maze side, a multi-set as itself."""
    if isinstance(pres, LabyModulePresentation):
        return skeleton(len(block))
    return block


def visited_nonzeros(pres, plan):
    """The nonzero entries of every stored value the plan's walk visits,
    one tuple of (flat position, entry) pairs per value with any, worked
    out block by block from the value's dense rows."""
    col_at = list(accumulate(map(len, plan.col_index[1]), initial=0))
    row_at = list(accumulate(map(len, plan.row_index[1]), initial=0))
    out = []
    for y, top in zip(plan.row_index[0], row_at):
        for x, left in zip(plan.col_index[0], col_at):
            for value in pres.hom_set(place(pres, x), place(pres, y)).values:
                entries = tuple(
                    ((top + i) * plan.width + left + j, e)
                    for i, row in enumerate(value.mat.rows)
                    for j, e in enumerate(row) if e)
                if entries:
                    out.append(entries)
    return out


def listed_nonzeros(plan):
    """The plan's terms as the (flat position, entry) pairs they add."""
    return [tuple(nonzeros) for nonzeros, _ in plan.terms]


@pytest.mark.parametrize("name, pres", CORPUS,
                         ids=[name for name, _ in CORPUS])
def test_a_plan_lists_the_nonzeros_of_the_values_it_visits(name, pres):
    pres, evaluate = fresh(pres), evaluators(pres)[0]
    for m in matrices(random.Random(name), 0):
        if outcome(evaluate, pres, m)[0] == "raised":
            continue
        plan = pres.plans[m.nrows, m.ncols]
        expected, listed = visited_nonzeros(pres, plan), listed_nonzeros(plan)
        # As many entries as the visited values have nonzeros, each at
        # its position with its entry, one term per value with any.
        assert sum(map(len, listed)) == sum(map(len, expected)), (name, m)
        assert sorted(listed) == sorted(expected), (name, m)


def with_table(pres, table):
    """pres with another table, unchecked."""
    if isinstance(pres, LabyModulePresentation):
        return LabyModulePresentation(pres.degree, pres.groups, table,
                                      check=False)
    return MSetModulePresentation(pres.degree, pres.universe, pres.groups,
                                  table, check=False)


@pytest.mark.parametrize("name, pres", CORPUS,
                         ids=[name for name, _ in CORPUS])
def test_a_zeroed_value_leaves_no_term(name, pres):
    pres = fresh(pres)
    evaluate, oracle = evaluators(pres)
    arrow = min((x for x, value in pres.table.items() if not value.is_zero()),
                key=repr)
    table = dict(pres.table)
    table[arrow] = AbHom.zero(table[arrow].dom_orders,
                              table[arrow].cod_orders)
    zero = with_table(pres, table)
    ms, visited = interleaved(random.Random(name)), 0
    for m in ms + ms:
        assert outcome(evaluate, zero, m) == outcome(oracle, zero, m), m
        if outcome(evaluate, pres, m)[0] == "raised":
            continue
        plan = zero.plans[m.nrows, m.ncols]
        assert sorted(listed_nonzeros(plan)) == sorted(
            visited_nonzeros(zero, plan)), m
        # One term fewer for each block pair whose hom-set holds the arrow.
        visits = sum(1 for x, y in product(plan.col_index[0],
                                           plan.row_index[0])
                     if (place(pres, x), place(pres, y)) == (arrow.dom,
                                                             arrow.cod))
        assert len(plan.terms) == len(
            pres.plans[m.nrows, m.ncols].terms) - visits, m
        visited += visits
    assert visited


def dense_listing(value):
    """The row, column and entry of each nonzero entry of a value in turn,
    in row-major order, worked out from its dense rows; () for a zero
    value."""
    return tuple(y for i, row in enumerate(value.mat.rows)
                 for j, x in enumerate(row) if x for y in (i, j, x))


def zeroed(pres):
    """pres with its first nonzero value by repr zeroed, unchecked, and
    that value's arrow."""
    arrow = min((x for x, value in pres.table.items() if not value.is_zero()),
                key=repr)
    value = pres.table[arrow]
    return with_table(pres, {**pres.table, arrow: AbHom.zero(
        value.dom_orders, value.cod_orders)}), arrow


@pytest.mark.parametrize("name, pres", CORPUS,
                         ids=[name for name, _ in CORPUS])
def test_a_hom_set_lists_the_nonzeros_of_its_dense_values(name, pres):
    zero, arrow = zeroed(pres)
    for p in (fresh(pres), zero):
        for ends, arrows in p.constants().arrows.items():
            hom_set = p.hom_set(*ends)
            assert hom_set.arrows == arrows
            assert hom_set.nonzeros == [
                dense_listing(value) for value in hom_set.values], ends
    hom_set = zero.hom_set(arrow.dom, arrow.cod)
    assert hom_set.nonzeros[hom_set.arrows.index(arrow)] == ()


@pytest.mark.parametrize("name, pres", CORPUS,
                         ids=[name for name, _ in CORPUS])
def test_a_missing_value_is_listed_as_none_and_raises_by_name(name, pres):
    arrow = max((x for x in pres.table if x != pres.identity(x.dom)),
                key=repr)
    partial = with_table(pres, {x: value for x, value in pres.table.items()
                                if x != arrow})
    hom_set = partial.hom_set(arrow.dom, arrow.cod)
    t = hom_set.arrows.index(arrow)
    assert hom_set.nonzeros[t] is None
    lacks = re.escape(f"presentation lacks a value for {arrow!r}")
    with pytest.raises(KeyError, match=lacks):
        hom_set.value(t)
    with pytest.raises(KeyError, match=lacks):
        partial.check()


@pytest.mark.parametrize("name, pres", CORPUS,
                         ids=[name for name, _ in CORPUS])
def test_evaluations_after_a_check_list_no_hom_set_again(name, pres,
                                                         monkeypatch):
    pres, evaluate = fresh(pres), evaluators(pres)[0]
    if name == "frobenius_twist Z/2 + Z/4":
        # No functor in degree 3; its refused check has listed every
        # hom-set all the same, before the generator loop.
        with pytest.raises(ValueError, match="not functorial"):
            pres.check()
    else:
        pres.check()
    listed, made = dict(pres.hom_sets), []
    assert set(pres.constants().arrows) <= set(listed)

    def counted(*fields):
        made.append(fields)
        return HomSet(*fields)

    monkeypatch.setattr(functor_lab, "HomSet", counted)
    for m in matrices(random.Random(name), 1):
        if outcome(evaluate, pres, m)[0] == "raised":
            continue
        plan = pres.plans[m.nrows, m.ncols]
        assert sorted(listed_nonzeros(plan)) == sorted(
            visited_nonzeros(pres, plan)), m
    # The check listed every hom-set of the constants; an entry made since
    # joins ends outside them and lists nothing.
    assert all(pres.hom_sets[ends] is entry for ends, entry in listed.items())
    assert len(pres.hom_sets) == len(listed) + len(made)
    assert all(not arrows and not nonzeros for arrows, _, nonzeros in made)


CARRIERS = (FgAbGroup(0), FgAbGroup(1), FgAbGroup(2), FgAbGroup(0, (2,)),
            FgAbGroup(0, (2, 4)), FgAbGroup(1, (3,)))


def random_value(rng, dom_orders, cod_orders, density):
    """A well-defined map between the orders whose entries are nonzero
    with probability `density`: a generator of order d > 0 goes to a
    multiple of e / gcd(d, e) in a generator of order e > 0, and to 0 in
    a free one."""
    def entry(d, e):
        if rng.random() >= density:
            return 0
        x = rng.choice((-3, -2, -1, 1, 2, 3))
        if d == 0:
            return x
        return 0 if e == 0 else x * (e // gcd(d, e))

    return AbHom(dom_orders, cod_orders, IntMat(
        len(cod_orders), len(dom_orders),
        [[entry(d, e) for d in dom_orders] for e in cod_orders]))


@st.composite
def random_presentations(draw):
    """A presentation of degree 1 to 3 on either side, its carriers free
    or torsion, its stored values random and unchecked, at a density from
    all-zero to full."""
    degree = draw(st.integers(1, 3))
    density = draw(st.sampled_from((0.0, 0.1, 0.3, 0.6, 1.0)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if draw(st.booleans()):
        groups = [rng.choice(CARRIERS) for _ in range(degree + 1)]
        arrows = laby_structure_constants(degree).arrows
        return LabyModulePresentation(degree, groups, {
            x: random_value(rng, groups[len(dom)].orders,
                            groups[len(cod)].orders, density)
            for (dom, cod), xs in arrows.items() for x in xs}, check=False)
    universe = draw(st.sampled_from(("12", "123")))
    constants = mset_structure_constants(tuple(universe), degree)
    groups = {a: rng.choice(CARRIERS)
              for a in all_cardinality_multisets(universe, degree)}
    return MSetModulePresentation(degree, universe, groups, {
        x: random_value(rng, groups[a].orders, groups[b].orders, density)
        for (a, b), xs in constants.arrows.items() for x in xs},
        check=False)


@settings(max_examples=100, deadline=None)
@given(pres=random_presentations(), seed=st.integers(0, 2 ** 32))
def test_evaluations_at_every_density_match_the_oracle(pres, seed):
    # Each matrix twice: the second evaluation reads the kept plan.
    evaluate, oracle = evaluators(pres)
    for m in matrices(random.Random(seed), 1):
        expected = outcome(oracle, pres, m)
        for _ in range(2):
            assert outcome(evaluate, pres, m) == expected, m


def with_identities(pres):
    """pres with every identity mapped to the identity, unchecked, so that
    its check reaches the generator loop."""
    return with_table(pres, {**pres.table, **{
        pres.key(pres.identity(ends)): AbHom.identity(
            pres.carrier(ends).orders) for _, ends in pres.ends()}})


@st.composite
def perturbed_corpus(draw):
    """A corpus presentation with up to two values other than identities
    replaced by random ones at a density from all-zero to full,
    unchecked."""
    pres = draw(st.sampled_from([pres for _, pres in CORPUS]))
    density = draw(st.sampled_from((0.0, 0.1, 0.3, 0.6, 1.0)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    arrows = sorted((x for x in pres.table if x != pres.identity(x.dom)),
                    key=repr)
    table = dict(pres.table)
    for x in rng.sample(arrows, draw(st.integers(0, 2))):
        table[x] = random_value(rng, table[x].dom_orders,
                                table[x].cod_orders, density)
    return with_table(pres, table)


@settings(max_examples=100, deadline=None)
@given(pres=st.one_of(random_presentations().map(with_identities),
                      perturbed_corpus()))
def test_checks_at_every_density_match_the_pairwise_oracle(pres):
    # The check adds only the listed nonzeros of empty, sparse and dense
    # values; the oracle composes every pair and compares dense maps.
    assert_checks_agree(pres)


def labelled_mazes():
    """Labelled mazes on [1] and [2]: a doubled loop, a crossing with a
    loop, each labelled in a few ways."""
    one, two = skeleton(1), skeleton(2)
    for a, b in [(1, 1), (2, -1), (-2, 3), (0, 2)]:
        yield Maze(one, one, [Passage("1", "1", a), Passage("1", "1", b)])
        yield Maze(two, one, [Passage("1", "1", a), Passage("2", "1", b)])
        yield Maze(two, two, [Passage("1", "2", a), Passage("2", "1", b),
                              Passage("2", "2", a * b)])


@pytest.mark.parametrize("name, h", LABY, ids=[name for name, _ in LABY])
def test_maze_side_deviations_match_the_oracle(name, h):
    h = fresh(h)
    assert phi_roundtrip_failures(h) == old_phi_roundtrip_failures(h)
    for maze in h.mazes():
        assert outcome(functor_lab._phi_deviation, h, maze) == outcome(
            old_phi_deviation, h, maze), maze
    for maze in labelled_mazes():
        assert numerical_axiom_check(h, maze) == old_numerical_axiom_check(
            h, maze), maze


@pytest.mark.parametrize("name, j", MSET, ids=[name for name, _ in MSET])
def test_ariadne_thread_failures_match_the_oracle(name, j):
    j = fresh(j)
    assert ariadne_thread_failures(j) == old_ariadne_thread_failures(j)


def map_lists(rng, shape, most):
    """Lists of 0..most maps of one shape, zero maps among them."""
    rows, cols = shape
    for k in range(most + 1):
        for _ in range(2):
            yield [IntMat(rows, cols, [[rng.choice((0, 0, -1, 1, 2))
                                        for _ in range(cols)]
                                       for _ in range(rows)])
                   for _ in range(k)]


@pytest.mark.parametrize("name", sorted(FUNCTORS))
def test_deviation_of_matrices_matches_the_oracle(name):
    f = FUNCTORS[name]()
    rng = random.Random(name)
    for shape in [(0, 0), (0, 2), (2, 0), (1, 1), (2, 1), (2, 2)]:
        for maps in map_lists(rng, shape, 4):
            assert outcome(deviation, f, maps) == outcome(
                old_deviation, f, maps), (shape, maps)
    for a in range(4):
        projectors = cross_effect_projectors(f, a)
        assert [x for x, _ in projectors] == index_subsets(a)
        for x, e in projectors:
            units = [IntMat.unit(a, a, i - 1, i - 1) for i in x]
            old = old_deviation(f, units) if x else f(IntMat.zeros(a, a))
            assert described(e) == described(old), (a, x)


def test_deviation_of_evaluations_matches_the_oracle():
    evaluations = [(lambda m, h=h: phi_inverse_eval(h, m))
                   for _, h in LABY if h.degree == 2]
    evaluations += [(lambda m, j=j: psi_inverse_eval(j, m))
                    for _, j in MSET[:2]]
    rng = random.Random(7)
    for f in evaluations:
        for shape in [(0, 0), (1, 1), (2, 1), (1, 2), (2, 2)]:
            for maps in map_lists(rng, shape, 4 if shape != (2, 2) else 3):
                assert outcome(deviation, f, maps) == outcome(
                    old_deviation, f, maps), (shape, maps)


def test_deviation_refuses_maps_of_different_shapes_alike():
    maps = [IntMat.zeros(1, 1), IntMat.zeros(1, 2)]
    f = tensor_power_functor(2)
    assert outcome(deviation, f, maps) == outcome(old_deviation, f, maps)
    assert outcome(deviation, f, maps)[0] == "raised"


def test_column_lattice_basis_matches_the_oracle():
    rng = random.Random(12)
    entries = [(0, 0, 0, 1, -1), (0, 1, -1, 2, -3, 5, 6),
               tuple(range(-9, 10)), (0, 0, 0, 0, 4, -6, 9)]
    for _ in range(3000):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        choice = rng.choice(entries)
        m = IntMat(rows, cols, [[rng.choice(choice) for _ in range(cols)]
                                for _ in range(rows)])
        assert column_lattice_basis(m) == old_column_lattice_basis(m), m
    for f in FUNCTORS.values():
        for a in range(4):
            for _, e in cross_effect_projectors(f(), a):
                assert column_lattice_basis(e) == old_column_lattice_basis(e)


def test_solve_in_lattice_matches_the_oracle():
    rng = random.Random(11)
    cases = []
    for _ in range(60):
        rows, cols = rng.randint(0, 5), rng.randint(0, 4)
        m = IntMat(rows, cols, [[rng.choice((0, 0, 0, 1, -1, 2, 3))
                                 for _ in range(cols)] for _ in range(rows)])
        pivots, basis = old_column_lattice_basis(m)
        # Members: integer combinations of the basis columns.
        for _ in range(3):
            coeffs = [rng.randint(-3, 3) for _ in basis]
            cases.append((pivots, basis, [
                sum(c * col[i] for c, col in zip(coeffs, basis))
                for i in range(rows)]))
        # Mostly non-members: arbitrary vectors and half a member.
        for _ in range(3):
            cases.append((pivots, basis,
                          [rng.randint(-3, 3) for _ in range(rows)]))
        if basis:
            cases.append((pivots, basis, [2 * x + (i == pivots[0])
                                          for i, x in enumerate(basis[0])]))
    for f in (tensor_power_functor(2), tensor_power_functor(3)):
        for a in range(4):
            pivots, basis = old_cross_effect_basis(f, a)
            dim = f.dim(a)
            cases += [(pivots, basis, [rng.choice((0, 0, 1, -1))
                                       for _ in range(dim)])
                      for _ in range(5)]
            cases += [(pivots, basis, col) for col in basis]
    results = [solve_in_lattice(*case) for case in cases]
    assert results == [old_solve_in_lattice(*case) for case in cases]
    assert sum(r is None for r in results) > 20
    assert sum(r is not None for r in results) > 100


@st.composite
def product_pairs(draw):
    """Two multipliable matrices, every side 0 to 6, each entry in
    [-9, 9] and nonzero with a drawn chance, from none to every entry."""
    a, b, c = (draw(st.integers(0, 6)) for _ in range(3))
    density = draw(st.sampled_from((0, 0.1, 0.3, 0.6, 1)))
    rng = draw(st.randoms(use_true_random=False))

    def entry():
        if rng.random() < density:
            return rng.choice((-9, -2, -1, 1, 2, 7))
        return 0

    return tuple(IntMat(nrows, ncols, [[entry() for _ in range(ncols)]
                                       for _ in range(nrows)])
                 for nrows, ncols in ((a, b), (b, c)))


@settings(max_examples=400, deadline=None)
@given(pair=product_pairs())
def test_products_match_the_dense_oracle(pair):
    m, k = pair
    got = m @ k
    assert (got.nrows, got.ncols) == (m.nrows, k.ncols)
    assert got.rows == dense_row_products(m.rows, k.columns())
    assert all(type(x) is int for row in got.rows for x in row)


def test_restricted_functor_matches_the_dense_product():
    # f(S) B with B the basis columns, on every S up to 3 x 3 of rank a;
    # tensor^2 at rank 3 has no basis column.
    rng = random.Random(19)
    empty = []
    for n in (1, 2, 3):
        f = tensor_power_functor(n)
        for a in range(4):
            basis = cross_effect_basis(f, a)[1]
            if not basis:
                empty.append((n, a))
            value = restricted_functor(f, a)
            for s in matrices(rng, 3):
                if s.ncols == a:
                    got = value(s)
                    assert (got.nrows, got.ncols) == (f.dim(s.nrows),
                                                      len(basis))
                    assert got.rows == dense_row_products(f(s).rows, basis)
    assert (2, 3) in empty


# ------------------------------------------------- covering deviations


def dead_end_mazes():
    """Mazes with a source that no passage leaves, so that no transport
    subset reaches every source."""
    one, two = skeleton(1), skeleton(2)
    yield Maze(two, one, [Passage("1", "1", 1)])
    yield Maze(two, two, [Passage("2", "1", 2), Passage("2", "2", -1)])


def zero_labelled_mazes():
    """Mazes with zero labels, some with every label zero."""
    one, two = skeleton(1), skeleton(2)
    yield Maze(one, one, [Passage("1", "1", 0)])
    yield Maze(two, two, [Passage("1", "1", 0), Passage("2", "2", 0)])
    yield Maze(two, one, [Passage("1", "1", 0), Passage("2", "1", 0),
                          Passage("2", "1", 3)])


@pytest.mark.parametrize("name", sorted(FUNCTORS))
def test_covering_deviation_is_the_restricted_deviation(name):
    """Cut to the source's top cross-effect, the transport subsets that
    miss a source add nothing: the covering deviation of
    restricted_functor(f, a) is its whole deviation on every basis maze
    of degree 3 (those of degrees 1 and 2 among them), on labelled mazes
    with zero labels, on dead ends and on the empty maze."""
    f = FUNCTORS[name]()
    mazes = [maze for ms in laby_structure_constants(3).arrows.values()
             for maze in ms]
    mazes += [*labelled_mazes(), *zero_labelled_mazes(), *dead_end_mazes(),
              Maze((), ())]
    for maze in mazes:
        values = restricted_functor(f, len(maze.dom))
        assert outcome(covering_deviation, values, maze) == outcome(
            deviation, values, transport_maps(maze)), maze


def test_a_dead_end_source_gives_the_zero_of_the_values_shape():
    """No transport subset reaches the source 2: phi_forward gives the
    zero of the value's shape, as the whole deviation does, and the
    deviation block is zero on a presentation with no plan yet for the
    transports' shape, on both sides."""
    f = tensor_power_functor(2)
    maze = next(dead_end_mazes())
    assert described(phi_forward(f, maze)) == described(
        IntMat.zeros(1, 2)) == described(old_phi_forward(f, maze))
    h = fresh(LabyModulePresentation.from_functor(f, 2))
    assert h.plans == {}
    assert outcome(functor_lab._phi_deviation, h, maze) == outcome(
        old_phi_deviation, h, maze) == described(AbHom.zero((0, 0), (0,)))
    j = fresh(MSetModulePresentation.tensor_power(2, "12"))
    cols, rows = (enumerate_supported(skeleton(k), 2) for k in (2, 1))
    assert j.plans == {}
    assert functor_lab._deviation_block(
        psi_inverse_eval, j, maze, cols, rows) == AbHom.zero(
        sum((j.groups[x].orders for x in cols), ()),
        sum((j.groups[y].orders for y in rows), ()))


def phi_cut_cases(h):
    """The maze-side deviation blocks the checks ask for, on the full
    subsets: stored, labelled, zero-labelled and dead-end mazes."""
    for maze in [*h.mazes(), *labelled_mazes(), *zero_labelled_mazes(),
                 *dead_end_mazes()]:
        yield (phi_inverse_eval, maze, [tuple(range(1, len(maze.dom) + 1))],
               [tuple(range(1, len(maze.cod) + 1))])


def psi_cut_cases(j):
    """The multation-side deviation blocks of the thread check, on the
    exact-support blocks, and of the dead-end and zero-labelled mazes."""
    sides = range(min(len(j.universe), 3) + 1)
    supported = [enumerate_supported(skeleton(k), j.degree) for k in sides]
    for a, b in product(sides, repeat=2):
        mazes = pure_mazes_between(skeleton(a), skeleton(b),
                                   range(j.degree + 1))
        mazes += [maze for maze in [*dead_end_mazes(), *zero_labelled_mazes()]
                  if (len(maze.dom), len(maze.cod)) == (a, b)]
        for maze in mazes:
            yield psi_inverse_eval, maze, supported[a], supported[b]


def cuts(pres, cases):
    """The outcome of _deviation_block on every case, on a fresh copy of
    pres, so that each shape's plan is built by the pass itself."""
    pres = fresh(pres)
    return [outcome(functor_lab._deviation_block, evaluate, pres, maze,
                    cols, rows) for evaluate, maze, cols, rows in cases]


CUT_CORPUS = LABY + [
    ("tensor_power(2, 12)", MSetModulePresentation.tensor_power(
        2, "12", check=False)),
    ("tensor_power(3, 123)", MSetModulePresentation.tensor_power(
        3, "123", check=False))]


@pytest.mark.parametrize("name, pres", CUT_CORPUS,
                         ids=[name for name, _ in CUT_CORPUS])
def test_deviation_cuts_match_the_unpruned_cuts(name, pres, monkeypatch):
    """_deviation_block cut from the covering deviation against the same
    cut of the whole deviation, every transport subset summed."""
    cases = list(phi_cut_cases(pres)
                 if isinstance(pres, LabyModulePresentation)
                 else psi_cut_cases(pres))
    pruned = cuts(pres, cases)
    monkeypatch.setattr(functor_lab, "covering_deviation",
                        lambda f, maze: deviation(f, transport_maps(maze)))
    for (_, maze, _, _), got, want in zip(cases, pruned, cuts(pres, cases)):
        assert got == want, maze
    assert all(got[0] == "AbHom" for got in pruned)


# ------------------------------------------------------ the corpus checked

CHECKED = CORPUS + CUT_CORPUS[len(LABY):len(LABY) + 1]


@pytest.mark.parametrize("name, pres", CHECKED,
                         ids=[name for name, _ in CHECKED])
def test_every_corpus_entry_is_checked_as_a_functor(name, pres):
    pres = fresh(pres)
    if name == "frobenius_twist Z/2 + Z/4":  # no functor in degree 3
        with pytest.raises(ValueError, match="not functorial"):
            pres.check()
    else:
        pres.check()


def test_quadratic_fills_the_hand_written_table():
    gens = quadratic_generators()
    quadratics = [h for name, h in LABY if "quadratic" in name]
    assert len(quadratics) == 5
    for h in quadratics:
        inputs = (*h.groups, h.hom(gens["A"]), h.hom(gens["B"]))
        old = old_quadratic_table(*inputs)
        assert h.table == old
        assert LabyModulePresentation.quadratic(*inputs).table == old
    # Unchecked, crossing maps that break the relations fill alike.
    rng, broken = random.Random(41), 0
    carriers = [FgAbGroup(1), FgAbGroup(2), FgAbGroup(0, (2,)),
                FgAbGroup(0, (2, 2)), FgAbGroup(1, (3,))]
    while broken < 20:
        k, x, y = (rng.choice(carriers) for _ in range(3))
        try:
            alpha, beta = (AbHom.of_groups(d, c, [
                [rng.randint(-3, 3) for _ in range(d.dim)]
                for _ in range(c.dim)]) for d, c in ((x, y), (y, x)))
        except ValueError:  # a column that is not well defined
            continue
        if quadratic_relations_check(k, x, y, alpha, beta):
            continue
        broken += 1
        h = LabyModulePresentation.quadratic(k, x, y, alpha, beta,
                                             check=False)
        assert h.table == old_quadratic_table(k, x, y, alpha, beta)
        with pytest.raises(ValueError, match="not functorial"):
            h.check()


def test_the_unchecked_quadratics_are_the_checked_draws():
    ours, theirs = random.Random(19), random.Random(19)
    for _ in range(4):
        assert json.dumps(unchecked_quadratic(ours).to_json()) == json.dumps(
            random_quadratic_presentation(theirs).to_json())
