"""Renaming symmetry of the structure constants, and both checks.

On the maze side a block of the constants fills by orbits of its pairs
under renaming the source, middle and target independently, composing
one pair per orbit (LabyConstants); the multation side has columns
alone, each pair composed once.  Both presentation checks read the
generators' columns alone.  The checks test (i) identities and (ii)
hom(g . x) = hom(g) hom(x) for every generator g of the side and every
basis arrow x into its source; a failure names the generator pair that
loop found.  The references are the per-pair ones: every pair composed
afresh, on the maze side by the engine rather than compose_in_laby_n,
which reads the constants, and the check oracles of
test_structure_constants.  Transpositions are walked here by the tests'
own skeleton_swaps and rename_maze on the maze side, and letter_swaps
and rename_multation on the multation side, where the law holds though
the constants do not use it.
"""

import json
import os
import random
from itertools import product

import pytest

from mazelab.functor_lab import (AbHom, LabyModulePresentation,
                                 MSetModulePresentation, tensor_power_functor)
from mazelab.labycat import (LabyConstants, Maze, MazeHom,
                             laby_structure_constants, rename_maze, skeleton)
from mazelab.matrices import IntMat
from mazelab.msetcat import (MultHom, Multation, mset_structure_constants,
                             multation_compose)
from mazelab.multisets import CONSTANTS_KEPT
from test_structure_constants import (FIXTURES, assert_checks_agree,
                                      fill_every_block, laby_compose_oracle,
                                      letter_swaps, loaded_with, outcome,
                                      refused_as, rename_multation,
                                      skeleton_swaps, with_table)


def laby(n):
    return (laby_structure_constants(n), MazeHom, Maze.identity,
            lambda p, q: laby_compose_oracle(MazeHom.of(p), MazeHom.of(q), n),
            skeleton_swaps, rename_maze)


def mset(letters, n):
    return (mset_structure_constants(skeleton(letters), n), MultHom,
            Multation.identity, multation_compose,
            letter_swaps(skeleton(letters)), rename_multation)


# Every degree up to 3 on the maze side, and every degree up to 3 over
# one to three letters on the multation side.
CATEGORIES = ([pytest.param(laby, (n,), id=f"laby{n}") for n in range(4)]
              + [pytest.param(mset, (k, n), id=f"mset{n}-{k}letters")
                 for k in range(1, 4) for n in range(1, 4)])


def counted(sc):
    """A fresh copy of the constants, composing through a counter."""
    calls = []

    def compose(f, g):
        calls.append((f, g))
        return sc.compose(f, g)

    return type(sc)(sc.arrows, compose), calls


def ends_of(sc):
    return list(dict.fromkeys(x for x, _ in sc.arrows))


def pair_count(sc):
    """The composable pairs of basis arrows."""
    ends = ends_of(sc)
    return sum(len(sc.arrows[a, b]) * len(sc.arrows[b, c])
               for a, b, c in product(ends, repeat=3))


def orbit_count(arrows, swaps, rename):
    """The orbits of composable pairs (f, g) of the basis arrows under the
    transpositions swaps(x) of their source, middle and target, by a
    plain walk that renames with `rename`."""
    seen, orbits = set(), 0
    for (a, b), gs in arrows.items():
        for c in dict.fromkeys(y for _, y in arrows):
            for pair in product(arrows[b, c], gs):
                if pair in seen:
                    continue
                orbits += 1
                seen.add(pair)
                todo = [pair]
                while todo:
                    f, g = todo.pop()
                    for moved in (
                            [(f, rename(g, s, None)) for s, _ in swaps(g.dom)]
                            + [(rename(f, s, None), rename(g, None, s))
                               for s, _ in swaps(g.cod)]
                            + [(rename(f, None, s), g)
                               for s, _ in swaps(f.cod)]):
                        if moved not in seen:
                            seen.add(moved)
                            todo.append(moved)
    return orbits


def encoded(sc, compose, f, g):
    """The composite f . g by the reference `compose`, as stored terms."""
    ac = sc.arrows[g.dom, f.cod]
    return tuple((ac.index(x), int(k)) for x, k in compose(f, g).comb)


def block_of(sc, a, b, c):
    """The composites of arrows[b, c] after arrows[a, b]: Laby_n's block,
    and on the multation side, which has no blocks, its columns."""
    if isinstance(sc, LabyConstants):
        return sc.block(a, b, c)
    columns = [sc.column(a, b, c, k) for k in range(len(sc.arrows[b, c]))]
    return tuple(tuple(column[i] for column in columns)
                 for i in range(len(sc.arrows[a, b])))


@pytest.mark.parametrize("make, args", CATEGORIES)
def test_every_block_equals_the_per_pair_block(make, args):
    # Laby_n composes one pair per orbit of the test's own walk and fills
    # every block; MSet_n composes every pair once, into columns.
    sc, _, _, compose, swaps, rename = make(*args)
    fresh, calls = counted(sc)
    for a, b, c in product(ends_of(sc), repeat=3):
        block = block_of(fresh, a, b, c)
        assert len(block) == len(fresh.arrows[a, b])
        for g, row in zip(fresh.arrows[a, b], block):
            assert len(row) == len(fresh.arrows[b, c])
            for f, terms in zip(fresh.arrows[b, c], row):
                assert terms == encoded(fresh, compose, f, g)
    if isinstance(sc, LabyConstants):
        assert len(calls) == len(set(calls)) == orbit_count(
            sc.arrows, swaps, rename)
        assert len(fresh.blocks) == len(ends_of(sc)) ** 3
    else:
        assert len(calls) == len(set(calls)) == pair_count(sc)


def test_a_blocks_first_ask_fills_that_block_and_no_other():
    # A transposition of a skeleton maps it to itself, so the walk from a
    # block's pairs stays in the block: its first ask composes its own
    # pairs alone, and the blocks' orbits add up to those of Laby_3.
    sc, orbits = laby_structure_constants(3), 0
    for a, b, c in product(ends_of(sc), repeat=3):
        fresh, calls = counted(sc)
        block = fresh.block(a, b, c)
        assert list(fresh.blocks) == [(a, b, c)]
        assert fresh.block(a, b, c) is block
        assert all(g in sc.arrows[a, b] and f in sc.arrows[b, c]
                   for f, g in calls)
        orbits += len(calls)
    assert orbits == 99


@pytest.mark.parametrize("make, args", CATEGORIES)
def test_every_column_equals_the_filled_block(make, args):
    # Against the composite by the reference and, on the maze side, the
    # block filled by orbits; a column composes each of its pairs once
    # and fills no block.
    sc, _, _, compose, _, _ = make(*args)
    fresh, calls = counted(sc)
    filled = None
    if isinstance(sc, LabyConstants):
        filled = LabyConstants(sc.arrows, sc.compose)
        fill_every_block(filled)
    for a, b, c in product(ends_of(sc), repeat=3):
        for k, f in enumerate(sc.arrows[b, c]):
            column = fresh.column(a, b, c, k)
            assert fresh.column(a, b, c, k) is column
            assert len(column) == len(sc.arrows[a, b])
            for i, g in enumerate(sc.arrows[a, b]):
                assert column[i] == encoded(sc, compose, f, g)
                if filled is not None:
                    assert filled.block(a, b, c)[i][k] == column[i]
    if filled is not None:
        assert fresh.blocks == {}
    assert len(calls) == len(set(calls)) == pair_count(sc)


def test_orbit_counts_at_degree_3():
    # One composition per orbit: 99 of the 580 Laby_3 pairs, the orbits
    # counted by the test's own walk.  The multation side's columns
    # compose all 2973 MSet_3 pairs over three letters.
    laby3 = laby_structure_constants(3)
    assert orbit_count(laby3.arrows, skeleton_swaps, rename_maze) == 99
    fresh, calls = counted(laby3)
    fill_every_block(fresh)
    assert len(calls) == 99
    mset3 = mset_structure_constants(skeleton(3), 3)
    fresh, calls = counted(mset3)
    for a, b, c in product(ends_of(mset3), repeat=3):
        for k in range(len(mset3.arrows[b, c])):
            fresh.column(a, b, c, k)
    assert len(calls) == pair_count(mset3) == 2973


@pytest.mark.parametrize("make, args", CATEGORIES)
def test_a_transposition_renames_with_coefficient_1(make, args):
    # The maze side's transpositions are skeleton_swaps; the multation
    # side's are letter_swaps and rename_multation.
    sc, hom_type, identity, compose, swaps, rename = make(*args)
    for (x, y), fs in sc.arrows.items():
        for s, y2 in swaps(y):
            swap = rename(identity(y), None, s)
            assert (swap.dom, swap.cod) == (y, y2)
            for f in fs:
                renamed = rename(f, None, s)
                assert renamed in sc.arrows[x, y2]
                assert compose(swap, f) == hom_type.of(renamed)
        for s, x2 in swaps(x):
            swap = rename(identity(x), s, None)
            assert (swap.dom, swap.cod) == (x2, x)
            for f in fs:
                renamed = rename(f, s, None)
                assert renamed in sc.arrows[x2, y]
                assert compose(f, swap) == hom_type.of(renamed)
        if isinstance(sc, LabyConstants):  # the positions its fill moves
            assert sc.moves(x, y) == (
                [[sc.index[rename(f, s, None)] for f in fs]
                 for s, _ in swaps(x)],
                [[sc.index[rename(f, None, s)] for f in fs]
                 for s, _ in swaps(y)])


def test_every_letter_transposition_renames_with_coefficient_1():
    # Any transposition of letters renames, one moving no letter of an
    # end too: its arrow there is the identity.
    sc = mset_structure_constants(skeleton(3), 3)
    for (x, y), fs in sc.arrows.items():
        for u, v in (("1", "2"), ("2", "3"), ("1", "3")):
            s = {u: v, v: u}
            swap = rename_multation(Multation.identity(y), None, s)
            for f in fs:
                assert multation_compose(swap, f) == MultHom.of(
                    rename_multation(f, None, s))


# ---------------------------------------------------------------------------
# the reduced check against the per-pair oracle


@pytest.fixture(scope="module")
def cubes():
    return (LabyModulePresentation.from_functor(tensor_power_functor(3), 3,
                                                check=False),
            MSetModulePresentation.tensor_power(3, skeleton(3), check=False))


def test_one_value_broken_per_hom_set_is_refused_alike(cubes):
    # One stored value per hom-set, the last that is not an identity and
    # has an entry, gets 1 added to its first entry.  The generator check
    # refuses each, naming a pair that fails, as the per-pair oracle
    # refuses it.
    with open(os.path.join(FIXTURES, "frobenius_mset.json")) as fh:
        frobenius = MSetModulePresentation.from_json(json.load(fh))
    for pres in (*cubes, frobenius):
        broken = 0
        for (a, b), arrows in pres.constants().arrows.items():
            for f in reversed(arrows):
                value = pres.hom(f)
                if f != pres.identity(a) and value.mat.nrows * value.mat.ncols:
                    break
            else:
                continue
            rows = [list(row) for row in value.mat.rows]
            rows[0][0] += 1
            table = dict(pres.table)
            table[f] = AbHom(value.dom_orders, value.cod_orders,
                             IntMat.from_rows(rows))
            mutant = with_table(pres, table)
            kind, text = outcome(mutant.check)
            assert kind == "ValueError" and "not functorial" in text
            assert assert_checks_agree(mutant) == (kind, text)
            broken += 1
        assert broken


def test_a_table_broken_on_a_transposition_is_refused_alike(cubes):
    for pres, generators, rename in (
            (cubes[0], skeleton_swaps, rename_maze),
            (cubes[1], letter_swaps(skeleton(3)), rename_multation)):
        sc = pres.constants()
        swaps = [rename(pres.identity(x), None, s)
                 for x in dict.fromkeys(x for x, _ in sc.arrows)
                 for s, _ in generators(x)]
        assert swaps
        for swap in swaps[::3]:
            table = dict(pres.table)
            table[swap] = table[swap].scale(-1)
            kind, text = assert_checks_agree(with_table(pres, table))
            assert kind == "ValueError" and "not functorial" in text


def test_a_table_missing_a_basis_value_is_refused_alike(cubes):
    rng = random.Random(15)
    for pres in cubes:
        arrows = sorted(pres.constants().index,
                        key=lambda f: f.sort_key())
        for f in rng.sample(arrows, 4):
            if f == pres.identity(f.dom):
                continue
            table = dict(pres.table)
            del table[f]
            kind, text = assert_checks_agree(with_table(pres, table))
            assert kind == "KeyError" and "lacks a value" in text


def test_a_stored_maze_outside_the_basis_is_checked_pair_by_pair(cubes):
    # No pair is checked: the table is refused before any check.
    h = cubes[0]
    loop = Maze(skeleton(1), skeleton(1), [(p, 4) for p, _ in
                                           Maze.identity(skeleton(1))
                                           .passages])
    for value in (AbHom.zero(h.groups[1].orders, h.groups[1].orders),
                  AbHom.identity(h.groups[1].orders)):
        assert loaded_with(h, loop, value) == refused_as(h, loop, value)


@pytest.mark.parametrize("side", [0, 1])
def test_the_check_raises_what_its_reduced_path_raises(cubes, monkeypatch,
                                                       side):
    # The reduced path is the loop over the side's generators.
    def broken(self):
        raise RuntimeError("generators failed")

    monkeypatch.setattr(type(cubes[side]), "generators", broken)
    with pytest.raises(RuntimeError, match="generators failed"):
        cubes[side].check()


def test_the_constants_memos_are_bounded():
    for memo, calls in ((laby_structure_constants, [(n,) for n in range(6)]),
                        (mset_structure_constants,
                         [(skeleton(k), 1) for k in range(1, 7)])):
        for args in calls:
            memo(*args)
        assert memo.cache_info().currsize == CONSTANTS_KEPT
