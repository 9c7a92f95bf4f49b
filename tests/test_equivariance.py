"""Renaming symmetry of the structure constants, and both checks.

On the maze side the constants fill each block by orbits of pairs under
renaming the source, middle and target independently, composing one
pair per orbit; the multation side has no swaps, so its blocks compose
pair by pair.  Both presentation checks read the generators' columns
alone, each pair composed once.  The checks test (i) identities and
(ii) hom(g . x) = hom(g) hom(x) for every generator g of the side and
every basis arrow x into its source, and rerun the per-pair loop only to
name a failure.  The references are the per-pair ones: every pair
composed afresh, on the maze side by the engine rather than
compose_in_laby_n, which reads the constants, and the check oracles of
test_structure_constants.  Letters of multations are renamed here, by
rename_multation of test_structure_constants: the law holds though the
constants do not use it.
"""

import json
import os
import random
from itertools import product

import pytest

from mazelab.functor_lab import (AbHom, LabyModulePresentation,
                                 MSetModulePresentation, tensor_power_functor)
from mazelab.labycat import Maze, MazeHom, laby_structure_constants, skeleton
from mazelab.matrices import IntMat
from mazelab.msetcat import (MultHom, Multation, mset_structure_constants,
                             multation_compose)
from mazelab.multisets import CONSTANTS_KEPT
from mazelab.scalars import StructureConstants
from test_structure_constants import (FIXTURES, assert_checks_agree,
                                      fill_every_block, laby_compose_oracle,
                                      letter_swaps, loaded_with, refused_as,
                                      rename_multation)


def laby(n):
    sc = laby_structure_constants(n)
    return (sc, MazeHom, Maze.identity,
            lambda p, q: laby_compose_oracle(MazeHom.of(p), MazeHom.of(q), n),
            sc.generators, sc.rename)


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

    return StructureConstants(sc.arrows, compose, sc.swaps, sc.rename), calls


def orbit_count(sc):
    """The orbits of composable pairs (f, g) of basis arrows under the
    constants' transpositions at their source, middle and target, by a
    plain walk."""
    seen, orbits = set(), 0
    for (a, b), gs in sc.arrows.items():
        for c in dict.fromkeys(y for _, y in sc.arrows):
            for pair in product(sc.arrows[b, c], gs):
                if pair in seen:
                    continue
                orbits += 1
                seen.add(pair)
                todo = [pair]
                while todo:
                    f, g = todo.pop()
                    for moved in (
                            [(f, sc.rename(g, s, None))
                             for s, _ in sc.generators(g.dom)]
                            + [(sc.rename(f, s, None), sc.rename(g, None, s))
                               for s, _ in sc.generators(g.cod)]
                            + [(sc.rename(f, None, s), g)
                               for s, _ in sc.generators(f.cod)]):
                        if moved not in seen:
                            seen.add(moved)
                            todo.append(moved)
    return orbits


def encoded(sc, compose, f, g):
    """The composite f . g by the reference `compose`, as stored terms."""
    ac = sc.arrows[g.dom, f.cod]
    return tuple((ac.index(x), int(k)) for x, k in compose(f, g).comb)


@pytest.mark.parametrize("make, args", CATEGORIES)
def test_every_block_equals_the_per_pair_block(make, args):
    sc, _, _, compose, _, _ = make(*args)
    fresh, calls = counted(sc)
    fill_every_block(fresh)
    assert len(calls) == len(set(calls)) == orbit_count(sc)
    ends = dict.fromkeys(x for x, _ in fresh.arrows)
    assert len(fresh.blocks) == len(ends) ** 3
    for (a, b, c), block in fresh.blocks.items():
        assert len(block) == len(fresh.arrows[a, b])
        for g, row in zip(fresh.arrows[a, b], block):
            assert len(row) == len(fresh.arrows[b, c])
            for f, terms in zip(fresh.arrows[b, c], row):
                assert terms == encoded(fresh, compose, f, g)


@pytest.mark.parametrize("make, args", CATEGORIES)
def test_every_column_equals_the_filled_block(make, args):
    # Against the block filled by orbits (on the multation side pair by
    # pair) and the composite by the reference; a column composes each of
    # its pairs once and fills no block.
    sc, _, _, compose, _, _ = make(*args)
    fresh, calls = counted(sc)
    filled = StructureConstants(sc.arrows, sc.compose, sc.swaps, sc.rename)
    fill_every_block(filled)
    ends = list(dict.fromkeys(x for x, _ in sc.arrows))
    for a, b, c in product(ends, repeat=3):
        for k, f in enumerate(sc.arrows[b, c]):
            column = fresh.column(a, b, c, k)
            assert fresh.column(a, b, c, k) is column
            assert len(column) == len(sc.arrows[a, b])
            for i, g in enumerate(sc.arrows[a, b]):
                assert column[i] == filled.block(a, b, c)[i][k] == encoded(
                    sc, compose, f, g)
    assert fresh.blocks == {}
    assert len(calls) == len(set(calls)) == sum(
        len(sc.arrows[a, b]) * len(sc.arrows[b, c])
        for a, b, c in product(ends, repeat=3))


def test_orbit_counts_at_degree_3():
    # One composition per orbit: 99 of the 580 Laby_3 pairs.  The
    # multation side has no swaps: all 2973 MSet_3 pairs over three
    # letters are composed.
    for sc, orbits in ((laby_structure_constants(3), 99),
                       (mset_structure_constants(skeleton(3), 3), 2973)):
        fresh, calls = counted(sc)
        fill_every_block(fresh)
        assert len(calls) == orbits


@pytest.mark.parametrize("make, args", CATEGORIES)
def test_a_transposition_renames_with_coefficient_1(make, args):
    # The maze side's transpositions are the constants' own; the
    # multation side's are letter_swaps and rename_multation.
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
        if rename is sc.rename:  # the positions the maze side's fill moves
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


def with_table(pres, table):
    if isinstance(pres, LabyModulePresentation):
        return LabyModulePresentation(pres.degree, pres.groups, table,
                                      check=False)
    return MSetModulePresentation(pres.degree, pres.universe, pres.groups,
                                  table, check=False)


def test_one_value_broken_per_hom_set_is_refused_alike(cubes):
    # One stored value per hom-set, the last that is not an identity and
    # has an entry, gets 1 added to its first entry.  The generator check
    # and the per-pair walk over the constants agree on each, and both
    # refuse it, as the per-pair oracle does.
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
            assert not mutant._functorial_on_basis()
            assert any(mutant._failures(mutant.pairs()))
            kind, text = assert_checks_agree(mutant)
            assert kind == "ValueError" and "not functorial" in text
            broken += 1
        assert broken


def test_a_table_broken_on_a_transposition_is_refused_alike(cubes):
    laby3 = cubes[0].constants()
    for pres, generators, rename in (
            (cubes[0], laby3.generators, laby3.rename),
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
