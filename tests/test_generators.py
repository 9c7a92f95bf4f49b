"""The generators each presentation side is checked on.

Both checks compare hom(g . x) with hom(g) hom(x) for every generator g
of the side and every basis arrow x into its source, which proves the
table functorial only if the generators and the identities generate the
category over Z.  The exact span tests here, StructureConstants.span,
prove it at every degree tier-1 reaches; scripts/check_degree4.py runs
them at Laby_4, Laby_5 and MSet_4 over four letters.
"""

from math import comb

import pytest

from generation import composites
from mazelab import labycat, msetcat
from mazelab.functor_lab import (LabyModulePresentation,
                                 MSetModulePresentation, tensor_power_functor)
from mazelab.labycat import (LabyConstants, Maze, MazeHom, elementary_mazes,
                             laby_structure_constants, quadratic_generators,
                             skeleton)
from mazelab.msetcat import Multation, divided_powers, mset_structure_constants
from mazelab.multisets import MultiSet


def test_the_degree_2_elementary_mazes_are_a_b_c_and_s():
    # C = B A is a quadratic generator of the paper but no elementary maze.
    gens = quadratic_generators()
    assert elementary_mazes(2) == [gens[k] for k in "ABS"]
    assert laby_structure_constants(2).hom(
        MazeHom, gens["B"], gens["A"]) == MazeHom.of(gens["C"])


@pytest.mark.parametrize("n", range(1, 6))
def test_elementary_mazes_are_valid_basis_mazes(n):
    mazes = elementary_mazes(n)
    assert len(set(mazes)) == len(mazes) == (n - 1) * (n + 4) // 2
    for maze in mazes:
        # The trusted build equals the validating one.
        assert maze == Maze(maze.dom, maze.cod, maze.passages)
        assert maze.is_pure() and maze.size <= n
        assert maze != Maze.identity(maze.dom)
        if n <= 3:
            assert maze in laby_structure_constants(n).index


@pytest.mark.parametrize("k", range(1, 4))
@pytest.mark.parametrize("n", range(1, 4))
def test_divided_powers_are_valid_basis_multations(n, k):
    # For each of the 2 (k - 1) ordered pairs of adjacent letters x -> y,
    # a multi-set a and 1 <= t <= a's multiplicity of x: C(n + k - 1, k)
    # choices, the multi-sets of cardinality n - 1 with x marked.
    gens = divided_powers(skeleton(k), n)
    assert len(set(gens)) == len(gens) == 2 * (k - 1) * comb(n + k - 1, k)
    for mu in gens:
        assert mu == Multation(mu.dom, mu.cod, mu.pairs)
        off = [(x, y) for (x, y), _ in mu.pairs if x != y]
        assert len(off) == 1 and abs(int(off[0][0]) - int(off[0][1])) == 1


def test_generator_and_composite_counts_at_degree_3():
    assert len(elementary_mazes(3)) == 7
    assert composites(laby_structure_constants(3), elementary_mazes(3)) == 103
    three = skeleton(3)
    assert len(divided_powers(three, 3)) == 40
    assert composites(mset_structure_constants(three, 3),
                      divided_powers(three, 3)) == 660


@pytest.mark.parametrize("n", range(4))
def test_elementary_mazes_span_every_hom_set(n):
    assert laby_structure_constants(n).span(elementary_mazes(n),
                                            Maze.identity)[1] == []


@pytest.mark.parametrize("k", range(1, 4))
@pytest.mark.parametrize("n", range(1, 4))
def test_divided_powers_span_every_hom_set(n, k):
    assert mset_structure_constants(skeleton(k), n).span(
        divided_powers(skeleton(k), n), Multation.identity)[1] == []


def test_the_span_test_sees_a_missing_generator():
    sc = laby_structure_constants(2)
    gens = quadratic_generators()
    # C = B A, so the other three generate Laby_2; without A no word
    # leads from [1] to [2], and without any only identities are left.
    assert sc.span([gens[k] for k in "ABS"], Maze.identity)[1] == []
    assert sc.span([gens[k] for k in "BCS"], Maze.identity)[1] == [
        (skeleton(1), skeleton(2))]
    assert sc.span([], Maze.identity)[1] == [
        (x, y) for x in (skeleton(1), skeleton(2))
        for y in (skeleton(1), skeleton(2))]
    # Over two letters in degree 2, e^(1) e^(1) = 2 e^(2): without the
    # divided squares the words span {1,1} -> {2,2} over Q, not over Z.
    msc = mset_structure_constants(skeleton(2), 2)
    units = [mu for mu in divided_powers(skeleton(2), 2)
             if all(t == 1 for (x, y), t in mu.pairs if x != y)]
    missing = msc.span(units, Multation.identity)[1]
    assert (MultiSet("11"), MultiSet("22")) in missing


def test_a_cold_laby3_check_fills_only_the_generator_blocks(monkeypatch):
    # The check reads hom(g . x) off the generator columns alone, so no
    # check fills a block: not the Laby_3 cube's, not the failing check
    # of a one-value mutant, whose walk over pairs reads columns too, and
    # not tensor_power(3, "123")'s, as MSet_n has no blocks.
    fills, fill = [], LabyConstants._fill
    monkeypatch.setattr(LabyConstants, "_fill", lambda sc, *ends:
                        fills.append(ends) or fill(sc, *ends))
    labycat.reset_laby_constants()
    msetcat.mset_structure_constants.cache_clear()
    try:
        h = LabyModulePresentation.from_functor(tensor_power_functor(3), 3,
                                                check=False)
        j = MSetModulePresentation.tensor_power(3, skeleton(3), check=False)
        h.check()
        j.check()
        a = quadratic_generators()["A"]
        table = dict(h.table)
        table[a] = table[a].scale(2)
        with pytest.raises(ValueError, match="not functorial"):
            LabyModulePresentation(3, h.groups, table)
        assert fills == []
        assert laby_structure_constants(3).blocks == {}
    finally:
        labycat.reset_laby_constants()
