import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mazelab.bridge import (
    AriadneMatrix,
    Correspondence,
    all_pure_mazes_on,
    ariadne_hom,
    ariadne_maze,
    roundtrip_failures,
    theseus_hom,
    theseus_multation,
    xi_correspondence,
    xi_inverse,
)
from mazelab.errors import DomainMismatchError
from mazelab.labycat import (
    Maze,
    MazeHom,
    Passage,
    maze_compose,
    maze_hom_compose,
    normalize_homogeneous,
    normalize_numerical,
    pure_mazes_between,
    quadratic_generators,
    skeleton,
)
from mazelab.msetcat import (MultHom, Multation, mset2_generators,
                             mset_structure_constants, multation_compose)
from mazelab.multisets import MultiSet, enumerate_supported
from oracles import expand_label


def ms(*names):
    return MultiSet(list(names))


def test_ariadne_object():
    # The summands a set splits into: its multi-sets of exact support.
    assert enumerate_supported(skeleton(1), 2) == [ms("1", "1")]
    assert enumerate_supported(skeleton(2), 2) == [ms("1", "2")]
    assert enumerate_supported(skeleton(3), 2) == []
    assert enumerate_supported(skeleton(2), 3) == [ms("1", "1", "2"),
                                                   ms("1", "2", "2")]


def test_ariadne_on_quadratic_generators():
    gens = quadratic_generators()
    mgens = mset2_generators()
    got_a = ariadne_maze(gens["A"], 2)
    assert got_a.nonzero_keys() == [(ms("1", "2"), ms("1", "1"))]
    assert got_a.entry(ms("1", "2"), ms("1", "1")) == MultHom.of(mgens["alpha"])

    got_b = ariadne_maze(gens["B"], 2)
    assert got_b.entry(ms("1", "1"), ms("1", "2")) == MultHom.of(mgens["beta"])

    got_s = ariadne_maze(gens["S"], 2)
    assert got_s.entry(ms("1", "2"), ms("1", "2")) == MultHom.of(mgens["sigma"])

    got_c = ariadne_maze(gens["C"], 2)
    iota11 = Multation.identity(ms("1", "1"))
    assert got_c.entry(ms("1", "1"), ms("1", "1")) == MultHom.of(iota11, 2)


def test_ariadne_kills_oversized_mazes():
    fan3 = Maze.pure([("1", "1"), ("1", "2"), ("1", "3")])
    assert ariadne_maze(fan3, 2).is_zero()


@pytest.mark.parametrize("src, dst", [(1, "y"), ("x", ""), ("x", ("y",))])
def test_ariadne_refuses_names_that_no_multi_set_takes(src, dst):
    # Its marginals are built unchecked, so the names are checked first.
    maze = Maze([src], [dst], [Passage(src, dst, 1)])
    with pytest.raises(ValueError, match="invalid element name"):
        ariadne_maze(maze, 2)


def test_ariadne_labels_enter_as_powers():
    maze = Maze(("x",), ("y",), [Passage("x", "y", 3)])
    got = ariadne_maze(maze, 2)
    mu = Multation(ms("x", "x"), ms("y", "y"), [(("x", "y"), 2)])
    assert got.entry(ms("y", "y"), ms("x", "x")) == MultHom.of(mu, 9)


def test_ariadne_functoriality_on_table():
    # push the degree-2 multiplication table through the translation
    gens = quadratic_generators()
    n = 2
    for left, right in [("A", "B"), ("B", "A"), ("A", "C"), ("C", "B"),
                        ("C", "C"), ("S", "A"), ("B", "S"), ("S", "S")]:
        p, q = gens[left], gens[right]
        lhs = ariadne_maze(p, n).compose(ariadne_maze(q, n))
        rhs = ariadne_hom(maze_compose(p, q), n)
        assert lhs == rhs, (left, right)


def random_pure_maze(rng, universe, max_passages=3):
    pairs = [(x, y) for x in universe for y in universe]
    size = rng.randint(1, max_passages)
    return Maze.pure([rng.choice(pairs) for _ in range(size)])


def test_ariadne_functoriality_random():
    rng = random.Random(1234)
    universe = skeleton(3)
    for n in (2, 3):
        for _ in range(50):
            q = random_pure_maze(rng, universe)
            # p must start where q ends
            pairs = [(y, z) for y in q.cod for z in universe]
            size = rng.randint(len(q.cod), 3)
            if size < len(q.cod):
                continue
            combo = [rng.choice(pairs) for _ in range(size)]
            if {a for a, _ in combo} != set(q.cod):
                continue
            p = Maze.pure(combo, q.cod, {b for _, b in combo})
            lhs = ariadne_maze(p, n).compose(ariadne_maze(q, n))
            rhs = ariadne_hom(maze_compose(p, q), n)
            assert lhs == rhs


@st.composite
def composable_pure_mazes(draw):
    """A degree n in {2, 3} and pure mazes p, q on at most three points,
    each of one to three passages, with p after q defined."""
    n = draw(st.sampled_from((2, 3)))
    universe = skeleton(3)
    q = Maze.pure(draw(st.lists(
        st.tuples(st.sampled_from(universe), st.sampled_from(universe)),
        min_size=1, max_size=3)))
    mid = sorted(q.cod)
    # every point of q's codomain starts a passage of p
    heads = draw(st.lists(st.sampled_from(universe), min_size=len(mid),
                          max_size=len(mid)))
    extra = draw(st.lists(
        st.tuples(st.sampled_from(mid), st.sampled_from(universe)),
        max_size=3 - len(mid)))
    combo = list(zip(mid, heads)) + extra
    p = Maze.pure(combo, q.cod, {z for _, z in combo})
    return n, p, q


@settings(max_examples=150, deadline=None)
@given(case=composable_pure_mazes())
def test_ariadne_functoriality_property(case):
    n, p, q = case
    lhs = ariadne_maze(p, n).compose(ariadne_maze(q, n))
    assert lhs == ariadne_hom(maze_compose(p, q), n)


def test_ariadne_respects_label_splitting():
    # the label-additivity rewriting is invisible after translation
    rng = random.Random(7)
    for _ in range(20):
        a = rng.randint(-2, 3)
        b = rng.randint(-2, 3)
        base = Maze(("x",), ("y", "z"),
                    [Passage("x", "y", a + b), Passage("x", "z", 1)])
        target = base.instances()[0]
        expanded = expand_label(base, target, [a, b])
        for n in (2, 3):
            lhs = ariadne_maze(base, n)
            rhs = ariadne_hom(expanded, n)
            assert lhs == rhs, (a, b, n)


def test_ariadne_respects_numerical_normal_form():
    rng = random.Random(21)
    universe = skeleton(2)
    for n in (2, 3):
        for _ in range(25):
            maze = random_pure_maze(rng, universe)
            labelled = Maze(maze.dom, maze.cod,
                            [(Passage(p.src, p.dst, rng.randint(-2, 3)), m)
                             for p, m in maze.passages])
            lhs = ariadne_maze(labelled, n)
            rhs = ariadne_hom(
                normalize_numerical(MazeHom.of(labelled), n), n)
            assert lhs == rhs


def test_ariadne_respects_scaling():
    rng = random.Random(3)
    universe = skeleton(2)
    for n in (2, 3):
        for a in (-1, 2, 3):
            for _ in range(10):
                maze = random_pure_maze(rng, universe)
                lhs = ariadne_maze(maze.relabel_all(a), n)
                rhs = ariadne_maze(maze, n).scale(Fraction(a) ** n)
                assert lhs == rhs


def test_theseus_values():
    i12 = Multation.identity(ms("1", "2"))
    assert theseus_multation(i12, 2) == MazeHom.identity(skeleton(2))

    i11 = Multation.identity(ms("1", "1"))
    c = quadratic_generators()["C"]
    assert theseus_multation(i11, 2) == MazeHom.of(c, Fraction(1, 2))

    alpha = mset2_generators()["alpha"]
    assert theseus_multation(alpha, 2) == MazeHom.of(quadratic_generators()["A"])

    with pytest.raises(DomainMismatchError):
        theseus_multation(i11, 3)


def test_theseus_lands_in_homogeneous_normal_form():
    # the image of a multation is already an exactly-n pure maze
    for n in (2, 3):
        for a in enumerate_supported(skeleton(2), n):
            mu = Multation.identity(a)
            hom = theseus_multation(mu, n)
            assert normalize_homogeneous(hom, n) == hom


@st.composite
def composable_multations(draw):
    """A degree n in {2, 3} and basis multations mu, nu over three letters
    with mu after nu defined."""
    n = draw(st.sampled_from((2, 3)))
    arrows = [x for xs in mset_structure_constants(skeleton(3), n)
              .arrows.values() for x in xs]
    nu = draw(st.sampled_from(arrows))
    mu = draw(st.sampled_from([x for x in arrows if x.dom == nu.cod]))
    return n, mu, nu


@settings(max_examples=40, deadline=None)
@given(pair=composable_multations())
def test_theseus_respects_composition(pair):
    n, mu, nu = pair
    lhs = theseus_hom(multation_compose(mu, nu), n)
    rhs = maze_hom_compose(theseus_multation(mu, n),
                           theseus_multation(nu, n), n)
    assert normalize_homogeneous(lhs, n) == normalize_homogeneous(rhs, n)


def test_homogeneous_normal_form_keeps_the_translation():
    # The forward functor at degree n kills exactly what the degree-n
    # homogeneous quotient identifies, so normalizing must not move it.
    for n in (2, 3, 4):
        for a in range(4):
            for b in range(4):
                for maze in pure_mazes_between(skeleton(a), skeleton(b),
                                               range(n)):
                    for m in (maze, maze.relabel_all(3)):
                        h = MazeHom.of(m)
                        assert ariadne_hom(normalize_homogeneous(h, n), n) \
                            == ariadne_hom(h, n), (m, n)


def test_roundtrip_small():
    assert not roundtrip_failures(skeleton(1), 1)
    assert not roundtrip_failures(skeleton(2), 2)
    assert not roundtrip_failures(skeleton(3), 2)


def test_roundtrip_exhaustive_degree_3():
    for size in (1, 2, 3):
        for n in (1, 2, 3):
            assert not roundtrip_failures(skeleton(size), n), (size, n)


def test_xi_identity_and_folds():
    ident = Correspondence(("x",), ("u",), ("x",), {"u": "x"}, {"u": "x"})
    assert xi_correspondence(ident) == Maze.identity(("x",))

    doubled = Correspondence(("y",), ("u1", "u2"), ("x",),
                             {"u1": "y", "u2": "y"}, {"u1": "x", "u2": "x"})
    got = xi_correspondence(doubled)
    assert got == Maze(("x",), ("y",), [(Passage("x", "y", 1), 2)])

    fold = Correspondence(("y",), ("u1", "u2"), ("x1", "x2"),
                          {"u1": "y", "u2": "y"},
                          {"u1": "x1", "u2": "x2"})
    got = xi_correspondence(fold)
    assert got == Maze.pure([("x1", "y"), ("x2", "y")])


def test_xi_rejects_non_surjective():
    with pytest.raises(ValueError):
        Correspondence(("y1", "y2"), ("u",), ("x",), {"u": "y1"}, {"u": "x"})


def all_surjections(src, dst):
    from itertools import product

    out = []
    for values in product(dst, repeat=len(src)):
        if set(values) == set(dst):
            out.append(dict(zip(src, values)))
    return out


def test_xi_bijection_exhaustive():
    # all spans with middle size <= 3 between sets of size <= 2, up to
    # middle renaming, against all pure mazes with <= 3 passages
    for dsize in (1, 2):
        for csize in (1, 2):
            dom = [f"x{i}" for i in range(dsize)]
            cod = [f"y{i}" for i in range(csize)]
            images = {}
            for msize in range(1, 4):
                middle = [f"u{i}" for i in range(msize)]
                for left in all_surjections(middle, cod):
                    for right in all_surjections(middle, dom):
                        c = Correspondence(cod, middle, dom, left, right)
                        images.setdefault(xi_correspondence(c), set()).add(
                            tuple(sorted(c.fiber_counts().items())))
            # injectivity on canonical forms: each maze has one fiber form
            for maze, forms in images.items():
                assert len(forms) == 1
            # surjectivity: every pure maze with exact endpoints is hit
            from mazelab.labycat import pure_mazes_between

            expected = set()
            for s in (1, 2, 3):
                expected.update(pure_mazes_between(dom, cod, [s]))
            assert set(images) == expected
            # and xi_inverse is a section
            for maze in expected:
                assert xi_correspondence(xi_inverse(maze)) == maze


def test_ariadne_matrix_json_roundtrip():
    gens = quadratic_generators()
    got = ariadne_maze(gens["A"], 2)
    assert AriadneMatrix.from_json(got.to_json()) == got


@pytest.mark.parametrize("degree", [2.5, 2.0, True, "2"])
def test_ariadne_matrix_json_refuses_a_degree_that_is_no_integer(degree):
    data = ariadne_maze(quadratic_generators()["A"], 2).to_json()
    data["n"] = degree
    with pytest.raises(ValueError, match="degree .* is not an integer"):
        AriadneMatrix.from_json(data)


def test_ariadne_matrix_refuses_an_entry_off_its_index():
    # A {1,1,1} -> {1,2,2} hom was once filed under ({1,1,2}, {1,1,1}).
    a, b, c = ms("1", "1", "1"), ms("1", "2", "2"), ms("1", "1", "2")
    hom = MultHom.of(Multation(a, b, [(("1", "1"), 1), (("1", "2"), 2)]))
    ends = skeleton(2), skeleton(2), 3
    assert AriadneMatrix(*ends, {(b, a): hom}).entries == {(b, a): hom}
    for key, value in [((c, a), hom), ((b, c), hom), ((a, b), hom),
                       ((c, a), MultHom.zero(a, b))]:
        with pytest.raises(ValueError, match=re.escape(
                f"entry at ({key[0]!r}, {key[1]!r}) holds a hom "
                f"{{1,1,1}} -> {{1,2,2}}")):
            AriadneMatrix(*ends, {key: value})


def two_row_ariadne_json():
    """ariadne of 1 -> 1, 1 -> 2 at degree 3: rows {1,1,2} and {1,2,2},
    each holding one entry, the one at {1,2,2} listed first, and the one
    column {1,1,1}."""
    data = ariadne_maze(Maze.pure([("1", "1"), ("1", "2")]), 3).to_json()
    assert [ri for ri, _, _ in data["entries"]] == [1, 0]
    return data


@pytest.mark.parametrize("index, text", [
    ((-1, 0), "entry [-1, 0]: index outside the 2 x 1 matrix"),
    ((2, 0), "entry [2, 0]: index outside the 2 x 1 matrix"),
    ((0, 99), "entry [0, 99]: index outside the 2 x 1 matrix"),
    ((0, -1), "entry [0, -1]: index outside the 2 x 1 matrix"),
    ((0.0, 0), "entry [0.0, 0]: row index 0.0 is not an integer"),
    ((0, True), "entry [0, True]: column index True is not an integer"),
    (("1", 0), "entry ['1', 0]: row index '1' is not an integer"),
])
def test_ariadne_matrix_json_refuses_an_index_off_its_rows_or_columns(
        index, text):
    data = two_row_ariadne_json()
    data["entries"][0][:2] = index
    with pytest.raises(ValueError, match=re.escape(text)):
        AriadneMatrix.from_json(data)


def test_ariadne_matrix_json_refuses_entries_at_swapped_rows():
    data = two_row_ariadne_json()
    assert AriadneMatrix.from_json(data).to_json() == data
    for entry in data["entries"]:
        entry[0] = 1 - entry[0]
    with pytest.raises(ValueError, match=re.escape(
            "entry at ({1,1,2}, {1,1,1}) holds a hom {1,1,1} -> {1,2,2}")):
        AriadneMatrix.from_json(data)


def test_ariadne_matrix_json_refuses_an_entry_listed_twice():
    # Neither of two entries at one index may win silently.
    data = two_row_ariadne_json()
    data["entries"].append(list(data["entries"][0]))
    with pytest.raises(ValueError, match=re.escape(
            "entry [1, 0]: listed twice")):
        AriadneMatrix.from_json(data)
    data = two_row_ariadne_json()
    data["entries"][0][0] = 0
    with pytest.raises(ValueError, match=re.escape(
            "entry [0, 0]: listed twice")):
        AriadneMatrix.from_json(data)


def a_maze():
    return Maze.pure([("x", "z"), ("y", "z")]).to_json()


def a_span():
    return xi_inverse(Maze.pure([("x", "a"), ("x", "b")])).to_json()


@pytest.mark.parametrize("reader, data, text", [
    (Maze.from_json, {**a_maze(), "dom": "xy"}, "dom 'xy'"),
    (Maze.from_json, {**a_maze(), "cod": {"z": 1}}, "cod {'z': 1}"),
    (Maze.from_json, {**a_maze(), "passages": [["xz1", 1]]},
     "passage 'xz1'"),
    (Maze.from_json, {**a_maze(), "passages": ["xz"]}, "passage 'xz'"),
    (MazeHom.from_json, {**MazeHom.of(Maze.pure([("x", "z")])).to_json(),
                         "dom": "x"}, "dom 'x'"),
    (MultHom.from_json, {**MultHom.of(mset2_generators()["sigma"]).to_json(),
                         "cod": {"1": 1, "2": 1}}, "cod {'1': 1, '2': 1}"),
    (Multation.from_json, {**mset2_generators()["sigma"].to_json(),
                           "pairs": [["12", 1], ["21", 1]]}, "column '12'"),
    (Multation.from_json, {**mset2_generators()["sigma"].to_json(),
                           "pairs": ["ab"]}, "pair 'ab'"),
    (Correspondence.from_json, {**a_span(), "cod": "ab"}, "cod 'ab'"),
    (Correspondence.from_json, {**a_span(), "middle": "uv"},
     "middle 'uv'"),
    (Correspondence.from_json, {**a_span(), "left": ["ua", "vb"]},
     "left pair 'ua'"),
    (Correspondence.from_json, {**a_span(), "right": {"u": "x"}},
     "right pair 'u'"),
    (AriadneMatrix.from_json, {**ariadne_maze(
        quadratic_generators()["A"], 2).to_json(), "dom": "1"}, "dom '1'"),
])
def test_json_readers_refuse_a_string_where_a_list_belongs(reader, data,
                                                           text):
    # Read as a list, a string is taken apart letter by letter.
    with pytest.raises(ValueError, match=re.escape(f"{text} is not a list")):
        reader(data)


def test_all_pure_mazes_on():
    mazes = all_pure_mazes_on(skeleton(2), 2)
    gens = quadratic_generators()
    assert gens["S"] in mazes
    assert gens["C"] in mazes
    assert gens["I2"] in mazes
    # every maze has exactly 2 passages and valid endpoints
    for m in mazes:
        assert m.size == 2
