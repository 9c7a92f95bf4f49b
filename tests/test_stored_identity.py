"""Passage, Maze, MultiSet and Multation store their hash (and, for the
first two, their sort key): equal values built by different routes must
agree on both, and on the formulas the stored values stand for."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mazelab.bridge import ariadne_hom, ariadne_maze, theseus_hom
from mazelab.labycat import (Maze, MazeHom, Passage, maze_compose,
                             maze_hom_compose, normalize_homogeneous,
                             normalize_numerical, pure_passage, rename_maze)
from mazelab.msetcat import Multation, all_multations
from mazelab.multisets import MultiSet

NAMES = ("1", "2", "3")


def assert_same_identity(x, y):
    assert x == y
    assert hash(x) == hash(y)
    assert x.sort_key() == y.sort_key()


def assert_frozen(x):
    with pytest.raises(AttributeError):
        x._hash = 0


# A label as a reduced Fraction and as an unreduced "p/q" string.
labels = st.tuples(st.integers(-3, 3), st.integers(1, 4),
                   st.integers(1, 3)).map(
    lambda t: (Fraction(t[0], t[1]), f"{t[0] * t[2]}/{t[1] * t[2]}"))


@st.composite
def valid_mazes(draw, cod=None):
    """A maze without dead ends, its passages with labels in both forms;
    into the given names, if any."""
    dom = draw(st.lists(st.sampled_from(NAMES), min_size=1, unique=True))
    if cod is None:
        cod = draw(st.lists(st.sampled_from(NAMES), min_size=1, unique=True))
    ends = [(x, draw(st.sampled_from(cod))) for x in dom]
    ends += [(draw(st.sampled_from(dom)), y) for y in cod]
    ends += draw(st.lists(st.sampled_from(ends), max_size=2))
    return dom, cod, [(s, d, draw(labels)) for s, d in ends]


@settings(max_examples=100, deadline=None)
@given(maze=valid_mazes(), scale=labels)
def test_passage_and_maze_identity_across_routes(maze, scale):
    dom, cod, passages = maze
    m = Maze(dom, cod, [Passage(s, d, frac) for s, d, (frac, _) in passages])
    for p, _ in m.passages:
        assert hash(p) == hash((p.src, p.dst, p.label))
        assert p.sort_key() == (p.src, p.dst, p.label.numerator,
                                p.label.denominator)
        assert_frozen(p)
    assert hash(m) == hash((m.dom, m.cod, m.passages))
    assert m.sort_key() == (m.dom, m.cod, tuple((p.sort_key(), k)
                                                for p, k in m.passages))
    assert_frozen(m)

    # Unreduced string labels, reversed order, merged multiplicities.
    by_string = Maze(list(reversed(dom)), cod,
                     [Passage(s, d, text)
                      for s, d, (_, text) in reversed(passages)])
    assert_same_identity(by_string, m)
    assert_same_identity(Maze(dom, cod, dict(m.passages)), m)
    assert_same_identity(Maze.from_json(m.to_json()), m)
    for (p, _), (q, _) in zip(by_string.passages, m.passages):
        assert_same_identity(p, q)

    swap = {"1": "2", "2": "1", "3": "3"}
    assert_same_identity(rename_maze(rename_maze(m, swap, swap), swap, swap),
                         m)
    factor, _ = scale
    if factor:
        assert_same_identity(
            m.relabel_all(factor).relabel_all(1 / factor), m)
    assert_same_identity(
        Maze.identity(dom),
        Maze(dom, dom, [Passage(x, x, "2/2") for x in reversed(dom)]))


def assert_canonical_maze(m):
    """m equals, in value, hash and sort key, the maze the validating
    constructor builds from its parts shuffled."""
    assert_same_identity(
        Maze(list(reversed(m.dom)), m.cod, list(reversed(m.passages))), m)


@settings(max_examples=100, deadline=None)
@given(maze=valid_mazes())
def test_trusted_mazes_and_pure_passages_equal_validated_ones(maze):
    dom, cod, passages = maze
    m = Maze(dom, cod, [Passage(s, d, frac) for s, d, (frac, _) in passages])
    trusted = Maze._trusted(m.dom, m.cod, m.passages)
    assert_same_identity(trusted, m)
    assert_frozen(trusted)

    # The pure maze on the same passages, through the shared passages.
    pure = Maze(dom, cod, [Passage(s, d, 1) for s, d, _ in passages])
    shared = Maze._trusted(pure.dom, pure.cod, tuple(
        (pure_passage(p.src, p.dst), k) for p, k in pure.passages))
    assert_same_identity(shared, pure)
    assert_frozen(shared)
    for s, d, _ in passages:
        p = pure_passage(s, d)
        assert_same_identity(p, Passage(s, d, 1))
        assert p is pure_passage(s, d)
        assert_frozen(p)


@st.composite
def multisets(draw):
    return draw(st.dictionaries(st.sampled_from(NAMES), st.integers(1, 2),
                                min_size=1))


@settings(max_examples=60, deadline=None)
@given(a=multisets(), b=multisets())
def test_multiset_and_multation_identity_across_routes(a, b):
    ms_a = MultiSet(a)
    assert_frozen(ms_a)
    assert hash(ms_a) == hash(ms_a.items())
    trusted = MultiSet._trusted(tuple(sorted(a.items())))
    assert_same_identity(trusted, ms_a)
    assert_frozen(trusted)
    for other in (MultiSet(list(a.items())),
                  MultiSet([x for x, k in a.items() for _ in range(k)]),
                  MultiSet.from_json(ms_a.to_json())):
        assert_same_identity(other, ms_a)

    ms_b = MultiSet({x: k for x, k in b.items()})
    mus = all_multations(ms_a, ms_b)
    assert mus or ms_a.cardinality != ms_b.cardinality
    for mu in mus:
        assert_frozen(mu)
        assert hash(mu) == hash((mu.dom, mu.cod, mu.pairs))
        assert mu.sort_key() == (mu.dom.sort_key(), mu.cod.sort_key(),
                                 mu.pairs)
        assert_frozen(mu)
        fresh_ends = (MultiSet(dict(mu.dom.items())),
                      MultiSet(dict(mu.cod.items())))
        assert_same_identity(Multation._trusted(*fresh_ends, mu.pairs), mu)
        assert_same_identity(
            Multation(*fresh_ends, list(reversed(mu.pairs))), mu)
        assert_same_identity(Multation.from_json(mu.to_json()), mu)
    assert_same_identity(
        Multation.identity(ms_a),
        Multation(MultiSet(a), MultiSet(a),
                  [((x, x), k) for x, k in a.items()]))


def test_ariadne_terms_equal_validated_multations():
    # The forward translation builds its multations unchecked; each must
    # be the multation the validating constructor gives.
    maze = Maze(("1", "2"), ("1", "2"),
                [(Passage("1", "1", 2), 2), Passage("1", "2", -1),
                 Passage("2", "2", Fraction(1, 2))])
    count = 0
    for hom in ariadne_maze(maze, 7).entries.values():
        for mu, _ in hom.comb:
            assert_same_identity(Multation(mu.dom, mu.cod, mu.pairs), mu)
            count += 1
    assert count == 10


def assert_validated(h):
    """A MazeHom from package arithmetic equals, in type, ends, terms and
    hash, the one the validating constructor builds from its parts, and
    so does each of its mazes."""
    checked = MazeHom(list(reversed(h.dom)), h.cod, h.comb)
    assert type(h) is MazeHom
    assert (h.dom, h.cod, h.comb) == (checked.dom, checked.cod, checked.comb)
    assert h == checked and hash(h) == hash(checked)
    for maze, _ in h.comb:
        assert_canonical_maze(maze)


def labelled(maze):
    dom, cod, passages = maze
    return Maze(dom, cod, [Passage(s, d, frac)
                           for s, d, (frac, _) in passages])


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 3))
def test_trusted_maze_homs_equal_validated_ones(data, n):
    # maze_compose, maze_hom_compose and both normal forms build their
    # results without checking the ends again.
    p = data.draw(valid_mazes())
    q = labelled(data.draw(valid_mazes(cod=p[0])))
    p = labelled(p)
    results = [maze_compose(p, q, n),
               maze_hom_compose(MazeHom.of(p), MazeHom.of(q, 2), n),
               normalize_numerical(MazeHom.of(p, 3), n),
               normalize_homogeneous(MazeHom.of(q), n)]
    if p.size * q.size <= 6:
        results.append(maze_compose(p, q))
    for h in results:
        assert_validated(h)


@settings(max_examples=60, deadline=None)
@given(maze=valid_mazes(), n=st.integers(1, 4))
def test_translations_build_the_validated_mazes_and_multisets(maze, n):
    # ariadne_hom builds each term's marginals unchecked, and theseus_hom
    # each pure maze from the shared passages.
    forward = ariadne_hom(MazeHom.of(labelled(maze)), n)
    for (b, a), hom in forward.entries.items():
        for ms in (a, b):
            assert_same_identity(MultiSet(dict(ms.items())), ms)
        for mu, _ in hom.comb:
            assert_same_identity(
                MultiSet([x for (x, _), k in mu.pairs for _ in range(k)]),
                mu.dom)
            assert_same_identity(
                MultiSet([y for (_, y), k in mu.pairs for _ in range(k)]),
                mu.cod)
        back = theseus_hom(hom, n)
        assert_validated(back)
        for pure, _ in back.comb:
            for p, _ in pure.passages:
                assert p is pure_passage(p.src, p.dst)
