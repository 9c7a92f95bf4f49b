import itertools
import math
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mazelab import labycat
from mazelab.errors import DomainMismatchError, EnumerationLimitError
from mazelab.labycat import (
    Maze,
    MazeHom,
    Passage,
    collapse_parallel,
    compose_in_laby_n,
    expand_label,
    laby2_table,
    maze_compose,
    maze_hom_compose,
    normalize_homogeneous,
    normalize_numerical,
    pure_mazes_between,
    quadratic_generators,
    skeleton,
    splitting_idempotents,
    validate_maze,
)
from mazelab.multisets import ENUM_LIMIT
from mazelab.scalars import LinComb, binomial


def parallel_pure(count, dom=("x",), cod=("y",)):
    return Maze(dom, cod, [(Passage(dom[0], cod[0], 1), count)])


def test_validate_maze():
    assert validate_maze(Maze((), ()))
    assert not validate_maze(Maze(("x",), ("y",)))
    assert validate_maze(Maze.identity(skeleton(2)))
    stray = Maze(("x",), ("y",), [Passage("x", "z", 1)])
    assert not validate_maze(stray)


@pytest.mark.parametrize("mult", [1.5, 2.0, True, "2"])
def test_maze_refuses_non_int_multiplicities(mult):
    with pytest.raises(ValueError, match="multiplicity"):
        Maze(["a"], ["x"], [(Passage("a", "x", 1), mult)])
    with pytest.raises(ValueError, match="multiplicity"):
        Maze(["a"], ["x"], {Passage("a", "x", 1): mult})


def box_product(p: Maze, q: Maze):
    """Tagged multi-set of composable passage pairs of P (x) Q, for the
    brute-force oracles.

    Returns a list of ((i, passage of P), (j, passage of Q)) where i and j
    index the instance lists, so repeated passages stay distinguishable.
    """
    if set(p.dom) != set(q.cod):
        raise DomainMismatchError(
            f"cannot form pair product: {set(q.cod)} != {set(p.dom)}")
    q_instances = q.instances()
    pairs = []
    for i, pi in enumerate(p.instances()):
        for j, qj in enumerate(q_instances):
            if qj.dst == pi.src:
                pairs.append(((i, pi), (j, qj)))
    return pairs


def test_box_product_worked_example():
    # Two fan mazes through a single middle point: all four passage pairs
    # compose, with labels multiplied in passing.
    a, b, c, d = 2, 3, 5, 7
    p = Maze(("z",), ("x", "y"), [Passage("z", "x", a), Passage("z", "y", b)])
    q = Maze(("x", "y"), ("z",), [Passage("x", "z", c), Passage("y", "z", d)])
    pairs = box_product(p, q)
    assert len(pairs) == 4
    composed = sorted(
        (qj.src, pi.dst, pi.label * qj.label) for (_, pi), (_, qj) in pairs)
    assert composed == [
        ("x", "x", a * c),
        ("x", "y", b * c),
        ("y", "x", a * d),
        ("y", "y", b * d),
    ]


def test_identity_box_product_size():
    i2 = Maze.identity(skeleton(2))
    assert len(box_product(i2, i2)) == 2
    c = quadratic_generators()["C"]
    assert len(box_product(c, c)) == 4


def test_worked_composition_seven_terms():
    a, b, c, d = 2, 3, 5, 7  # distinct labels keep the bookkeeping visible
    p = Maze(("z",), ("x", "y"), [Passage("z", "x", a), Passage("z", "y", b)])
    q = Maze(("x", "y"), ("z",), [Passage("x", "z", c), Passage("y", "z", d)])
    got = maze_compose(p, q)
    pac = Passage("x", "x", a * c)
    pbc = Passage("x", "y", b * c)
    pad = Passage("y", "x", a * d)
    pbd = Passage("y", "y", b * d)
    xy = ("x", "y")
    full = Maze(xy, xy, [pac, pbc, pad, pbd])
    match1 = Maze(xy, xy, [pac, pbd])
    match2 = Maze(xy, xy, [pbc, pad])
    threes = [
        Maze(xy, xy, [pbc, pad, pbd]),
        Maze(xy, xy, [pac, pad, pbd]),
        Maze(xy, xy, [pac, pbc, pbd]),
        Maze(xy, xy, [pac, pbc, pad]),
    ]
    expected = MazeHom.from_terms(
        xy, xy, [(m, 1) for m in [full, match1, match2] + threes])
    assert got == expected
    assert len(got.comb) == 7
    sizes = sorted(m.size for m, _ in got.comb)
    assert sizes == [2, 2, 3, 3, 3, 3, 4]


def test_identity_laws():
    gens = quadratic_generators()
    for name in ["A", "B", "C", "S"]:
        m = gens[name]
        left = maze_compose(Maze.identity(m.cod), m)
        right = maze_compose(m, Maze.identity(m.dom))
        assert left == MazeHom.of(m)
        assert right == MazeHom.of(m)


def test_empty_maze_is_identity_of_empty_set():
    empty = Maze((), ())
    assert maze_compose(empty, empty) == MazeHom.of(empty)


def random_pure_maze(rng, max_side=3, max_passages=3):
    while True:
        nd = rng.randint(1, max_side)
        nc = rng.randint(1, max_side)
        if max(nd, nc) > max_passages:
            continue
        dom = [str(i + 1) for i in range(nd)]
        cod = [chr(ord("a") + i) for i in range(nc)]
        size = rng.randint(max(nd, nc), max_passages)
        options = [(x, y) for x in dom for y in cod]
        combo = [rng.choice(options) for _ in range(size)]
        maze = Maze.pure(combo, dom, cod)
        if validate_maze(maze):
            return maze


def test_associativity_random_triples():
    # Sizes are capped pairwise so the middle composites stay enumerable:
    # a q.r term can have |q||r| passages and meets p in the second step.
    rng = random.Random(42)
    for _ in range(25):
        size_r = rng.randint(1, 3)
        size_q = rng.randint(1, min(3, 5 - size_r))
        size_p = rng.randint(1, min(3, 5 - size_q))
        r = random_pure_maze(rng, max_passages=size_r)
        q = _random_maze_between(rng, r.cod, max_passages=size_q)
        p = _random_maze_between(rng, q.cod, max_passages=size_p)
        lhs = maze_hom_compose(MazeHom.of(p), maze_compose(q, r))
        rhs = maze_hom_compose(maze_compose(p, q), MazeHom.of(r))
        assert lhs == rhs


def _random_maze_between(rng, dom, max_side=2, max_passages=3):
    max_passages = max(max_passages, len(dom))
    nc = rng.randint(1, min(max_side, max_passages))
    cod = [f"w{i}" for i in range(nc)]
    options = [(x, y) for x in dom for y in cod]
    for _ in range(200):
        size = rng.randint(max(len(dom), nc), max_passages)
        combo = [rng.choice(options) for _ in range(size)]
        maze = Maze.pure(combo, dom, cod)
        if validate_maze(maze):
            return maze
    raise AssertionError("could not build a valid maze")


def test_expand_label_axiom_two_shape():
    p = Maze(("x",), ("y",), [Passage("x", "y", 5)])
    passage = p.instances()[0]
    got = expand_label(p, passage, [2, 3])
    expected = MazeHom.from_terms(
        ("x",), ("y",),
        [(Maze(("x",), ("y",), [Passage("x", "y", 2)]), 1),
         (Maze(("x",), ("y",), [Passage("x", "y", 3)]), 1),
         (Maze(("x",), ("y",), [Passage("x", "y", 2), Passage("x", "y", 3)]), 1)])
    assert got == expected
    assert expand_label(p, passage, [5]) == MazeHom.of(p)


def test_collapse_parallel_inclusion_exclusion():
    p = Maze(("x",), ("y",), [Passage("x", "y", 2), Passage("x", "y", 3)])
    group = p.instances()
    got = collapse_parallel(p, group)
    expected = MazeHom.from_terms(
        ("x",), ("y",),
        [(Maze(("x",), ("y",), [Passage("x", "y", 5)]), 1),
         (Maze(("x",), ("y",), [Passage("x", "y", 2)]), -1),
         (Maze(("x",), ("y",), [Passage("x", "y", 3)]), -1),
         (Maze(("x",), ("y",), [Passage("x", "y", 0)]), 1)])
    assert got == expected
    # A one-passage group keeps the signed zero-label term; it is the
    # normalization step that kills it, giving back the maze itself.
    single = Maze(("x",), ("y",), [Passage("x", "y", 7)])
    collapsed = collapse_parallel(single, single.instances())
    zeroed = Maze(("x",), ("y",), [Passage("x", "y", 0)])
    assert collapsed == MazeHom.of(single) - MazeHom.of(zeroed)
    assert normalize_numerical(collapsed, 1) == \
        normalize_numerical(MazeHom.of(single), 1)


def test_collapse_then_expand_roundtrip_mod_zero_labels():
    # Collapsing two parallel passages then re-expanding the summed label
    # returns the original plus terms that die under normalization.
    n = 4
    p = Maze(("x",), ("y",), [Passage("x", "y", 2), Passage("x", "y", 3)])
    collapsed = collapse_parallel(p, p.instances())
    rebuilt_terms = []
    for maze, coeff in collapsed.comb:
        lone = maze.instances()[0]
        if lone.label == 5:
            rebuilt_terms.append((expand_label(maze, lone, [2, 3]), coeff))
        else:
            rebuilt_terms.append((MazeHom.of(maze), coeff))
    total = MazeHom.zero(p.dom, p.cod)
    for hom, coeff in rebuilt_terms:
        total = total + hom.scale(coeff)
    assert normalize_numerical(total, n) == normalize_numerical(MazeHom.of(p), n)


def test_normalize_numerical_worked_instance():
    # Two parallel passages labelled 2 and 1 at degree 3.
    p = Maze(("x",), ("y",), [Passage("x", "y", 2), Passage("x", "y", 1)])
    got = normalize_numerical(MazeHom.of(p), 3)
    expected = MazeHom.from_terms(
        ("x",), ("y",),
        [(parallel_pure(2), 2), (parallel_pure(3), 1)])
    assert got == expected


def test_normalize_numerical_general_binomial_expansion():
    # Same shape for all integer labels a, b in [-2, 3], against the
    # directly-written double binomial sum.
    n = 3
    for a in range(-2, 4):
        for b in range(-2, 4):
            p = Maze(("x",), ("y",),
                     [(Passage("x", "y", a), 1), (Passage("x", "y", b), 1)]
                     if a != b else [(Passage("x", "y", a), 2)])
            got = normalize_numerical(MazeHom.of(p), n)
            terms = []
            for d1 in range(1, n):
                for d2 in range(1, n - d1 + 1):
                    coeff = binomial(a, d1) * binomial(b, d2)
                    if coeff:
                        terms.append((parallel_pure(d1 + d2), coeff))
            assert got == MazeHom.from_terms(("x",), ("y",), terms), (a, b)


def uncapped_numerical_terms(maze, n):
    """The binomial expansion of one maze as it was enumerated before
    positive integer labels capped their instances: every composition of
    every total k..n, zero coefficients dropped.  Kept as the oracle."""
    from mazelab.multisets import compositions

    inst = maze.instances()
    k = len(inst)
    if k > n:
        return []
    if all(p.label == 1 for p in inst):
        return [(Fraction(1), maze)]
    labels = [p.label for p in inst]
    if 0 in labels:
        return []
    out = []
    for total in range(k, n + 1):
        for degs in compositions(total, k):
            coeff = math.prod(map(binomial, labels, degs))
            if coeff:
                out.append((coeff, Maze(maze.dom, maze.cod, [
                    (Passage(p.src, p.dst, 1), d)
                    for p, d in zip(inst, degs)])))
    return out


def test_capped_expansion_matches_the_uncapped_oracle(monkeypatch):
    estimates = []
    monkeypatch.setattr(labycat, "guard_count",
                        lambda count, *_: estimates.append(count))
    labels = (1, 2, 3, -1, Fraction(1, 2))
    ends = [("y",), ("y", "z"), ("y", "z", "w")]
    mazes = []
    for cod in ends:
        for labs in itertools.product(labels, repeat=len(cod)):
            mazes.append(Maze(("x",), cod, [(Passage("x", y, a), 1)
                                            for y, a in zip(cod, labs)]))
    # Repeated instances of one passage, and two passages in parallel.
    for a in labels:
        mazes.append(Maze(("x",), ("y",), [(Passage("x", "y", a), 3)]))
        for b in labels:
            mazes.append(Maze(("x",), ("y",), [(Passage("x", "y", a), 2),
                                               (Passage("x", "y", b), 1)]))
    for maze in mazes:
        for n in range(9):
            estimates.clear()
            got = normalize_numerical(MazeHom.of(maze), n)
            assert got == MazeHom.from_terms(maze.dom, maze.cod, [
                (pure, coeff) for coeff, pure
                in uncapped_numerical_terms(maze, n)]), (maze, n)
            if len(maze.instances()) <= n and not maze.is_pure():
                # The guard's estimate bounds the number listed.
                assert len(estimates) == 1 and estimates[0] >= len(got.comb)


MIXED_LABELS = (-2, -1, Fraction(-1, 2), Fraction(2, 3), 0, 1, 2, 3)


@settings(max_examples=150, deadline=None)
@given(kinds=st.lists(st.dictionaries(st.sampled_from(MIXED_LABELS),
                                      st.integers(1, 4), min_size=1,
                                      max_size=3),
                      min_size=1, max_size=3),
       n=st.integers(0, 9))
def test_numerical_normal_form_matches_the_instance_oracle(kinds, n):
    # Up to three passage kinds, two of them parallel into y, each with its
    # labels mixed; every instance expands on its own in the oracle.
    pairs = [("x", "y"), ("x", "z"), ("w", "y")]
    passages = [(Passage(a, b, label), r)
                for (a, b), labels in zip(pairs, kinds)
                for label, r in labels.items()]
    maze = Maze({p.src for p, _ in passages}, {p.dst for p, _ in passages},
                passages)
    assert normalize_numerical(MazeHom.of(maze), n) == MazeHom.from_terms(
        maze.dom, maze.cod,
        [(pure, coeff) for coeff, pure in uncapped_numerical_terms(maze, n)])


def test_numerical_normal_form_of_one_kind_is_its_closed_sum():
    # r instances labelled L repeat their passage t times with coefficient
    # [x^t] ((1 + x)^L - 1)^r = sum_j (-1)^(r-j) C(r, j) C(jL, t).
    r, n = 20, 40
    for label in (-1, Fraction(1, 2), 3, Fraction(-2, 3)):
        maze = Maze(("x",), ("y",), [(Passage("x", "y", label), r)])
        assert normalize_numerical(MazeHom.of(maze), n) == \
            MazeHom.from_terms(("x",), ("y",), [
                (parallel_pure(t), sum((-1)**(r - j) * math.comb(r, j)
                                       * binomial(j * Fraction(label), t)
                                       for j in range(r + 1)))
                for t in range(r, n + 1)]), label


@pytest.mark.parametrize("label, n, seconds", [(1000, 1958, 3), (-1, 1400, 1)])
def test_two_integer_labels_at_the_guard_edge_normalise_in_ints(
        label, n, seconds):
    # Estimates of about 10^6 series pairs: an integer label's factor is
    # kept in ints, so its products skip Fraction arithmetic (1.2 s and
    # 0.07 s here, 6.1 s and 2.9 s with Fraction factors, on a shared
    # 2 vCPU host).  Coefficients come out as Fractions all the same.
    maze = Maze(("x",), ("y",), [(Passage("x", "y", label), 2)])
    start = time.perf_counter()
    normal = normalize_numerical(MazeHom.of(maze), n)
    assert time.perf_counter() - start < seconds
    assert all(type(c) is Fraction for _, c in normal.comb)
    assert normal == MazeHom.from_terms(("x",), ("y",), [
        (parallel_pure(t), sum((-1)**(2 - j) * math.comb(2, j)
                               * binomial(j * label, t) for j in range(3)))
        for t in range(2, n + 1)])


def test_numerical_guard_refuses_nothing_the_instance_guard_accepted(
        monkeypatch):
    # The estimate of the per-instance expansion is kept as the oracle:
    # C(n, k) compositions of the k instances' degrees, or the product of
    # their caps, min(L, n) for a positive integer label L and n for any
    # other.  The stand-in guard records each new estimate and raises, so
    # no expansion runs.  Many instances on up to eight passages, up to
    # degree 2 * 10^6.  The new guard charges every product it runs, so it
    # does refuse a kind of more than 349525 instances at one passage of
    # room, 3 pairs a product, where the old one estimated k + 1 terms of
    # k parts each; no maze here is that large.
    class Refused(Exception):
        pass

    estimates = []

    def record(count, operation, sizes):
        estimates.append(count)
        raise Refused

    monkeypatch.setattr(labycat, "guard_count", record)
    labels = (-3, -1, Fraction(-1, 2), Fraction(1, 2), Fraction(2, 3), 1, 2,
              3, 7, 1000, 10**6)
    rng = random.Random(22)
    accepted = 0
    for _ in range(3000):
        passages = [(Passage("x", f"y{i}", label),
                     int(math.exp(rng.uniform(0, math.log(200)))))
                    for i in range(rng.randint(1, 8))
                    for label in rng.sample(labels, rng.randint(1, 3))]
        maze = Maze(("x",), {p.dst for p, _ in passages}, passages)
        n = maze.size - 1 + int(math.exp(rng.uniform(0, math.log(2 * 10**6))))
        if maze.is_pure() or n > 2 * 10**6:
            continue
        caps = [(min(p.label.numerator, n)
                 if p.label.denominator == 1 and p.label > 0 else n, m)
                for p, m in maze.passages]
        old = min(math.comb(n, maze.size),
                  math.prod(cap**m for cap, m in caps))
        with pytest.raises(Refused):
            normalize_numerical(MazeHom.of(maze), n)
        if old <= ENUM_LIMIT:
            accepted += 1
            assert estimates[-1] <= ENUM_LIMIT, (maze, n, old, estimates[-1])
    assert accepted > 300, accepted


def test_numerical_guard_counts_the_series_products():
    # The instances of one passage merge, so at degree 2000 two or three
    # instances labelled -1 list under 2000 terms, but their series takes
    # r - 1 products of about C(2000, 2) pairs: the guard charges those,
    # and refuses before any of them runs.
    for r, estimate in ((2, math.comb(2000, 2)), (3, 2 * math.comb(1999, 2))):
        maze = Maze(("x",), ("y",), [(Passage("x", "y", -1), r)])
        with pytest.raises(EnumerationLimitError,
                           match=f"an estimated {estimate} items"):
            normalize_numerical(MazeHom.of(maze), 2000)


def test_one_passage_labelled_minus_one_normalises_at_degree_3000_quickly():
    # binomial(-1, d) = (-1)^d: one term per degree, and one series term
    # each, by the ratio of neighbouring binomials.
    maze = Maze(("x",), ("y",), [Passage("x", "y", -1)])
    start = time.perf_counter()
    normal = normalize_numerical(MazeHom.of(maze), 3000)
    assert time.perf_counter() - start < 1
    assert normal == MazeHom.from_terms(("x",), ("y",), [
        (parallel_pure(d), (-1)**d) for d in range(1, 3001)])


def homogeneous_oracle(h, n):
    """normalize_homogeneous as it ran before a repeated passage was
    expanded as one: each layer maze relabelled by 2 goes through the
    uncapped oracle instance by instance, and its size-m term is
    dropped."""
    current = dict(normalize_numerical(h, n).comb)
    for m in range(n):
        layer = [(maze, c) for maze, c in current.items() if maze.size == m]
        for maze, c in layer:
            del current[maze]
            for coeff, pure in uncapped_numerical_terms(maze.relabel_all(2),
                                                        n):
                if pure.size > m:
                    current[pure] = (current.get(pure, 0)
                                     + coeff * c / (2**n - 2**m))
    return MazeHom.from_terms(h.dom, h.cod, current.items())


def test_doubling_expansion_matches_the_instance_oracle():
    # Every choice of up to three instances on each of three passages, two
    # of them parallel into y, the empty maze included; labelled copies
    # go through the numerical step first.
    pairs = [("x", "y"), ("x", "z"), ("w", "y")]
    for mults in itertools.product(range(4), repeat=3):
        passages = [(Passage(a, b, 1), r)
                    for (a, b), r in zip(pairs, mults) if r]
        maze = Maze({p.src for p, _ in passages},
                    {p.dst for p, _ in passages}, passages)
        for label in (1, 2, 3, -1, Fraction(1, 2)):
            h = MazeHom.of(maze.relabel_all(label))
            for n in range(8):
                assert normalize_homogeneous(h, n) == \
                    homogeneous_oracle(h, n), (h, n)


@settings(max_examples=60, deadline=None)
@given(mults=st.tuples(*[st.integers(0, 3)] * 3),
       label=st.sampled_from([1, 2, -1, Fraction(1, 2)]),
       n=st.integers(0, 6))
def test_homogeneous_normal_form_scales_at_every_label(mults, label, n):
    # The quotient's scaling axiom, x [.] P = x^n P, at labels other than
    # the 2 that the layer-by-layer rewriting solved for.
    pairs = [("x", "y"), ("x", "z"), ("w", "y")]
    passages = [(Passage(a, b, label), r)
                for (a, b), r in zip(pairs, mults) if r]
    maze = Maze({p.src for p, _ in passages},
                {p.dst for p, _ in passages}, passages)
    normal = normalize_homogeneous(MazeHom.of(maze), n)
    for x in (-3, -1, Fraction(1, 2), 3):
        assert normalize_homogeneous(MazeHom.of(maze.relabel_all(x)), n) \
            == normal.scale(Fraction(x)**n), (x, maze, n)


def test_homogeneous_guard_bounds_the_terms_listed(monkeypatch):
    # The closed form lists one term per composition it asks for, with one
    # passage per part; the one estimate covers every passage listed.
    estimates, listed = [], []
    guard, listing = labycat.guard_count, labycat.compositions

    def record_guard(count, operation, sizes):
        if operation == "normalize_homogeneous":
            estimates.append(count)
        guard(count, operation, sizes)

    def record_terms(total, parts):
        terms = listing(total, parts)
        listed.append(len(terms) * parts)
        return terms

    monkeypatch.setattr(labycat, "guard_count", record_guard)
    monkeypatch.setattr(labycat, "compositions", record_terms)
    xy, xz = Passage("x", "y", 1), Passage("x", "z", 1)
    wy, wz = Passage("w", "y", 1), Passage("w", "z", 1)
    homs = [MazeHom.of(parallel_pure(r)) for r in (1, 2, 3)]
    homs.append(MazeHom.of(Maze(("x",), ("y", "z"), [(xy, 2), (xz, 1)])))
    # Two mazes on one set of passages, and a second set beside them.
    ends = (("w", "x"), ("y", "z"))
    homs.append(MazeHom.of(Maze(*ends, [xy, wz]))
                + MazeHom.of(Maze(*ends, [(xy, 3), wz]))
                + MazeHom.of(Maze(*ends, [xy, xz, (wy, 2)])))
    for h in homs:
        for n in range(1, 9):
            estimates.clear()
            listed.clear()
            normalize_homogeneous(h, n)
            assert len(estimates) == 1, (h, n)
            assert sum(listed) <= estimates[0], (h, n)
    with pytest.raises(EnumerationLimitError):
        normalize_homogeneous(MazeHom.of(parallel_pure(2)), 10**8)


def test_normalize_numerical_expands_a_thousand_instances():
    # Each of 1000 instances labelled 2 takes 1 or 2 at degree 1000, so
    # only the all-ones split is left, with coefficient C(2, 1)^1000; the
    # listing goes part by part, so no recursion limit stops it.
    xy = Passage("x", "y", 2)
    maze = Maze(("x",), ("y",), [(xy, 1000)])
    assert normalize_numerical(MazeHom.of(maze), 1000) == MazeHom.of(
        Maze(("x",), ("y",), [(Passage("x", "y", 1), 1000)]), 2**1000)


def test_normalize_numerical_fixes_pure_and_kills_zero_labels():
    n = 3
    for maze in [parallel_pure(1), parallel_pure(2), Maze.identity(skeleton(2))]:
        assert normalize_numerical(MazeHom.of(maze), n) == MazeHom.of(maze)
    withzero = Maze(("x",), ("y",), [Passage("x", "y", 0), Passage("x", "y", 2)])
    assert normalize_numerical(MazeHom.of(withzero), n).is_zero()
    big = parallel_pure(4)
    assert normalize_numerical(MazeHom.of(big), n).is_zero()


def test_normalize_numerical_idempotent():
    rng = random.Random(5)
    for _ in range(20):
        maze = random_pure_maze(rng)
        labelled = Maze(maze.dom, maze.cod,
                        [(Passage(p.src, p.dst, rng.randint(-2, 3)), m)
                         for p, m in maze.passages])
        h = normalize_numerical(MazeHom.of(labelled), 3)
        assert normalize_numerical(h, 3) == h
        for m, _ in h.comb:
            assert m.is_pure() and m.size <= 3


def test_laby2_table():
    gens = quadratic_generators()
    table = laby2_table()
    i1 = MazeHom.of(gens["I1"])
    i2 = MazeHom.of(gens["I2"])
    assert table[("A", "B")] == i2 + MazeHom.of(gens["S"])
    assert table[("B", "A")] == MazeHom.of(gens["C"])
    assert table[("A", "C")] == MazeHom.of(gens["A"], 2)
    assert table[("C", "B")] == MazeHom.of(gens["B"], 2)
    assert table[("C", "C")] == MazeHom.of(gens["C"], 2)
    assert table[("S", "A")] == MazeHom.of(gens["A"])
    assert table[("B", "S")] == MazeHom.of(gens["B"])
    assert table[("S", "S")] == i2
    assert table[("S", "S")] != MazeHom.of(gens["S"])
    for cell in [("A", "A"), ("A", "S"), ("B", "B"), ("B", "C"),
                 ("C", "A"), ("C", "S"), ("S", "B"), ("S", "C")]:
        assert table[cell] is None
    # the algebraic dependencies among the generators
    assert table[("B", "A")] == MazeHom.of(gens["C"])          # C = BA
    assert table[("A", "B")] - i2 == MazeHom.of(gens["S"])     # S = AB - I


def test_quotient_compatibility():
    # normal form of the raw composite equals the composite of normal
    # forms, also for labelled inputs
    rng = random.Random(9)
    for n in (2, 3):
        for _ in range(15):
            q = random_pure_maze(rng)
            p = _random_maze_between(rng, q.cod)
            q = Maze(q.dom, q.cod,
                     [(Passage(x.src, x.dst, rng.randint(-2, 3)), m)
                      for x, m in q.passages])
            p = Maze(p.dom, p.cod,
                     [(Passage(x.src, x.dst, rng.randint(-2, 3)), m)
                      for x, m in p.passages])
            raw = normalize_numerical(maze_compose(p, q), n)
            quot = compose_in_laby_n(
                normalize_numerical(MazeHom.of(p), n),
                normalize_numerical(MazeHom.of(q), n), n)
            assert raw == quot


def test_normalize_homogeneous_doubling_anomaly():
    # degree 2: the doubled passage equals twice the single one
    single = MazeHom.of(parallel_pure(1))
    double = MazeHom.of(parallel_pure(2))
    assert normalize_homogeneous(single, 2) == double.scale(Fraction(1, 2))
    assert normalize_homogeneous(double - single.scale(2), 2).is_zero()


def test_normalize_homogeneous_exact_terms_only():
    n = 3
    h = MazeHom.of(parallel_pure(1)) + MazeHom.of(parallel_pure(3))
    out = normalize_homogeneous(h, n)
    assert all(m.size == n and m.is_pure() for m, _ in out.comb)
    assert normalize_homogeneous(out, n) == out
    # exactly-n input is untouched
    assert normalize_homogeneous(MazeHom.of(parallel_pure(3)), 3) == \
        MazeHom.of(parallel_pure(3))


def test_degree_four_fan_identity():
    # The two-target fan identity at degree 4: the three fatter fans sum
    # to six times the plain fan.
    def fan(k1, k2):
        return Maze(("x",), ("u", "v"),
                    [(Passage("x", "u", 1), k1), (Passage("x", "v", 1), k2)])

    lhs = MazeHom.of(fan(3, 1)) + MazeHom.of(fan(2, 2)) + MazeHom.of(fan(1, 2))
    rhs = MazeHom.of(fan(1, 1), 6)
    assert normalize_homogeneous(lhs - rhs, 4).is_zero()
    assert not normalize_homogeneous(lhs - MazeHom.of(fan(1, 1), 5), 4).is_zero()


def test_splitting_idempotents_pair_example():
    out = splitting_idempotents(skeleton(2), 3)
    assert len(out) == 2
    (s1, e1), (s2, e2) = out
    assert s1.items() == (("1", 2), ("2", 1))
    assert s2.items() == (("1", 1), ("2", 2))
    # 2 I = P + Q
    i2 = MazeHom.identity(skeleton(2))
    p = e1.scale(2)
    q = e2.scale(2)
    assert normalize_homogeneous(i2.scale(2) - (p + q), 3).is_zero()
    # orthogonality and idempotence
    for (sa, ea) in out:
        for (sb, eb) in out:
            comp = normalize_homogeneous(maze_hom_compose(ea, eb), 3)
            if sa == sb:
                assert comp == normalize_homogeneous(ea, 3)
            else:
                assert comp.is_zero()


def test_splitting_idempotents_small_cases():
    out = splitting_idempotents(skeleton(1), 1)
    assert len(out) == 1
    assert out[0][1] == MazeHom.identity(skeleton(1))
    out = splitting_idempotents(skeleton(2), 2)
    assert len(out) == 1
    assert out[0][1] == MazeHom.identity(skeleton(2))
    assert splitting_idempotents(skeleton(3), 2) == []


def test_splitting_idempotents_properties_various():
    for size in (1, 2, 3):
        for n in range(size, 5):
            out = splitting_idempotents(skeleton(size), n)
            total = MazeHom.zero(skeleton(size), skeleton(size))
            for sa, ea in out:
                total = total + ea
                for sb, eb in out:
                    comp = normalize_homogeneous(maze_hom_compose(ea, eb), n)
                    if sa == sb:
                        assert comp == normalize_homogeneous(ea, n)
                    else:
                        assert comp.is_zero()
            assert normalize_homogeneous(
                total - MazeHom.identity(skeleton(size)), n).is_zero()


def test_pure_mazes_between():
    quad = pure_mazes_between(skeleton(1), skeleton(2), [2])
    assert quad == [quadratic_generators()["A"]]
    all2 = pure_mazes_between(skeleton(2), skeleton(2), [2])
    gens = quadratic_generators()
    assert set(all2) == {gens["I2"], gens["S"]}
    assert pure_mazes_between((), (), [0]) == [Maze((), ())]


def _pure_mazes_by_filter(dom, cod, sizes):
    """The filter over combinations_with_replacement that enumerated pure
    mazes before they were read as tables; kept as the oracle."""
    from itertools import combinations_with_replacement

    dom = tuple(sorted(set(dom)))
    cod = tuple(sorted(set(cod)))
    universe = [(x, y) for x in dom for y in cod]
    out = []
    for s in sizes:
        if s == 0:
            if not dom and not cod:
                out.append(Maze((), ()))
            continue
        if not universe:
            continue
        for combo in combinations_with_replacement(universe, s):
            if {a for a, _ in combo} != set(dom):
                continue
            if {b for _, b in combo} != set(cod):
                continue
            out.append(Maze.pure(combo, dom, cod))
    return sorted(out, key=Maze.sort_key)


def test_pure_mazes_between_matches_the_filter_oracle():
    ends = [c for r in range(4) for c in itertools.combinations(skeleton(3), r)]
    for dom in ends:
        for cod in ends:
            for s in range(5):
                assert pure_mazes_between(dom, cod, [s]) == \
                    _pure_mazes_by_filter(dom, cod, [s]), (dom, cod, s)
            assert pure_mazes_between(dom, cod, range(5)) == \
                _pure_mazes_by_filter(dom, cod, range(5))
    sizes = [3, 0, 2, 4, 1]
    assert pure_mazes_between(("y", "x"), ("q", "r", "p"), sizes) == \
        _pure_mazes_by_filter(("y", "x"), ("q", "r", "p"), sizes)


def test_pure_mazes_between_guard_trips_before_enumerating(monkeypatch):
    def refuse(name):
        def fail(*args):
            raise AssertionError(f"{name} ran before the guard")
        return fail

    monkeypatch.setattr(labycat, "compositions", refuse("compositions"))
    monkeypatch.setattr(labycat, "tables", refuse("tables"))
    with pytest.raises(EnumerationLimitError):
        pure_mazes_between(skeleton(3), skeleton(3), [40])


def test_structure_constants_guard_every_hom_set_before_listing(monkeypatch):
    # Degree 6 is refused on its first hom-set too large, 5 -> 6 points
    # with 6 passages, before any hom-set is listed.
    from mazelab.functor_lab import FgAbGroup, LabyModulePresentation

    def refuse(*args):
        raise AssertionError("a hom-set was listed before the guard")

    monkeypatch.setattr(labycat, "compositions", refuse)
    with pytest.raises(EnumerationLimitError, match=re.escape(
            "pure_mazes_between (5 -> 6 points, 6 passages): an estimated "
            "1623160 items exceed the guard of 1048576")):
        LabyModulePresentation(6, [FgAbGroup(0)] * 7, {}, check=False)


def test_domain_mismatch_raises():
    gens = quadratic_generators()
    with pytest.raises(DomainMismatchError):
        maze_compose(gens["A"], gens["A"])


def test_compose_enumeration_guard():
    from mazelab.errors import EnumerationLimitError

    fat = Maze(("x",), ("y",), [(Passage("x", "y", 1), 10)])
    fat2 = Maze(("y",), ("z",), [(Passage("y", "z", 1), 10)])
    with pytest.raises(EnumerationLimitError):
        maze_compose(fat2, fat)


def test_json_roundtrip():
    gens = quadratic_generators()
    labelled = Maze(("x",), ("y",),
                    [(Passage("x", "y", Fraction(-3, 2)), 2)])
    for maze in [gens["A"], gens["I0"], labelled]:
        assert Maze.from_json(maze.to_json()) == maze
    hom = MazeHom.of(labelled, Fraction(1, 2)) + MazeHom.of(
        Maze(("x",), ("y",), [Passage("x", "y", 1)]))
    assert MazeHom.from_json(hom.to_json()) == hom


def _skeleton_pairs(n):
    """Every composable pair (p, q) of pure mazes on skeleta of at most n
    points with at most n passages."""
    mazes = [m for j in range(n + 1) for k in range(n + 1)
             for m in pure_mazes_between(skeleton(j), skeleton(k),
                                         range(n + 1))]
    return [(p, q) for p in mazes for q in mazes if q.cod == p.dom]


def test_degree_pruned_composition_matches_unpruned_oracle():
    # The degree handed to the covering search only drops composites that
    # the quotient kills: plain and relabelled factors, every pair.
    count = 0
    for n in (1, 2, 3):
        for p, q in _skeleton_pairs(n):
            for p_ in (p, p.relabel_all(3)):
                f = normalize_numerical(MazeHom.of(p_), n)
                g = normalize_numerical(MazeHom.of(q), n)
                oracle = normalize_numerical(maze_hom_compose(f, g), n)
                assert maze_hom_compose(f, g, n) == oracle, (p, q, n)
                count += 1
    assert count == 2 * (2 + 19 + 580)


def _covering_subsets_oracle(p, q):
    """Plain composition by brute force: every subset of the pair product
    whose projections cover both instance lists, read as the maze of
    multiplied labels."""
    pairs = box_product(p, q)
    accum = {}
    for mask in range(1 << len(pairs)):
        chosen = [pair for t, pair in enumerate(pairs) if mask >> t & 1]
        if ({i for (i, _), _ in chosen} == set(range(p.size))
                and {j for _, (j, _) in chosen} == set(range(q.size))):
            maze = Maze(q.dom, p.cod,
                        [Passage(qj.src, pi.dst, pi.label * qj.label)
                         for (_, pi), (_, qj) in chosen])
            accum[maze] = accum.get(maze, 0) + 1
    return MazeHom(q.dom, p.cod, LinComb(accum.items()))


def test_covering_search_matches_the_subset_oracle_on_skeleta():
    pairs = _skeleton_pairs(2)
    assert len(pairs) == 19
    for p, q in pairs:
        assert maze_compose(p, q) == _covering_subsets_oracle(p, q), (p, q)


def _random_valid_maze(rng, dom, cod, labels):
    """A maze dom -> cod without dead ends whose passages repeat and carry
    labels drawn from `labels`."""
    passages = [Passage(x, rng.choice(cod), rng.choice(labels)) for x in dom]
    passages += [Passage(rng.choice(dom), y, rng.choice(labels)) for y in cod]
    passages += [rng.choice(passages) for _ in range(rng.randrange(2))]
    return Maze(dom, cod, passages)


def test_covering_search_matches_the_subset_oracle_on_labelled_pairs():
    rng = random.Random(13)
    labels = (2, -1, Fraction(1, 2))
    repeated = 0
    for _ in range(60):
        x, y, z = (skeleton(rng.randint(1, 2)) for _ in range(3))
        q = _random_valid_maze(rng, x, y, labels)
        p = _random_valid_maze(rng, y, z, labels)
        if len(box_product(p, q)) > 12:
            continue
        repeated += any(m > 1 for _, m in p.passages + q.passages)
        assert maze_compose(p, q) == _covering_subsets_oracle(p, q), (p, q)
    assert repeated >= 10


def test_degree_pruned_composition_of_oversized_mazes_is_zero():
    loop3 = Maze(("1",), ("1",), [(Passage("1", "1", 2), 3)])
    assert maze_compose(loop3, Maze.identity(("1",)), 2).is_zero()
    assert normalize_numerical(maze_compose(loop3, loop3), 2).is_zero()


@pytest.mark.parametrize("k", [5, 6])
def test_loop_composes_at_its_own_degree(k):
    # k identical loops after k identical loops: only the k! matchings
    # survive degree k, all giving the loop back.
    loop = MazeHom.of(Maze(("1",), ("1",), [(Passage("1", "1", 1), k)]))
    start = time.perf_counter()
    got = compose_in_laby_n(loop, loop, k)
    assert time.perf_counter() - start < 1.0
    assert got == loop.scale(math.factorial(k))


def test_maze_repr_does_not_depend_on_hash_seed():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = ("from mazelab.labycat import MazeHom, quadratic_generators\n"
            "g = quadratic_generators()\n"
            "print(repr(MazeHom.of(g['S'], 2)), repr(g['A']), repr(g['I0']))")
    outs = set()
    for seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        outs.add(subprocess.run([sys.executable, "-c", code], env=env,
                                check=True, capture_output=True,
                                text=True).stdout)
    assert outs == {"2*[1 -(1)-> 2, 2 -(1)-> 1: {'1', '2'}->{'1', '2'}] "
                    "[1 -(1)-> 1, 1 -(1)-> 2: {'1'}->{'1', '2'}] "
                    "[empty: {}->{}]\n"}

# ------------------------------------------ stored size and purity


def summed(maze):
    """A maze's passage count and purity, walked anew."""
    return (sum(m for _, m in maze.passages),
            all(p.label == 1 for p, _ in maze.passages))


def assert_stored(maze):
    """Each stored value is the walked one, at its first ask and after."""
    want = summed(maze)
    for _ in range(2):
        assert (maze.size, maze.is_pure()) == want, maze


def test_stored_size_and_purity_of_every_constructor():
    x, y = Passage("x", "y"), Passage("x", "y", -1)
    built = [
        Maze((), ()),
        Maze(["x"], ["y"], [x, x, (x, 3)]),  # merged: 5 instances
        Maze(["x"], ["y"], {x: 2, y: 1}),
        Maze(["x"], ["y"], [Passage("x", "y", Fraction(1, 2))]),
        Maze(["x"], ["y"], [(Passage("x", "y", 0), 2), x]),
        Maze._trusted(("x",), ("y",), ((x, 4),)),
        Maze._trusted(("x",), ("y",), ((y, 1),)),
        Maze.identity(skeleton(3)),
        Maze.pure([("1", "2"), ("1", "2"), ("2", "1")]),
        Maze.identity(skeleton(2)).relabel_all(Fraction(1, 2)),
        Maze.identity(skeleton(2)).relabel_all(1),
        labycat.rename_maze(Maze(["x"], ["y"], [(y, 2)]), {"x": "a"}, None),
    ]
    hom = MazeHom.from_terms(("x",), ("y",), [(built[2], 3), (built[4], 1)])
    built += [maze for maze, _ in MazeHom.from_json(hom.to_json()).comb]
    assert [summed(maze) for maze in built] == [
        (0, True), (5, True), (3, False), (1, False), (3, False), (4, True),
        (1, False), (3, True), (3, True), (2, False), (2, True), (2, False),
        (3, False), (3, False)]
    for maze in built:
        assert_stored(maze)


def test_stored_size_and_purity_of_laby3_and_seeded_laby4_composites():
    pairs = [(3, p, q) for p, q in _skeleton_pairs(3)]
    assert len(pairs) == 580
    pairs += [(4, p, q) for p, q in
              random.Random(2401).sample(_skeleton_pairs(4), 2000)]
    for n, p, q in pairs:
        # A basis maze cold, then its composites: pure and relabelled.
        fresh = Maze._trusted(p.dom, p.cod, p.passages)
        assert_stored(fresh)
        assert_stored(p)
        for h in (compose_in_laby_n(MazeHom.of(p), MazeHom.of(q), n),
                  maze_compose(p.relabel_all(Fraction(1, 2)), q, n)):
            for maze, _ in h.comb:
                assert_stored(maze)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("xy"), st.sampled_from("uvw"),
                          st.sampled_from(MIXED_LABELS), st.integers(1, 3)),
                max_size=6))
def test_stored_size_and_purity_of_random_passage_lists(entries):
    passages = [(Passage(s, d, label), m) for s, d, label, m in entries]
    maze = Maze("xy", "uvw", passages)
    assert_stored(maze)
    assert maze.size == sum(m for *_, m in entries)
    assert maze.is_pure() == all(label == 1 for _, _, label, _ in entries)


def test_an_asked_maze_equals_and_hashes_as_a_fresh_one():
    asked = Maze.pure([("1", "1"), ("1", "2"), ("1", "2")])
    assert (asked.size, asked.is_pure()) == (3, True)
    fresh = Maze.pure([("1", "1"), ("1", "2"), ("1", "2")])
    assert asked == fresh and hash(asked) == hash(fresh)
    assert asked.sort_key() == fresh.sort_key() and {asked: 1}[fresh] == 1
    for name in Maze.__slots__:
        with pytest.raises(AttributeError, match="immutable"):
            setattr(asked, name, None)
    assert (asked.size, asked.is_pure()) == (3, True)


class WalkedPassages(tuple):
    """A maze's passages that count the walks over them."""

    def __new__(cls, passages):
        walked = super().__new__(cls, passages)
        walked.walks = 0
        return walked

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


def test_a_warm_normal_form_walks_no_passage():
    # Pure mazes of 4 passages: normal in both quotients at degree 4.
    mazes = pure_mazes_between(skeleton(2), skeleton(2), [4])[:6]
    walked = [Maze._trusted(m.dom, m.cod, WalkedPassages(m.passages))
              for m in mazes]
    assert walked == mazes
    h = MazeHom.from_terms(skeleton(2), skeleton(2),
                           [(maze, i + 1) for i, maze in enumerate(walked)])
    built = [maze.passages.walks for maze in walked]
    assert normalize_numerical(h, 4) is h  # cold: one walk for each value
    derived = [maze.passages.walks for maze in walked]
    assert [d - b for b, d in zip(built, derived)] == [2] * len(walked)
    for _ in range(2):
        assert normalize_numerical(h, 4) is h
        assert normalize_homogeneous(h, 4) is h
        assert [maze.passages.walks for maze in walked] == derived
    assert [(maze.size, maze.is_pure()) for maze in walked] == [(4, True)] * 6
