"""The translations, multation composition and maze composition with its
numerical normal form build their results in one pass, through the
trusted constructors.  They are checked here against the earlier
implementations, kept below as the oracle, which assemble the same
results through the validating constructors: equal in type, ends, terms,
coefficient type, hash and serialized form, exhaustively on small corpora,
on seeded ones and by a Hypothesis property.  Maze composition by middle
points is also checked against the bundle search it replaced, and its
guard against that search's budget."""

import json
import os
import random
import time
from fractions import Fraction
from itertools import combinations, product as iproduct
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from mazelab import bridge, labycat, msetcat, multisets
from mazelab.bridge import (AriadneMatrix, all_pure_mazes_on, ariadne_hom,
                            ariadne_maze, theseus_hom, theseus_multation)
from mazelab.errors import (DomainMismatchError, EnumerationLimitError,
                            IntegralityError)
from mazelab.labycat import (LabyConstants, Maze, MazeHom, Passage,
                             _numerical_terms, compose_in_laby_n,
                             laby_structure_constants, maze_compose,
                             maze_hom_compose, normalize_homogeneous,
                             normalize_numerical,
                             pure_mazes_between, rename_maze, skeleton,
                             validate_maze)
from mazelab.msetcat import (MultHom, Multation, all_multations,
                             multation_compose, multhom_compose,
                             mset_structure_constants)
from mazelab.multisets import (ENUM_LIMIT, MultiSet, all_cardinality_multisets,
                               compositions, guard_count, tables)
from mazelab.scalars import LinComb, surjections
from test_labycat import box_product
from test_scalars import multinomial
from test_structure_constants import fill_every_block, rename_multation

# ---------------------------------------------------------------- oracle


def scaled_sum(combs, scales):
    """The sum of the combinations, each times its scale, through the
    validating LinComb."""
    return LinComb((b, s * c) for comb, s in zip(combs, scales)
                   for b, c in comb)


def old_ariadne_from_terms(dom, cod, n, terms):
    return AriadneMatrix(dom, cod, n, {(b, a): MultHom.from_terms(a, b, t)
                                       for (b, a), t in terms.items()})


def divided_reduce(powers):
    """Merge a formal product of divided column powers into one basis term.

    `powers` is a list of (column, exponent) with positive exponents.
    Repeated columns merge by z^[i] z^[j] = C(i+j, i) z^[i+j]; the returned
    coefficient is the resulting integer multinomial, the returned basis the
    merged column multi-set as sorted ((a, b), mult) pairs.
    """
    groups = {}
    for col, exp in powers:
        if exp < 1:
            raise ValueError("exponents must be >= 1")
        groups.setdefault(col, []).append(exp)
    coeff = 1
    merged = []
    for col in sorted(groups):
        exps = groups[col]
        coeff *= multinomial(exps)
        merged.append((col, sum(exps)))
    return coeff, tuple(merged)


def test_divided_reduce():
    assert divided_reduce([(("a", "b"), 1), (("a", "b"), 1)]) == \
        (2, ((("a", "b"), 2),))
    assert divided_reduce([(("a", "b"), 2)]) == (1, ((("a", "b"), 2),))
    assert divided_reduce([(("a", "b"), 2), (("a", "b"), 1)]) == \
        (3, ((("a", "b"), 3),))


def old_ariadne_maze(p, n):
    inst = p.instances()
    terms = {}
    for degs in compositions(n, len(inst)):
        scalar_part = Fraction(1)
        for passage, d in zip(inst, degs):
            scalar_part *= passage.label ** d
        if scalar_part == 0:
            continue
        coeff, merged = divided_reduce(
            [((passage.src, passage.dst), d)
             for passage, d in zip(inst, degs)])
        dom_ms = MultiSet([(passage.src, d)
                           for passage, d in zip(inst, degs)])
        cod_ms = MultiSet([(passage.dst, d)
                           for passage, d in zip(inst, degs)])
        mu = Multation._trusted(dom_ms, cod_ms, merged)
        terms.setdefault((cod_ms, dom_ms), []).append(
            (mu, scalar_part * coeff))
    return old_ariadne_from_terms(p.dom, p.cod, n, terms)


def old_ariadne_hom(h, n):
    terms = {}
    for maze, c in h.comb:
        for key, hom in old_ariadne_maze(maze, n).entries.items():
            terms.setdefault(key, []).extend((mu, c * d) for mu, d in hom.comb)
    return old_ariadne_from_terms(h.dom, h.cod, n, terms)


def old_matrix_compose(left, right):
    terms = {}
    for (c, b1), f in left.entries.items():
        for (b2, a), g in right.entries.items():
            if b1 == b2:
                terms.setdefault((c, a), []).extend(
                    old_multhom_compose(f, g).comb)
    return old_ariadne_from_terms(right.dom, left.cod, left.n, terms)


def old_theseus_multation(mu, n):
    if mu.dom.cardinality != n or mu.cod.cardinality != n:
        raise DomainMismatchError(
            f"multation endpoints must have cardinality {n}")
    maze = Maze(mu.dom.support, mu.cod.support,
                [(Passage(a, b, 1), m) for (a, b), m in mu.pairs])
    return MazeHom.of(maze, Fraction(1, mu.degree))


def old_theseus_hom(hom, n):
    return MazeHom(hom.dom.support, hom.cod.support, scaled_sum(
        [old_theseus_multation(mu, n).comb for mu, _ in hom.comb],
        [c for _, c in hom.comb]))


def old_multation_compose(mu, nu):
    if nu.cod != mu.dom:
        raise DomainMismatchError("middle multi-sets differ")
    middle = nu.cod
    per_letter = []
    for b, _ in middle.items():
        row_counts = tuple(sorted(
            (a, m) for (a, b2), m in nu.pairs if b2 == b))
        col_counts = tuple(sorted(
            (c, m) for (b2, c), m in mu.pairs if b2 == b))
        per_letter.append(list(tables(row_counts, col_counts)))
    count = 1
    for matchings in per_letter:
        count *= len(matchings)
    guard_count(count, "multation_compose",
                lambda: f"cardinality {middle.cardinality}")
    accum = {}
    for family in iproduct(*per_letter):
        cols = {}
        table_factor = 1
        for table in family:
            for (a, c), t in table.items():
                cols[(a, c)] = cols.get((a, c), 0) + t
                table_factor *= factorial(t)
        basis = Multation._trusted(nu.dom, mu.cod, tuple(sorted(cols.items())))
        coeff, rest = divmod(basis.degree, table_factor)
        if rest:
            raise IntegralityError("non-integral composition coefficient")
        accum[basis] = accum.get(basis, 0) + coeff
    return MultHom(nu.dom, mu.cod,
                   LinComb((b, c) for b, c in accum.items()))


def old_multhom_compose(f, g):
    if g.cod != f.dom:
        raise DomainMismatchError("middle multi-sets differ")
    return MultHom(g.dom, f.cod, scaled_sum(
        [old_multation_compose(mu, nu).comb
         for mu, _ in f.comb for nu, _ in g.comb],
        [c * d for _, c in f.comb for _, d in g.comb]))


def old_all_multations(a, b):
    if a.cardinality != b.cardinality:
        return []
    return sorted((Multation(a, b, list(t.items()))
                   for t in tables(a.items(), b.items())),
                  key=Multation.sort_key)


def old_maze_compose(p, q, n=None):
    """Every subset of at most n pairs of the pair product whose
    projections cover both instance lists, by brute force, read as the
    maze of composed passages with multiplied labels."""
    pairs = box_product(p, q)
    accum = {}
    for k in range(len(pairs) + 1 if n is None else min(n, len(pairs)) + 1):
        for chosen in combinations(pairs, k):
            if ({i for (i, _), _ in chosen} == set(range(p.size))
                    and {j for _, (j, _) in chosen} == set(range(q.size))):
                maze = Maze(q.dom, p.cod,
                            [Passage(qj.src, pi.dst, pi.label * qj.label)
                             for (_, pi), (_, qj) in chosen])
                accum[maze] = accum.get(maze, 0) + 1
    return MazeHom(q.dom, p.cod, LinComb(accum.items()))


def old_bundle_compose(p, q, n=None, limit=ENUM_LIMIT):
    """maze_compose as a search over bundles: one nonempty bundle of pairs
    per instance of q, pruned on the instances of p the rest can still
    reach and on the degree, each leaf through the validating Maze.  It
    refuses when the product of the bundle counts passes limit squared,
    and when the search passes a budget of `limit` nodes."""
    if not (validate_maze(p) and validate_maze(q)):
        raise ValueError("maze_compose requires valid mazes")
    pairs = box_product(p, q)
    np_, nq = p.size, q.size
    if n is None:
        n = len(pairs)
    elif max(np_, nq) > n:
        return MazeHom(q.dom, p.cod, LinComb())
    full_p = (1 << np_) - 1
    groups = [[] for _ in range(nq)]
    for (i, pi), (j, qj) in pairs:
        groups[j].append((i, Passage(qj.src, pi.dst, pi.label * qj.label)))
    # Nonempty choices per group, each tagged with its p-coverage mask.
    choices = []
    for members in groups:
        opts = []
        for mask in range(1, 1 << len(members)):
            chosen = [(i, composed) for t, (i, composed) in enumerate(members)
                      if mask >> t & 1]
            if len(chosen) <= n - nq + 1:
                opts.append((sum(1 << i for i, _ in chosen),
                             [composed for _, composed in chosen]))
        choices.append(opts)
    bound = 1
    for opts in choices:
        bound *= len(opts)
        if bound > limit**2:
            raise EnumerationLimitError(f"{bound} bundle choices")
    # What the remaining groups could still cover, for pruning.
    suffix = [0] * (len(choices) + 1)
    for t in range(len(choices) - 1, -1, -1):
        suffix[t] = suffix[t + 1]
        for cover, _ in choices[t]:
            suffix[t] |= cover
    accum = {}
    budget = [limit]

    def rec(t, covered, chosen):
        if covered | suffix[t] != full_p or len(chosen) + len(choices) - t > n:
            return
        if t == len(choices):
            maze = Maze(q.dom, p.cod, chosen)
            accum[maze] = accum.get(maze, 0) + 1
            return
        for cover, bundle in choices[t]:
            budget[0] -= 1
            if budget[0] < 0:
                raise EnumerationLimitError(f"budget of {limit} nodes")
            rec(t + 1, covered | cover, chosen + bundle)

    rec(0, 0, [])
    return MazeHom(q.dom, p.cod, LinComb(accum.items()))


def old_maze_hom_compose(f, g, n=None):
    if set(g.cod) != set(f.dom):
        raise DomainMismatchError("cannot compose: middle sets differ")
    return MazeHom(g.dom, f.cod, scaled_sum(
        [old_maze_compose(p, q, n).comb for p, _ in f.comb for q, _ in g.comb],
        [c * d for _, c in f.comb for _, d in g.comb]))


def old_normalize_numerical(h, n):
    terms = []
    for maze, c in h.comb:
        if maze.size > n:
            continue
        if maze.is_pure():
            terms.append((maze, c))
        else:
            terms.extend((pure, c * coeff)
                         for coeff, pure in _numerical_terms(maze, n))
    return MazeHom(h.dom, h.cod, LinComb(terms))


def old_compose_in_laby_n(f, g, n):
    f = old_normalize_numerical(f, n)
    g = old_normalize_numerical(g, n)
    return old_normalize_numerical(old_maze_hom_compose(f, g, n), n)


def old_of(cls, arrow, coeff=1):
    """cls.of through the validating constructors."""
    return cls(arrow.dom, arrow.cod, LinComb([(arrow, coeff)]))


def old_normalize_homogeneous(h, n):
    """normalize_homogeneous's general path, which rebuilds every form,
    without its guard."""
    numerical = normalize_numerical(h, n).comb
    merged = {maze: c for maze, c in numerical if maze.size == n}
    weights = {}
    for maze, c in numerical:
        if not 0 < maze.size < n:
            continue
        passages = maze.passages
        for parts in compositions(n - maze.size + len(passages),
                                  len(passages)):
            coeff = c
            counts = []
            for (p, r), part in zip(passages, parts):
                t = r + part - 1
                counts.append((p, t))
                if t == r:
                    continue
                if (t, r) not in weights:
                    weights[t, r] = Fraction(surjections(t, r), factorial(t))
                coeff *= weights[t, r]
            pure = Maze._trusted(maze.dom, maze.cod, tuple(counts))
            merged[pure] = merged.get(pure, 0) + coeff
    return MazeHom._trusted(h.dom, h.cod, LinComb._trusted(merged))

# ------------------------------------------------------------ comparison


def rebuilt_arrow(x):
    """A basis arrow built again through its validating constructor."""
    if isinstance(x, Maze):
        return Maze(x.dom, x.cod, x.passages)
    return Multation(x.dom, x.cod, x.pairs)


def assert_same(new, old):
    """new equals old in every respect the package can observe, and the
    validating constructors rebuild it unchanged."""
    assert type(new) is type(old)
    if isinstance(old, AriadneMatrix):
        assert (new.dom, new.cod, new.n) == (old.dom, old.cod, old.n)
        assert new.nonzero_keys() == old.nonzero_keys()
        for key, hom in old.entries.items():
            assert_same(new.entries[key], hom)
        rebuilt = AriadneMatrix(new.dom, new.cod, new.n, new.entries)
    else:
        assert (new.dom, new.cod) == (old.dom, old.cod)
        assert new.comb.terms == old.comb.terms
        for (x, c), (y, d) in zip(new.comb, old.comb):
            assert type(c) is Fraction and type(d) is Fraction
            assert hash(x) == hash(y) and x.sort_key() == y.sort_key()
            assert rebuilt_arrow(x) == x
        rebuilt = type(new)(new.dom, new.cod, LinComb(new.comb.terms))
        assert repr(new) == repr(old)
    assert rebuilt == new == old
    assert hash(rebuilt) == hash(new) == hash(old)
    assert json.dumps(new.to_json()) == json.dumps(old.to_json())


def assert_same_theseus(matrix, n):
    """theseus on every entry of a matrix matches the oracle."""
    for hom in matrix.entries.values():
        assert_same(theseus_hom(hom, n), old_theseus_hom(hom, n))

# --------------------------------------------------------------- corpora


def arrows_over(universe, n):
    objs = all_cardinality_multisets(universe, n)
    return objs, {(a, b): all_multations(a, b) for a in objs for b in objs}


# Coefficients and labels: negative, zero, one and non-integer.
SCALARS = (Fraction(-2), Fraction(1, 2), Fraction(3), Fraction(-3, 4),
           Fraction(1), Fraction(0), Fraction(5, 3))


def relabelled(maze, shift):
    """The maze with its passages relabelled from SCALARS, from `shift` on."""
    return Maze(maze.dom, maze.cod,
                [(Passage(p.src, p.dst, SCALARS[(shift + i) % len(SCALARS)]),
                  m) for i, (p, m) in enumerate(maze.passages)])


def mixed(dom, cod, arrows, shift=0):
    """Every arrow of a hom-set at once, with mixed coefficients."""
    return MultHom.from_terms(dom, cod, [
        (mu, SCALARS[(shift + i) % len(SCALARS)])
        for i, mu in enumerate(arrows)])


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_every_multation_pair_over_123(n):
    objs, arrows = arrows_over("123", n)
    for a, b, c in iproduct(objs, repeat=3):
        for mu in arrows[b, c]:
            for nu in arrows[a, b]:
                assert_same(multation_compose(mu, nu),
                            old_multation_compose(mu, nu))
        f, g = mixed(b, c, arrows[b, c]), mixed(a, b, arrows[a, b], 3)
        assert_same(multhom_compose(f, g), old_multhom_compose(f, g))
    sc = mset_structure_constants(tuple("123"), n)
    for a, b, c in iproduct(objs, repeat=3):
        for mu in arrows[b, c]:
            for nu in arrows[a, b]:
                assert_same(sc.hom(MultHom, mu, nu),
                            old_multation_compose(mu, nu))
    for (a, b), homset in arrows.items():
        for mu in homset:
            assert_same(theseus_multation(mu, n),
                        old_theseus_multation(mu, n))
        maze_side = theseus_hom(mixed(a, b, homset), n)
        assert_same(maze_side, old_theseus_hom(mixed(a, b, homset), n))
        assert_same(ariadne_hom(maze_side, n), old_ariadne_hom(maze_side, n))


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_every_pure_maze_over_123(n):
    mazes = all_pure_mazes_on("123", n)
    for maze in mazes:
        for degree in range(n, 4):
            new = ariadne_maze(maze, degree)
            assert_same(new, old_ariadne_maze(maze, degree))
            assert_same(ariadne_hom(MazeHom.of(maze, Fraction(-3, 2)), degree),
                        old_ariadne_hom(MazeHom.of(maze, Fraction(-3, 2)),
                                        degree))
            assert_same_theseus(new, degree)
    # Every pure maze between two end sets in one combination.
    by_ends = {}
    for i, maze in enumerate(mazes):
        by_ends.setdefault((maze.dom, maze.cod), []).append(
            (maze, SCALARS[i % len(SCALARS)]))
    for (dom, cod), terms in by_ends.items():
        h = MazeHom.from_terms(dom, cod, terms)
        assert_same(ariadne_hom(h, n), old_ariadne_hom(h, n))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_labelled_mazes_over_123(n):
    for maze in all_pure_mazes_on("123", n):
        for shift in range(len(SCALARS)):
            labelled = relabelled(maze, shift)
            for degree in range(n, 4):
                new = ariadne_maze(labelled, degree)
                assert_same(new, old_ariadne_maze(labelled, degree))
                assert_same_theseus(new, degree)


def test_cancelling_labels_and_zero_labels():
    loop = Maze(["1"], ["1"], [Passage("1", "1", 1), Passage("1", "1", -1)])
    zero = Maze(["1"], ["2"], [Passage("1", "2", 0)])
    for maze in (loop, zero):
        for degree in range(1, 5):
            new = ariadne_maze(maze, degree)
            assert_same(new, old_ariadne_maze(maze, degree))
    # The odd degrees cancel completely, the even ones do not.
    assert ariadne_maze(loop, 3).is_zero()
    assert not ariadne_maze(loop, 2).is_zero()
    assert ariadne_maze(zero, 2).is_zero()
    # Two mazes whose translations cancel against each other.
    p = Maze(["1"], ["2"], [Passage("1", "2", 2)])
    q = Maze(["1"], ["2"], [Passage("1", "2", -2)])
    h = MazeHom.from_terms(("1",), ("2",), [(p, 1), (q, 1)])
    assert_same(ariadne_hom(h, 2), old_ariadne_hom(h, 2))
    assert ariadne_hom(h, 3).is_zero() and not ariadne_hom(h, 2).is_zero()


def test_matrix_composition_matches_the_oracle():
    # Mazes with fewer passages than n have several entries, so products
    # sum over several middle multi-sets.
    for n in (2, 3):
        mazes = [relabelled(maze, k) for k in range(1, n + 1)
                 for maze in all_pure_mazes_on("12", k)]
        for p in mazes:
            for q in mazes:
                if set(p.dom) != set(q.cod):
                    continue
                left, right = ariadne_maze(p, n), ariadne_maze(q, n)
                assert_same(left.compose(right),
                            old_matrix_compose(left, right))


def test_a_maze_off_its_ends_is_refused_before_the_enumeration(monkeypatch):
    def unreachable(*args):
        raise AssertionError("enumerated before the refusal")

    monkeypatch.setattr(bridge, "compositions", unreachable)
    off = Maze(["1"], ["2"], [Passage("1", "2"), Passage("3", "2")])
    for call in (lambda: ariadne_maze(off, 2),
                 lambda: ariadne_hom(MazeHom.of(off, 5), 2)):
        with pytest.raises(ValueError,
                           match="entry index outside the endpoint sets"):
            call()
    into = Maze(["1"], ["2"], [Passage("1", "2"), Passage("1", "3")])
    with pytest.raises(ValueError, match="outside the endpoint sets"):
        ariadne_maze(into, 2)



def outcome(call):
    """What call() raises, by type and message, or what it returns."""
    try:
        got = call()
    except (ValueError, DomainMismatchError) as error:
        return type(error).__name__, str(error)
    return "returned", got


def test_a_homs_ends_are_refused_once_as_each_term_refused_them():
    # Every term has the hom's ends, so ariadne_hom checks the names once,
    # after the first maze's passages, and theseus_hom the cardinalities
    # once: each refusal is the one the first failing term gave.
    off_names = "ValueError", "invalid element name ''"
    off_ends = "ValueError", "entry index outside the endpoint sets"

    def hom(dom, cod, *passage_lists):
        mazes = [Maze(dom, cod, passages) for passages in passage_lists]
        h = MazeHom.from_terms(dom, cod, [(m, i + 1)
                                          for i, m in enumerate(mazes)])
        assert [m for m, _ in h.comb] == mazes  # in this order
        return h

    x, xx = Passage("1", "2"), (Passage("1", "2"), 2)
    blank, blank2 = Passage("", "2"), (Passage("", "2"), 2)
    cases = [
        (hom(["1"], ["2"], [x], [xx, Passage("3", "2")]), off_ends),
        (hom([""], ["2"], [blank], [blank2]), off_names),
        (hom([""], ["2"], [blank], [blank2, Passage("3", "2")]), off_names),
        (hom([""], ["2"], [Passage("", "1"), blank], [blank2]), off_ends),
        (MazeHom.of(Maze([""], ["2"], [Passage("3", "2")])), off_ends),
    ]
    for h, refusal in cases:
        for n in (2, 3):
            assert outcome(lambda: ariadne_hom(h, n)) == refusal
    empty = ariadne_hom(MazeHom.zero([""], ["2"]), 2)
    assert empty.entries == {} and (empty.dom, empty.cod) == (("",), ("2",))
    a, b = MultiSet("12"), MultiSet("34")
    h = MultHom.from_terms(a, b, [(mu, 1) for mu in all_multations(a, b)])
    assert len(h.comb) == 2
    for n in (1, 3):
        assert outcome(lambda: theseus_hom(h, n)) == (
            "DomainMismatchError",
            f"multation endpoints must have cardinality {n}")
    assert_same(theseus_hom(h, 2), old_theseus_hom(h, 2))
    for n in (1, 2, 3):
        assert_same(theseus_hom(MultHom.zero(a, MultiSet("3")), n),
                    old_theseus_hom(MultHom.zero(a, MultiSet("3")), n))


def test_multation_listing_matches_its_validating_rebuild():
    # mset-translate lists every degree-4 multation over 1234 at set-up.
    count = 0
    for universe, n in (("123", 3), ("1234", 4)):
        objs = all_cardinality_multisets(universe, n)
        for a, b in iproduct(objs, repeat=2):
            new, old = all_multations(a, b), old_all_multations(a, b)
            assert new == old
            for mu, nu in zip(new, old):
                assert mu.pairs == nu.pairs and type(mu.pairs) is tuple
                assert hash(mu) == hash(nu) and mu.sort_key() == nu.sort_key()
                assert rebuilt_arrow(mu) == mu
                assert json.dumps(mu.to_json()) == json.dumps(nu.to_json())
            count += len(new)
    assert count == 165 + 3876


def skeleton_pairs(n):
    """Every composable pair (p, q) of pure mazes on skeleta of at most n
    points with at most n passages: the basis pairs of Laby_n."""
    mazes = [m for j in range(n + 1) for k in range(n + 1)
             for m in pure_mazes_between(skeleton(j), skeleton(k),
                                         range(n + 1))]
    return [(p, q) for p in mazes for q in mazes if q.cod == p.dom]


def test_every_pure_pair_on_skeleta_composes_as_the_oracle():
    # Pure and relabelled by 3, in the quotient and plainly, and read off
    # the structure constants.
    count = 0
    for n in (1, 2, 3):
        sc = laby_structure_constants(n)
        for p, q in skeleton_pairs(n):
            g = MazeHom.of(q)
            for f in (MazeHom.of(p), MazeHom.of(p.relabel_all(3))):
                assert_same(compose_in_laby_n(f, g, n),
                            old_compose_in_laby_n(f, g, n))
                assert_same(maze_hom_compose(f, g),
                            old_maze_hom_compose(f, g))
                count += 1
            assert_same(maze_compose(p, q, n), old_maze_compose(p, q, n))
            for degree in (n, None):
                assert_same(maze_compose(p, q, degree),
                            old_bundle_compose(p, q, degree))
            assert_same(sc.hom(MazeHom, p, q),
                        old_compose_in_laby_n(MazeHom.of(p), g, n))
    assert count == 2 * (2 + 19 + 580)


def test_seeded_laby4_pairs_compose_as_the_bundle_search():
    pairs = skeleton_pairs(4)
    assert len(pairs) == 34101
    for p, q in random.Random(2401).sample(pairs, 2000):
        assert_same(maze_compose(p, q, 4), old_bundle_compose(p, q, 4))


def seeded_combination(rng, dom, cod):
    """One to three mazes dom -> cod without dead ends, one passage maybe
    repeated, labels and coefficients from SCALARS."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        ends = [(x, rng.choice(cod)) for x in dom]
        ends = list(dict.fromkeys(ends + [(rng.choice(dom), y) for y in cod]))
        ends += rng.sample(ends, rng.randint(0, 1))
        maze = Maze(dom, cod, [Passage(x, y, rng.choice(SCALARS))
                               for x, y in ends])
        terms.append((maze, rng.choice(SCALARS)))
    return MazeHom.from_terms(dom, cod, terms)


def seeded_combination_pairs():
    """Forty composable pairs of seeded combinations between one or two
    of NAMES, so mostly on ends other than the skeleta."""
    rng = random.Random(2301)
    pairs = []
    for _ in range(40):
        a, b, c = (tuple(sorted(rng.sample(NAMES, rng.randint(1, 2))))
                   for _ in range(3))
        pairs.append((seeded_combination(rng, b, c),
                      seeded_combination(rng, a, b)))
    return pairs


def test_seeded_labelled_combinations_compose_as_the_oracle():
    for f, g in seeded_combination_pairs():
        for n in range(5):
            assert_same(normalize_numerical(f, n),
                        old_normalize_numerical(f, n))
            assert_same(compose_in_laby_n(f, g, n),
                        old_compose_in_laby_n(f, g, n))
        # Plain composition, where the brute force stays small.
        if all(p.size * q.size <= 12 for p, _ in f.comb for q, _ in g.comb):
            assert_same(maze_hom_compose(f, g), old_maze_hom_compose(f, g))
        for (p, _), (q, _) in iproduct(f.comb, g.comb):
            for n in (None, 0, 1, 2, 3, 4):
                assert_same(maze_compose(p, q, n), old_bundle_compose(p, q, n))


# ------------------------------------- composition read off the constants

STATES = ("cold", "asked", "filled")


def set_blocks(n, state):
    """Clear the structure constants and the blocks asked ("cold"); then
    ask every block of Laby_n once, through a composite of zeros
    ("asked"), or fill every block of the constants ("filled")."""
    labycat.reset_laby_constants()
    if state == "asked":
        for a, b, c in iproduct(*[range(n + 1)] * 3):
            compose_in_laby_n(MazeHom.zero(skeleton(b), skeleton(c)),
                              MazeHom.zero(skeleton(a), skeleton(b)), n)
        assert laby_structure_constants.cache_info().currsize == 0
    elif state == "filled":
        fill_every_block(laby_structure_constants(n))


@pytest.fixture
def blocks():
    """set_blocks, with the memo and the blocks asked cleared afterwards."""
    yield set_blocks
    set_blocks(0, "cold")


# Renamings of the three skeleton ends [3] that reverse or shuffle them.
RENAMED = ({"1": "z", "2": "y", "3": "x"}, {"1": "b", "2": "a", "3": "c"},
           {"1": "q", "2": "r", "3": "p"})


def test_every_pure_pair_reads_off_the_constants_as_the_oracle(blocks):
    # On skeleta and renamed, cold, every block asked once and every
    # block filled; the oracle is computed once per pair.
    for n in (1, 2, 3):
        cases = []
        for p, q in skeleton_pairs(n):
            f, g = MazeHom.of(p), MazeHom.of(q)
            named = (MazeHom.of(rename_maze(p, RENAMED[1], RENAMED[2])),
                     MazeHom.of(rename_maze(q, RENAMED[0], RENAMED[1])))
            cases += [(f, g, old_compose_in_laby_n(f, g, n)),
                      (*named, old_compose_in_laby_n(*named, n))]
        for state in STATES:
            blocks(n, state)
            for f, g, old in cases:
                assert_same(compose_in_laby_n(f, g, n), old)
            if state == "cold" and n == 3:  # blocks asked twice are filled
                assert 0 < len(laby_structure_constants(n).blocks) < 4 ** 3


def test_seeded_laby4_pairs_read_off_the_constants_as_the_oracle(blocks):
    sample = random.Random(2401).sample(skeleton_pairs(4), 2000)
    cases = []
    for p, q in sample:
        f, g = MazeHom.of(p), MazeHom.of(q)
        cases.append((f, g, old_compose_in_laby_n(f, g, 4)))
    for p, q in sample[:200]:
        f = MazeHom.of(rename_maze(p, RENAMED[1], RENAMED[2]))
        g = MazeHom.of(rename_maze(q, RENAMED[0], RENAMED[1]))
        cases.append((f, g, old_compose_in_laby_n(f, g, 4)))
    for state in STATES:
        blocks(4, state)
        for f, g, old in cases:
            assert_same(compose_in_laby_n(f, g, 4), old)


def test_seeded_combinations_read_off_the_constants_as_the_oracle(blocks):
    pairs = seeded_combination_pairs()
    for n in range(5):
        olds = [old_compose_in_laby_n(f, g, n) for f, g in pairs]
        for state in STATES:
            blocks(n, state)
            for (f, g), old in zip(pairs, olds):
                assert_same(compose_in_laby_n(f, g, n), old)


def test_one_cold_compose_fills_no_block_and_lists_no_hom_set(blocks,
                                                              monkeypatch):
    fills, listings, engine = [], [], []
    fill, listing = LabyConstants._fill, labycat.pure_mazes_between
    compose = labycat.maze_hom_compose

    def counted(calls, call):
        def run(*args):
            calls.append(args)
            return call(*args)
        return run

    monkeypatch.setattr(LabyConstants, "_fill", counted(fills, fill))
    monkeypatch.setattr(labycat, "pure_mazes_between",
                        counted(listings, listing))
    monkeypatch.setattr(labycat, "maze_hom_compose", counted(engine, compose))
    blocks(4, "cold")
    three = skeleton(3)
    p, q = (Maze.pure([("1", "2"), ("2", "3"), ("3", "1")], three, three),
            Maze.pure([("1", "1"), ("2", "3"), ("3", "2")], three, three))
    f, g = MazeHom.of(p), MazeHom.of(q)
    old = old_compose_in_laby_n(f, g, 4)
    assert_same(compose_in_laby_n(f, g, 4), old)
    assert (fills, listings, len(engine)) == ([], [], 1)
    assert list(labycat._asked) == [(4, 3, 3, 3)]
    # The second ask lists the 25 hom-sets of Laby_4 and fills the block
    # by the engine, one compose per orbit of its pairs, and reads it off.
    assert_same(compose_in_laby_n(f, g, 4), old)
    assert (len(fills), len(listings), len(engine)) == (1, 25, 1 + 33)
    # Later asks only read it off.
    for _ in range(3):
        assert_same(compose_in_laby_n(f, g, 4), old)
    assert (len(fills), len(listings), len(engine)) == (1, 25, 1 + 33)
    assert (skeleton(3),) * 3 in laby_structure_constants(4).blocks


def test_a_zero_factor_fills_no_block_and_lists_no_hom_set(blocks,
                                                           monkeypatch):
    # Nothing is read off a block for a zero factor, so no ask of such a
    # composite lists the degree or fills the block, the second included:
    # the engine answers with the zero combination.
    fills, listings = [], []
    fill, listing = LabyConstants._fill, labycat.pure_mazes_between
    monkeypatch.setattr(LabyConstants, "_fill",
                        lambda *args: fills.append(args) or fill(*args))
    monkeypatch.setattr(labycat, "pure_mazes_between",
                        lambda *args: listings.append(args) or listing(*args))
    blocks(4, "cold")
    three = skeleton(3)
    z = MazeHom.zero(three, three)
    f = MazeHom.of(Maze.pure([("1", "2"), ("2", "3"), ("3", "1")],
                             three, three))
    for left, right in ((z, z), (z, z), (f, z), (z, f), (f, z)):
        assert_same(compose_in_laby_n(left, right, 4),
                    old_compose_in_laby_n(left, right, 4))
    assert (fills, listings) == ([], [])
    assert labycat._asked == {(4, 3, 3, 3): True}


def test_refused_constants_leave_composition_direct(blocks, monkeypatch):
    # At degree 6 the guard refuses the hom-sets of the constants, so
    # every ask composes directly, as before, and nothing is listed.
    listings = []
    monkeypatch.setattr(labycat, "pure_mazes_between",
                        lambda *args: listings.append(args))
    blocks(6, "cold")
    loop = MazeHom.of(Maze(("1",), ("1",), [(Passage("1", "1"), 3)]))
    for _ in range(5):
        assert_same(compose_in_laby_n(loop, loop, 6),
                    maze_hom_compose(loop, loop, 6))
    assert labycat._asked == {(6, 1, 1, 1): False}
    assert listings == [] and laby_structure_constants.cache_info().hits == 0


def test_a_refused_block_is_refused_once(blocks, monkeypatch):
    # The memo keeps no exception, so the refusal itself is kept: of five
    # asks of one degree-6 block, the second meets the guard and refuses,
    # the other four compose directly without asking it.
    guard, refusals = labycat._guard_pure_mazes, []

    def counted(*args):
        try:
            guard(*args)
        except EnumerationLimitError:
            refusals.append(args)
            raise

    monkeypatch.setattr(labycat, "_guard_pure_mazes", counted)
    blocks(6, "cold")
    loop = MazeHom.of(Maze(("1",), ("1",), [(Passage("1", "1"), 3)]))
    for _ in range(5):
        assert_same(compose_in_laby_n(loop, loop, 6),
                    maze_hom_compose(loop, loop, 6))
    assert len(refusals) == 1


def test_a_guard_lowered_after_the_rent_refuses_nothing(blocks,
                                                       monkeypatch):
    # Every block is asked once, so the next ask reads it off; then the
    # guard falls below the constants' own estimate: the route composes
    # directly.
    pairs = skeleton_pairs(3)[::7]
    blocks(3, "asked")
    monkeypatch.setattr(multisets, "ENUM_LIMIT", 20)
    for p, q in pairs:
        f, g = MazeHom.of(p), MazeHom.of(q)
        assert_same(compose_in_laby_n(f, g, 3), maze_hom_compose(f, g, 3))
    assert laby_structure_constants.cache_info().currsize == 0


def test_invalid_mazes_are_refused_as_the_engine_refuses(blocks):
    # A dead end, and a passage off the ends, on filled blocks: the
    # engine's error, whatever the names.
    blocks(2, "filled")
    good = MazeHom.of(Maze.identity(("1", "2")))
    for dom in (("1", "2"), ("a", "b")):
        dead = MazeHom.of(Maze(dom, ("1", "2"), [Passage(dom[0], "1")]))
        with pytest.raises(ValueError, match="requires valid mazes"):
            compose_in_laby_n(good, dead, 2)
    off = MazeHom.of(Maze(("a",), ("1",), [Passage("b", "1")]))
    with pytest.raises(ValueError, match="requires valid mazes"):
        compose_in_laby_n(MazeHom.of(Maze.identity(("1",))), off, 2)


def sweep_maze(rng, dom, cod, labelled):
    """A maze dom -> cod without dead ends, each passage repeated up to four
    times, more often once, labelled from SCALARS or pure."""
    ends = [(x, rng.choice(cod)) for x in dom]
    ends += [(rng.choice(dom), y) for y in cod]
    ends += [(rng.choice(dom), rng.choice(cod))
             for _ in range(rng.randint(0, 1))]
    return Maze(dom, cod, [
        (Passage(x, y, rng.choice(SCALARS) if labelled else 1),
         min(rng.randint(1, 4), rng.randint(1, 4)))
        for x, y in dict.fromkeys(ends)])


def test_no_refusal_where_the_bundle_search_finished(monkeypatch):
    # A stand-in limit of 2000 on both sides: the guard counts the leaves,
    # and the bundle search visits at least as many nodes, so whatever it
    # finishes is composed, and alike.
    limit = 2000
    monkeypatch.setattr(multisets, "ENUM_LIMIT", limit)
    rng = random.Random(24)
    finished = composed = refused = 0
    for _ in range(600):
        outer = ("a", "b")[:rng.randint(1, 2)], ("x", "y")[:rng.randint(1, 2)]
        middle = skeleton(rng.randint(1, 4))
        labelled = rng.random() < 0.5
        q = sweep_maze(rng, outer[0], middle, labelled)
        p = sweep_maze(rng, middle, outer[1], labelled)
        n = rng.choice((None,) + tuple(range(1, 9)))
        try:
            old = old_bundle_compose(p, q, n, limit)
        except EnumerationLimitError:
            refused += 1
            continue
        finished += 1
        composed += bool(old.comb)
        assert_same(maze_compose(p, q, n), old)
    assert finished > 500 and composed > 150 and refused > 30


def test_a_refusal_comes_before_any_covering_set_is_listed(monkeypatch):
    def unreachable(*args):
        raise AssertionError("listed before the refusal")

    monkeypatch.setattr(labycat, "covering_sets", unreachable)
    loop = Maze(["1"], ["1"], [(Passage("1", "1"), 5)])
    with pytest.raises(EnumerationLimitError,
                       match="an estimated 24997921 items"):
        maze_compose(loop, loop)


def test_a_pure_combination_within_the_degree_is_its_own_normal_form():
    for n in (1, 2, 3):
        for j, k in iproduct(range(n + 1), repeat=2):
            mazes = pure_mazes_between(skeleton(j), skeleton(k),
                                       range(n + 1))
            h = MazeHom.from_terms(skeleton(j), skeleton(k), [
                (maze, SCALARS[i % len(SCALARS)])
                for i, maze in enumerate(mazes)])
            for degree in (n, n + 1):
                assert normalize_numerical(h, degree) is h
            # Below n the mazes of n passages go, and the rest is rebuilt.
            if any(maze.size == n for maze, _ in h.comb):
                smaller = normalize_numerical(h, n - 1)
                assert smaller is not h
                assert_same(smaller, old_normalize_numerical(h, n - 1))
    labelled = MazeHom.of(relabelled(Maze.identity(skeleton(2)), 0))
    assert normalize_numerical(labelled, 2) is not labelled

# ------------------------------- one-term lifts and the homogeneous form


def raised(call):
    """The type and message of what call() raises."""
    with pytest.raises((TypeError, ValueError)) as info:
        call()
    return type(info.value), str(info.value)


@pytest.fixture
def lincombs(monkeypatch):
    """Count the LinComb built through __init__ and through _trusted."""
    built = {"__init__": 0, "_trusted": 0}
    init, trusted = LinComb.__init__, LinComb._trusted.__func__

    def counted_init(self, *args):
        built["__init__"] += 1
        init(self, *args)

    def counted_trusted(cls, *args):
        built["_trusted"] += 1
        return trusted(cls, *args)

    monkeypatch.setattr(LinComb, "__init__", counted_init)
    monkeypatch.setattr(LinComb, "_trusted", classmethod(counted_trusted))
    return built


def test_one_term_lifts_build_as_the_validating_path(lincombs):
    _, multations = arrows_over("123", 3)
    arrows = [(MazeHom, maze) for maze in laby_structure_constants(3).index]
    arrows += [(MultHom, mu) for mus in multations.values() for mu in mus]
    for cls, arrow in arrows:
        for c in (None, 1, -2, "3/4", Fraction(0)):
            args = (arrow,) if c is None else (arrow, c)  # None: the default
            lincombs["__init__"] = 0
            new = cls.of(*args)
            assert lincombs["__init__"] == 0, (arrow, c)
            assert len(new.comb) == (c != 0), (arrow, c)
            assert_same(new, old_of(cls, *args))
    assert len(arrows) == 40 + 165


def test_one_term_lifts_refuse_as_the_validating_path():
    loop = Maze.identity(NAMES)
    unsorted = Maze._trusted(("2", "1"), ("1",), ((Passage("1", "1"), 1),
                                                 (Passage("2", "1"), 1)))
    mu = next(iter(mset_structure_constants(NAMES, 2).index))
    for cls, arrow in ((MazeHom, loop), (MazeHom, unsorted), (MultHom, mu)):
        for c in (True, 1.5):
            assert raised(lambda: cls.of(arrow, c)) == raised(
                lambda: old_of(cls, arrow, c))
    assert raised(lambda: MazeHom.of(unsorted)) == raised(
        lambda: old_of(MazeHom, unsorted)) == (
            ValueError, "all terms must share dom and cod")
    # A zero term is dropped before its ends are compared.
    assert_same(MazeHom.of(unsorted, 0), old_of(MazeHom, unsorted, 0))


def test_homogeneous_forms_of_laby3_composites_match_the_oracle(lincombs):
    kept = 0
    for p, q in skeleton_pairs(3):
        h = compose_in_laby_n(MazeHom.of(p), MazeHom.of(q), 3)
        want = old_normalize_homogeneous(h, 3)
        lincombs.update({"__init__": 0, "_trusted": 0})
        got, built = normalize_homogeneous(h, 3), dict(lincombs)
        assert_same(got, want)
        if all(maze.size == 3 for maze, _ in h.comb):
            # Pure with 3 passages in every term: h itself, nothing built.
            assert got is h
            assert built == {"__init__": 0, "_trusted": 0}, h
            kept += 1
    assert kept == 561  # of 580


def test_homogeneous_forms_of_seeded_laby4_composites_match_the_oracle():
    kept = 0
    for p, q in random.Random(2401).sample(skeleton_pairs(4), 2000):
        h = compose_in_laby_n(MazeHom.of(p), MazeHom.of(q), 4)
        got = normalize_homogeneous(h, 4)
        assert_same(got, old_normalize_homogeneous(h, 4))
        if all(maze.size == 4 for maze, _ in h.comb):
            assert got is h
            kept += 1
    assert kept == 1971  # of 2000


def returned_as_they_are(h, n):
    """Whether the numerical and the homogeneous normal form at degree n
    return h itself, from each maze's size and purity walked anew."""
    walked = [(sum(m for _, m in maze.passages),
               all(p.label == 1 for p, _ in maze.passages))
              for maze, _ in h.comb]
    numerical = all(size <= n and pure for size, pure in walked)
    return numerical, numerical and all(size == n for size, _ in walked)


def cold(h):
    """h with every maze built again, its size and purity not yet asked."""
    return MazeHom._trusted(h.dom, h.cod, LinComb._trusted({
        Maze._trusted(maze.dom, maze.cod, maze.passages): c
        for maze, c in h.comb}))


@pytest.mark.parametrize("n", [3, 4])
def test_the_normal_forms_return_the_same_composites_as_they_are(n):
    # The stored sizes and purities answer the early returns exactly as
    # the walks did, on cold mazes and again on warm ones, at the degree
    # and one below it.
    pairs = skeleton_pairs(n)
    if n == 4:
        pairs = random.Random(2401).sample(pairs, 2000)
    kept = 0
    for p, q in pairs:
        composite = compose_in_laby_n(MazeHom.of(p), MazeHom.of(q), n)
        for degree in (n, n - 1):
            want = returned_as_they_are(composite, degree)
            for form, as_it_is in zip(
                    (normalize_numerical, normalize_homogeneous), want):
                h = cold(composite)
                for _ in ("cold", "warm"):
                    assert (form(h, degree) is h) == as_it_is, (h, degree)
            kept += degree == n and want[1]
    assert kept == {3: 561, 4: 1971}[n]  # of 580 and of 2000


def test_homogeneous_forms_of_labelled_combinations_match_the_oracle():
    for f, g in seeded_combination_pairs():
        for n in range(5):
            for h in (f, compose_in_laby_n(f, g, n)):
                assert_same(normalize_homogeneous(h, n),
                            old_normalize_homogeneous(h, n))

# ------------------------------------------------------------- property

NAMES = ("1", "2", "3")
scalars = st.sampled_from(SCALARS) | st.fractions(-3, 3, max_denominator=4)


@st.composite
def maze_combinations(draw):
    """A combination of up to three mazes without dead ends between two
    drawn end sets, with drawn labels and coefficients."""
    dom = draw(st.lists(st.sampled_from(NAMES), min_size=1, unique=True))
    cod = draw(st.lists(st.sampled_from(NAMES), min_size=1, unique=True))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        ends = [(x, draw(st.sampled_from(cod))) for x in dom]
        ends += [(draw(st.sampled_from(dom)), y) for y in cod]
        ends += draw(st.lists(st.sampled_from(ends), max_size=1))
        maze = Maze(dom, cod, [Passage(s, d, draw(scalars)) for s, d in ends])
        terms.append((maze, draw(scalars)))
    return MazeHom.from_terms(dom, cod, terms)


@settings(max_examples=60, deadline=None)
@given(h=maze_combinations(), degree=st.integers(0, 4))
def test_translations_match_the_oracle(h, degree):
    new = ariadne_hom(h, degree)
    assert_same(new, old_ariadne_hom(h, degree))
    assert_same_theseus(new, degree)
    assert_same(normalize_numerical(h, degree),
                old_normalize_numerical(h, degree))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 3))
def test_multation_combinations_match_the_oracle(data, n):
    objs, arrows = arrows_over(NAMES, n)
    a, b, c = (data.draw(st.sampled_from(objs)) for _ in range(3))

    def combination(x, y):
        return MultHom.from_terms(x, y, data.draw(st.lists(
            st.tuples(st.sampled_from(arrows[x, y]), scalars), max_size=4)))

    f, g = combination(b, c), combination(a, b)
    assert_same(multhom_compose(f, g), old_multhom_compose(f, g))
    assert_same(theseus_hom(f, n), old_theseus_hom(f, n))


# A column holding several passages, labels among them that vanish,
# cancel in sign or are not integers.
COLUMN_LABELS = tuple(map(Fraction, ("-2", "-1", "0", "1/2", "-2/3", "2",
                                     "3")))


@st.composite
def stacked_mazes(draw):
    """A maze without dead ends between one or two points on each side,
    its first column holding two or three passages of distinct labels
    and every other one to three, each repeated up to four times."""
    dom = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=2,
                        unique=True))
    cod = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=2,
                        unique=True))
    ends = [(x, draw(st.sampled_from(cod))) for x in dom]
    ends += [(draw(st.sampled_from(dom)), y) for y in cod]
    passages = []
    for i, (x, y) in enumerate(dict.fromkeys(ends)):
        labels = draw(st.lists(st.sampled_from(COLUMN_LABELS),
                               min_size=2 if i == 0 else 1, max_size=3,
                               unique=True))
        passages += [(Passage(x, y, label), draw(st.integers(1, 4)))
                     for label in labels]
    return Maze(dom, cod, passages)


@settings(max_examples=150, deadline=None)
@given(maze=stacked_mazes(), n=st.integers(0, 6), c=scalars)
def test_stacked_columns_translate_as_the_oracle(maze, n, c):
    h = MazeHom.of(maze, c)
    assert_same(ariadne_hom(h, n), old_ariadne_hom(h, n))


def test_stacked_columns_merge_by_the_multinomial():
    # Two passages in one column labelled 2 and 3, at degree 3: the
    # column (x, y) x3 gathers 3 * 2^2 * 3 + 3 * 2 * 3^2 = 90 from the
    # splits (2, 1) and (1, 2); the loop beside it gives nothing more.
    maze = Maze(["x"], ["y"], [Passage("x", "y", 2), Passage("x", "y", 3)])
    matrix = ariadne_maze(maze, 3)
    column = Multation(MultiSet([("x", 3)]), MultiSet([("y", 3)]),
                       [(("x", "y"), 3)])
    assert matrix.nonzero_keys() == [(column.cod, column.dom)]
    assert matrix.entry(column.cod, column.dom) == MultHom.of(column, 90)
    assert_same(matrix, old_ariadne_maze(maze, 3))


def test_no_refusal_where_the_instance_listing_finished(monkeypatch):
    # A stand-in limit of 500: the per-passage listing is the image of
    # the per-instance one, so whatever the oracle translates translates
    # here, and alike; some of what it refuses translates too.
    monkeypatch.setattr(multisets, "ENUM_LIMIT", 500)
    rng = random.Random(25)
    finished = nonzero = reached = 0
    for _ in range(300):
        dom = ("a", "b")[:rng.randint(1, 2)]
        cod = ("x", "y")[:rng.randint(1, 2)]
        maze = sweep_maze(rng, dom, cod, rng.random() < 0.5)
        n = rng.randint(0, 16)
        try:
            old = old_ariadne_maze(maze, n)
        except EnumerationLimitError:
            try:
                ariadne_maze(maze, n)
            except EnumerationLimitError:
                continue
            reached += 1
            continue
        finished += 1
        nonzero += not old.is_zero()
        assert_same(ariadne_maze(maze, n), old)
    assert finished > 250 and nonzero > 150 and reached > 10


def test_loop5_translates_as_the_oracle():
    with open(os.path.join(os.path.dirname(__file__), "fixtures",
                           "loop5.json")) as handle:
        loop5 = Maze.from_json(json.load(handle))
    for degree in (4, 5, 12):
        assert_same(ariadne_maze(loop5, degree),
                    old_ariadne_maze(loop5, degree))


def through_one_letter(widths):
    """mu . nu joining two multi-sets through the one middle letter "m",
    its incoming and outgoing columns of the given multiplicities."""
    ends = MultiSet([(f"{i:02}", w) for i, w in enumerate(widths)])
    middle = MultiSet([("m", sum(widths))])
    nu = Multation(ends, middle, [((x, "m"), w) for x, w in ends.items()])
    mu = Multation(middle, ends, [(("m", x), w) for x, w in ends.items()])
    return mu, nu


def test_a_wide_letter_is_refused_before_its_tables_are_listed(monkeypatch):
    # Ten unit columns each way: 10! tables, counted from the margins.
    def unlisted(*args):
        raise AssertionError("listed before the refusal")

    mu, nu = through_one_letter([1] * 10)
    monkeypatch.setattr(msetcat, "tables", unlisted)
    start = time.perf_counter()
    with pytest.raises(EnumerationLimitError,
                       match=r"multation_compose \(cardinality 10\): an "
                             r"estimated 3628800 items exceed the guard"):
        multation_compose(mu, nu)
    assert time.perf_counter() - start < 0.1


def test_letters_past_the_kept_shapes_compose_as_the_oracle():
    for widths in ([1] * 6, [2, 1, 1, 1, 1], [3, 2, 2], [1] * 7):
        mu, nu = through_one_letter(widths)
        assert_same(multation_compose(mu, nu), old_multation_compose(mu, nu))


def test_seeded_mset4_pairs_compose_as_the_oracle_whatever_the_letters():
    # The middle matchings are kept by the shape of the margins, so the
    # same pairs over other letters compose from the kept matchings alone.
    objs, arrows = arrows_over("1234", 4)
    rng = random.Random(2501)
    pairs = []
    for _ in range(2000):
        a, b, c = (rng.choice(objs) for _ in range(3))
        pairs.append((rng.choice(arrows[b, c]), rng.choice(arrows[a, b])))
    msetcat._kept_matchings.cache_clear()
    for mu, nu in pairs:
        assert_same(multation_compose(mu, nu), old_multation_compose(mu, nu))
    kept = msetcat._kept_matchings.cache_info()
    assert kept.currsize == kept.misses <= 85
    letters = dict(zip("1234", "abcd"))
    for mu, nu in pairs:
        mu, nu = (rename_multation(x, letters, letters) for x in (mu, nu))
        assert_same(multation_compose(mu, nu), old_multation_compose(mu, nu))
    assert msetcat._kept_matchings.cache_info().misses == kept.misses
    # A letter of multiplicity 6 has its matchings listed, not kept.
    six = MultiSet([("b", 6)])
    nu = Multation(MultiSet(list("uvwxyz")), six,
                   [((a, "b"), 1) for a in "uvwxyz"])
    mu = Multation.identity(six)
    assert_same(multation_compose(mu, nu), old_multation_compose(mu, nu))
    assert msetcat._kept_matchings.cache_info().currsize == kept.currsize
