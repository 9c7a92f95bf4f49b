"""The memoised composition structure constants of Laby_n and MSet_n.

Both presentation checks read their composites off the constants.  The
oracle here is the check loop as it was written before, composing every
pair afresh with the engine or multation_compose.  The two must accept
and refuse the same tables with the same exception type, and the check
must name a pair that fails when the engine composes it, or an arrow the
table lacks.  The engine,
maze_hom_compose on normalised factors, is the maze side's oracle, as
compose_in_laby_n reads composites off the constants themselves.
"""

import ast
import json
import os
import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from mazelab.functor_lab import (
    AbHom,
    FgAbGroup,
    LabyModulePresentation,
    MSetModulePresentation,
    tensor_power_functor,
)
from mazelab.labycat import (Maze, MazeHom, Passage, laby_structure_constants,
                             maze_hom_compose, normalize_numerical,
                             pure_mazes_between, skeleton)
from mazelab.matrices import IntMat
from mazelab.msetcat import (MultHom, Multation, all_multations,
                             mset2_generators, mset_structure_constants,
                             multation_compose)
from mazelab.multisets import MultiSet
from mazelab.verify import random_quadratic_presentation

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def laby_compose_oracle(f, g, n):
    """The composite in Laby_n by the engine, never off the constants."""
    return maze_hom_compose(normalize_numerical(f, n),
                            normalize_numerical(g, n), n)


def laby_check_oracle(h):
    for k in range(h.degree + 1):
        ident = Maze.identity(skeleton(k))
        if h.hom(ident) != AbHom.identity(h.groups[k].orders):
            raise ValueError(f"identity of [{k}] does not map to identity")
    for j, k in product(range(h.degree + 1), repeat=2):
        for maze in pure_mazes_between(skeleton(j), skeleton(k),
                                       range(h.degree + 1)):
            h.hom(maze)
    mazes = h.mazes()
    for p in mazes:
        for q in mazes:
            if set(q.cod) != set(p.dom):
                continue
            composite = laby_compose_oracle(MazeHom.of(p), MazeHom.of(q),
                                            h.degree)
            if h.eval_hom(composite) != h.hom(p).compose(h.hom(q)):
                raise ValueError(
                    f"table is not functorial on {p!r} after {q!r}")


def mset_check_oracle(j):
    for a in j.objects():
        ident = Multation.identity(a)
        if j.hom(ident) != AbHom.identity(j.groups[a].orders):
            raise ValueError(f"identity of {a!r} does not map to identity")
    objs = j.objects()
    arrows = {(a, b): all_multations(a, b) for a in objs for b in objs}
    for a in objs:
        for b in objs:
            for c in objs:
                for nu in arrows[a, b]:
                    for mu in arrows[b, c]:
                        lhs = j.eval_hom(multation_compose(mu, nu))
                        rhs = j.hom(mu).compose(j.hom(nu))
                        if lhs != rhs:
                            raise ValueError(
                                f"table is not functorial on "
                                f"{mu!r} after {nu!r}")


def rename_multation(mu, dom_map, cod_map):
    """A multation moved along bijective renamings of the letters of its
    two ends; a letter a map lacks stays, and a map of None moves none."""
    src, dst = (dom_map or {}).get, (cod_map or {}).get
    return Multation(
        MultiSet({src(x, x): m for x, m in mu.dom.items()}),
        MultiSet({dst(y, y): m for y, m in mu.cod.items()}),
        [((src(x, x), dst(y, y)), m) for (x, y), m in mu.pairs])


def letter_swaps(universe):
    """swaps(a): the transpositions of adjacent letters of the universe
    that move a letter of the multi-set a, each as (name map, renamed a)."""
    adjacent = [{x: y, y: x} for x, y in zip(universe, universe[1:])]

    def swaps(a):
        return [(s, MultiSet({s.get(x, x): m for x, m in a.items()}))
                for s in adjacent if any(x in s for x in a.support)]

    return swaps


def skeleton_swaps(names):
    """The transpositions of adjacent points of a skeleton set, each as
    (name map, renamed set), which is the set itself."""
    return [({x: y, y: x}, names) for x, y in zip(names, names[1:])]


def fill_every_block(sc):
    """Ask every block of Laby_n's constants once, which fills them all."""
    ends = list(dict.fromkeys(x for x, _ in sc.arrows))
    for a, b, c in product(ends, repeat=3):
        sc.block(a, b, c)


def outcome(run):
    try:
        run()
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc).__name__, str(exc)
    return None


def engine_composite(pres, p, q):
    """p . q for two basis arrows, composed by the engine or
    multation_compose, never off the constants."""
    if isinstance(pres, LabyModulePresentation):
        return laby_compose_oracle(MazeHom.of(p), MazeHom.of(q), pres.degree)
    return multation_compose(p, q)


def named(pres, text, prefix):
    """The basis arrows an error text names after `prefix`, split at
    ' after '."""
    assert text.startswith(prefix)
    by_name = {repr(f): f for f in pres.constants().index}
    return [by_name[name] for name in text[len(prefix):].split(" after ")]


def assert_checks_agree(pres):
    """check() and the per-pair oracle both accept, or both refuse with
    the same exception type.  A pair check() names fails when the engine
    composes it, an arrow it names lacks a value, and an identity it
    names is the oracle's.  Returns check()'s outcome."""
    oracle = laby_check_oracle if isinstance(
        pres, LabyModulePresentation) else mset_check_oracle
    expected, got = outcome(lambda: oracle(pres)), outcome(pres.check)
    assert (got is None) == (expected is None)
    if got is None:
        return None
    kind, text = got
    assert kind == expected[0]
    if kind == "KeyError":
        x, = named(pres, ast.literal_eval(text),
                   "presentation lacks a value for ")
        assert x not in pres.table
    elif "not functorial" in text:
        p, q = named(pres, text, "table is not functorial on ")
        assert pres.eval_hom(engine_composite(pres, p, q)) != \
            pres.hom(p).compose(pres.hom(q))
    else:
        assert got == expected
    return got


def with_table(pres, table):
    """pres with another table, unchecked."""
    if isinstance(pres, LabyModulePresentation):
        return LabyModulePresentation(pres.degree, pres.groups, table,
                                      check=False)
    return MSetModulePresentation(pres.degree, pres.universe, pres.groups,
                                  table, check=False)


def load(name, cls):
    with open(os.path.join(FIXTURES, name)) as fh:
        return cls.from_json(json.load(fh), check=False)


FIXTURE_PRESENTATIONS = [
    ("frobenius_laby.json", LabyModulePresentation),
    ("identity_laby.json", LabyModulePresentation),
    ("frobenius_mset.json", MSetModulePresentation),
    ("square_mset.json", MSetModulePresentation),
]


@pytest.mark.parametrize("name, cls", FIXTURE_PRESENTATIONS)
def test_fixture_presentations_agree_with_the_oracle(name, cls):
    assert assert_checks_agree(load(name, cls)) is None


def test_tensor_cubes_agree_with_the_oracle():
    assert assert_checks_agree(LabyModulePresentation.from_functor(
        tensor_power_functor(3), 3, check=False)) is None
    assert assert_checks_agree(MSetModulePresentation.tensor_power(
        3, skeleton(3), check=False)) is None


def random_quadratic(rng):
    """Half functorial by construction, half with arbitrary crossing maps,
    which the relations mostly refuse."""
    if rng.random() < 0.5:
        h = random_quadratic_presentation(rng)
        return LabyModulePresentation(2, h.groups, h.table, check=False)
    x = FgAbGroup(rng.randint(1, 2))
    y = FgAbGroup(rng.randint(1, 2))

    def entries(rows, cols):
        return [[rng.randint(-2, 2) for _ in range(cols)]
                for _ in range(rows)]

    return LabyModulePresentation.quadratic(
        FgAbGroup(rng.randint(0, 1)), x, y,
        AbHom.of_groups(x, y, entries(y.dim, x.dim)),
        AbHom.of_groups(y, x, entries(x.dim, y.dim)), check=False)


def test_random_quadratic_presentations_agree_with_the_oracle():
    rng = random.Random(9)
    outcomes = [assert_checks_agree(random_quadratic(rng))
                for _ in range(20)]
    assert None in outcomes
    assert any(o is not None for o in outcomes)


def test_doubled_sigma_is_refused_alike():
    j = MSetModulePresentation.tensor_power(2, skeleton(2))
    sigma = mset2_generators()["sigma"]
    table = dict(j.table)
    table[sigma] = table[sigma].scale(2)
    broken = MSetModulePresentation(2, skeleton(2), j.groups, table,
                                    check=False)
    kind, text = assert_checks_agree(broken)
    assert kind == "ValueError" and "not functorial" in text


def refused_as(h, maze, value):
    """The table of h plus `maze` is refused alike unchecked and checked,
    with a ValueError that names the maze; returns that outcome."""
    table = dict(h.table)
    table[maze] = value
    unchecked, checked = (outcome(lambda: LabyModulePresentation(
        h.degree, h.groups, table, check=check)) for check in (False, True))
    assert unchecked == checked
    kind, text = checked
    assert kind == "ValueError"
    assert text.startswith(f"{maze!r} is not a basis maze of degree "
                           f"{h.degree}")
    return checked


def loaded_with(h, maze, value):
    """The outcome of from_json on the JSON of h plus `maze`, checked."""
    data = h.to_json()
    data["homs"].append({"maze": maze.to_json(), "matrix": value.to_json()})
    return outcome(lambda: LabyModulePresentation.from_json(data, check=True))


def test_stored_loop_above_the_degree_is_refused_alike():
    # A degree-2 table that also stores a nonzero 3-passage loop, which
    # truncation kills.
    h = LabyModulePresentation.from_functor(tensor_power_functor(2), 2)
    loop = Maze(skeleton(1), skeleton(1), [(Passage("1", "1"), 3)])
    value = AbHom.identity(h.groups[1].orders)
    assert loaded_with(h, loop, value) == refused_as(h, loop, value)


def test_stored_labelled_mazes_agree_with_the_oracle():
    # The oracle once checked such tables through the binomial expansion;
    # now no table stores a labelled maze, consistent or not.
    h = LabyModulePresentation.from_functor(tensor_power_functor(2), 2)
    c = Maze(skeleton(1), skeleton(1), [(Passage("1", "1"), 2)])
    for label in (2, -1, "1/2"):
        labelled = c.relabel_all(label)
        for value in (AbHom.zero((0,), (0,)), AbHom.identity((0,))):
            assert loaded_with(h, labelled, value) == refused_as(
                h, labelled, value)


def test_stored_maze_with_a_dead_end_is_named():
    h = LabyModulePresentation.from_functor(tensor_power_functor(2), 2)
    dead_end = Maze(skeleton(2), skeleton(1), [Passage("1", "1")])
    value = AbHom.zero(h.groups[2].orders, h.groups[1].orders)
    assert loaded_with(h, dead_end, value) == refused_as(h, dead_end, value)


def test_a_stored_maze_off_the_skeleton_is_refused_by_name():
    # Its value was once accepted, written out by to_json and never read:
    # hom() looks a maze up on the skeleton.
    h = LabyModulePresentation.from_functor(tensor_power_functor(2), 2)
    refused_as(h, Maze(("a",), ("a",), [Passage("a", "a")]),
               AbHom.of_groups(h.groups[1], h.groups[1], [[5]]))


def test_a_stored_maze_on_more_points_than_the_degree_is_refused_by_name():
    h = LabyModulePresentation.from_functor(tensor_power_functor(2), 2)
    refused_as(h, Maze.identity(skeleton(3)),
               AbHom.identity(h.groups[1].orders))


def test_missing_values_are_named_alike():
    h = LabyModulePresentation.from_functor(tensor_power_functor(2), 2)
    j = MSetModulePresentation.tensor_power(2, skeleton(2))
    for pres, key in ((h, Maze(skeleton(2), skeleton(2),
                                [Passage("1", "2"), Passage("2", "1")])),
                      (j, mset2_generators()["alpha"])):
        table = dict(pres.table)
        del table[key]
        if isinstance(pres, LabyModulePresentation):
            partial = LabyModulePresentation(2, pres.groups, table,
                                             check=False)
        else:
            partial = MSetModulePresentation(2, pres.universe, pres.groups,
                                             table, check=False)
        kind, text = assert_checks_agree(partial)
        assert kind == "KeyError" and "lacks a value" in text


def test_every_deleted_value_is_named():
    # Each value deleted alone, on both sides at degrees 1-3 and in the
    # fixtures, A and B at degree 2 among them, which no stored composite
    # reaches.
    presentations = [load(name, cls) for name, cls in FIXTURE_PRESENTATIONS]
    for n in (1, 2, 3):
        presentations += [
            LabyModulePresentation.from_functor(tensor_power_functor(n), n,
                                                check=False),
            MSetModulePresentation.tensor_power(n, skeleton(n), check=False)]
    for pres in presentations:
        for f in pres.table:
            table = dict(pres.table)
            del table[f]
            assert outcome(with_table(pres, table).check) == (
                "KeyError", repr(f"presentation lacks a value for {f!r}"))


# ---------------------------------------------------------------------------
# the category laws, on the constants alone


def composed(sc, f, g):
    """f . g as a dict from basis arrow to coefficient."""
    arrows = sc.arrows[g.dom, f.cod]
    return {arrows[t]: c for t, c in sc.terms(f, g)}


def extend(sc, comb, arrow, after):
    """Compose a combination (a dict) with one basis arrow, on the left
    when `after` is False and on the right otherwise; zeros dropped."""
    out = {}
    for x, c in comb.items():
        for y, d in (composed(sc, x, arrow) if after
                     else composed(sc, arrow, x)).items():
            out[y] = out.get(y, 0) + c * d
    return {y: c for y, c in out.items() if c}


def assert_laws(sc, identity, f, g, h):
    for x in (f, g, h):
        assert sc.terms(identity(x.cod), x) == ((sc.index[x], 1),)
        assert sc.terms(x, identity(x.dom)) == ((sc.index[x], 1),)
    assert extend(sc, composed(sc, h, g), f, after=True) == \
        extend(sc, composed(sc, g, f), h, after=False)


def composable_triples(sc):
    arrows = [x for xs in sc.arrows.values() for x in xs]
    for f in arrows:
        for g in arrows:
            if g.dom != f.cod:
                continue
            for h in arrows:
                if h.dom == g.cod:
                    yield f, g, h


def laby_identity(names):
    return Maze.identity(names)


def test_constants_match_pairwise_composition_in_degree_2():
    laby = laby_structure_constants(2)
    mset = mset_structure_constants(skeleton(2), 2)
    for sc, hom_type, compose in (
            (laby, MazeHom, lambda p, q: laby_compose_oracle(
                MazeHom.of(p), MazeHom.of(q), 2)),
            (mset, MultHom, multation_compose)):
        arrows = [x for xs in sc.arrows.values() for x in xs]
        for f in arrows:
            for g in arrows:
                if g.cod == f.dom:
                    assert sc.hom(hom_type, f, g) == compose(f, g)


def test_constants_laws_exhaustive_in_degree_2():
    for sc, identity in ((laby_structure_constants(2), laby_identity),
                         (mset_structure_constants(skeleton(2), 2),
                          Multation.identity)):
        triples = list(composable_triples(sc))
        assert triples
        for f, g, h in triples:
            assert_laws(sc, identity, f, g, h)


@st.composite
def triples_in(draw, sc):
    arrows = [x for xs in sc.arrows.values() for x in xs]
    f = draw(st.sampled_from(arrows))
    g = draw(st.sampled_from([x for x in arrows if x.dom == f.cod]))
    h = draw(st.sampled_from([x for x in arrows if x.dom == g.cod]))
    return f, g, h


@settings(max_examples=60, deadline=None)
@given(triple=triples_in(laby_structure_constants(3)))
def test_constants_laws_sampled_on_laby_3(triple):
    assert_laws(laby_structure_constants(3), laby_identity, *triple)


@settings(max_examples=60, deadline=None)
@given(triple=triples_in(mset_structure_constants(skeleton(3), 3)))
def test_constants_laws_sampled_on_mset_3(triple):
    assert_laws(mset_structure_constants(skeleton(3), 3),
                Multation.identity, *triple)


# ---------------------------------------------------------------------------
# the multation-side walk that names the first failure


def broken_mset_tables(degree, letters, count, rng):
    """`count` tensor-power tables, each with one change at a random
    non-identity basis multation: its value negated, doubled, one entry
    raised by 1, or the value deleted."""
    pres = MSetModulePresentation.tensor_power(degree, letters, check=False)
    arrows = sorted((mu for mu in pres.constants().index
                     if mu != Multation.identity(mu.dom)),
                    key=Multation.sort_key)
    for _ in range(count):
        mu = rng.choice(arrows)
        table = dict(pres.table)
        change = rng.choice(("negate", "double", "raise", "delete"))
        if change == "delete":
            del table[mu]
        elif change == "raise":
            rows = [list(row) for row in table[mu].mat.rows]
            r, c = rng.randrange(len(rows)), rng.randrange(len(rows[0]))
            rows[r][c] += 1
            table[mu] = AbHom(table[mu].dom_orders, table[mu].cod_orders,
                              IntMat.from_rows(rows))
        else:
            table[mu] = table[mu].scale(-1 if change == "negate" else 2)
        yield change, MSetModulePresentation(degree, letters, pres.groups,
                                             table, check=False)


@pytest.mark.parametrize("degree, letters, count", [(2, "12", 12),
                                                    (3, "123", 16)])
def test_broken_multation_tables_are_refused_alike(degree, letters, count):
    rng = random.Random(16 + degree)
    changes = set()
    for change, broken in broken_mset_tables(degree, letters, count, rng):
        kind, text = assert_checks_agree(broken)
        if change == "delete":
            assert kind == "KeyError" and "lacks a value" in text
        else:
            assert kind == "ValueError" and "not functorial" in text
        changes.add(change)
    assert len(changes) >= 3
