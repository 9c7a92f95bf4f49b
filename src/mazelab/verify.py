"""Named verification checks and the suites that group them.

Every check returns (name, ok, detail); the detail is empty on success
and carries the first counterexample otherwise.  The acceptance tests
and the command-line `verify` subcommand both run these.
"""

import random
from math import comb

from . import bridge
from .functor_lab import (
    AbHom,
    FgAbGroup,
    LabyModulePresentation,
    MSetModulePresentation,
    ariadne_thread_failures,
    check_deviation_formula,
    identity_functor,
    numerical_axiom_check,
    phi_roundtrip_failures,
    quadratic_homogeneous_criterion,
    quadratic_relations_check,
    signed_cover_sum,
    tensor_power_functor,
)
from .labycat import (
    Maze,
    MazeHom,
    Passage,
    laby2_table,
    maze_compose,
    maze_hom_compose,
    normalize_homogeneous,
    normalize_numerical,
    quadratic_generators,
    skeleton,
    splitting_idempotents,
    validate_maze,
)
from .matrices import IntMat
from .msetcat import MultHom, Multation, mset2_generators, mset2_table
from .multisets import MultiSet
from .scalars import binomial


def _ok(name):
    return (name, True, "")


def _fail(name, detail):
    return (name, False, detail)


def _table_check(name, table, expected):
    """The expected cells of a multiplication table, the others undefined."""
    for cell, want in expected.items():
        if table[cell] != want:
            return _fail(name, f"cell {cell} = {table[cell]!r}")
    for cell, value in table.items():
        if cell not in expected and value is not None:
            return _fail(name, f"cell {cell} should be undefined")
    return _ok(name)


def check_table1():
    """Every defined cell of the degree-2 maze multiplication table."""
    gens = quadratic_generators()
    table = laby2_table()
    i2 = MazeHom.of(gens["I2"])
    expected = {
        ("A", "B"): i2 + MazeHom.of(gens["S"]),
        ("B", "A"): MazeHom.of(gens["C"]),
        ("A", "C"): MazeHom.of(gens["A"], 2),
        ("C", "B"): MazeHom.of(gens["B"], 2),
        ("C", "C"): MazeHom.of(gens["C"], 2),
        ("S", "A"): MazeHom.of(gens["A"]),
        ("B", "S"): MazeHom.of(gens["B"]),
        ("S", "S"): i2,
    }
    return _table_check("table1", table, expected)


def check_table2():
    """Every defined cell of the degree-2 multation multiplication table."""
    gens = mset2_generators()
    table = mset2_table()
    i11 = Multation.identity(MultiSet(["1", "1"]))
    i12 = Multation.identity(MultiSet(["1", "2"]))
    expected = {
        ("alpha", "beta"): MultHom(
            i12.dom, i12.cod, [(i12, 1), (gens["sigma"], 1)]),
        ("beta", "alpha"): MultHom.of(i11, 2),
        ("beta", "sigma"): MultHom.of(gens["beta"]),
        ("sigma", "alpha"): MultHom.of(gens["alpha"]),
        ("sigma", "sigma"): MultHom.of(i12),
    }
    return _table_check("table2", table, expected)


def check_multation_examples():
    """The two worked degree-3 multation products."""
    from .msetcat import MultHom, Multation, multation_compose

    def mut(spec):
        top, bot = spec.split("/")
        pairs = {}
        for a, b in zip(top.split(), bot.split()):
            pairs[(a, b)] = pairs.get((a, b), 0) + 1
        return Multation(MultiSet(top.split()), MultiSet(bot.split()),
                         list(pairs.items()))

    first = multation_compose(mut("c d d/e e f"), mut("a a b/c d d"))
    want_first = MultHom(
        MultiSet(["a", "a", "b"]), MultiSet(["e", "e", "f"]),
        [(mut("a a b/e e f"), 2), (mut("a a b/e f e"), 1)])
    if first != want_first:
        return _fail("multation_examples", f"first product = {first!r}")
    second = multation_compose(mut("c d d/e e e"), mut("a a a/c d d"))
    want_second = MultHom(
        MultiSet(["a", "a", "a"]), MultiSet(["e", "e", "e"]),
        [(mut("a a a/e e e"), 3)])
    if second != want_second:
        return _fail("multation_examples", f"second product = {second!r}")
    return _ok("multation_examples")


def check_maze_example():
    """The worked two-fan composition: a seven-term sum with the right
    passage counts."""
    p = Maze(("z",), ("x", "y"), [Passage("z", "x", 1), Passage("z", "y", 1)])
    q = Maze(("x", "y"), ("z",), [Passage("x", "z", 1), Passage("y", "z", 1)])
    got = maze_compose(p, q)
    if any(c != 1 for _, c in got.comb):
        return _fail("maze_example", "coefficients differ from 1")
    sizes = sorted(m.size for m, _ in got.comb)
    if sizes != [2, 2, 3, 3, 3, 3, 4]:
        return _fail("maze_example", f"term sizes {sizes}")
    return _ok("maze_example")


def check_axiom_iv_instance():
    """The two-parallel-passage binomial expansion at degree 3, evaluated
    at all integer label pairs in [-2, 3]."""
    n = 3
    for a in range(-2, 4):
        for b in range(-2, 4):
            # Equal labels make one passage of multiplicity 2.
            maze = Maze(("x",), ("y",),
                        [Passage("x", "y", a), Passage("x", "y", b)])
            got = normalize_numerical(MazeHom.of(maze), n)
            terms = []
            for d1 in range(1, n):
                for d2 in range(1, n - d1 + 1):
                    coeff = binomial(a, d1) * binomial(b, d2)
                    if coeff:
                        terms.append(
                            (Maze(("x",), ("y",),
                                  [(Passage("x", "y", 1), d1 + d2)]), coeff))
            want = MazeHom(("x",), ("y",), terms)
            if got != want:
                return _fail("axiom_iv_instance", f"labels ({a}, {b})")
    return _ok("axiom_iv_instance")


def check_counting_lemmas(seed=0, trials=200):
    """The two signed covering-sum lemmas: the closed rectangle formula
    (nonempty rectangles, all m, n <= 4) and vanishing on 200 random
    non-rectangular sets."""
    for m in range(1, 5):
        for n in range(1, 5):
            for p in range(1, m + 1):
                for q in range(1, n + 1):
                    rect = [(i, j) for i in range(1, p + 1)
                            for j in range(1, q + 1)]
                    want = (-1) ** (m + n + p + q + p * q)
                    got = signed_cover_sum(m, n, rect)
                    if got != want:
                        return _fail("counting_lemmas",
                                     f"rectangle {(m, n, p, q)}: {got}")
    rng = random.Random(seed)
    count = 0
    while count < trials:
        m = rng.randint(2, 4)
        n = rng.randint(2, 4)
        pairs = [(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
        size = rng.randint(2, len(pairs))
        l_pairs = rng.sample(pairs, size)
        rows = {i for i, _ in l_pairs}
        cols = {j for _, j in l_pairs}
        if set(l_pairs) == {(i, j) for i in rows for j in cols}:
            continue
        got = signed_cover_sum(m, n, l_pairs)
        if got != 0:
            return _fail("counting_lemmas",
                         f"non-rectangle {(m, n, sorted(l_pairs))}: {got}")
        count += 1
    for m in range(1, 5):
        for n in range(1, 5):
            want = 0
            for p in range(m + 1):
                for q in range(n + 1):
                    if p and q:
                        continue
                    want += ((-1) ** (m + n + p + q)) * comb(m, p) * comb(n, q)
            got = signed_cover_sum(m, n, [])
            if got != want:
                return _fail("counting_lemmas", f"empty set at {(m, n)}: {got}")
    return _ok("counting_lemmas")


def check_deviation_formula_suite(seed=0, trials=50):
    """The composition-of-deviations expansion, for tensor powers 2 and 3
    and all arity splits with at most four maps."""
    rng = random.Random(seed)
    arities = [(m, n) for m in range(1, 4) for n in range(1, 4) if m + n <= 4]

    def rand_mat():
        return IntMat(2, 2, [[rng.randint(-2, 2) for _ in range(2)]
                             for _ in range(2)])

    for _ in range(trials):
        power = rng.choice([2, 3])
        m, n = rng.choice(arities)
        f = tensor_power_functor(power)
        alphas = [rand_mat() for _ in range(m)]
        betas = [rand_mat() for _ in range(n)]
        if not check_deviation_formula(f, alphas, betas):
            return _fail("deviation_formula",
                         f"power {power}, arities {(m, n)}")
    return _ok("deviation_formula")


def _random_composable_pair(rng, max_side=3, max_passages=3):
    universe = skeleton(max_side)
    while True:
        pairs = [(x, y) for x in universe for y in universe]
        size = rng.randint(1, max_passages)
        q = Maze.pure([rng.choice(pairs) for _ in range(size)])
        mid = q.cod
        options = [(y, z) for y in mid for z in universe]
        size2 = rng.randint(len(mid), max_passages)
        if size2 > max_passages:
            continue
        combo = [rng.choice(options) for _ in range(size2)]
        p = Maze.pure(combo, mid, {z for _, z in combo})
        if validate_maze(p) and validate_maze(q):
            return p, q


def check_ariadne_functoriality(seed=0, trials=100):
    """Forward translation of composites equals composite of translations
    on random composable pure-maze pairs, at degrees 2 and 3."""
    rng = random.Random(seed)
    for _ in range(trials):
        p, q = _random_composable_pair(rng)
        composed = maze_compose(p, q)
        for n in (2, 3):
            lhs = bridge.ariadne_maze(p, n).compose(bridge.ariadne_maze(q, n))
            rhs = bridge.ariadne_hom(composed, n)
            if lhs != rhs:
                return _fail("ariadne_functoriality",
                             f"{p!r} after {q!r} at degree {n}")
    return _ok("ariadne_functoriality")


def check_roundtrip_iso():
    """The two translation functors invert each other, exhaustively for
    universes of size <= 3 and degrees <= 3."""
    for size in (1, 2, 3):
        for n in (1, 2, 3):
            failures = bridge.roundtrip_failures(skeleton(size), n)
            if failures:
                return _fail("roundtrip_iso",
                             f"size {size}, degree {n}: {failures[0]}")
    return _ok("roundtrip_iso")


def check_splitting_identities():
    """The identity-splitting system at degree 3, the degree-2 doubling
    anomaly, and the degree-4 fan identity."""
    two = skeleton(2)
    split = splitting_idempotents(two, 3)
    if len(split) != 2:
        return _fail("splitting", f"expected 2 idempotents, got {len(split)}")
    (_, e1), (_, e2) = split
    p, q = e1.scale(2), e2.scale(2)
    i2 = MazeHom.identity(two)
    if not normalize_homogeneous(i2.scale(2) - (p + q), 3).is_zero():
        return _fail("splitting", "2I != P + Q at degree 3")
    for left, right in [(p, q), (q, p)]:
        if not normalize_homogeneous(maze_hom_compose(left, right), 3).is_zero():
            return _fail("splitting", "PQ or QP nonzero at degree 3")

    single = MazeHom.of(Maze(("x",), ("y",), [Passage("x", "y", 1)]))
    double = MazeHom.of(Maze(("x",), ("y",), [(Passage("x", "y", 1), 2)]))
    if not normalize_homogeneous(double - single.scale(2), 2).is_zero():
        return _fail("splitting", "doubled passage != 2 x single at degree 2")

    def fan(k1, k2):
        return Maze(("x",), ("u", "v"),
                    [(Passage("x", "u", 1), k1), (Passage("x", "v", 1), k2)])

    lhs = MazeHom.of(fan(3, 1)) + MazeHom.of(fan(2, 2)) + MazeHom.of(fan(1, 2))
    if not normalize_homogeneous(lhs - MazeHom.of(fan(1, 1), 6), 4).is_zero():
        return _fail("splitting", "degree-4 fan identity fails")
    return _ok("splitting")


def frobenius_presentation():
    zero = FgAbGroup(0)
    z2 = FgAbGroup(0, (2,))
    alpha = AbHom.of_groups(z2, zero, [])
    beta = AbHom.of_groups(zero, z2, [[]])
    h = LabyModulePresentation.quadratic(zero, z2, zero, alpha, beta)
    return zero, z2, zero, alpha, beta, h


def _random_unimodular(rng, r):
    mat = IntMat.identity(r)
    inv = IntMat.identity(r)
    for _ in range(4):
        if r < 2:
            break
        i, j = rng.sample(range(r), 2)
        c = rng.randint(-2, 2)
        mat = mat @ (IntMat.identity(r) + IntMat.unit(r, r, i, j, c))
        inv = (IntMat.identity(r) + IntMat.unit(r, r, i, j, -c)) @ inv
    return mat, inv


def random_quadratic_presentation(rng):
    r = rng.randint(1, 2)
    u, u_inv = _random_unimodular(rng, r)
    x = FgAbGroup(r)
    y = FgAbGroup(r)
    k = FgAbGroup(rng.randint(0, 2))
    if rng.random() < 0.5:
        alpha = AbHom.of_groups(x, y, u.rows)
        beta = AbHom.of_groups(y, x, u_inv.scale(2).rows)
    else:
        alpha = AbHom.of_groups(x, y, u.scale(2).rows)
        beta = AbHom.of_groups(y, x, u_inv.rows)
    return LabyModulePresentation.quadratic(k, x, y, alpha, beta)


def check_phi_roundtrips(seed=0, trials=20):
    """Round trips through evaluation for the canned presentations and
    seeded random free ones."""
    _, _, _, _, _, frob = frobenius_presentation()
    canned = [
        ("frobenius", frob),
        ("identity", LabyModulePresentation.from_functor(identity_functor(), 2)),
        ("square", LabyModulePresentation.from_functor(tensor_power_functor(2), 2)),
    ]
    for name, h in canned:
        failures = phi_roundtrip_failures(h)
        if failures:
            return _fail("phi_roundtrip", f"{name}: {failures[0]}")
    rng = random.Random(seed)
    for i in range(trials):
        h = random_quadratic_presentation(rng)
        failures = phi_roundtrip_failures(h)
        if failures:
            return _fail("phi_roundtrip", f"random #{i}: {failures[0]}")
    return _ok("phi_roundtrip")


def check_thread():
    """The forgetful-functor comparison for the tensor-square multation
    module at degree 2."""
    j = MSetModulePresentation.tensor_power(2, skeleton(2))
    failures = ariadne_thread_failures(j)
    if failures:
        return _fail("ariadne_thread", failures[0])
    return _ok("ariadne_thread")


def check_quadratic_classification():
    """The degree-2 classification: the order-2 example is accepted and
    three constructed presentations are rejected for the three reasons."""
    k0, z2, y0, alpha0, beta0, _ = frobenius_presentation()
    if not quadratic_relations_check(k0, z2, y0, alpha0, beta0):
        return _fail("quadratic", "relations fail on the order-2 example")
    if not quadratic_homogeneous_criterion(k0, z2, y0, alpha0, beta0):
        return _fail("quadratic", "order-2 example rejected")

    z = FgAbGroup(1)
    one = AbHom.of_groups(z, z, [[1]])
    two = AbHom.of_groups(z, z, [[2]])
    zero_map = AbHom.of_groups(z, z, [[0]])
    # rejection 1: nontrivial constant part
    if quadratic_homogeneous_criterion(FgAbGroup(1), z2, y0, alpha0, beta0):
        return _fail("quadratic", "nontrivial constant part accepted")
    # rejection 2: relations hold but beta alpha != 2
    if not quadratic_relations_check(FgAbGroup(0), z, z, zero_map, zero_map):
        return _fail("quadratic", "zero maps fail the relations")
    if quadratic_homogeneous_criterion(FgAbGroup(0), z, z, zero_map, zero_map):
        return _fail("quadratic", "beta alpha = 0 accepted")
    # rejection 3: relations violated
    if quadratic_relations_check(FgAbGroup(0), z, z, one, one):
        return _fail("quadratic", "alpha = beta = 1 passes the relations")
    # and the scalar pair that does satisfy everything
    if not quadratic_homogeneous_criterion(FgAbGroup(0), z, z, one, two):
        return _fail("quadratic", "alpha = 1, beta = 2 rejected")
    return _ok("quadratic")


def check_xi_bijection():
    """Exhaustive basis bijection between spans with middle size <= 3 and
    pure mazes, for endpoint sets of size <= 2."""
    from itertools import product as iproduct

    from .labycat import pure_mazes_between

    for dsize in (1, 2):
        for csize in (1, 2):
            dom = [f"x{i}" for i in range(dsize)]
            cod = [f"y{i}" for i in range(csize)]
            images = {}
            for msize in range(1, 4):
                middle = [f"u{i}" for i in range(msize)]
                for lvals in iproduct(cod, repeat=msize):
                    if set(lvals) != set(cod):
                        continue
                    for rvals in iproduct(dom, repeat=msize):
                        if set(rvals) != set(dom):
                            continue
                        c = bridge.Correspondence(
                            cod, middle, dom,
                            dict(zip(middle, lvals)),
                            dict(zip(middle, rvals)))
                        images.setdefault(
                            bridge.xi_correspondence(c), set()).add(
                                tuple(sorted(c.fiber_counts().items())))
            for maze, forms in images.items():
                if len(forms) != 1:
                    return _fail("xi_bijection",
                                 f"{maze!r} hit by {len(forms)} forms")
            expected = set()
            for s in (1, 2, 3):
                expected.update(pure_mazes_between(dom, cod, [s]))
            if set(images) != expected:
                return _fail("xi_bijection",
                             f"image mismatch at sizes ({dsize}, {csize})")
            for maze in expected:
                if bridge.xi_correspondence(bridge.xi_inverse(maze)) != maze:
                    return _fail("xi_bijection", f"section fails on {maze!r}")
    return _ok("xi_bijection")


def check_cubical_expansion():
    """The two-parallel-passage expansion evaluated through the cube
    presentation, labels in [-2, 2]."""
    h = LabyModulePresentation.from_functor(tensor_power_functor(3), 3)
    for a in range(-2, 3):
        for b in range(-2, 3):
            maze = Maze(("1",), ("1",),
                        [Passage("1", "1", a), Passage("1", "1", b)])
            if not numerical_axiom_check(h, maze):
                return _fail("cubical_expansion", f"labels ({a}, {b})")
    return _ok("cubical_expansion")


SUITES = {
    "lemmas": ["counting_lemmas"],
    "deviation": ["deviation_formula"],
    "tables": ["table1", "table2", "multation_examples", "maze_example"],
    "ariadne": ["ariadne_functoriality", "roundtrip_iso"],
    "roundtrip": ["phi_roundtrip", "ariadne_thread"],
    "quadratic": ["quadratic"],
}

_EXTRA = ["axiom_iv_instance", "splitting", "xi_bijection",
          "cubical_expansion"]

SUITES["all"] = (SUITES["tables"] + SUITES["lemmas"] + SUITES["deviation"]
                 + SUITES["ariadne"] + SUITES["roundtrip"]
                 + SUITES["quadratic"] + _EXTRA)


def _random(check):
    """A random check called as (seed, trials); trials None keeps the
    check's own default."""
    return lambda seed, trials: (check(seed) if trials is None
                                 else check(seed, trials))


_CHECKS = {
    "table1": lambda seed, trials: check_table1(),
    "table2": lambda seed, trials: check_table2(),
    "multation_examples": lambda seed, trials: check_multation_examples(),
    "maze_example": lambda seed, trials: check_maze_example(),
    "axiom_iv_instance": lambda seed, trials: check_axiom_iv_instance(),
    "counting_lemmas": _random(check_counting_lemmas),
    "deviation_formula": _random(check_deviation_formula_suite),
    "ariadne_functoriality": _random(check_ariadne_functoriality),
    "roundtrip_iso": lambda seed, trials: check_roundtrip_iso(),
    "splitting": lambda seed, trials: check_splitting_identities(),
    "phi_roundtrip": _random(check_phi_roundtrips),
    "ariadne_thread": lambda seed, trials: check_thread(),
    "quadratic": lambda seed, trials: check_quadratic_classification(),
    "xi_bijection": lambda seed, trials: check_xi_bijection(),
    "cubical_expansion": lambda seed, trials: check_cubical_expansion(),
}


def run_suite(suite: str, seed=0, trials=None):
    """Run one named suite; returns the list of (name, ok, detail).
    `trials`, when given, replaces every random check's own count."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; "
                         f"choose from {sorted(SUITES)}")
    return [_CHECKS[name](seed, trials) for name in SUITES[suite]]
