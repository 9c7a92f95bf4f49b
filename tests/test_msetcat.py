import random
from itertools import product

import pytest

from mazelab.errors import DomainMismatchError, IntegralityError
from mazelab.multisets import MultiSet
from mazelab.msetcat import (
    MultHom,
    Multation,
    all_multations,
    mset2_generators,
    mset2_table,
    multation_compose,
    multhom_compose,
)
from mazelab.scalars import binomial
from test_scalars import multinomial


def ms(*names):
    return MultiSet(list(names))


def mut(rows):
    """Build a multation from a two-row string spec like 'aab/cdd'."""
    top, bot = rows.split("/")
    tops = top.split()
    bots = bot.split()
    pairs = {}
    for a, b in zip(tops, bots):
        pairs[(a, b)] = pairs.get((a, b), 0) + 1
    return Multation(MultiSet(tops), MultiSet(bots), list(pairs.items()))


def test_identity_multation():
    i12 = Multation.identity(ms("1", "2"))
    assert i12.pairs == ((("1", "1"), 1), (("2", "2"), 1))
    i11 = Multation.identity(ms("1", "1"))
    assert i11.pairs == ((("1", "1"), 2),)
    assert i11.degree == 2
    empty = Multation.identity(MultiSet())
    assert empty.pairs == ()


def test_multation_marginals_enforced():
    with pytest.raises(ValueError):
        Multation(ms("a"), ms("b", "b"), [(("a", "b"), 1)])


@pytest.mark.parametrize("mult", [1.5, 2.0, True, "2"])
def test_multation_refuses_non_int_multiplicities(mult):
    with pytest.raises(ValueError, match="multiplicity"):
        Multation(ms("a", "a"), ms("x", "x"), [(("a", "x"), mult)])


def test_worked_composites():
    # The two displayed degree-3 products.
    nu = mut("a a b/c d d")
    mu = mut("c d d/e e f")
    got = multation_compose(mu, nu)
    expected = MultHom.from_terms(
        nu.dom, mu.cod,
        [(mut("a a b/e e f"), 2), (mut("a a b/e f e"), 1)])
    assert got == expected

    nu2 = mut("a a a/c d d")
    mu2 = mut("c d d/e e e")
    got2 = multation_compose(mu2, nu2)
    assert got2 == MultHom.from_terms(
        nu2.dom, mu2.cod, [(mut("a a a/e e e"), 3)])


def test_identity_laws():
    nu = mut("a a b/c d d")
    assert multation_compose(Multation.identity(nu.cod), nu) == MultHom.of(nu)
    assert multation_compose(nu, Multation.identity(nu.dom)) == MultHom.of(nu)


def test_compose_domain_mismatch():
    with pytest.raises(DomainMismatchError):
        multation_compose(mut("a/b"), mut("x/y"))


def test_multhom_bilinearity_and_zero():
    gens = mset2_generators()
    alpha, beta = gens["alpha"], gens["beta"]
    zero = MultHom.zero(beta.dom, beta.cod)
    f = MultHom.of(alpha)
    assert multhom_compose(f, zero).is_zero()
    doubled = multhom_compose(MultHom.of(alpha, 2), MultHom.of(beta))
    once = multhom_compose(f, MultHom.of(beta))
    assert doubled == once.scale(2)


def test_mset2_table():
    gens = mset2_generators()
    table = mset2_table()
    i11 = Multation.identity(ms("1", "1"))
    i12 = Multation.identity(ms("1", "2"))
    assert table[("alpha", "beta")] == MultHom.from_terms(
        i12.dom, i12.cod, [(i12, 1), (gens["sigma"], 1)])
    assert table[("beta", "alpha")] == MultHom.of(i11, 2)
    assert table[("sigma", "sigma")] == MultHom.of(i12)
    assert table[("beta", "sigma")] == MultHom.of(gens["beta"])
    assert table[("sigma", "alpha")] == MultHom.of(gens["alpha"])
    assert table[("alpha", "alpha")] is None
    assert table[("alpha", "sigma")] is None
    assert table[("beta", "beta")] is None
    assert table[("sigma", "beta")] is None


def test_table2_consistency_through_bilinear_expansion():
    # beta (alpha beta) = (beta alpha) beta expands to 2 beta both ways.
    gens = mset2_generators()
    a, b = MultHom.of(gens["alpha"]), MultHom.of(gens["beta"])
    ab = multhom_compose(a, b)
    ba = multhom_compose(b, a)
    assert multhom_compose(b, ab) == multhom_compose(ba, b)
    assert multhom_compose(b, ab) == b.scale(2)


def small_multisets(universe, n):
    from mazelab.multisets import enumerate_supported

    out = []
    for size in range(1, len(universe) + 1):
        from itertools import combinations

        for support in combinations(universe, size):
            out.extend(enumerate_supported(set(support), n))
    return out


def test_associativity_exhaustive_small():
    universe = ["1", "2"]
    for n in (2, 3):
        objs = small_multisets(universe, n)
        rng = random.Random(n)
        triples = []
        for a, b in product(objs, repeat=2):
            for c in objs:
                mus = all_multations(a, b)
                if mus:
                    triples.append((a, b, c))
                    break
        for a, b, c in triples:
            for _ in range(2):
                f = rng.choice(all_multations(b, c) or [None])
                g = rng.choice(all_multations(a, b) or [None])
                if f is None or g is None:
                    continue
                for d in objs:
                    hs = all_multations(c, d)
                    if not hs:
                        continue
                    h = rng.choice(hs)
                    lhs = multhom_compose(MultHom.of(h),
                                          multation_compose(f, g))
                    rhs = multhom_compose(multation_compose(h, f),
                                          MultHom.of(g))
                    assert lhs == rhs


def test_composition_coefficients_integral():
    rng = random.Random(11)
    universe = ["1", "2", "3"]
    from mazelab.multisets import enumerate_supported

    objs = []
    for n in (2, 3):
        objs = small_multisets(universe, n)
        for _ in range(40):
            a, b, c = rng.choice(objs), rng.choice(objs), rng.choice(objs)
            for f in all_multations(b, c):
                for g in all_multations(a, b):
                    for _, coeff in multation_compose(f, g).comb:
                        assert coeff.denominator == 1


def test_composition_asserts_each_term_integral(monkeypatch):
    # Pairing off the doubled column of iota_{11} with itself is one table
    # with a 2 in it; a basis degree of 1 makes its term 1/2.
    iota = Multation.identity(ms("1", "1"))
    assert multation_compose(iota, iota) == MultHom.of(iota)
    monkeypatch.setattr(Multation, "degree", property(lambda self: 1))
    with pytest.raises(IntegralityError, match="1/2"):
        multation_compose(iota, iota)


def test_divided_power_scaling_lemma():
    # a^m x^[m] re-expanded over ordered products of positive divided powers:
    # on a single formal column the product of x^[g_i] is the multinomial
    # times x^[m], so the identity reduces to scalar arithmetic.
    from mazelab.multisets import compositions

    for a in range(-2, 5):
        for m in range(1, 5):
            rhs = 0
            for k in range(1, m + 1):
                inner = 0
                for gs in compositions(m, k):
                    inner += multinomial(gs)
                rhs += binomial(a, k) * inner
            assert rhs == a ** m, (a, m)


def test_all_multations_counts():
    # Multations {x,x} -> {y,y} : single column with multiplicity 2.
    assert len(all_multations(ms("x", "x"), ms("y", "y"))) == 1
    # {a,a,b} -> {a,a,b}: the worked pair of endomultations.
    assert len(all_multations(ms("a", "a", "b"), ms("a", "a", "b"))) == 2
    assert all_multations(ms("a"), ms("b", "b")) == []


def test_json_roundtrip():
    nu = mut("a a b/c d d")
    assert Multation.from_json(nu.to_json()) == nu
    hom = MultHom.from_terms(nu.dom, nu.cod, [(nu, 2)])
    assert MultHom.from_json(hom.to_json()) == hom


def test_composite_terms_equal_checked_multations():
    """multation_compose builds its terms without re-deriving their
    marginals; over every composable pair of basis multations of degree 3
    on three letters, the same terms through the checking constructor
    give the same MultHom."""
    from mazelab.multisets import all_cardinality_multisets

    objs = all_cardinality_multisets(("1", "2", "3"), 3)
    arrows = {(a, b): all_multations(a, b) for a in objs for b in objs}
    pairs = 0
    for a in objs:
        for b in objs:
            for c in objs:
                for nu in arrows[a, b]:
                    for mu in arrows[b, c]:
                        got = multation_compose(mu, nu)
                        checked = MultHom.from_terms(a, c, [
                            (Multation(x.dom, x.cod, list(x.pairs)), k)
                            for x, k in got.comb])
                        assert got == checked
                        assert [x.pairs for x, _ in got.comb] == \
                            [x.pairs for x, _ in checked.comb]
                        pairs += 1
    assert pairs == 2973
    for a in objs:
        ident = Multation.identity(a)
        assert ident == Multation(a, a, [((x, x), m) for x, m in a.items()])
