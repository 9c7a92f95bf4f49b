import random
from fractions import Fraction
from math import factorial, prod

import pytest

from mazelab.scalars import (
    LinComb,
    binomial,
    scalar,
    scalar_str,
)


# The oracle of the divided-power tests, kept here with its only callers.
def multinomial(parts) -> int:
    """(sum parts)! / prod(part!) for nonnegative integer parts."""
    parts = list(parts)
    if any(p < 0 for p in parts):
        raise ValueError("multinomial parts must be nonnegative")
    total = 0
    out = 1
    for p in parts:
        for i in range(1, p + 1):
            total += 1
            out = out * total // i
    return out


class Tok:
    """Tiny basis stand-in with a sort key."""

    def __init__(self, name):
        self.name = name

    def sort_key(self):
        return (self.name,)

    def __eq__(self, other):
        return isinstance(other, Tok) and self.name == other.name

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return self.name


def test_binomial_values():
    assert binomial(2, 2) == 1
    assert binomial(-1, 3) == -1
    assert binomial(Fraction(1, 2), 2) == Fraction(-1, 8)
    assert binomial(7, 0) == 1
    assert binomial(0, 1) == 0
    assert binomial(3, 5) == 0


def test_binomial_rejects_negative_k():
    with pytest.raises(ValueError):
        binomial(2, -1)


def test_binomial_integrality_on_integers():
    for r in range(-6, 7):
        for k in range(13):
            assert binomial(r, k).denominator == 1


def test_binomial_on_ints_matches_the_fraction_formula():
    for r in range(-6, 7):
        for k in range(7):
            num = Fraction(1)
            for i in range(k):
                num *= r - i
            want = num / factorial(k)
            got = binomial(r, k)
            assert type(got) is int and got == want, (r, k)
            assert binomial(Fraction(r), k) == want
            assert type(binomial(Fraction(r), k)) is Fraction
    assert binomial(Fraction(1, 2), 2) == Fraction(-1, 8)


def test_binomial_product():
    assert prod(map(binomial, [1, 1, 1], [1, 1, 1])) == 1
    assert prod(map(binomial, [0], [1])) == 0
    assert prod(map(binomial, [2, 1], [2, 1])) == 1


def test_binomial_product_identity():
    # Product of binomials re-expanded through the inclusion-exclusion
    # inversion; the m-sum stops at the total weight since higher finite
    # differences of a polynomial vanish.
    for r in range(-3, 7):
        for ws in [(1,), (2,), (3,), (1, 1), (2, 1), (3, 2), (1, 1, 1), (2, 2, 3)]:
            lhs = prod(map(binomial, [r] * len(ws), ws))
            bound = sum(ws)
            rhs = Fraction(0)
            for m in range(bound + 1):
                inner = Fraction(0)
                for k in range(m + 1):
                    inner += (-1) ** (m - k) * binomial(m, k) * \
                        prod(map(binomial, [k] * len(ws), ws))
                rhs += binomial(r, m) * inner
            assert lhs == rhs, (r, ws)


def test_multinomial():
    assert multinomial([]) == 1
    assert multinomial([3]) == 1
    assert multinomial([1, 1]) == 2
    assert multinomial([2, 1]) == 3
    assert multinomial([2, 2]) == 6


def test_scalar_roundtrip():
    for text in ["0", "5", "-3/2", "7/3"]:
        assert scalar_str(scalar(text)) == text
    assert scalar_str(Fraction(4, 2)) == "2"


def test_lincomb_identity_and_cancellation():
    t = Tok("t")
    single = LinComb([(t, 1)])
    assert single.scale(1) == single
    assert (single - single).is_zero()


def test_lincomb_merge():
    b1, b2 = Tok("b1"), Tok("b2")
    x = LinComb([(b1, 2), (b2, 1)])
    y = LinComb([(b2, 1)])
    merged = x + y
    assert merged == LinComb([(b1, 2), (b2, 2)])


def test_lincomb_canonicalization_is_order_independent():
    rng = random.Random(7)
    toks = [Tok(c) for c in "abcdef"]
    terms = [(rng.choice(toks), Fraction(rng.randint(-3, 3))) for _ in range(12)]
    base = LinComb(terms)
    for _ in range(5):
        rng.shuffle(terms)
        assert LinComb(terms) == base
    # idempotent: rebuilding from stored terms changes nothing
    assert LinComb(base.terms) == base


def test_combinations_with_endpoints_share_code_not_equality():
    from mazelab.labycat import MazeHom
    from mazelab.msetcat import MultHom, Multation
    from mazelab.multisets import MultiSet

    assert MazeHom.zero((), ()) != MultHom.zero(MultiSet(), MultiSet())
    assert MultHom.zero(MultiSet(), MultiSet()) != MazeHom.zero((), ())
    maze_hom = MazeHom.identity(["1"]).scale(2)
    mult_hom = MultHom.of(Multation.identity(MultiSet(["1", "1"])), 3)
    for hom in (maze_hom, mult_hom):
        name = type(hom).__name__
        assert type(hom).from_json(hom.to_json()) == hom
        assert (hom - hom).is_zero() and repr(hom - hom) == "0"
        assert not hasattr(hom, "__dict__")
        with pytest.raises(AttributeError, match=f"{name} is immutable"):
            hom.comb = LinComb()
    assert maze_hom.to_json()["dom"] == ["1"]
    assert mult_hom.to_json()["dom"] == [["1", 2]]
    assert repr(maze_hom) == "2*[1 -(1)-> 1: {'1'}->{'1'}]"
    assert repr(mult_hom) == "3*[1 1; 1 1]"
