from fractions import Fraction

import pytest

from mazelab.functor_lab import AbHom, FgAbGroup
from mazelab.matrices import IntMat


def test_intmat_takes_integral_fractions_as_ints():
    m = IntMat.from_rows([[Fraction(4, 2), 3], [-1, Fraction(-6, 3)]])
    assert m.rows == ((2, 3), (-1, -2))
    assert all(type(x) is int for row in m.rows for x in row)
    assert IntMat.identity(2).scale(Fraction(3)) == \
        IntMat.from_rows([[3, 0], [0, 3]])


def test_intmat_refuses_non_integer_entries():
    with pytest.raises(ValueError, match="not an integer"):
        IntMat.from_rows([[1.5, Fraction(7, 2)]])
    with pytest.raises(ValueError, match="not an integer"):
        IntMat.from_rows([[Fraction(7, 2)]])
    with pytest.raises(ValueError, match="not an integer"):
        IntMat.from_rows([[2.0]])


def test_intmat_scale_refuses_a_fractional_factor():
    with pytest.raises(ValueError, match="not an integer"):
        IntMat.identity(2).scale(Fraction(1, 2))


def test_abhom_scale_refuses_a_float():
    hom = AbHom.identity(FgAbGroup(2).orders)
    with pytest.raises(ValueError, match="not an integer"):
        hom.scale(2.5)
    with pytest.raises(ValueError, match="not an integer"):
        hom.scale(Fraction(5, 2))
    assert hom.scale(Fraction(4, 2)) == hom.scale(2)
