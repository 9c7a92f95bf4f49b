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


# A bool is no integer, as it is no scalar: True is refused, not read as 1.

def test_from_rows_refuses_a_bool():
    with pytest.raises(ValueError, match="^True is not an integer$"):
        IntMat.from_rows([[True]])
    assert IntMat.from_rows([[1]]).rows == ((1,),)


def test_intmat_scale_refuses_a_bool():
    with pytest.raises(ValueError, match="^True is not an integer$"):
        IntMat.identity(2).scale(True)
    assert IntMat.identity(2).scale(1) == IntMat.identity(2)


def test_abhom_scale_refuses_a_bool():
    hom = AbHom.identity(FgAbGroup(2).orders)
    with pytest.raises(ValueError, match="^True is not an integer$"):
        hom.scale(True)
    assert hom.scale(1) == hom


def test_abhom_combination_refuses_a_bool_coefficient():
    hom = AbHom.identity(FgAbGroup(2).orders)
    with pytest.raises(ValueError, match="^True is not an integer$"):
        AbHom.combination(hom.dom_orders, hom.cod_orders, [(hom, True)])
    assert AbHom.combination(hom.dom_orders, hom.cod_orders,
                             [(hom, 1)]) == hom


# The checking constructors are the boundary for data from outside; the
# package's own arithmetic skips them.  These refusals must stay.

def test_from_rows_refuses_a_half():
    with pytest.raises(ValueError, match="not an integer"):
        IntMat.from_rows([[1, Fraction(1, 2)]])


def test_of_groups_refuses_an_ill_defined_torsion_column():
    # A generator of order 2 sent to 1 in Z/4: twice it is 2, not 0.
    with pytest.raises(ValueError, match="column 0 is not well defined"):
        AbHom.of_groups(FgAbGroup(0, [2]), FgAbGroup(0, [4]), [[1]])
    assert AbHom.of_groups(FgAbGroup(0, [2]), FgAbGroup(0, [4]),
                           [[6]]).mat.rows == ((2,),)


@pytest.mark.parametrize("a, b, c", [(0, 2, 3), (2, 0, 3), (3, 2, 0),
                                     (0, 0, 0), (1, 0, 1)])
def test_products_with_empty_sides(a, b, c):
    m = IntMat.from_rows([[i + j for j in range(b)] for i in range(c)], b)
    k = IntMat.from_rows([[i - j for j in range(a)] for i in range(b)], a)
    got = m @ k
    assert (got.nrows, got.ncols) == (c, a)
    if b == 0:
        assert got.rows == ((0,) * a,) * c
    assert got == IntMat(c, a, [[sum(m.rows[i][t] * k.rows[t][j]
                                     for t in range(b)) for j in range(a)]
                                for i in range(c)])
    assert m.columns() == tuple(tuple(row[j] for row in m.rows)
                                for j in range(b))


@pytest.mark.parametrize("a, b, c, d", [(2, 3, 3, 2), (0, 2, 2, 1),
                                        (2, 0, 1, 2), (1, 2, 0, 0)])
def test_kron_matches_its_entry_formula(a, b, c, d):
    m = IntMat.from_rows([[i - 2 * j for j in range(b)] for i in range(a)], b)
    k = IntMat.from_rows([[3 * i + j for j in range(d)] for i in range(c)], d)
    assert m.kron(k) == IntMat(a * c, b * d, [
        [m.rows[i1][j1] * k.rows[i2][j2] for j1 in range(b) for j2 in range(d)]
        for i1 in range(a) for i2 in range(c)])
