"""Presentation.fill: a table derived from its generators' values.

Both sides inherit one fill, which reads the span walk of the side's
structure constants: the identities map to identities, and each row x =
e (g . y - the other terms) gives hom(x) = e (hom(g) hom(y) - theirs).
The maze side's builders, from_functor and quadratic, store only the
generators' values and fill the rest; here every fixture and the tensor
powers, cut to their generators' values, fill back to the same table on
both sides.
"""

import json
import os
import re

import pytest

from mazelab import functor_lab
from mazelab.functor_lab import (LabyModulePresentation,
                                 MSetModulePresentation, phi_inverse_eval,
                                 psi_inverse_eval, tensor_power_functor)
from mazelab.labycat import laby_structure_constants, reset_laby_constants
from mazelab.matrices import IntMat
from mazelab.msetcat import mset_structure_constants
from mazelab.scalars import StructureConstants

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def load(cls, name):
    with open(os.path.join(FIXTURES, name)) as fh:
        data = json.load(fh)
    return data, cls.from_json(data)


def like(h, table):
    """A presentation on h's side, degree and carriers with this table,
    unchecked."""
    if isinstance(h, MSetModulePresentation):
        return MSetModulePresentation(h.degree, h.universe, h.groups, table,
                                      check=False)
    return LabyModulePresentation(h.degree, h.groups, table, check=False)


def cut(h, drop=None):
    """h cut to its generators' values, without drop's."""
    return like(h, {g: h.hom(g) for g in h.generators() if g != drop})


@pytest.mark.parametrize("cls, name, given", [
    (LabyModulePresentation, "frobenius_laby.json", 3),
    (LabyModulePresentation, "identity_laby.json", 3),
    (MSetModulePresentation, "frobenius_mset.json", 6),
    (MSetModulePresentation, "square_mset.json", 6)])
def test_a_fixture_cut_to_its_generators_fills_back(cls, name, given):
    data, h = load(cls, name)
    filled = cut(h)
    assert len(filled.table) == given
    filled.fill()
    assert json.dumps(filled.to_json(), sort_keys=True) == json.dumps(
        data, sort_keys=True)
    filled.check()


@pytest.mark.parametrize("n, letters, given, filled", [
    (2, "12", 6, 10), (2, "123", 16, 45), (3, "123", 40, 165)])
def test_tensor_power_cut_to_its_divided_powers_fills_back(
        n, letters, given, filled):
    j = MSetModulePresentation.tensor_power(n, letters)
    h = cut(j)
    assert len(h.table) == given
    h.fill()
    assert len(h.table) == filled
    assert h.table == j.table


@pytest.mark.parametrize("source, evaluate", [
    (lambda: LabyModulePresentation.from_functor(tensor_power_functor(2), 2),
     phi_inverse_eval),
    (lambda: MSetModulePresentation.tensor_power(2, "12"), psi_inverse_eval),
], ids=["laby", "mset"])
def test_a_fill_after_the_index_is_read_leaves_it_current(source, evaluate):
    # An index read before the fill must not keep the values missing then.
    j = source()
    h = cut(j)
    arrows = h.constants().arrows
    for ends in arrows:
        h.hom_set(*ends)
    h.fill()
    h.check()
    for ends, xs in arrows.items():
        assert h.hom_set(*ends).values == [j.table[x] for x in xs]
    m = IntMat.from_rows([[2, -1], [1, 3]])
    assert evaluate(h, m) == evaluate(j, m)


PRESENTATIONS = [
    ("frobenius_laby.json",
     load(LabyModulePresentation, "frobenius_laby.json")[1]),
    ("tensor^3 degree 3",
     LabyModulePresentation.from_functor(tensor_power_functor(3), 3)),
    ("frobenius_mset.json",
     load(MSetModulePresentation, "frobenius_mset.json")[1]),
    ("tensor_power(2, 123)", MSetModulePresentation.tensor_power(2, "123"))]


@pytest.mark.parametrize("name, h", PRESENTATIONS,
                         ids=[name for name, _ in PRESENTATIONS])
def test_a_missing_generator_value_raises_the_checks_key_error(name, h):
    for g in h.generators():
        with pytest.raises(KeyError) as filled:
            cut(h, drop=g).fill()
        with pytest.raises(KeyError) as checked:
            like(h, {x: v for x, v in h.table.items() if x != g}).check()
        assert str(filled.value) == str(checked.value) == repr(
            f"presentation lacks a value for {g!r}")


def test_the_multation_side_names_an_unspanned_hom_set(monkeypatch):
    # Over two letters in degree 2, e^(1) e^(1) = 2 e^(2): without the
    # divided square the words do not reach {1,1} -> {2,2} over Z.
    j = MSetModulePresentation.tensor_power(2, "12")
    units = tuple(mu for mu in j.generators()
                  if all(t == 1 for (x, y), t in mu.pairs if x != y))
    monkeypatch.setattr(functor_lab, "divided_powers", lambda *_: units)
    with pytest.raises(ValueError, match=re.escape(
            "the divided powers leave the hom-set {1,1} -> {2,2} "
            "unspanned")):
        cut(j).fill()


def test_a_second_fill_with_the_same_generators_walks_nothing(monkeypatch):
    sources = [LabyModulePresentation.from_functor(tensor_power_functor(3),
                                                   3),
               MSetModulePresentation.tensor_power(3, "123")]
    reset_laby_constants()
    mset_structure_constants.cache_clear()
    # Clearing the constants drops the walks kept beside their columns.
    assert laby_structure_constants(3).spans == {}
    assert mset_structure_constants(("1", "2", "3"), 3).spans == {}
    asked, column = [], StructureConstants.column
    monkeypatch.setattr(StructureConstants, "column", lambda sc, *key: (
        asked.append(key) or column(sc, *key)))
    for h in sources:
        first, second = cut(h), cut(h)
        asked.clear()
        first.fill()
        assert asked
        assert list(h.constants().spans) == [tuple(h.generators())]
        asked.clear()
        second.fill()
        assert asked == []
        assert first.table == second.table == h.table
