import json
import math
import os
import sys
import time
from fractions import Fraction

import pytest

from mazelab.cli import main
from mazelab.functor_lab import LabyModulePresentation, tensor_power_functor
from mazelab.labycat import Maze, MazeHom, Passage, quadratic_generators
from mazelab.msetcat import MultHom, Multation, mset2_generators
from mazelab.multisets import MultiSet

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fx(name):
    return os.path.join(FIXTURES, name)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compose_laby_n_table_cell(capsys):
    code, out, _ = run(capsys, "compose", "--category", "laby_n",
                       "--degree", "2", fx("A.json"), fx("B.json"))
    assert code == 0
    hom = MazeHom.from_json(json.loads(out))
    gens = quadratic_generators()
    assert hom == MazeHom.of(gens["I2"]) + MazeHom.of(gens["S"])


def test_compose_mset(capsys):
    code, out, _ = run(capsys, "compose", "--category", "mset",
                       fx("alpha.json"), fx("beta.json"))
    assert code == 0
    hom = MultHom.from_json(json.loads(out))
    i12 = Multation.identity(MultiSet(["1", "2"]))
    sigma = mset2_generators()["sigma"]
    assert hom == MultHom.from_terms(i12.dom, i12.cod,
                                     [(i12, 1), (sigma, 1)])


def test_compose_laby_seven_terms(capsys):
    code, out, _ = run(capsys, "compose", "--category", "laby",
                       fx("P.json"), fx("Q.json"))
    assert code == 0
    hom = MazeHom.from_json(json.loads(out))
    assert len(hom.comb) == 7
    assert sorted(m.size for m, _ in hom.comb) == [2, 2, 3, 3, 3, 3, 4]


def test_compose_domain_mismatch_exit_code(capsys):
    code, _, err = run(capsys, "compose", "--category", "laby",
                       fx("A.json"), fx("A.json"))
    assert code == 3
    assert "shape error" in err


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "compose", "--category", "laby",
                       str(bad), str(bad))
    assert code == 2
    assert "parse error" in err


@pytest.mark.parametrize("data", [
    # The columns do not reproduce the codomain.
    {"dom": [["a", 1]], "cod": [["b", 2]], "pairs": [[["a", "b"], 1]]},
    # A column names an element that is not a string.
    {"dom": [["a", 1]], "cod": [["b", 1]], "pairs": [[[1, "b"], 1]]},
    # Column names of two types cannot be sorted together.
    {"dom": [["a", 2]], "cod": [["b", 2]],
     "pairs": [[[1, "b"], 1], [["a", "b"], 1]]},
    {"dom": [["", 1]], "cod": [["b", 1]], "pairs": [[["", "b"], 1]]},
    {"dom": [["a", 1]], "cod": [["b", 1]], "pairs": [[["a", "b"], 0]]},
])
def test_malformed_multation_exit_code(tmp_path, capsys, data):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, _, err = run(capsys, "compose", "--category", "mset",
                       str(bad), fx("alpha.json"))
    assert code == 2
    assert "malformed multation data" in err


def test_enumeration_limit_exit_code(tmp_path, capsys):
    fat1 = tmp_path / "fat1.json"
    fat1.write_text(json.dumps({
        "dom": ["x"], "cod": ["y"],
        "passages": [[["x", "y", "1"], 10]],
    }))
    fat2 = tmp_path / "fat2.json"
    fat2.write_text(json.dumps({
        "dom": ["y"], "cod": ["z"],
        "passages": [[["y", "z", "1"], 10]],
    }))
    code, _, err = run(capsys, "compose", "--category", "laby",
                       str(fat2), str(fat1))
    assert code == 4
    assert "resource limit" in err


def _loop(tmp_path, k):
    path = tmp_path / f"loop{k}.json"
    path.write_text(json.dumps({
        "dom": ["1"], "cod": ["1"], "passages": [[["1", "1", "1"], k]],
    }))
    return str(path)


def test_enumeration_limit_names_the_operation_and_sizes(tmp_path, capsys):
    # Loop x7 after itself: its covering subsets are the 7 x 7 0/1
    # matrices with no zero row or column, counted before any is listed.
    loop = _loop(tmp_path, 7)
    code, out, err = run(capsys, "compose", "--category", "laby", loop, loop)
    assert (code, out) == (4, "")
    assert err == ("resource limit: maze_compose (7 passages after 7): an "
                   "estimated 505874809287625 items exceed the guard of "
                   "1048576\n")


def test_covering_budget_trip_names_the_passage_counts(tmp_path, capsys,
                                                       monkeypatch):
    # Under a stand-in limit of 100, loop x3 after itself is refused on
    # its 265 covering subsets, the 3 x 3 covering matrices.
    from mazelab import multisets

    monkeypatch.setattr(multisets, "ENUM_LIMIT", 100)
    loop = _loop(tmp_path, 3)
    code, out, err = run(capsys, "compose", "--category", "laby", loop, loop)
    assert (code, out) == (4, "")
    assert err == ("resource limit: maze_compose (3 passages after 3): an "
                   "estimated 265 items exceed the guard of 100\n")


def test_numerical_expansion_is_guarded_before_the_work(tmp_path, capsys):
    # One passage labelled -1 expands over C(n, 1) = n compositions in
    # all; the guard sees that whole count, not one total at a time.
    path = tmp_path / "minus_one.json"
    path.write_text(json.dumps({
        "dom": ["x"], "cod": ["y"], "passages": [[["x", "y", "-1"], 1]],
    }))
    code, out, err = run(capsys, "normalize", "--degree", "2000000",
                         str(path))
    assert (code, out) == (4, "")
    assert err == ("resource limit: normalize_numerical (1 passages, degree "
                   "2000000): an estimated 2000000 items exceed the guard "
                   "of 1048576\n")


def test_homogeneous_normal_form_of_a_double_loop_is_quick(capsys):
    # The double loop goes to the loop repeated `degree` times, with
    # coefficient surj(degree, 2) / degree!: the maps of degree points
    # onto two, over their orderings.  At degree 10^8 the guard refuses
    # before listing it.
    start = time.perf_counter()
    for degree in (15, 25, 300):
        code, out, _ = run(capsys, "normalize", "--kind", "homogeneous",
                           "--degree", str(degree), fx("C.json"))
        assert code == 0
        loop = Maze(("1",), ("1",), [(Passage("1", "1", 1), degree)])
        assert MazeHom.from_json(json.loads(out)) == MazeHom.of(
            loop, Fraction(2**degree - 2, math.factorial(degree)))
    code, out, err = run(capsys, "normalize", "--kind", "homogeneous",
                         "--degree", str(10**8), fx("C.json"))
    assert time.perf_counter() - start < 1
    assert (code, out) == (4, "")
    # One term of one passage, and the weight surj(10^8, 2) / (10^8)!: a
    # gcd with (10^8)!, charged 10^8 * 27 for its bits, and three powers
    # of at most as many bits, charged 3 / 64 of that.
    assert err == ("resource limit: normalize_homogeneous (1 mazes to "
                   "expand, degree 100000000): an estimated "
                   f"{1 + 10**8 * 27 * 67 // 64} items exceed the guard "
                   "of 1048576\n")


def test_homogeneous_normal_form_of_many_passages_is_listed(tmp_path,
                                                            capsys):
    # Twenty distinct passages, x_i -> y_j for 4 points by 5, at degree
    # 24: C(23, 19) = 8855 terms of twenty passages each, well inside the
    # guard, though the terms' coefficients are products of surjection
    # counts.
    path = tmp_path / "k45.json"
    path.write_text(json.dumps({
        "dom": [f"x{i}" for i in range(4)],
        "cod": [f"y{j}" for j in range(5)],
        "passages": [[[f"x{i}", f"y{j}", "1"], 1]
                     for i in range(4) for j in range(5)],
    }))
    code, out, err = run(capsys, "normalize", "--kind", "homogeneous",
                         "--degree", "24", str(path))
    assert (code, err) == (0, "")
    normal = MazeHom.from_json(json.loads(out))
    assert len(normal.comb) == 8855
    # Five more passages on one of them: surj(5, 1) / 5! = 1 / 120.
    assert dict(normal.comb)[Maze(
        [f"x{i}" for i in range(4)], [f"y{j}" for j in range(5)],
        [(Passage(f"x{i}", f"y{j}", 1), 5 if (i, j) == (0, 0) else 1)
         for i in range(4) for j in range(5)])] == Fraction(1, 120)


@pytest.mark.parametrize("fmt", ["json", "pretty"])
def test_a_number_too_long_to_print_is_a_resource_limit(tmp_path, capsys,
                                                        fmt):
    # The label 10^4000 parses, but its expansion at degree 3 has
    # coefficients C(10^4000, d) of up to 12000 digits, and the double
    # loop's coefficient at degree 1600 a denominator of about 4430
    # digits: both pass the interpreter's limit for printing an int.
    path = tmp_path / "long_label.json"
    path.write_text(json.dumps({
        "dom": ["x"], "cod": ["y"],
        "passages": [[["x", "y", str(10**4000)], 1]],
    }))
    for kind, degree, arrow in (("numerical", "3", str(path)),
                                ("homogeneous", "1600", fx("C.json"))):
        code, out, err = run(capsys, "normalize", "--kind", kind,
                             "--degree", degree, "--format", fmt, arrow)
        assert (code, out) == (4, "")
        assert err == ("resource limit: normalize: a number passes the "
                       "interpreter's limit of "
                       f"{sys.get_int_max_str_digits()} digits\n")


def test_numerical_expansion_guard_takes_the_smaller_bound(tmp_path,
                                                          capsys):
    # Capped at the label, passages labelled 10^7 list at most 10^7 terms
    # each, fewer than C(10^8, 2); uncapped -1 labels list at most
    # C(n, k), fewer than n^k.  Either way the guard refuses at once.
    for label, k, degree, estimate in (("10000000", 2, 10**8, 10**14),
                                       ("-1", 3, 2000, math.comb(2000, 3))):
        path = tmp_path / "labelled.json"
        cod = ["y", "z", "w"][:k]
        path.write_text(json.dumps({
            "dom": ["x"], "cod": cod,
            "passages": [[["x", y, label], 1] for y in cod],
        }))
        start = time.perf_counter()
        code, out, err = run(capsys, "normalize", "--degree", str(degree),
                             str(path))
        assert time.perf_counter() - start < 1
        assert (code, out) == (4, "")
        assert err == (f"resource limit: normalize_numerical ({k} passages, "
                       f"degree {degree}): an estimated {estimate} items "
                       "exceed the guard of 1048576\n")


def test_homogeneous_normal_form_of_zero_ignores_the_degree(tmp_path,
                                                            capsys):
    # Nothing is left below the degree, so a huge degree costs nothing.
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"dom": [], "cod": [], "passages": []}))
    zero = tmp_path / "zero_label.json"
    zero.write_text(json.dumps({
        "dom": ["x"], "cod": ["y"], "passages": [[["x", "y", "0"], 1]],
    }))
    for path in (empty, zero):
        small = run(capsys, "normalize", "--kind", "homogeneous",
                    "--degree", "3", str(path))
        huge = run(capsys, "normalize", "--kind", "homogeneous",
                   "--degree", str(10**8), str(path))
        assert small[0] == 0
        assert huge == small


def test_normalize(capsys):
    code, out, _ = run(capsys, "normalize", "--kind", "numerical",
                       "--degree", "3", fx("parallel21.json"))
    assert code == 0
    hom = MazeHom.from_json(json.loads(out))
    from mazelab.labycat import Passage

    double = Maze(("x",), ("y",), [(Passage("x", "y", 1), 2)])
    triple = Maze(("x",), ("y",), [(Passage("x", "y", 1), 3)])
    assert hom == MazeHom.from_terms(("x",), ("y",),
                                     [(double, 2), (triple, 1)])


def test_ariadne_and_theseus(capsys):
    code, out, _ = run(capsys, "ariadne", "--degree", "2", fx("C.json"))
    assert code == 0
    data = json.loads(out)
    assert len(data["entries"]) == 1
    hom = MultHom.from_json(data["entries"][0][2])
    iota11 = Multation.identity(MultiSet(["1", "1"]))
    assert hom == MultHom.of(iota11, 2)

    code, out, _ = run(capsys, "theseus", "--degree", "2", fx("alpha.json"))
    assert code == 0
    hom = MazeHom.from_json(json.loads(out))
    assert hom == MazeHom.of(quadratic_generators()["A"])


def test_ariadne_lists_passages_not_instances(capsys):
    # A loop repeated five times at degree 200 is one term weighted by the
    # surjections of 200 points onto 5; listed per instance it was C(199,
    # 4) = 63391251 terms, past the guard.
    code, out, err = run(capsys, "ariadne", "--degree", "200",
                         fx("loop5.json"))
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert len(data["entries"]) == 1
    hom = MultHom.from_json(data["entries"][0][2])
    loop = Multation.identity(MultiSet([("1", 200)]))
    surj = sum((-1)**j * math.comb(5, j) * (5 - j)**200 for j in range(6))
    assert hom == MultHom.of(loop, surj)


def test_xi(capsys):
    code, out, _ = run(capsys, "xi", fx("corr_double.json"))
    assert code == 0
    maze = Maze.from_json(json.loads(out))
    from mazelab.labycat import Passage

    assert maze == Maze(("x",), ("y",), [(Passage("x", "y", 1), 2)])
    # and back
    code, out2, _ = run(capsys, "xi", "--inverse", fx("C.json"))
    assert code == 0
    span = json.loads(out2)
    assert len(span["middle"]) == 2


def test_tables(capsys):
    code, out, _ = run(capsys, "tables", "--degree", "2")
    assert code == 0
    assert "I+S" in out
    assert "2A" in out
    assert "2B" in out
    assert "2C" in out
    assert "--" in out
    assert "i+s" in out
    assert "2i" in out


def test_tables_wrong_degree(capsys):
    code, _, err = run(capsys, "tables", "--degree", "3")
    assert code == 2


def test_eval_laby_frobenius(capsys):
    code, out, _ = run(capsys, "eval", "--kind", "laby",
                       fx("frobenius_laby.json"), fx("m3.json"))
    assert code == 0
    data = json.loads(out)
    assert data["matrix"] == [[1]]
    assert data["cod_orders"] == [2]
    assert data["dom_blocks"] == [[], [1]]


def test_eval_laby_identity(capsys):
    code, out, _ = run(capsys, "eval", "--kind", "laby",
                       fx("identity_laby.json"), fx("m22.json"))
    assert code == 0
    data = json.loads(out)
    assert data["matrix"] == [[1, 2], [0, 1]]


def test_eval_mset_square(capsys):
    code, out, _ = run(capsys, "eval", "--kind", "mset",
                       fx("square_mset.json"), fx("m3.json"))
    assert code == 0
    data = json.loads(out)
    assert data["matrix"] == [[9]]


def test_verify_suite(capsys):
    code, out, _ = run(capsys, "verify", "tables")
    assert code == 0
    assert "table1: pass" in out
    assert "table2: pass" in out


def test_verify_lemmas(capsys):
    code, out, _ = run(capsys, "verify", "lemmas", "--seed", "3",
                       "--trials", "40")
    assert code == 0
    assert "counting_lemmas: pass" in out


def test_deterministic_output(capsys):
    _, first, _ = run(capsys, "compose", "--category", "laby_n",
                      "--degree", "2", fx("A.json"), fx("B.json"))
    _, second, _ = run(capsys, "compose", "--category", "laby_n",
                       "--degree", "2", fx("A.json"), fx("B.json"))
    assert first == second


def test_pretty_format(capsys):
    code, out, _ = run(capsys, "compose", "--category", "laby_n",
                       "--degree", "2", "--format", "pretty",
                       fx("A.json"), fx("B.json"))
    assert code == 0
    assert "-(1)->" in out
    code, out, _ = run(capsys, "compose", "--category", "mset",
                       "--format", "pretty", fx("alpha.json"), fx("beta.json"))
    assert code == 0
    assert "[1 2]" in out


def test_normalize_homogeneous_rational_output(capsys):
    code, out, _ = run(capsys, "normalize", "--kind", "homogeneous",
                       "--degree", "3", fx("C.json"))
    assert code == 0
    hom = MazeHom.from_json(json.loads(out))
    assert all(maze.size == 3 for maze, _ in hom.comb)


def test_verify_reports_failures(capsys, monkeypatch):
    from mazelab import verify as verify_mod

    monkeypatch.setitem(verify_mod._CHECKS, "table1",
                        lambda seed, trials: ("table1", False, "forced"))
    code, out, _ = run(capsys, "verify", "tables")
    assert code == 1
    assert "table1: FAIL (forced)" in out


@pytest.mark.parametrize("trials, made", [(None, 20), (1, 1), (3, 3)])
def test_verify_trials_reach_phi_roundtrip(monkeypatch, trials, made):
    from mazelab import verify as verify_mod

    built = []
    real = verify_mod.random_quadratic_presentation

    def counted(rng):
        built.append(1)
        return real(rng)

    monkeypatch.setattr(verify_mod, "random_quadratic_presentation", counted)
    results = verify_mod.run_suite("roundtrip", trials=trials)
    assert all(ok for _, ok, _ in results)
    assert len(built) == made


def test_fixture_roundtrips():
    # parse then print is the identity on every shipped fixture
    from mazelab.bridge import Correspondence
    from mazelab.functor_lab import (
        LabyModulePresentation,
        MSetModulePresentation,
    )

    loaders = {
        "A.json": Maze, "B.json": Maze, "C.json": Maze, "S.json": Maze,
        "P.json": Maze, "Q.json": Maze, "parallel21.json": Maze,
        "alpha.json": Multation, "beta.json": Multation,
        "sigma.json": Multation,
        "frobenius_laby.json": LabyModulePresentation,
        "identity_laby.json": LabyModulePresentation,
        "square_mset.json": MSetModulePresentation,
        "frobenius_mset.json": MSetModulePresentation,
        "corr_double.json": Correspondence,
    }
    for name, cls in loaders.items():
        with open(fx(name)) as fh:
            data = json.load(fh)
        obj = cls.from_json(data)
        again = cls.from_json(obj.to_json())
        if hasattr(obj, "table"):
            assert again.table == obj.table, name
        else:
            assert again == obj, name


DEAD_END = {"dom": ["x", "w"], "cod": ["y"],
            "passages": [[["x", "y", "1"], 1]]}
THREE_TO_ONE = {"dom": ["1", "2", "3"], "cod": ["1"],
                "passages": [[[x, "1", "1"], 1] for x in "123"]}


def edited_fixture(name, edit):
    """A shipped fixture's JSON after the in-place change `edit`."""
    with open(fx(name)) as fh:
        data = json.load(fh)
    edit(data)
    return data


BAD_INPUTS = {
    "dead_end.json": DEAD_END,
    "unreached.json": {"dom": ["y"], "cod": ["z", "v"],
                       "passages": [[["y", "z", "1"], 1]]},
    "outside.json": {"dom": ["x"], "cod": ["y"],
                     "passages": [[["x", "y", "1"], 1], [["x", "q", "1"], 1]]},
    "dead_term.json": {"dom": ["x", "w"], "cod": ["y"],
                       "terms": [["2", DEAD_END]]},
    "zero_denominator.json": {"dom": ["x"], "cod": ["y"],
                              "passages": [[["x", "y", "1/0"], 1]]},
    "zero_coefficient.json": {"dom": [["1", 2]], "cod": [["1", 2]],
                              "terms": [["1/0", {"dom": [["1", 2]],
                                                 "cod": [["1", 2]],
                                                 "pairs": [[["1", "1"], 2]]}]]},
    "fractional_passage.json": {"dom": ["x"], "cod": ["y"],
                                "passages": [[["x", "y", "1"], 1.5]]},
    "string_passage.json": {"dom": ["x"], "cod": ["y"],
                            "passages": [[["x", "y", "1"], "2"]]},
    "bool_passage.json": {"dom": ["x"], "cod": ["y"],
                          "passages": [[["x", "y", "1"], True]]},
    "float_pair.json": {"dom": [["1", 2]], "cod": [["1", 2]],
                        "pairs": [[["1", "1"], 2.0]]},
    "fractional_multiset.json": {"dom": [["1", 1.5]], "cod": [["1", 1]],
                                 "pairs": [[["1", "1"], 1]]},
    "fractional_matrix.json": [[1.5, 0], [0, 1]],
    "bool_matrix.json": [[True]],
    "string_matrix.json": [["3"]],
    "wide_matrix.json": [[1, 0, 0, 0]],
    "fractional_rank.json": edited_fixture(
        "frobenius_laby.json", lambda d: d["groups"][1].update(rank=1.5)),
    "float_torsion.json": edited_fixture(
        "frobenius_laby.json", lambda d: d["groups"][1].update(torsion=[2.0])),
    "string_degree.json": edited_fixture(
        "frobenius_laby.json", lambda d: d.update(degree="2")),
    "fractional_entry.json": edited_fixture(
        "frobenius_laby.json", lambda d: d["homs"][1].update(matrix=[[1.5]])),
    "oversized_maze.json": edited_fixture(
        "frobenius_laby.json",
        lambda d: d["homs"].append({"maze": THREE_TO_ONE, "matrix": []})),
    "foreign_names.json": edited_fixture(
        "identity_laby.json",
        lambda d: d["homs"].append({"maze": Maze.identity(["a"]).to_json(),
                                    "matrix": [[1]]})),
    "mset_float_degree.json": edited_fixture(
        "square_mset.json", lambda d: d.update(degree=2.0)),
    "mset_bool_entry.json": edited_fixture(
        "square_mset.json",
        lambda d: d["homs"][0].update(matrix=[[True, 0], [0, 1]])),
    # A string universe used to be read letter by letter.
    "mset_string_universe.json": edited_fixture(
        "square_mset.json", lambda d: d.update(universe="12")),
    "mset_ragged_entry.json": edited_fixture(
        "square_mset.json",
        lambda d: d["homs"][0].update(matrix=[[1, 0], [0]])),
    "laby_misshaped_entry.json": edited_fixture(
        "frobenius_laby.json",
        lambda d: d["homs"][1].update(matrix=[[1, 0]])),
    # The carrier of {1,1} becomes Z/2, so the stored [[1], [1]] of the
    # multation {1,1} -> {1,2} sends an order-2 generator into Z^2.
    "mset_ill_defined_column.json": edited_fixture(
        "square_mset.json",
        lambda d: d["groups"][1].update(rank=0, torsion=[2])),
}


@pytest.mark.parametrize("maze", [Maze.identity(["1"]).relabel_all(2),
                                  Maze.identity(["a"])])
def test_eval_names_a_stored_maze_outside_the_basis(tmp_path, capsys, maze):
    module = tmp_path / "module.json"
    module.write_text(json.dumps(edited_fixture(
        "frobenius_laby.json",
        lambda d: d["homs"].append({"maze": maze.to_json(),
                                    "matrix": [[1]]}))))
    code, out, err = run(capsys, "eval", "--kind", "laby", str(module),
                         fx("m3.json"))
    assert (code, out) == (2, "")
    assert err.startswith("parse error: ") and repr(maze) in err


@pytest.mark.parametrize("name", ["A", "B"])
def test_eval_refuses_a_table_lacking_a_basis_value(tmp_path, capsys, name):
    # No stored composite reaches A or B, so only the value scan names it.
    h = LabyModulePresentation.from_functor(tensor_power_functor(2), 2)
    maze = quadratic_generators()[name]
    data = h.to_json()
    data["homs"] = [x for x in data["homs"]
                    if Maze.from_json(x["maze"]) != maze]
    module = tmp_path / "module.json"
    module.write_text(json.dumps(data))
    code, out, err = run(capsys, "eval", "--kind", "laby", str(module),
                         fx("m3.json"))
    assert (code, out) == (2, "")
    assert "lacks a value" in err and repr(maze) in err


@pytest.mark.parametrize("argv", [
    ["compose", "{unreached.json}", "{dead_end.json}"],
    ["compose", "--category", "laby_n", "-n", "2", "A.json",
     "{outside.json}"],
    ["compose", "--category", "laby_hom", "-n", "2", "{dead_term.json}",
     "A.json"],
    ["normalize", "-n", "2", "{dead_end.json}"],
    ["ariadne", "-n", "2", "{dead_end.json}"],
    ["ariadne", "-n", "2", "{dead_term.json}"],
    ["xi", "--inverse", "{dead_end.json}"],
    ["xi", "--inverse", "parallel21.json"],
    ["normalize", "-n", "2", "{zero_denominator.json}"],
    ["xi", "--inverse", "{zero_denominator.json}"],
    ["theseus", "-n", "2", "{zero_coefficient.json}"],
    ["normalize", "-n", "-1", "C.json"],
    ["normalize", "--kind", "homogeneous", "-n", "-2", "C.json"],
    ["compose", "--category", "laby_n", "-n", "-1", "A.json", "B.json"],
    ["ariadne", "-n", "-1", "C.json"],
    ["theseus", "-n", "-1", "alpha.json"],
    ["tables", "-n", "-1"],
    ["normalize", "-n", "2", "{fractional_passage.json}"],
    ["compose", "--category", "laby_n", "-n", "2", "{string_passage.json}",
     "{string_passage.json}"],
    ["xi", "--inverse", "{bool_passage.json}"],
    ["theseus", "-n", "2", "{float_pair.json}"],
    ["compose", "--category", "mset", "{fractional_multiset.json}",
     "{fractional_multiset.json}"],
    ["eval", "--kind", "laby", "identity_laby.json",
     "{fractional_matrix.json}"],
    ["eval", "--kind", "mset", "square_mset.json", "{bool_matrix.json}"],
    ["eval", "--kind", "laby", "identity_laby.json", "{string_matrix.json}"],
    ["eval", "--kind", "laby", "identity_laby.json", "{wide_matrix.json}"],
    ["eval", "--kind", "laby", "{fractional_rank.json}", "m3.json"],
    ["eval", "--kind", "laby", "{float_torsion.json}", "m3.json"],
    ["eval", "--kind", "laby", "{string_degree.json}", "m3.json"],
    ["eval", "--kind", "laby", "{fractional_entry.json}", "m3.json"],
    ["eval", "--kind", "laby", "{oversized_maze.json}", "m3.json"],
    ["eval", "--kind", "laby", "{foreign_names.json}", "m3.json"],
    ["eval", "--kind", "mset", "{mset_float_degree.json}", "m22.json"],
    ["eval", "--kind", "mset", "{mset_bool_entry.json}", "m22.json"],
    ["eval", "--kind", "mset", "{mset_string_universe.json}", "m22.json"],
    ["eval", "--kind", "mset", "{mset_ragged_entry.json}", "m22.json"],
    ["eval", "--kind", "laby", "{laby_misshaped_entry.json}", "m3.json"],
    ["verify", "lemmas", "--trials", "-3"],
    ["eval", "--kind", "mset", "{mset_ill_defined_column.json}", "m22.json"],
])
def test_invalid_input_is_a_parse_error(tmp_path, capsys, argv):
    for name, data in BAD_INPUTS.items():
        (tmp_path / name).write_text(json.dumps(data))
    real = [str(tmp_path / a[1:-1]) if a.startswith("{")
            else fx(a) if a.endswith(".json") else a for a in argv]
    code, out, err = run(capsys, *real)
    assert (code, out) == (2, "")
    assert err.startswith("parse error: ") and "Traceback" not in err
    # The error names the bad file, where one was given.
    bad = [r for a, r in zip(argv, real) if a.startswith("{")]
    assert not bad or any(path in err for path in bad)


@pytest.mark.parametrize("name", [1, ""])
@pytest.mark.parametrize("argv", [["ariadne", "-n", "2"],
                                  ["normalize", "-n", "2"],
                                  ["compose"], ["xi", "--inverse"]])
def test_a_maze_name_not_a_nonempty_string_is_a_parse_error(
        tmp_path, capsys, argv, name):
    # A pure loop composes with itself and has no dead end: only its name
    # is wrong.  A multation names its letters by the maze's names, so
    # ariadne once failed with a traceback here, and the other commands
    # answered.
    path = tmp_path / "bad_name.json"
    path.write_text(json.dumps({"dom": [name], "cod": [name],
                                "passages": [[[name, name, "1"], 1]]}))
    files = [str(path)] * (2 if argv == ["compose"] else 1)
    code, out, err = run(capsys, *argv, *files)
    assert (code, out) == (2, "")
    assert err == f"parse error: {path}: invalid element name {name!r}\n"
