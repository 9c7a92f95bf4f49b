"""Seeded mutations of every shipped fixture through the command line.

Each mutation makes one change at a random place in a fixture's JSON:
it deletes an entry, doubles a list entry or replaces a value with one
of a few small, odd or ill-typed values.  Every run of ``cli.main`` on a
mutated file must end with a documented exit code (0 done, 2 parse
error, 3 shape error, 4 resource limit) and never with a traceback.
"""

import copy
import json
import os
import random

import pytest

from mazelab.cli import main
from mazelab.multisets import MultiSet

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

# "{}" is the mutated file, "@" the fixture it came from and any other
# name ending in .json a fixture.  Plain composition takes the fixture as
# its second factor: a loop doubled by a mutation and composed with itself
# is a search of half a second.
MAZE_RUNS = (
    ["compose", "{}", "@"],
    ["compose", "--category", "laby_n", "-n", "2", "{}", "{}"],
    ["compose", "--category", "laby_hom", "-n", "2", "{}", "{}"],
    ["normalize", "-n", "2", "{}"],
    ["normalize", "--kind", "homogeneous", "-n", "2", "{}"],
    ["ariadne", "-n", "2", "{}"],
    ["xi", "--inverse", "{}"],
)
MULTATION_RUNS = (
    ["compose", "--category", "mset", "{}", "{}"],
    ["compose", "--category", "mset", "sigma.json", "{}"],
    ["theseus", "-n", "2", "{}"],
)
RUNS = {
    **{name: MAZE_RUNS for name in ("A.json", "B.json", "C.json", "P.json",
                                    "Q.json", "S.json", "parallel21.json")},
    **{name: MULTATION_RUNS for name in ("alpha.json", "beta.json",
                                         "sigma.json")},
    "corr_double.json": (["xi", "{}"],),
    "frobenius_laby.json": (["eval", "--kind", "laby", "{}", "m3.json"],),
    "identity_laby.json": (["eval", "--kind", "laby", "{}", "m22.json"],),
    "frobenius_mset.json": (["eval", "--kind", "mset", "{}", "m22.json"],),
    "square_mset.json": (["eval", "--kind", "mset", "{}", "m3.json"],),
    "m3.json": (["eval", "--kind", "laby", "identity_laby.json", "{}"],),
    "m22.json": (["eval", "--kind", "mset", "square_mset.json", "{}"],),
}
MUTATIONS_PER_FIXTURE = 12

REPLACEMENTS = (-1, 0, 1, 2, 3, "1", "2", "x", "", "1/2", "1/0", 1.5, True,
                None, [], {}, [["1", 1]])


def mutate(data, rng):
    """A copy of the JSON value with one seeded change."""
    data = copy.deepcopy(data)
    slots = []

    def walk(node):
        entries = (node.items() if isinstance(node, dict)
                   else enumerate(node) if isinstance(node, list) else ())
        for key, value in entries:
            slots.append((node, key))
            walk(value)

    walk(data)
    if not slots:
        return rng.choice(REPLACEMENTS)
    node, key = rng.choice(slots)
    change = rng.randrange(3)
    if change == 0:
        del node[key]
    elif change == 1 and isinstance(node, list):
        node.insert(key, copy.deepcopy(node[key]))
    else:
        node[key] = copy.deepcopy(rng.choice(REPLACEMENTS))
    return data


def cases():
    rng = random.Random(16)
    out = []
    for name in sorted(RUNS):
        with open(os.path.join(FIXTURES, name)) as fh:
            data = json.load(fh)
        for _ in range(MUTATIONS_PER_FIXTURE):
            out.append((name, mutate(data, rng), rng.choice(RUNS[name])))
    return out


def run_on(tmp_path, capsys, data, argv, name=None):
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(data))
    real = [str(path) if a == "{}" else os.path.join(FIXTURES, name)
            if a == "@" else os.path.join(FIXTURES, a)
            if a.endswith(".json") else a for a in argv]
    code = main(real)
    captured = capsys.readouterr()
    return code, captured.err


def test_mutated_fixtures_exit_with_a_documented_code(tmp_path, capsys):
    made = cases()
    assert len(made) == len(RUNS) * MUTATIONS_PER_FIXTURE
    codes = set()
    for name, data, argv in made:
        code, err = run_on(tmp_path, capsys, data, argv, name)
        assert code in (0, 2, 3, 4), (name, data, argv, code, err)
        assert "Traceback" not in err, (name, argv)
        codes.add(code)
    # The corpus reaches both successful runs and refusals.
    assert {0, 2} <= codes


@pytest.mark.parametrize("letters, pairs, with_carrier, named", [
    (["1"], [[["1", "1"], 1]], True, "carrier for {1} is not a multi-set"),
    (["3", "3"], [[["3", "3"], 2]], True,
     "carrier for {3,3} is not a multi-set"),
    (["3", "3"], [[["3", "3"], 2]], False, "does not join two carriers"),
], ids=["degree-1-carrier", "carrier-off-the-universe", "no-carrier"])
def test_an_mset_module_off_its_universe_and_degree_is_a_parse_error(
        tmp_path, capsys, letters, pairs, with_carrier, named):
    with open(os.path.join(FIXTURES, "square_mset.json")) as fh:
        data = json.load(fh)
    ends = MultiSet(letters).to_json()
    if with_carrier:
        data["groups"].append({"multiset": ends, "rank": 1, "torsion": []})
    data["homs"].append({"multation": {"dom": ends, "cod": ends,
                                       "pairs": pairs},
                         "matrix": [[7]]})
    code, err = run_on(tmp_path, capsys, data,
                       ["eval", "--kind", "mset", "{}", "m22.json"])
    assert code == 2
    assert err.startswith("parse error: ") and "mutated.json" in err
    assert named in err
