"""Golden capture of the command line.

For every subcommand except ``verify`` (which prints its own wall time),
on every shipped fixture it accepts, the exit code, stdout and stderr of
an in-process ``cli.main(argv)`` must match ``golden/cli.json`` byte for
byte.  Fixture paths are stored as ``<fixtures>/name.json`` so the file
holds no checkout location.

Regenerate, only when a change of output is intended, with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import functools
import io
import json
import os

import pytest

from mazelab.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")
GOLDEN = os.path.join(HERE, "golden", "cli.json")
TOKEN = "<fixtures>"

MAZES = ("A", "B", "C", "P", "Q", "S", "parallel21")
PURE_MAZES = ("A", "B", "C", "P", "Q", "S")
MULTATIONS = ("alpha", "beta", "sigma")
PRESENTATIONS = {"laby": ("frobenius_laby", "identity_laby"),
                 "mset": ("frobenius_mset", "square_mset")}
MATRICES = ("m3", "m22")


def fx(name):
    return f"{TOKEN}/{name}.json"


def composable(p, q):
    """Whether maze fixture p can follow maze fixture q."""
    def ends(name):
        with open(os.path.join(FIXTURES, f"{name}.json")) as fh:
            data = json.load(fh)
        return set(data["dom"]), set(data["cod"])
    return ends(p)[0] == ends(q)[1]


@functools.cache
def cases():
    """Every captured argv, grouped by subcommand."""
    out = {name: [] for name in
           ("compose", "normalize", "ariadne", "theseus", "xi", "tables",
            "eval")}
    for fmt in ("json", "pretty"):
        f = ["--format", fmt]
        for p in MAZES:
            for q in MAZES:
                out["compose"].append(
                    ["compose", "--category", "laby", *f, fx(p), fx(q)])
                # A mismatched pair fails before the degree matters.
                for cat in ("laby_n", "laby_hom"):
                    for n in ("2", "3")[:2 if composable(p, q) else 1]:
                        out["compose"].append(
                            ["compose", "--category", cat, "--degree", n, *f,
                             fx(p), fx(q)])
        for mu in MULTATIONS:
            for nu in MULTATIONS:
                out["compose"].append(
                    ["compose", "--category", "mset", *f, fx(mu), fx(nu)])
        for p in MAZES:
            for kind in ("numerical", "homogeneous"):
                for n in ("1", "2", "3", "4"):
                    out["normalize"].append(
                        ["normalize", "--kind", kind, "--degree", n, *f,
                         fx(p)])
            for n in ("2", "3"):
                out["ariadne"].append(["ariadne", "--degree", n, *f, fx(p)])
        for mu in MULTATIONS:
            for n in ("2", "3"):
                out["theseus"].append(["theseus", "--degree", n, *f, fx(mu)])
        out["xi"].append(["xi", *f, fx("corr_double")])
        for p in PURE_MAZES:
            out["xi"].append(["xi", "--inverse", *f, fx(p)])
    out["tables"] += [["tables"], ["tables", "--degree", "2"],
                      ["tables", "--degree", "3"]]
    for kind, modules in PRESENTATIONS.items():
        for module in modules:
            for m in MATRICES:
                out["eval"].append(
                    ["eval", "--kind", kind, fx(module), fx(m)])
    return out


def capture(argv):
    real = [a.replace(TOKEN, FIXTURES) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(real)
    return {"argv": argv, "code": code,
            "stdout": out.getvalue().replace(FIXTURES, TOKEN),
            "stderr": err.getvalue().replace(FIXTURES, TOKEN)}


@functools.cache
def _golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("command", sorted(cases()))
def test_cli_output_matches_golden(command):
    want = _golden()[command]
    got = [capture(argv) for argv in cases()[command]]
    assert [g["argv"] for g in got] == [w["argv"] for w in want]
    for g, w in zip(got, want):
        assert g == w, " ".join(g["argv"])


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({command: [capture(argv) for argv in argvs]
                   for command, argvs in cases().items()},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
