"""Tests of the benchmark itself (not of the package).

    python3 -m pytest -q mazebench/tests
"""

import io
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

COUNTS = ("calls", "terms_out", "distinct_ratio", "truncation_kept_ratio")


def _run(workload, seed, trace):
    log = io.StringIO()
    result = run.run(workload, seed, 0, trace, tiny=True, log=log)
    digest = next(line.split()[1] for line in log.getvalue().splitlines()
                  if line.startswith("pass0_digest "))
    return result, digest


def test_benchmark_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_workload_runs_tiny_with_every_check(workload):
    result, _ = _run(workload, 3, False)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert sorted(result["metrics"]) == \
        sorted(m["name"] for m in SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload",
                         ["laby-compose", "mset-translate", "present-3"])
def test_traced_counts_and_digest_repeat_for_a_seed(workload):
    first, digest1 = _run(workload, 5, True)
    second, digest2 = _run(workload, 5, True)
    assert digest1 == digest2
    assert sorted(first["metrics"]) == \
        sorted(m["name"] for m in SPEC["per_layer"])
    counts = [name for name in first["metrics"]
              if name.rsplit(".", 1)[1] in COUNTS]
    assert counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name
    if workload == "present-3":
        # The evaluations the workload itself makes are traced too.
        schedule = workloads.Present3(5, tiny=True).schedule
        for side, fn in (("laby", "phi_inverse_eval"),
                         ("mset", "psi_inverse_eval")):
            direct = sum(1 for _, s in schedule if s == side)
            assert direct > 0
            calls = first["metrics"][f"functor_lab.{fn}.calls"]["value"]
            assert calls >= direct


@pytest.mark.parametrize("trace", [False, True])
def test_failed_operations_are_counted_not_fatal(monkeypatch, trace):
    original = workloads.MSetTranslate.pass_ops

    def broken(self, ml, i):
        ops = original(self, ml, i)
        for op in ops[::2]:
            op.check = lambda result: False
        for op in ops[1::2]:
            # Raises after the package ran, so traced spans exist.
            op.fn = lambda *args, fn=op.fn: (fn(*args), 1 / 0)
        return ops

    monkeypatch.setattr(workloads.MSetTranslate, "pass_ops", broken)
    result, _ = _run("mset-translate", 3, trace)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    if trace:
        assert result["metrics"]["msetcat.multation_compose.calls"]["value"] \
            > 0


def test_mset_check_sees_a_wrong_composite():
    ml = workloads.fresh_import()
    wl = workloads.MSetTranslate(3, tiny=True)
    wl.plan(ml, wl.setup(ml))
    op = next(op for op in wl.pass_ops(ml, 0)
              if len(ml.msetcat.multation_compose(*op.args).comb) > 1)
    assert op.check(op.fn(*op.args))
    h, maze_side, back = op.fn(*op.args)
    # Doubling the composite keeps the theseus/ariadne round trip intact.
    doubled = h.scale(2)
    assert not op.check((doubled, ml.bridge.theseus_hom(doubled, 4),
                         ml.bridge.ariadne_hom(
                             ml.bridge.theseus_hom(doubled, 4), 4)))


def test_full_run_matches_its_recorded_digest():
    log = io.StringIO()
    result = run.run("mset-translate", 0, 0, False, log=log)
    assert result["correct"]
    assert "recorded=same" in log.getvalue()


def test_seed_changes_the_inputs():
    assert _run("laby-compose", 1, False)[1] != \
        _run("laby-compose", 2, False)[1]


def _bindings(ml):
    out = {}
    for name, mod in vars(ml).items():
        out[name] = dict(vars(mod))
        for value in vars(mod).values():
            if isinstance(value, type) and value.__module__ == mod.__name__:
                out[f"{name}.{value.__name__}"] = dict(value.__dict__)
    out["_CHECKS"] = dict(ml.verify._CHECKS)
    return out


def test_tracer_restores_every_rebound_attribute():
    ml = workloads.fresh_import()
    before = _bindings(ml)
    t = tracer.Tracer(sampler=None)
    t.install(ml)
    during = _bindings(ml)
    changed = [(k, a) for k in before for a in before[k]
               if during[k].get(a) is not before[k][a]]
    # Every target, every copy bound by `from .x import f`, every check.
    assert len(changed) > len(tracer.TARGETS) + len(tracer.VERIFY_CHECKS)
    t.uninstall()
    after = _bindings(ml)
    assert after.keys() == before.keys()
    for k in before:
        assert after[k].keys() == before[k].keys(), k
        for a in before[k]:
            assert after[k][a] is before[k][a], (k, a)


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "mazebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable] + SPEC["command"][1:] +
        ["--workload", "mset-translate", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
