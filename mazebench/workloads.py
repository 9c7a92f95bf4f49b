"""The four workloads: their set-up, their passes of operations and the
untimed checks that verify every operation's output by another route.

Each workload draws its inputs from its own ``random.Random`` seeded by
the workload name and ``--seed``; the package only ever sees the
generated inputs.  Set-up is what a user pays before the first
operation: a fresh import of the package plus the enumeration of the
workload's inputs by the package's own enumerators.
"""

import collections
import contextlib
import importlib
import io
import itertools
import json
import math
import random
import sys
from fractions import Fraction
from types import SimpleNamespace

MODULES = ("scalars", "multisets", "msetcat", "labycat", "bridge",
           "matrices", "functor_lab", "verify", "cli")


def fresh_import():
    """Drop every loaded ``mazelab`` module and import the package anew."""
    for name in [m for m in sys.modules
                 if m == "mazelab" or m.startswith("mazelab.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module("mazelab." + m)
                              for m in MODULES})


class Op:
    """One timed call ``fn(*args)`` and its untimed output check.

    ``check(result)`` returns True when the output is right; ``digest(result)``
    returns a canonical string for the pass-0 digest (``digest`` is None
    where the check already pins the whole output).  ``sampled`` ops make
    up the operation-time percentiles; every op counts in its pass time.
    """

    __slots__ = ("fn", "args", "check", "digest", "sampled")

    def __init__(self, fn, args, check, digest, sampled=True):
        self.fn = fn
        self.args = args
        self.check = check
        self.digest = digest
        self.sampled = sampled


def _json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# laby-compose


def covering_estimate(p, q):
    """Size of ``maze_compose``'s covering search for p after q: the product,
    over instances of q, of the nonempty bundles of pairs through it."""
    outgoing = collections.Counter(x.src for x in p.instances())
    est = 1
    for y in q.instances():
        est *= (1 << outgoing[y.dst]) - 1
    return est


class LabyCompose:
    """Degree-4 pure-maze composites in the numerical quotient, then the
    homogeneous normal form.  Pairs are drawn per stratum of covering-search
    size, without repeats within a run."""

    name = "laby-compose"
    degree = 4
    # Lower estimate of each stratum, and composites drawn from it per pass.
    # Estimates from 2401 up are left out (128 of the 34101 pairs).  The
    # 50625 ones (loop x4 after loop x4 and its like) take 3.1-3.7 s each,
    # most of a pass.  The 2401 and 3375 ones take 0.1-0.25 s, and a few of
    # them allocate 2-5 MB where the rest allocate under 0.6 MB, so which
    # of them a seed drew set the run's peak memory (28 or 31.6 MB).
    strata = ((1, 100), (3, 200), (27, 120), (225, 30))
    cap = 2401

    def __init__(self, seed, tiny=False):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.per_pass = [(lo, 1 if tiny else k) for lo, k in self.strata]

    def setup(self, ml):
        lab = ml.labycat
        mazes = []
        for j in range(self.degree + 1):
            for k in range(self.degree + 1):
                mazes += lab.pure_mazes_between(
                    lab.skeleton(j), lab.skeleton(k), range(self.degree + 1))
        return mazes

    def plan(self, ml, mazes):
        """Shuffle every stratum once; pass i takes its next slice."""
        by_cod = collections.defaultdict(list)
        for q in mazes:
            by_cod[q.cod].append(q)
        bins = {lo: [] for lo, _ in self.per_pass}
        lows = sorted(bins, reverse=True)
        for p in mazes:
            for q in by_cod[p.dom]:
                est = covering_estimate(p, q)
                if est >= self.cap:
                    continue
                bins[next(lo for lo in lows if est >= lo)].append((p, q))
        for lo in lows:
            self.rng.shuffle(bins[lo])
        self.ml = ml
        self.bins = bins
        self.max_passes = min(len(bins[lo]) // k for lo, k in self.per_pass)

    def modules_for_pass(self, i):
        return self.ml

    def pass_ops(self, ml, i):
        lab, br, n = ml.labycat, ml.bridge, self.degree

        def compose(p, q):
            h = lab.compose_in_laby_n(lab.MazeHom.of(p), lab.MazeHom.of(q), n)
            return lab.normalize_homogeneous(h, n)

        def check_for(p, q):
            def check(h):
                if any(maze.size != n for maze, _ in h.comb):
                    return False
                via = br.ariadne_hom(lab.MazeHom.of(p), n).compose(
                    br.ariadne_hom(lab.MazeHom.of(q), n))
                return br.ariadne_hom(h, n) == via
            return check

        ops = []
        for lo, k in self.per_pass:
            for p, q in self.bins[lo][i * k:(i + 1) * k]:
                ops.append(Op(compose, (p, q), check_for(p, q),
                              lambda h: _json(h.to_json())))
        self.rng.shuffle(ops)
        return ops


# ---------------------------------------------------------------------------
# mset-translate


def _degree(pairs):
    return math.prod(math.factorial(m) for _, m in pairs)


def compose_by_matchings(mu_pairs, nu_pairs):
    """The composite mu . nu of two multations given by their ``pairs``,
    computed without the package: every bijection between the columns of
    nu entering a middle letter and those of mu leaving it, slot by slot,
    gives a multiset w of columns, and w's coefficient in the divided-power
    basis is deg(w) * (bijections giving w) / (deg mu * deg nu), where deg
    is the product of the factorials of the column multiplicities.  At
    degree 4 that is at most 4! = 24 bijections."""
    middle = sorted({b for (_, b), _ in nu_pairs})
    into = {b: [a for (a, b2), m in nu_pairs if b2 == b for _ in range(m)]
            for b in middle}
    out_of = {b: [c for (b2, c), m in mu_pairs if b2 == b for _ in range(m)]
              for b in middle}
    found = collections.Counter()
    for matching in itertools.product(
            *(itertools.permutations(out_of[b]) for b in middle)):
        cols = collections.Counter()
        for b, targets in zip(middle, matching):
            cols.update(zip(into[b], targets))
        found[tuple(sorted(cols.items()))] += 1
    outer = _degree(mu_pairs) * _degree(nu_pairs)
    return {w: Fraction(_degree(w) * k, outer) for w, k in found.items()}


class MSetTranslate:
    """Degree-4 multation composites over a 4-letter universe, each read back
    into mazes (``theseus_hom``) and forward again (``ariadne_hom``)."""

    name = "mset-translate"
    degree = 4
    universe = ("1", "2", "3", "4")
    max_passes = 10**6

    def __init__(self, seed, tiny=False):
        self.rng = random.Random(f"{self.name}:{seed}")
        # Composites per middle object per pass; every pass visits all 35
        # middle objects, so passes carry the same mix of middle shapes.
        self.per_middle = 1 if tiny else 20

    def setup(self, ml):
        objs = ml.bridge.all_cardinality_multisets(self.universe, self.degree)
        return objs, {(a, b): ml.msetcat.all_multations(a, b)
                      for a in objs for b in objs}

    def plan(self, ml, inputs):
        objs, mults = inputs
        self.ml = ml
        self.middles = objs
        self.into = {b: [mu for a in objs for mu in mults[(a, b)]]
                     for b in objs}
        self.out_of = {b: [mu for c in objs for mu in mults[(b, c)]]
                       for b in objs}

    def modules_for_pass(self, i):
        return self.ml

    def pass_ops(self, ml, i):
        ms, br, n = ml.msetcat, ml.bridge, self.degree

        def translate(mu, nu):
            h = ms.multation_compose(mu, nu)
            maze_side = br.theseus_hom(h, n)
            return h, maze_side, br.ariadne_hom(maze_side, n)

        def check_for(mu, nu):
            def check(out):
                h, _, back = out
                got = {m.pairs: c for m, c in h.comb}
                return (got == compose_by_matchings(mu.pairs, nu.pairs)
                        and all(m.dom == nu.dom and m.cod == mu.cod
                                for m, _ in h.comb)
                        and back.nonzero_keys() == [(h.cod, h.dom)]
                        and back.entry(h.cod, h.dom) == h)
            return check

        def digest(out):
            return _json([x.to_json() for x in out])

        ops = []
        for b in self.middles:
            for _ in range(self.per_middle):
                nu = self.rng.choice(self.into[b])
                mu = self.rng.choice(self.out_of[b])
                ops.append(Op(translate, (mu, nu), check_for(mu, nu),
                              digest))
        return ops


# ---------------------------------------------------------------------------
# present-3


class Present3:
    """Degree-3 presentations of the tensor cube on both sides, built,
    checked and evaluated on seeded integer matrices, in one process."""

    name = "present-3"
    degree = 3
    universe = ("1", "2", "3")
    # One sweep evaluates a matrix of every shape up to 3 x 3 on both
    # sides, plus a second 3 x 3 on the maze side (the cube on rank 3,
    # the heaviest evaluation).  The 19 evaluations of a sweep fall into
    # tight clusters by shape and side, and with an odd count the median
    # lands inside one cluster instead of in the gap between two.
    shapes = tuple((r, c) for r in (1, 2, 3) for c in (1, 2, 3))
    sweeps = 3
    max_passes = 10**6

    def __init__(self, seed, tiny=False):
        self.rng = random.Random(f"{self.name}:{seed}")
        sides = ("laby", "mset")
        if tiny:
            self.schedule = [((2, 2), side) for side in sides]
        else:
            self.schedule = [(shape, side) for shape in self.shapes
                             for side in sides] + [((3, 3), "laby")]
            self.schedule *= self.sweeps

    def setup(self, ml):
        return ml.functor_lab.tensor_power_functor(self.degree)

    def plan(self, ml, functor):
        self.ml = ml
        self.functor = functor

    def modules_for_pass(self, i):
        return self.ml

    def _matrix(self, mat, rows, cols):
        # Nonzero entries keep the cost of an evaluation independent of
        # how many zeros the draw happened to contain.
        return mat.IntMat.from_rows(
            [[self.rng.choice((-2, -1, 1, 2)) for _ in range(cols)]
             for _ in range(rows)])

    def pass_ops(self, ml, i):
        fl, mat, n, f = ml.functor_lab, ml.matrices, self.degree, self.functor
        built = {}

        def build_laby():
            built["laby"] = fl.LabyModulePresentation.from_functor(
                f, n, check=False)
            return built["laby"]

        def build_mset():
            built["mset"] = fl.MSetModulePresentation.tensor_power(
                n, self.universe, check=False)
            return built["mset"]

        def check_presentation(pres):
            pres.check()
            return pres

        def built_ok(pres):
            # ``check`` raises on failure; it is timed as its own operation.
            return True

        def digest_pres(pres):
            return _json(pres.to_json())

        # Builds and checks happen once per presentation and pass; the
        # operation percentiles are over the evaluations, which repeat.
        ops = [Op(build_laby, (), built_ok, digest_pres, sampled=False),
               Op(lambda: check_presentation(built["laby"]), (), built_ok,
                  lambda _: "checked", sampled=False),
               Op(build_mset, (), built_ok, digest_pres, sampled=False),
               Op(lambda: check_presentation(built["mset"]), (), built_ok,
                  lambda _: "checked", sampled=False)]

        def evaluator(side, evaluate):
            def run(m):
                return evaluate(built[side], m)

            def check_for(m, k):
                def check(value):
                    # The value is a matrix on the cube of the rank: the
                    # blocks must add up to rows**3 by cols**3 ...
                    if (value.mat.nrows, value.mat.ncols) != \
                            (m.nrows ** n, m.ncols ** n):
                        return False
                    # ... and evaluation must be functorial on m @ k.
                    return (evaluate(built[side], m @ k)
                            == value.compose(evaluate(built[side], k)))
                return check
            return run, check_for

        def digest_abhom(value):
            return _json(value.to_json())

        evaluators = {"laby": fl.phi_inverse_eval, "mset": fl.psi_inverse_eval}
        for (rows, cols), side in self.schedule:
            m = self._matrix(mat, rows, cols)
            k = self._matrix(mat, cols, rows)
            run, check_for = evaluator(side, evaluators[side])
            ops.append(Op(run, (m,), check_for(m, k), digest_abhom))
        return ops


# ---------------------------------------------------------------------------
# verify-all


class VerifyAll:
    """``mazelab verify all`` through ``cli.main``, cold: a fresh import
    before every pass, seeds s, s+1, ... and stdout captured."""

    name = "verify-all"
    max_passes = 10**6

    def __init__(self, seed, tiny=False):
        self.seed = seed

    def setup(self, ml):
        # The CLI's own set-up before it dispatches a command; there are no
        # inputs to enumerate beyond the seed.
        return ml.cli.build_parser()

    def plan(self, ml, parser):
        pass

    def modules_for_pass(self, i):
        return fresh_import()

    def pass_ops(self, ml, i):
        argv = ["verify", "all", "--seed", str(self.seed + i)]

        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = ml.cli.main(argv)
            return code, out.getvalue().splitlines()

        def check(result):
            code, lines = result
            return (code == 0 and len(lines) == 16
                    and all(line.endswith(": pass") for line in lines[:-1])
                    and lines[-1].startswith("15/15 checks passed"))

        # No digest: the check already requires exit code 0 and fifteen
        # "<check>: pass" lines, which is all the output holds besides the
        # summary line with its own timing.
        return [Op(run, (), check, None)]


WORKLOADS = {w.name: w for w in (LabyCompose, MSetTranslate, Present3,
                                 VerifyAll)}
