"""Outside-in layer tracer for the traced run.

It rebinds each traced function of the package wherever a ``mazelab``
module holds it (``from .x import f`` copies included), and the methods
on their classes, so that calls made inside the package are caught too.
Each call while tracing is on becomes one span: (function, start, end,
parent span, operation).  Spans stay in memory and are reduced to the
per-layer metrics when the run ends.  A span's self time is its duration
minus its direct children's, converted to reference seconds with the
scale of the operation it ran in.

There is one thread and no queue anywhere in the package, so no layer
ever waits; the tracer reports no waiting time rather than zeros.
"""

import time
from array import array

# (metric prefix, module, attribute, metrics reported).  An attribute
# "Cls.meth" is a method or classmethod patched on the class itself.
TARGETS = (
    ("scalars.LinComb", "scalars", "LinComb.__init__", ("calls", "self_s")),
    ("scalars.binomial", "scalars", "binomial", ("calls",)),
    ("multisets.compositions", "multisets", "compositions",
     ("calls", "self_s")),
    ("labycat.maze_compose", "labycat", "maze_compose",
     ("calls", "self_s", "terms_out", "distinct_ratio")),
    ("labycat.normalize_numerical", "labycat", "normalize_numerical",
     ("calls", "self_s", "distinct_ratio")),
    ("labycat.compose_in_laby_n", "labycat", "compose_in_laby_n",
     ("calls", "self_s")),
    ("labycat.normalize_homogeneous", "labycat", "normalize_homogeneous",
     ("calls", "self_s")),
    ("labycat.pure_mazes_between", "labycat", "pure_mazes_between",
     ("self_s",)),
    ("msetcat.multation_compose", "msetcat", "multation_compose",
     ("calls", "self_s", "terms_out", "distinct_ratio")),
    ("msetcat.all_multations", "msetcat", "all_multations", ("self_s",)),
    ("bridge.ariadne_maze", "bridge", "ariadne_maze",
     ("calls", "self_s", "terms_out")),
    ("bridge.ariadne_hom", "bridge", "ariadne_hom",
     ("calls", "self_s", "terms_out")),
    ("bridge.theseus_hom", "bridge", "theseus_hom",
     ("calls", "self_s", "terms_out")),
    ("matrices.IntMat.__matmul__", "matrices", "IntMat.__matmul__",
     ("calls", "self_s")),
    ("matrices.kron_power", "matrices", "kron_power", ("self_s",)),
    ("matrices.column_lattice_basis", "matrices", "column_lattice_basis",
     ("self_s",)),
    ("matrices.solve_in_lattice", "matrices", "solve_in_lattice",
     ("self_s",)),
    ("functor_lab.deviation", "functor_lab", "deviation",
     ("calls", "self_s")),
    ("functor_lab.cross_effect_basis", "functor_lab", "cross_effect_basis",
     ("calls", "self_s")),
    ("functor_lab.phi_forward", "functor_lab", "phi_forward",
     ("calls", "self_s")),
    ("functor_lab.bridge_compose_table", "functor_lab",
     "bridge_compose_table", ("calls", "self_s")),
    ("functor_lab.phi_inverse_eval", "functor_lab", "phi_inverse_eval",
     ("calls", "self_s")),
    ("functor_lab.psi_inverse_eval", "functor_lab", "psi_inverse_eval",
     ("calls", "self_s")),
    ("functor_lab.LabyModulePresentation.from_functor", "functor_lab",
     "LabyModulePresentation.from_functor", ("calls", "self_s")),
    ("functor_lab.LabyModulePresentation.check", "functor_lab",
     "LabyModulePresentation.check", ("calls", "self_s")),
    ("functor_lab.MSetModulePresentation.check", "functor_lab",
     "MSetModulePresentation.check", ("calls", "self_s")),
    ("cli.main", "cli", "main", ("self_s",)),
)

# The fifteen checks of ``verify all``; each reports its total seconds.
VERIFY_CHECKS = (
    "table1", "table2", "multation_examples", "maze_example",
    "counting_lemmas", "deviation_formula", "ariadne_functoriality",
    "roundtrip_iso", "phi_roundtrip", "ariadne_thread", "quadratic",
    "axiom_iv_instance", "splitting", "xi_bijection", "cubical_expansion")

# Argument tuples are kept per function to count distinct calls; results
# are sized for the terms a function produced.
_KEYED = {"labycat.maze_compose", "labycat.normalize_numerical",
          "msetcat.multation_compose"}
_SIZED = {"labycat.maze_compose", "labycat.compose_in_laby_n",
          "msetcat.multation_compose", "bridge.ariadne_maze",
          "bridge.ariadne_hom", "bridge.theseus_hom"}

UNITS = {"calls": ("count", "lower"), "self_s": ("s", "lower"),
         "terms_out": ("count", "lower"),
         "distinct_ratio": ("ratio", "higher")}


def metric_specs():
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for prefix, _, _, metrics in TARGETS:
        out += [(f"{prefix}.{m}",) + UNITS[m] for m in metrics]
    out.append(("labycat.truncation_kept_ratio", "ratio", "higher"))
    out += [(f"verify.{c}.s", "s", "lower") for c in VERIFY_CHECKS]
    out.append(("host.ref_us", "us", "lower"))
    out.append(("tracing.overhead_s", "s", "lower"))
    return out


def _terms(result):
    entries = getattr(result, "entries", None)
    if entries is not None:
        return sum(len(h.comb) for h in entries.values())
    return len(result.comb)


class Tracer:
    """Records spans for TARGETS and the verify checks while ``run`` is on.

    Time the ``sampler`` spends in the reference kernel inside a span is
    taken out of that span, as it is out of operations.
    """

    def __init__(self, sampler):
        self.sampler = sampler
        self.timings = {}  # operation tag -> its (start, end, raw) timing
        self.prefixes = [t[0] for t in TARGETS] + \
            [f"verify.{c}" for c in VERIFY_CHECKS]
        self.fid = {p: i for i, p in enumerate(self.prefixes)}
        self.fids = array("i")
        self.parents = array("i")
        self.ops = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.terms = array("q")
        self.stolen = array("d")
        self.keys = {self.fid[p]: set() for p in _KEYED}
        self.stack = []
        self.active = False
        self.op = -1
        self._restore = []

    def _wrap(self, prefix, fn):
        fid = self.fid[prefix]
        keys = self.keys.get(fid)
        sized = prefix in _SIZED
        fids, parents, ops = self.fids, self.parents, self.ops
        starts, ends, terms, stack = self.starts, self.ends, self.terms, \
            self.stack
        stolen, sampler = self.stolen, self.sampler
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op)
            ends.append(0.0)
            terms.append(0)
            stolen.append(0.0)
            stack.append(idx)
            before = sampler.stolen
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stolen[idx] = sampler.stolen - before
                stack.pop()
            if keys is not None:
                keys.add(args)
            if sized:
                terms[idx] = _terms(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, ml):
        """Rebind every target in the modules of ``ml``.  A target the
        package no longer has is skipped, and its metrics read 0."""
        modules = list(vars(ml).values())
        for prefix, module, attr, _ in TARGETS:
            owner = getattr(ml, module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                raw = vars(cls).get(meth) if cls is not None else None
                if raw is None:
                    continue
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(prefix, raw.__func__))
                else:
                    new = self._wrap(prefix, raw)
                setattr(cls, meth, new)
                self._restore.append((cls, meth, raw))
                continue
            fn = getattr(owner, attr, None)
            if fn is None:
                continue
            new = self._wrap(prefix, fn)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, name, new)
                        self._restore.append((mod, name, fn))
        checks = ml.verify._CHECKS
        for name in VERIFY_CHECKS:
            if name in checks:
                fn = checks[name]
                checks[name] = self._wrap(f"verify.{name}", fn)
                self._restore.append((checks, name, fn))

    def uninstall(self):
        """Put back every attribute ``install`` rebound."""
        for owner, name, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._restore = []

    def run(self, op, fn, *args):
        """Call ``fn(*args)`` with tracing on, its spans tagged ``op``."""
        self.op = op
        self.active = True
        try:
            return fn(*args)
        finally:
            self.active = False

    def metrics(self):
        """Reduce the spans to per-layer metrics in reference seconds."""
        scale = {tag: self.sampler.scale(t) / t[2] if t[2] else 1.0
                 for tag, t in self.timings.items()}
        n = len(self.fids)
        durs = [self.ends[i] - self.starts[i] - self.stolen[i]
                for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += durs[i]
        nf = len(self.prefixes)
        calls = [0] * nf
        total = [0.0] * nf
        self_s = [0.0] * nf
        terms = [0] * nf
        for i in range(n):
            f = self.fids[i]
            k = scale.get(self.ops[i])
            if k is None:
                # The operation raised, so it has no timing: scale the
                # span by the reference samples next to the span itself.
                k = self.sampler.scale((self.starts[i], self.ends[i], 1.0))
            dur = durs[i]
            calls[f] += 1
            total[f] += dur * k
            self_s[f] += (dur - child[i]) * k
            terms[f] += self.terms[i]

        out = {}
        for prefix, _, _, metrics in TARGETS:
            f = self.fid[prefix]
            values = {
                "calls": calls[f], "self_s": self_s[f],
                "terms_out": terms[f],
                "distinct_ratio": (len(self.keys[f]) / calls[f]
                                   if f in self.keys and calls[f] else 0.0),
            }
            for m in metrics:
                out[f"{prefix}.{m}"] = values[m]
        out["labycat.truncation_kept_ratio"] = self._kept_ratio()
        for c in VERIFY_CHECKS:
            out[f"verify.{c}.s"] = total[self.fid[f"verify.{c}"]]
        return out

    def _kept_ratio(self):
        """Terms of ``compose_in_laby_n``'s normal forms over the terms its
        ``maze_compose`` calls produced (0 when it never ran)."""
        outer = self.fid["labycat.compose_in_laby_n"]
        inner = self.fid["labycat.maze_compose"]
        kept = produced = 0
        for i in range(len(self.fids)):
            if self.fids[i] == outer:
                kept += self.terms[i]
            elif self.fids[i] == inner:
                p = self.parents[i]
                while p >= 0 and self.fids[p] != outer:
                    p = self.parents[p]
                if p >= 0:
                    produced += self.terms[i]
        return kept / produced if produced else 0.0
