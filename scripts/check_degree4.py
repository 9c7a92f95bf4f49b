"""Check the structure constants and presentations of degrees 4 and 5,
outside tier-1.

    PYTHONPATH=src python scripts/check_degree4.py

First it builds the maze-side presentation of the tensor cube at degree
3, checks it and re-derives every stored value by its round trip, with
the time of each step: the layer timing of the integer kernel.  It builds
it again, the cross-effect bases kept by the functor, and prints the
distinct matrices that build evaluates f on, counted through a wrapper of
the functor's arrow, and the deviation terms it sums, counted through a
wrapper of the values each covering_deviation sums (11 and 11).  Then it
runs the exact span test (StructureConstants.span) on the generator columns
of Laby_4, cold: the words in the elementary mazes and the identities
must span every hom-set over Z.  It prints the composites the test
composes and the calls of LabyConstants._fill, none.  It prints the
time to fill every block of Laby_4, with the number of pairs composed
(one per orbit), and runs the span test on the columns of MSet_4 over
four letters, in the divided powers of adjacent letters.  Then it builds
the degree-4 tensor power on the multation side and checks it from
cleared constants, printing the time, the composites g . x the check
composes, the _fill calls, none, and the nonzero entries the hom-set
index lists; it exits 1 unless these are exactly the nonzero entries of
the stored values, counted from their dense rows.  It evaluates that checked
presentation on two seeded 3 x 3 matrices m and k: it prints the time
of the first evaluation, which builds the presentation's plan for the
shape, the time of a warm one, the plan's terms and the nonzero entries
they list and the size the plan retains (tracemalloc after a collection,
the plan built again under tracing).  It exits 1 unless the plan lists
exactly the nonzero entries of the stored values it covers and the
value on m @ k is the value on m after the value on k.  It runs the
thread check, ariadne_thread_failures, on the same presentation, prints
its time and exits 1 on any failure.  It breaks one late value of that
presentation and checks it again on the same warm constants, printing
the time, the pair the refusal names and the pairs composed; it exits 1
unless the check raises ValueError, composes no pair and names a pair
that fails when multation_compose composes it.  It fills MSet_4 over
four letters from that presentation's 210 divided-power values alone
(Presentation.fill), prints the time and exits 1 unless the filled table
equals its 3876 values.  Then it compares every
Laby_4 block with the per-pair path, each composite
computed afresh by the engine, maze_hom_compose (a few seconds), and
exits 1 on the first block that differs.  Then, from a cleared memo, it
composes all 34101 Laby_4 pairs through compose_in_laby_n, which
composes a block directly on its first ask and fills it and reads it off
the constants from its second, and compares each with the engine: it
prints the time of that sweep, the number of blocks filled and the time
of a second, warm sweep, and exits 1 on the first pair that differs.
It takes the homogeneous normal form, normalize_homogeneous(h, 4), of
each composite of the warm sweep and prints the time of that pass and
how many composites came back as they are (the same object, a count
that does not depend on the host); it exits 1 if a form holds a term
without exactly 4 passages.  It then walks the passages of every
distinct maze of those composites, prints how many, and exits 1 on the
first whose stored size or purity is not what its passages give.
Then it sends every basis multation and every pure maze of degree 4 over
four letters through both translations and back, and exits 1 on any
failure of the round trip.  Then it times plain composition of the loop
repeated four times with itself, whose 41503 covering subsets are
listed.  From a cleared memo, it times the first ask of one Laby_5 pair
of the block (4, 4, 4), composed directly, and the second, which lists
the degree and fills the block, each checked against the engine.  Then
it runs the span test on the generator columns of Laby_5, cold again,
and fills every block of Laby_5: its time and peak memory.  Last it
builds the degree-5 tensor power on the multation side over four letters
and checks it from cleared constants, printed as at degree 4, the listed
nonzero entries beside the peak memory.
Each stage also prints the peak resident set size of the process so far.
The script exits 1 if any stage fails, if a span test leaves a hom-set
unspanned, or if a span test or a check fills a block.
"""

import gc
import random
import resource
import sys
import time
import tracemalloc
from contextlib import contextmanager
from itertools import chain, product

from mazelab import functor_lab
from mazelab.bridge import roundtrip_failures
from mazelab.functor_lab import (AbHom, LabyModulePresentation,
                                 MSetModulePresentation, MatrixFunctor,
                                 ariadne_thread_failures,
                                 phi_roundtrip_failures, psi_inverse_eval,
                                 tensor_power_functor)
from mazelab.labycat import (LabyConstants, Maze, MazeHom, Passage,
                             compose_in_laby_n, elementary_mazes,
                             laby_structure_constants, maze_hom_compose,
                             normalize_homogeneous, reset_laby_constants,
                             skeleton)
from mazelab.matrices import IntMat
from mazelab.msetcat import (Multation, divided_powers,
                             mset_structure_constants, multation_compose)


def peak_rss():
    """The process's peak resident set size so far, as text; Linux
    reports ru_maxrss in KiB."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return f"peak RSS {kib / 1024:.1f} MB"


@contextmanager
def counting(sc):
    """Count the pairs sc composes, through a wrapper around sc.compose,
    and the calls of LabyConstants._fill meanwhile, into two lists."""
    composed, fills = [], []
    compose, fill_block = sc.compose, LabyConstants._fill

    def counted(f, g):
        composed.append(None)
        return compose(f, g)

    def counted_fill(self, *ends):
        fills.append(ends)
        return fill_block(self, *ends)

    sc.compose, LabyConstants._fill = counted, counted_fill
    try:
        yield composed, fills
    finally:
        sc.compose, LabyConstants._fill = compose, fill_block


def fill(name, sc):
    """Ask every block of Laby_n's constants sc once, which fills them
    all, counting the pairs composed."""
    start = time.perf_counter()
    with counting(sc) as (composed, _):
        ends = list(dict.fromkeys(x for x, _ in sc.arrows))
        for a, b, c in product(ends, repeat=3):
            sc.block(a, b, c)
    seconds = time.perf_counter() - start
    pairs = sum(len(row) for block in sc.blocks.values() for row in block)
    print(f"{name}: {len(sc.index)} basis arrows, {pairs} composites, "
          f"{len(composed)} composed, filled in {seconds:.2f} s; "
          f"{peak_rss()}")


def spans(name, sc, generators, identity):
    """The exact span test, which reads the generators' columns of sc,
    with the pairs it composes and the blocks it fills (none); 1 if a
    hom-set is left unspanned or a block is filled, else 0."""
    start = time.perf_counter()
    with counting(sc) as (composed, fills):
        missing = sc.span(generators, identity)[1]
    print(f"{name}: {len(generators)} generators span "
          f"{sum(1 for fs in sc.arrows.values() if fs) - len(missing)} of "
          f"the nonempty hom-sets over Z, {len(missing)} unspanned; "
          f"{len(composed)} composites composed, {len(fills)} blocks "
          f"filled ({time.perf_counter() - start:.2f} s); {peak_rss()}")
    for a, c in missing[:5]:
        print(f"  {a!r} -> {c!r} is not spanned")
    return 1 if missing or fills else 0


def checked(name, h):
    """Check h, from constants that have composed nothing, with the
    composites composed, the time and the _fill calls (none); 1 if the
    check fails or fills a block, else 0."""
    start = time.perf_counter()
    with counting(h.constants()) as (composed, fills):
        try:
            h.check()
        except ValueError as exc:
            print(f"{name} fails its check: {exc}")
            return 1
    print(f"{name} checked in {time.perf_counter() - start:.2f} s: "
          f"{len(composed)} composites composed, {len(fills)} blocks "
          f"filled, {listed_nonzeros(h)} nonzero entries listed; "
          f"{peak_rss()}")
    return 1 if fills else 0


def listed_nonzeros(h):
    """The nonzero entries of h's values that its hom-set index lists."""
    return sum(len(listed) // 3 for hom_set in h.hom_sets.values()
               for listed in hom_set.nonzeros if listed)


def listing4(h):
    """1 unless the hom-set index of the checked tensor_power(4, '1234')
    lists exactly the nonzero entries of its stored values, counted from
    their dense rows."""
    values, listed = h.table.values(), listed_nonzeros(h)
    dense = sum(sum(map(bool, chain(*value.mat.rows))) for value in values)
    entries = sum(value.mat.nrows * value.mat.ncols for value in values)
    print(f"tensor_power(4, '1234'): the hom-set index lists {listed} "
          f"nonzero entries; the {len(h.table)} stored values hold {dense} "
          f"of {entries}")
    return 0 if listed == dense else 1


def counted_build(f, degree):
    """Build from_functor(f, degree) again with f's cross-effect bases
    kept; returns the matrices f's arrow is called on and the number of
    values the covering deviations sum."""
    evaluated, terms = [], []
    summed = functor_lab.covering_deviation

    def arrow(m):
        evaluated.append(m)
        return f.arrow(m)

    def covering(values, maze):
        def counted(s):
            terms.append(s)
            return values(s)

        return summed(counted, maze)

    g = MatrixFunctor(f.name, f.dim, arrow)
    g.ce_basis_cache.update(f.ce_basis_cache)
    functor_lab.covering_deviation = covering
    try:
        LabyModulePresentation.from_functor(g, degree, check=False)
    finally:
        functor_lab.covering_deviation = summed
    return evaluated, len(terms)


def cube():
    """Build, check and round-trip from_functor(tensor^3, 3), then count a
    second build's f evaluations and deviation terms; 1 on a failure,
    else 0."""
    f = tensor_power_functor(3)
    start = time.perf_counter()
    h = LabyModulePresentation.from_functor(f, 3, check=False)
    built = time.perf_counter()
    print(f"from_functor(tensor^3, 3): {len(h.table)} values built in "
          f"{built - start:.3f} s; {peak_rss()}")
    try:
        h.check()
    except ValueError as exc:
        print(f"from_functor(tensor^3, 3) fails its check: {exc}")
        return 1
    checked = time.perf_counter()
    print(f"from_functor(tensor^3, 3) checked in {checked - built:.3f} s; "
          f"{peak_rss()}")
    failures = phi_roundtrip_failures(h)
    print(f"phi_roundtrip_failures: {len(failures)} failures "
          f"({time.perf_counter() - checked:.3f} s); {peak_rss()}")
    for failure in failures[:5]:
        print(f"  {failure}")
    evaluated, terms = counted_build(f, 3)
    print(f"from_functor(tensor^3, 3) with the bases kept: f evaluated on "
          f"{len(evaluated)} matrices, {len(set(evaluated))} distinct; "
          f"{terms} deviation terms summed")
    return 1 if failures else 0


def homogeneous4(composites):
    """Take normalize_homogeneous(h, 4) of every composite, counting those
    returned as they are; 1 if a form keeps a term without 4 passages, or
    if a composite maze stores a size or purity its passages do not give."""
    start = time.perf_counter()
    forms = [normalize_homogeneous(h, 4) for h in composites]
    seconds = time.perf_counter() - start
    kept = sum(form is h for h, form in zip(composites, forms))
    print(f"normalize_homogeneous of the {len(forms)} warm composites in "
          f"{seconds:.2f} s, {kept} returned as they are; {peak_rss()}")
    for h, form in zip(composites, forms):
        if any(maze.size != 4 for maze, _ in form.comb):
            print(f"normalize_homogeneous({h!r}, 4) keeps a term without "
                  f"4 passages")
            return 1
    # The early returns read the stored sizes and purities: walk them anew.
    mazes = {maze for h in composites for maze, _ in h.comb}
    for maze in sorted(mazes, key=Maze.sort_key):
        if (maze.size, maze.is_pure()) != (
                sum(m for _, m in maze.passages),
                all(p.label == 1 for p, _ in maze.passages)):
            print(f"{maze!r} stores size {maze.size} and purity "
                  f"{maze.is_pure()}, not its passages' own")
            return 1
    print(f"stored size and purity of the {len(mazes)} distinct composite "
          f"mazes as their passages give them")
    return 0


def sweep_laby4():
    """Compose every Laby_4 pair through compose_in_laby_n twice, from a
    cleared memo, against the engine, and take the homogeneous normal
    form of the warm composites; 1 on the first pair that differs or a
    form that is not homogeneous."""
    arrows = laby_structure_constants(4).arrows
    pairs = [(p, q) for (b, _), ps in arrows.items() for p in ps
             for (_, b2), qs in arrows.items() if b2 == b for q in qs]
    reset_laby_constants()
    for sweep in ("cold", "warm"):
        start = time.perf_counter()
        got = [compose_in_laby_n(MazeHom.of(p), MazeHom.of(q), 4)
               for p, q in pairs]
        seconds = time.perf_counter() - start
        for (p, q), h in zip(pairs, got):
            if h != maze_hom_compose(MazeHom.of(p), MazeHom.of(q), 4):
                print(f"compose_in_laby_n({p!r}, {q!r}, 4) differs from "
                      f"the engine ({sweep} sweep)")
                return 1
        filled = len(laby_structure_constants(4).blocks)
        print(f"{sweep} sweep of the {len(pairs)} Laby_4 pairs through "
              f"compose_in_laby_n in {seconds:.2f} s, {filled} blocks "
              f"filled, each as the engine; {peak_rss()}")
        if sweep == "warm" and homogeneous4(got):
            return 1
        del got
    return 0


def second_ask_laby5():
    """Compose one Laby_5 pair of the block (4, 4, 4) twice through
    compose_in_laby_n, from a cleared memo: the first ask composes
    directly, the second fills the block.  1 if either differs from the
    engine."""
    four = skeleton(4)
    f = MazeHom.of(Maze.pure([("1", "2"), ("2", "3"), ("3", "4"),
                              ("4", "1")], four, four))
    g = MazeHom.of(Maze.pure([("1", "1"), ("2", "3"), ("3", "2"),
                              ("4", "4")], four, four))
    expected = maze_hom_compose(f, g, 5)
    reset_laby_constants()
    for ask in ("first", "second"):
        start = time.perf_counter()
        h = compose_in_laby_n(f, g, 5)
        seconds = time.perf_counter() - start
        print(f"{ask} ask of a Laby_5 (4, 4, 4) pair through "
              f"compose_in_laby_n in {seconds * 1e3:.3f} ms, "
              f"{'as' if h == expected else 'NOT as'} the engine; "
              f"{peak_rss()}")
        if h != expected:
            return 1
    return 0


def evaluate4(h):
    """Evaluate the checked tensor_power(4, '1234') on two seeded 3 x 3
    matrices, cold and warm, and weigh the plan; 1 unless the plan lists
    exactly the nonzero entries of the stored values it covers and the
    value on m @ k is the value on m after the value on k."""
    rng = random.Random(4)
    m, k = (IntMat(3, 3, [[rng.randint(-3, 3) for _ in range(3)]
                          for _ in range(3)]) for _ in range(2))
    start = time.perf_counter()
    on_m = psi_inverse_eval(h, m)
    first = time.perf_counter()
    on_k = psi_inverse_eval(h, k)
    warm = time.perf_counter()
    # Build the plan again under tracing: what stays after a collection
    # is the plan.
    h.plans.clear()
    gc.collect()
    tracemalloc.start()
    psi_inverse_eval(h, m)
    gc.collect()
    retained = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    plan = h.plans[3, 3]
    listed = sum(len(nonzeros) for nonzeros, _ in plan.terms)
    covered = sum(sum(map(bool, chain(*value.mat.rows)))
                  for y, x in product(plan.row_index[0], plan.col_index[0])
                  for value in h.hom_set(x, y).values)
    print(f"tensor_power(4, '1234') on 3 x 3: first evaluation "
          f"{(first - start) * 1e3:.2f} ms, warm {(warm - first) * 1e3:.2f} "
          f"ms, plan of {len(plan.terms)} terms listing {listed} nonzero "
          f"entries retains {retained / 1024:.1f} KiB; {peak_rss()}")
    if listed != covered:
        print(f"the plan lists {listed} nonzero entries; the stored values "
              f"it covers hold {covered}")
        return 1
    if psi_inverse_eval(h, m @ k) != on_m.compose(on_k):
        print("tensor_power(4, '1234') is not functorial on m @ k")
        return 1
    return 0


def thread4(h):
    """Run the thread check on the checked tensor_power(4, '1234'); 1 on
    any failure."""
    start = time.perf_counter()
    failures = ariadne_thread_failures(h)
    print(f"ariadne_thread_failures on tensor_power(4, '1234'): "
          f"{len(failures)} failures ({time.perf_counter() - start:.2f} s); "
          f"{peak_rss()}")
    for failure in failures[:5]:
        print(f"  {failure}")
    return 1 if failures else 0


def broken4(h):
    """Add 1 to the first entry of the last stored value of the checked
    tensor_power(4, '1234') that has an entry and is not an identity, and
    check that table on the same warm constants; 1 unless the check raises
    ValueError, composes no pair and names a pair that fails when
    multation_compose composes it."""
    sc, prefix = h.constants(), "table is not functorial on "
    f = next(f for fs in reversed(sc.arrows.values()) for f in reversed(fs)
             if f != Multation.identity(f.dom)
             and h.hom(f).mat.nrows * h.hom(f).mat.ncols)
    value = h.hom(f)
    rows = [list(row) for row in value.mat.rows]
    rows[0][0] += 1
    broken = MSetModulePresentation(4, h.universe, h.groups, {
        **h.table, f: AbHom(value.dom_orders, value.cod_orders,
                            IntMat.from_rows(rows))}, check=False)
    start = time.perf_counter()
    with counting(sc) as (composed, _):
        try:
            broken.check()
            text = None
        except ValueError as exc:
            text = str(exc)
    print(f"tensor_power(4, '1234') with {f!r} broken: checked in "
          f"{time.perf_counter() - start:.2f} s, {len(composed)} pairs "
          f"composed: {text}; {peak_rss()}")
    if text is None or not text.startswith(prefix) or composed:
        return 1
    by_name = {repr(x): x for x in sc.index}
    p, q = (by_name[x] for x in text[len(prefix):].split(" after "))
    if broken.eval_hom(multation_compose(p, q)) == broken.hom(p).compose(
            broken.hom(q)):
        print(f"the named pair {p!r} after {q!r} composes functorially")
        return 1
    return 0


def filled4(h):
    """Fill MSet_4 over '1234' from the divided-power values of the checked
    tensor_power(4, '1234') alone, on its warm constants; 1 unless the
    filled table equals the built one."""
    gens = divided_powers(h.universe, 4)
    cut = MSetModulePresentation(4, h.universe, h.groups,
                                 {g: h.hom(g) for g in gens}, check=False)
    start = time.perf_counter()
    cut.fill()
    same = cut.table == h.table
    print(f"MSet_4 over 1234 filled from the {len(gens)} divided-power "
          f"values in {time.perf_counter() - start:.2f} s: {len(cut.table)} "
          f"values, {'equal' if same else 'NOT equal'} to the "
          f"{len(h.table)} of tensor_power(4, '1234'); {peak_rss()}")
    return 0 if same else 1


def tensor_power5():
    """Build and check tensor_power(5, '1234') from cleared constants; 1
    on a failed check or a filled block."""
    mset_structure_constants.cache_clear()
    start = time.perf_counter()
    h = MSetModulePresentation.tensor_power(5, skeleton(4), check=False)
    print(f"tensor_power(5, '1234'): {len(h.table)} values built in "
          f"{time.perf_counter() - start:.2f} s; {peak_rss()}")
    return checked("tensor_power(5, '1234')", h)


def main():
    status = cube()
    laby = laby_structure_constants(4)
    status |= spans("Laby_4", laby, elementary_mazes(4), Maze.identity)
    fill("Laby_4", laby)
    status |= spans("MSet_4 over 1234", mset_structure_constants(
        skeleton(4), 4), divided_powers(skeleton(4), 4), Multation.identity)

    mset_structure_constants.cache_clear()
    start = time.perf_counter()
    four = MSetModulePresentation.tensor_power(4, skeleton(4), check=False)
    print(f"tensor_power(4, '1234'): {len(four.table)} values built in "
          f"{time.perf_counter() - start:.2f} s; {peak_rss()}")
    if (checked("tensor_power(4, '1234')", four) or listing4(four)
            or evaluate4(four) or thread4(four) or broken4(four)):
        return 1
    if filled4(four):
        return 1
    del four

    start = time.perf_counter()
    for (a, b, c), block in laby.blocks.items():
        expected = tuple(tuple(laby.encode(p, q) for p in laby.arrows[b, c])
                         for q in laby.arrows[a, b])
        if block != expected:
            print(f"Laby_4 block {a} -> {b} -> {c} differs from the "
                  f"per-pair path")
            return 1
    print(f"every Laby_4 block equals the per-pair path "
          f"({time.perf_counter() - start:.2f} s); {peak_rss()}")

    if sweep_laby4():
        return 1

    start = time.perf_counter()
    failures = roundtrip_failures(skeleton(4), 4)
    print(f"roundtrip_failures('1234', 4): {len(failures)} failures "
          f"({time.perf_counter() - start:.2f} s); {peak_rss()}")
    for failure in failures[:5]:
        print(f"  {failure}")

    loop = MazeHom.of(Maze(skeleton(1), skeleton(1),
                           [(Passage("1", "1"), 4)]))
    start = time.perf_counter()
    terms = len(maze_hom_compose(loop, loop).comb)
    print(f"plain loop x4 after loop x4: {terms} terms in "
          f"{time.perf_counter() - start:.2f} s; {peak_rss()}")

    if second_ask_laby5():
        return 1
    reset_laby_constants()
    status |= spans("Laby_5", laby_structure_constants(5),
                    elementary_mazes(5), Maze.identity)
    fill("Laby_5", laby_structure_constants(5))
    reset_laby_constants()
    if tensor_power5():
        return 1
    return 1 if failures or status else 0


if __name__ == "__main__":
    sys.exit(main())
