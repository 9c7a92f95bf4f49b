"""Rewrites and functors that name objects of the paper but that the
package itself does not need: the tests use them as oracles.

expand_label and collapse_parallel are the one-step rewrites of the
label-additivity (binomial expansion) axiom of the numerical quotient,
which labycat.normalize_numerical applies in closed form; the tests check
that the normal form agrees with them.  direct_sum_functor builds the
identity + tensor^2 functor, a fixture of mixed degree.
"""

from fractions import Fraction

from mazelab.functor_lab import MatrixFunctor
from mazelab.labycat import Maze, MazeHom, Passage
from mazelab.matrices import IntMat
from mazelab.scalars import scalar


def expand_label(p: Maze, passage: Passage, parts) -> MazeHom:
    """Split one passage whose label is a sum into the sum over nonempty
    subsets of parallel passages labelled by the parts."""
    parts = [scalar(x) for x in parts]
    if not parts:
        raise ValueError("parts must be nonempty")
    if sum(parts) != passage.label:
        raise ValueError("parts must sum to the passage label")
    remaining = dict(p.passages)
    if remaining.get(passage, 0) < 1:
        raise ValueError("passage not present in maze")
    remaining[passage] -= 1
    if not remaining[passage]:
        del remaining[passage]
    terms = []
    n = len(parts)
    for mask in range(1, 1 << n):
        new = dict(remaining)
        for i in range(n):
            if mask >> i & 1:
                q = Passage(passage.src, passage.dst, parts[i])
                new[q] = new.get(q, 0) + 1
        terms.append((Maze(p.dom, p.cod, new), 1))
    return MazeHom(p.dom, p.cod, terms)


def collapse_parallel(p: Maze, group) -> MazeHom:
    """Inverse rewriting: replace a group of parallel passages by the
    signed sum over subsets of a single passage labelled by the subset sum.

    The empty subset contributes its zero-labelled passage with sign; that
    term is killed later by numerical normalization.
    """
    group = list(group)
    if not group:
        raise ValueError("group must be nonempty")
    src, dst = group[0].src, group[0].dst
    if any(q.src != src or q.dst != dst for q in group):
        raise ValueError("passages are not parallel")
    remaining = dict(p.passages)
    for q in group:
        if remaining.get(q, 0) < 1:
            raise ValueError("group passage not present in maze")
        remaining[q] -= 1
        if not remaining[q]:
            del remaining[q]
    n = len(group)
    terms = []
    for mask in range(1 << n):
        total = sum((group[i].label for i in range(n) if mask >> i & 1),
                    Fraction(0))
        sign = (-1) ** (n - bin(mask).count("1"))
        new = dict(remaining)
        q = Passage(src, dst, total)
        new[q] = new.get(q, 0) + 1
        terms.append((Maze(p.dom, p.cod, new), sign))
    return MazeHom(p.dom, p.cod, terms)


def direct_sum_functor(f: MatrixFunctor, g: MatrixFunctor) -> MatrixFunctor:
    def dim(a):
        return f.dim(a) + g.dim(a)

    def arrow(m: IntMat) -> IntMat:
        top = f(m)
        bot = g(m)
        rows = [list(r) + [0] * bot.ncols for r in top.rows]
        rows += [[0] * top.ncols + list(r) for r in bot.rows]
        return IntMat(top.nrows + bot.nrows, top.ncols + bot.ncols, rows)

    return MatrixFunctor(f"{f.name}+{g.name}", dim, arrow)
