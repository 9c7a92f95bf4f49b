"""The exact span test: do the words in a category's generators and its
identities span every hom-set over Z?

Words out of a source a are closed under composing with a generator on
the left, so a walk from the identity of a builds an integer echelon
form of their span, one hom-set a -> c at a time, whose pivots are all
1 or -1.  A basis arrow x is a pivot once it is shown to lie in the
span.  Then for each generator g: b -> c out of x's target, the
composite g . x, read off the structure constants, lies in the span as
well; when every term of it but one is a pivot and that one has
coefficient 1 or -1, the composite is the echelon row of that term, and
the term becomes a pivot.  A hom-set whose basis arrows all become
pivots is spanned over Z: its rows, in the order their pivots came,
form a unitriangular integer matrix.  Integers only, no floating point.

The test is exact when it passes.  A hom-set it leaves is reported as
unspanned; it then needs more than this walk, combinations of several
composites, to be shown spanned, or it is not spanned.

Used by the tests and by scripts/check_degree4.py.
"""

from collections import Counter


def unspanned(sc, generators, identity):
    """The nonempty hom-sets (a, c) of the structure constants sc that
    the walk does not show spanned by the words in `generators` and the
    identities; identity(a) is the identity of an end a."""
    out = {}
    for g in generators:
        out.setdefault(g.dom, []).append((g.cod, sc.index[g]))
    missing, ends = [], list(dict.fromkeys(x for x, _ in sc.arrows))
    for a in ends:
        # pivots holds (end, position) pairs; a composite waits as [its
        # terms off the pivots, end, terms] under each such term.
        pivots, waiting = set(), {}
        new = [(a, sc.index[identity(a)])]
        while new:
            pivot = new.pop()
            if pivot in pivots:
                continue
            pivots.add(pivot)
            rows = waiting.pop(pivot, [])
            for row in rows:
                row[0] -= 1
            b, i = pivot
            for c, k in out.get(b, ()):
                row = [0, c, sc.column(a, b, c, k)[i]]
                for u, _ in row[2]:
                    if (c, u) not in pivots:
                        row[0] += 1
                        waiting.setdefault((c, u), []).append(row)
                rows.append(row)
            for count, c, terms in rows:
                if count == 1:
                    new.extend((c, u) for u, e in terms
                               if (c, u) not in pivots and abs(e) == 1)
        found = Counter(c for c, _ in pivots)
        missing += [(a, c) for c in ends if len(sc.arrows[a, c]) > found[c]]
    return missing


def composites(sc, generators):
    """The number of composites g . x of a generator g after a basis
    arrow x into its source."""
    return sum(len(sc.arrows[a, b]) for g in generators
               for a, b in sc.arrows if b == g.dom)
