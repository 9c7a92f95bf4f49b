"""The number of composites a generator check or the exact span walk
(StructureConstants.span) reads: used by the tests and by
scripts/check_degree4.py."""


def composites(sc, generators):
    """The number of composites g . x of a generator g after a basis
    arrow x into its source."""
    return sum(len(sc.arrows[a, b]) for g in generators
               for a, b in sc.arrows if b == g.dom)
