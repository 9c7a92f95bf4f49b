"""Small exact integer matrices with explicit shapes.

Shapes are carried separately from the row data so that 0 x k and k x 0
matrices stay distinguishable; functor values on the zero module need
them.  Everything is a plain tuple of tuples of ints: an entry must be
an int or a Fraction of denominator 1, and anything else is refused,
never truncated.

Data from outside goes through the checking constructor.  Results of
the package's own arithmetic on matrices that passed it (sums,
products, Kronecker products, integer multiples) are made of ints of
the right shape by construction, so they skip the second check.

Every product runs through row_products, which multiplies only nonzero
entries.  Sums of integer multiples skip zeros in one flat list, checks
and plans add only the nonzeros a presentation lists once, and the
lattice solver walks only the nonzero rows of its basis.
"""

from itertools import chain, compress

from .errors import ShapeMismatchError
from .scalars import integer

_INT = {int}


def _int_row(row):
    row = tuple(row)
    if _INT.issuperset(map(type, row)):
        return row
    return tuple(map(integer, row))


def nonzero_rows(rows):
    """The (column, entry) pairs of each row's nonzero entries: the right
    factor as row_products reads it."""
    return [list(compress(enumerate(row), row)) for row in rows]


def row_products(rows, right, ncols):
    """The rows, as tuples, of the product of the matrix with these rows
    and the ncols-column matrix with rows `right`, listed by nonzero_rows:
    each nonzero x of a left row adds x times the matching right row."""
    out = []
    for row in rows:
        acc = [0] * ncols
        for x, entries in compress(zip(row, right), row):
            for j, y in entries:
                acc[j] += x * y
        out.append(tuple(acc))
    return tuple(out)


def combination_rows(nrows, ncols, terms):
    """The rows of the sum of c * mat over the (mat, c) pairs of `terms`,
    every mat nrows x ncols and every c an int, summed in one flat list
    that skips zero coefficients and zero entries."""
    acc = [0] * (nrows * ncols)
    for mat, c in terms:
        if mat.nrows != nrows or mat.ncols != ncols:
            raise ShapeMismatchError("matrix shapes differ")
        if c:
            for j, x in enumerate(chain.from_iterable(mat.rows)):
                if x:
                    acc[j] += c * x
    return tuple(tuple(acc[r * ncols:(r + 1) * ncols]) for r in range(nrows))


class IntMat:
    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows, ncols, rows):
        rows = tuple(map(_int_row, rows))
        if len(rows) != nrows or any(len(r) != ncols for r in rows):
            raise ShapeMismatchError(
                f"rows do not match declared shape {nrows}x{ncols}")
        object.__setattr__(self, "nrows", nrows)
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "rows", rows)

    @classmethod
    def _trusted(cls, nrows, ncols, rows):
        """A matrix from package arithmetic on checked matrices: `rows` is
        already a tuple of nrows tuples of ncols ints, so it is not
        checked again."""
        m = object.__new__(cls)
        object.__setattr__(m, "nrows", nrows)
        object.__setattr__(m, "ncols", ncols)
        object.__setattr__(m, "rows", rows)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("IntMat is immutable")

    @classmethod
    def from_rows(cls, rows, ncols=None):
        rows = [list(r) for r in rows]
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        return cls(len(rows), ncols, rows)

    @classmethod
    def zeros(cls, nrows, ncols):
        return cls._trusted(nrows, ncols, ((0,) * ncols,) * nrows)

    @classmethod
    def identity(cls, n):
        return cls._trusted(n, n, tuple(tuple(int(i == j) for j in range(n))
                                        for i in range(n)))

    @classmethod
    def unit(cls, nrows, ncols, i, j, value=1):
        rows = [[0] * ncols for _ in range(nrows)]
        rows[i][j] = value
        if type(value) is not int:  # checked: 1.5 is refused
            return cls(nrows, ncols, rows)
        return cls._trusted(nrows, ncols, tuple(map(tuple, rows)))

    def __eq__(self, other):
        return (isinstance(other, IntMat) and self.nrows == other.nrows
                and self.ncols == other.ncols and self.rows == other.rows)

    def __hash__(self):
        return hash((self.nrows, self.ncols, self.rows))

    def __add__(self, other):
        self._same_shape(other)
        return IntMat._trusted(self.nrows, self.ncols, tuple(
            tuple([a + b for a, b in zip(ra, rb)])
            for ra, rb in zip(self.rows, other.rows)))

    def __sub__(self, other):
        self._same_shape(other)
        return IntMat._trusted(self.nrows, self.ncols, tuple(
            tuple([a - b for a, b in zip(ra, rb)])
            for ra, rb in zip(self.rows, other.rows)))

    def scale(self, factor):
        """factor times the matrix; a factor other than an int goes
        through the checking constructor, which refuses a non-integer
        result; a bool is refused, as integer refuses it."""
        rows = [[factor * a for a in row] for row in self.rows]
        if type(factor) is not int:
            if isinstance(factor, bool):
                raise ValueError(f"{factor!r} is not an integer")
            return IntMat(self.nrows, self.ncols, rows)
        return IntMat._trusted(self.nrows, self.ncols,
                               tuple(map(tuple, rows)))

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ShapeMismatchError(
                f"cannot multiply {self.nrows}x{self.ncols} by "
                f"{other.nrows}x{other.ncols}")
        return IntMat._trusted(self.nrows, other.ncols, row_products(
            self.rows, nonzero_rows(other.rows), other.ncols))

    def is_zero(self):
        return all(a == 0 for row in self.rows for a in row)

    def columns(self):
        """Every column as a tuple; a 0 x k matrix has k empty columns."""
        return tuple(zip(*self.rows)) if self.rows else ((),) * self.ncols

    def _same_shape(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ShapeMismatchError("matrix shapes differ")

    def kron(self, other):
        """Kronecker product, with the left factor's indices major."""
        return IntMat._trusted(
            self.nrows * other.nrows, self.ncols * other.ncols,
            tuple(tuple([a * b for a in ra for b in rb])
                  for ra in self.rows for rb in other.rows))

    def to_json(self):
        return [list(row) for row in self.rows]

    def __repr__(self):
        if self.nrows == 0 or self.ncols == 0:
            return f"IntMat({self.nrows}x{self.ncols})"
        return "IntMat(" + "; ".join(
            " ".join(str(a) for a in row) for row in self.rows) + ")"


def kron_power(m: IntMat, n: int) -> IntMat:
    if n < 1:
        raise ValueError("power must be >= 1")
    out = m
    for _ in range(n - 1):
        out = out.kron(m)
    return out


def column_lattice_basis(m: IntMat):
    """A column-echelon basis of the integer column span of m.

    Returns (pivot_rows, basis) where basis is a list of column tuples and
    pivot_rows[i] is the topmost nonzero row of basis[i]; pivot rows are
    strictly increasing.  Plain integer Gaussian elimination on columns
    with gcd steps; fine at desk scale.
    """
    cols = [list(col) for col in m.columns()]
    pivots, basis = [], []
    for row in range(m.nrows):
        cols = [c for c in cols if any(c[row:])]
        nz = [c for c in cols if c[row]]
        # reduce all leading entries at this row to a single gcd column
        while len(nz) > 1:
            small, nxt = sorted(nz, key=lambda c: abs(c[row]))[:2]
            q = nxt[row] // small[row]
            nxt[:] = [x - q * y for x, y in zip(nxt, small)]
            nz = [c for c in cols if c[row]]
        if nz:
            pivot = nz[0]
            if pivot[row] < 0:
                pivot[:] = [-x for x in pivot]
            cols.remove(pivot)
            basis.append(tuple(pivot))
            pivots.append(row)
    return pivots, basis


def solve_in_lattice(pivots, basis, vector):
    """Coordinates of `vector` in the echelon basis, or None if it is not
    in the integer span.  Each basis column is walked on its nonzero rows
    only, and not at all for a zero coordinate."""
    v = list(vector)
    coords = []
    for prow, bcol in zip(pivots, basis):
        t, r = divmod(v[prow], bcol[prow])
        if r:
            return None
        coords.append(t)
        if t:
            for i, x in compress(enumerate(bcol), bcol):
                v[i] -= t * x
    if any(v):
        return None
    return coords
