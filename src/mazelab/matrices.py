"""Small exact integer matrices with explicit shapes.

Shapes are carried separately from the row data so that 0 x k and k x 0
matrices stay distinguishable; functor values on the zero module need
them.  Everything is a plain tuple of tuples of ints: an entry must be
an int or a Fraction of denominator 1, and anything else is refused,
never truncated.
"""

from .errors import ShapeMismatchError
from .scalars import integer

_INT = {int}


def _int_row(row):
    row = tuple(row)
    if _INT.issuperset(map(type, row)):
        return row
    return tuple(map(integer, row))


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
        return cls(nrows, ncols, [[0] * ncols for _ in range(nrows)])

    @classmethod
    def identity(cls, n):
        return cls(n, n, [[int(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def unit(cls, nrows, ncols, i, j, value=1):
        rows = [[0] * ncols for _ in range(nrows)]
        rows[i][j] = value
        return cls(nrows, ncols, rows)

    def __eq__(self, other):
        return (isinstance(other, IntMat) and self.nrows == other.nrows
                and self.ncols == other.ncols and self.rows == other.rows)

    def __hash__(self):
        return hash((self.nrows, self.ncols, self.rows))

    def __add__(self, other):
        self._same_shape(other)
        return IntMat(self.nrows, self.ncols,
                      [[a + b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other):
        self._same_shape(other)
        return IntMat(self.nrows, self.ncols,
                      [[a - b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.rows, other.rows)])

    def scale(self, factor):
        return IntMat(self.nrows, self.ncols,
                      [[factor * a for a in row] for row in self.rows])

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ShapeMismatchError(
                f"cannot multiply {self.nrows}x{self.ncols} by "
                f"{other.nrows}x{other.ncols}")
        cols = list(zip(*other.rows)) if other.rows else [()] * other.ncols
        return IntMat(self.nrows, other.ncols,
                      [[sum(a * b for a, b in zip(row, col)) for col in cols]
                       for row in self.rows])

    def is_zero(self):
        return all(a == 0 for row in self.rows for a in row)

    def column(self, j):
        return tuple(row[j] for row in self.rows)

    def _same_shape(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ShapeMismatchError("matrix shapes differ")

    def kron(self, other):
        """Kronecker product, with the left factor's indices major."""
        nr = self.nrows * other.nrows
        nc = self.ncols * other.ncols
        rows = []
        for i1 in range(self.nrows):
            for i2 in range(other.nrows):
                row = []
                for j1 in range(self.ncols):
                    for j2 in range(other.ncols):
                        row.append(self.rows[i1][j1] * other.rows[i2][j2])
                rows.append(row)
        return IntMat(nr, nc, rows)

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
    cols = [list(m.column(j)) for j in range(m.ncols)]
    basis = []
    pivots = []
    row = 0
    while row < m.nrows and cols:
        live = [c for c in cols if any(c[row:])]
        cols = live
        if not cols:
            break
        nz = [c for c in cols if c[row] != 0]
        if not nz:
            row += 1
            continue
        # reduce all leading entries at this row to a single gcd column
        while len([c for c in cols if c[row] != 0]) > 1:
            nz = sorted((c for c in cols if c[row] != 0),
                        key=lambda c: abs(c[row]))
            small, nxt = nz[0], nz[1]
            q = nxt[row] // small[row]
            for i in range(m.nrows):
                nxt[i] -= q * small[i]
        pivot = next(c for c in cols if c[row] != 0)
        if pivot[row] < 0:
            for i in range(m.nrows):
                pivot[i] = -pivot[i]
        cols.remove(pivot)
        basis.append(tuple(pivot))
        pivots.append(row)
        row += 1
    return pivots, basis


def solve_in_lattice(pivots, basis, vector):
    """Coordinates of `vector` in the echelon basis, or None if it is not
    in the integer span."""
    v = list(vector)
    coords = []
    for prow, bcol in zip(pivots, basis):
        lead = bcol[prow]
        if v[prow] % lead != 0:
            return None
        t = v[prow] // lead
        coords.append(t)
        for i in range(len(v)):
            v[i] -= t * bcol[i]
    if any(v):
        return None
    return coords
