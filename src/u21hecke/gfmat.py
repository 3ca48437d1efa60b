"""Dense linear algebra over the coefficient field, on table indices.

Matrices are numpy arrays of dtype uint16 whose entries are element indices
of a Tower's coefficient field. Everything is exact (table lookups only),
and each step is one whole-array lookup through the tower's array methods
(Tower.plus, Tower.times and Tower.plus_times, each one flat take): a
product looks up every entry product at once and sums them by pairwise
halving, elimination clears a pivot column in all rows at once, one
x + c y step, and a block of rows is reduced modulo a basis by one product,
or by one such step per pivot when few pivots or few factors are in use
(_clear).

A row space is grown by one route: Basis.extend reduces a block of rows
modulo the basis (one _clear), takes the rref of what is left and clears
the new pivots in the old rows (one more _clear).  Basis.add is that with
a one-row block, and Basis.reduce, contains and coords read a block or one
vector through the same _clear: a member reduces to zero, and its
coordinates are its entries at the pivots.
"""

import numpy as np

from .errors import InversionOfZero, NotApplicable


def zeros(shape):
    return np.zeros(shape, dtype=np.uint16)


def eye(n):
    return np.eye(n, dtype=np.uint16)


def sub(tw, A, B):
    return tw.plus(A, tw.neg[B])


def matmul(tw, A, B):
    """A (n,k) @ B (k,m): one lookup forms the (k, n, m) entry products,
    then sum_rows sums them over k."""
    A = np.asarray(A, dtype=np.uint16)
    B = np.asarray(B, dtype=np.uint16)
    n, k = A.shape
    k2, m = B.shape
    if k != k2:
        raise NotApplicable(
            "matmul of shapes %s and %s" % (A.shape, B.shape)
        )
    return sum_rows(tw, tw.times(A.T[:, :, None], B[:, None, :]))


def sum_rows(tw, P):
    """Sum of the array P over its first axis by pairwise halving,
    ceil(log2 k) lookups for k rows; zeros when P has no rows."""
    k = P.shape[0]
    if k == 0:
        return zeros(P.shape[1:])
    while k > 1:
        h = k // 2
        head = tw.plus(P[:h], P[h : 2 * h])
        if k % 2:
            head[0] = tw.plus(head[0], P[2 * h])
        P, k = head, h
    return P[0]


def row_ids(a):
    """Number the distinct rows of a 2-D array of nonnegative integers (table
    indices): (ids, first), where rows i and j are equal exactly when
    ids[i] == ids[j], the ids number the distinct rows in lexicographic order
    (the inverse of np.unique(a, axis=0)), and first[k] is the first row of
    id k.

    The ids are refined over blocks of columns: the ids so far and the next
    columns, each in the base max(column) + 1, are packed into one int64 key
    as long as (number of ids) * (product of the bases) stays below 2^63,
    and the keys are numbered by np.unique.  A table index of any Q <=
    fields._MAX_Q fits ten bits, so every block holds a column for any row
    count below 2^53; NotApplicable where rows * base reaches 2^63."""
    a = np.asarray(a)
    n, width = a.shape
    ids = np.zeros(n, dtype=np.intp)
    first = np.zeros(min(n, 1), dtype=np.intp)
    if n == 0 or width == 0:
        return ids, first
    bases = (a.max(axis=0).astype(np.int64) + 1).tolist()
    if n * max(bases) >= 2**63:
        raise NotApplicable("row values too large to number in int64 keys")
    col, count = 0, 1
    while col < width:
        key, bound = ids.astype(np.int64), count
        while col < width and bound * bases[col] < 2**63:
            key = key * bases[col] + a[:, col]
            bound *= bases[col]
            col += 1
        _, first, ids = np.unique(key, return_index=True, return_inverse=True)
        count = len(first)
    return ids, first


def matvec(tw, A, v):
    v = np.asarray(v, dtype=np.uint16)
    return matmul(tw, A, v[:, None])[:, 0]


def rref(tw, A):
    """Reduced row echelon form; returns (R, pivot column list)."""
    R = np.array(A, dtype=np.uint16, copy=True)
    n, m = R.shape
    pivots = []
    row = 0
    for col in range(m):
        if row >= n:
            break
        nz = np.flatnonzero(R[row:, col])
        if nz.size == 0:
            continue
        sel = row + int(nz[0])
        if sel != row:
            R[[row, sel]] = R[[sel, row]]
        # columns left of col are zero in this row and all rows below it
        R[row, col:] = tw.times(tw.i_(int(R[row, col])), R[row, col:])
        f = tw.neg[R[:, col]]
        f[row] = 0
        hit = np.flatnonzero(f)
        if hit.size:
            R[hit, col:] = tw.plus_times(R[hit, col:], f[hit, None],
                                         R[row, col:])
        pivots.append(col)
        row += 1
    return R, pivots


def rank(tw, A):
    if A.size == 0:
        return 0
    return len(rref(tw, A)[1])


def row_space(tw, A):
    """Canonical basis (rref nonzero rows) of the row space."""
    R, pivots = rref(tw, A)
    return R[: len(pivots)].copy()


def nullspace(tw, A):
    """Basis of {x : A x = 0}, one row per basis vector."""
    A = np.asarray(A, dtype=np.uint16)
    m = A.shape[1]
    R, pivots = rref(tw, A)
    free = [c for c in range(m) if c not in pivots]
    basis = np.zeros((len(free), m), dtype=np.uint16)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = tw.neg[R[: len(pivots), free]].T
    return basis


def inverse(tw, A):
    """Inverse of a square matrix; raises InversionOfZero if singular."""
    n = A.shape[0]
    aug = np.concatenate([A, eye(n)], axis=1)
    R, pivots = rref(tw, aug)
    if pivots != list(range(n)):
        raise InversionOfZero("matrix is singular")
    return R[:, n:].copy()


# The most entry products (pivots x rows x width) one step of _clear's
# product forms.
_CLEAR_ENTRIES = 1 << 20
# _clear forms the product when more than _PRODUCT_PIVOTS pivots are in use
# and at least 1/_SPARSE of their factors are nonzero, and takes one step
# per pivot otherwise.  Both were set by timing the recorded _clear calls of
# socle chains (K0 at q = 3 and 5, K1 at q = 5) and of spin_K at q = 5: on
# blocks of a few rows a product costs more fixed time than a few steps,
# and over mostly zero factors it forms many zero entry products.
_PRODUCT_PIVOTS = 4
_SPARSE = 16


def _clear(tw, v, pivots, B):
    """v - v[:, pivots] B for a 2-D block v and the (len(pivots), width)
    array B of reduced rows (each 1 at its pivot and 0 at the pivots of the
    others): every row of v with its pivot entries cleared, as a new array.
    This equals clearing the pivots one row of B at a time (v minus v[:, p]
    times row p), since no such step changes v at another pivot.

    With few pivots in use, or sparse factors -v[:, pivots], it takes those
    steps, each on the rows with a nonzero factor.  Otherwise it forms the
    product on what can change: the rows with a nonzero factor and the
    non-pivot columns where the rows of B in use are nonzero (the pivot
    columns of the result are 0), in chunks of rows whose (pivots, rows,
    columns) entry products stay within _CLEAR_ENTRIES."""
    out = v.copy()
    f = tw.neg[v[:, pivots]]
    hit = np.flatnonzero(f.any(axis=0))
    if len(hit) > _PRODUCT_PIVOTS:
        rows = np.flatnonzero(f.any(axis=1))
        fr = f[np.ix_(rows, hit)]
        if np.count_nonzero(fr) * _SPARSE >= fr.size:
            out[:, pivots] = 0
            B = B[hit]
            cols = B.any(axis=0)
            cols[pivots] = False
            free = np.flatnonzero(cols)
            B = B[:, free]
            step = max(1, _CLEAR_ENTRIES // max(1, B.size))
            for lo in range(0, len(rows), step):
                prod = sum_rows(tw, tw.times(fr[lo : lo + step].T[:, :, None],
                                             B[:, None, :]))
                at = rows[lo : lo + step, None], free
                out[at] = tw.plus(v[at], prod)
            return out
    for i in hit:
        r = np.flatnonzero(f[:, i])
        out[r] = tw.plus_times(out[r], f[r, i, None], B[i])
    return out


class Basis:
    """The reduced row echelon basis of a growing row space: its rows,
    sorted by pivot, and their pivots.  Rows enter by extend alone, a block
    at a time (add is a one-row extend), and reduce clears the pivots of a
    block or of one vector by one _clear, so the basis is the canonical
    rref of everything inserted, whatever the order or the blocking."""

    def __init__(self, tw, width):
        self.tw = tw
        self.width = width
        self._rows = zeros((0, width))
        self._pivots = []

    def reduce(self, v):
        """v modulo the span; v is one vector or a matrix of row vectors."""
        v = np.asarray(v, dtype=np.uint16)
        out = _clear(self.tw, np.atleast_2d(v), self._pivots, self._rows)
        return out.reshape(v.shape)

    def add(self, v):
        """Insert one vector by a one-row extend; returns its pivot, or None
        if it is already in the span."""
        new = self.extend(np.asarray(v, dtype=np.uint16)[None])
        return int(np.flatnonzero(new[0])[0]) if len(new) else None

    def extend(self, block):
        """Insert every row of an (m, width) block: one reduction of the
        whole block modulo the span and one rref of what is left, whose
        rows are added at once (the old rows cleared at their pivots).
        Returns the added rows, whose span modulo the old span is that of
        the block."""
        tw = self.tw
        left = self.reduce(np.reshape(block, (len(block), self.width)))
        # the rref runs on the columns where something is left
        cols = np.flatnonzero(left.any(axis=0))
        R, piv = rref(tw, left[:, cols])
        new = zeros((len(piv), self.width))
        new[:, cols] = R[: len(piv)]
        if piv:
            # the new rows vanish at the old pivots, so clearing their own
            # pivots in the old rows keeps those rows reduced
            pivots = self._pivots + cols[piv].tolist()
            order = np.argsort(pivots)
            old = _clear(tw, self._rows, pivots[len(self._pivots):], new)
            self._rows = np.concatenate([old, new])[order]
            self._pivots = [pivots[i] for i in order]
        return new

    def contains(self, v):
        return not self.reduce(v).any()

    def coords(self, v):
        """The coordinates of v (one vector, or a matrix row by row), read
        at the pivots once v is certified in the span; None if it is not."""
        v = np.asarray(v, dtype=np.uint16)
        return None if self.reduce(v).any() else v[..., self._pivots]

    @property
    def dim(self):
        return len(self._pivots)

    def matrix(self):
        return self._rows.copy()

    def pivots(self):
        return list(self._pivots)
