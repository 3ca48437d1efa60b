"""Dense linear algebra over the coefficient field, on table indices.

Matrices are numpy arrays of dtype uint16 whose entries are element indices
of a Tower's coefficient field. Everything is exact (table lookups only),
and each step is one whole-array lookup in the tower's tables: a product
looks up every entry product at once and sums them by pairwise halving, and
elimination clears a pivot column in all rows at once.
"""

import numpy as np

from .errors import InversionOfZero, NotApplicable


def zeros(shape):
    return np.zeros(shape, dtype=np.uint16)


def eye(n):
    return np.eye(n, dtype=np.uint16)


def add(tw, A, B):
    return tw.add[A, B]


def neg(tw, A):
    return tw.neg[A]


def sub(tw, A, B):
    return tw.add[A, tw.neg[B]]


def smul(tw, s, A):
    return tw.mul[s, A]


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
    return sum_rows(tw, tw.mul[A.T[:, :, None], B[:, None, :]])


def sum_rows(tw, P):
    """Sum of the array P over its first axis by pairwise halving,
    ceil(log2 k) lookups for k rows; zeros when P has no rows."""
    k = P.shape[0]
    if k == 0:
        return zeros(P.shape[1:])
    while k > 1:
        h = k // 2
        head = tw.add[P[:h], P[h : 2 * h]]
        if k % 2:
            head[0] = tw.add[head[0], P[2 * h]]
        P, k = head, h
    return P[0]


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
        R[row, col:] = tw.mul[tw.i_(int(R[row, col])), R[row, col:]]
        f = tw.neg[R[:, col]]
        f[row] = 0
        hit = np.flatnonzero(f)
        if hit.size:
            R[hit, col:] = tw.add[
                R[hit, col:], tw.mul[f[hit, None], R[row, col:]]
            ]
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


def in_row_space(tw, basis, v):
    """Is v a combination of the rows of basis (assumed rref'd or not)?"""
    if basis.shape[0] == 0:
        return not v.any()
    stacked = np.concatenate([basis, v[None, :]], axis=0)
    return rank(tw, stacked) == rank(tw, basis)


class Basis:
    """Incrementally maintained reduced row echelon basis of a row space."""

    def __init__(self, tw, width):
        self.tw = tw
        self.width = width
        self.rows = []  # list of (pivot, np row), sorted by pivot

    def reduce(self, v):
        """v modulo the span; v is one vector or a matrix of row vectors."""
        tw = self.tw
        v = np.array(v, dtype=np.uint16, copy=True)
        if v.ndim == 2:
            for p, row in self.rows:
                f = tw.neg[v[:, p]]
                hit = np.flatnonzero(f)
                if hit.size:
                    v[hit] = tw.add[v[hit], tw.mul[f[hit, None], row]]
            return v
        for p, row in self.rows:
            c = v[p]
            if c:
                v = tw.add[v, tw.mul[tw.neg[c], row]]
        return v

    def add(self, v):
        """Insert v; returns the new pivot or None if already in the span."""
        tw = self.tw
        v = self.reduce(v)
        nz = np.nonzero(v)[0]
        if nz.size == 0:
            return None
        p = int(nz[0])
        v = tw.mul[tw.i_(int(v[p])), v]
        for i, (q, row) in enumerate(self.rows):
            c = row[p]
            if c:
                self.rows[i] = (q, tw.add[row, tw.mul[tw.neg[c], v]])
        self.rows.append((p, v))
        self.rows.sort(key=lambda t: t[0])
        return p

    def contains(self, v):
        return not self.reduce(v).any()

    @property
    def dim(self):
        return len(self.rows)

    def matrix(self):
        if not self.rows:
            return np.zeros((0, self.width), dtype=np.uint16)
        return np.stack([r for _, r in self.rows])

    def pivots(self):
        return [p for p, _ in self.rows]
