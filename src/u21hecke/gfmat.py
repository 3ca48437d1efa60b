"""Dense linear algebra over the coefficient field, on table indices.

Matrices are numpy arrays of dtype uint16 whose entries are element indices
of a Tower's coefficient field. Everything is exact (table lookups only).
"""

import numpy as np


def zeros(shape):
    return np.zeros(shape, dtype=np.uint16)


def eye(n):
    m = np.zeros((n, n), dtype=np.uint16)
    for i in range(n):
        m[i, i] = 1
    return m


def add(tw, A, B):
    return tw.add[A, B]


def neg(tw, A):
    return tw.neg[A]


def sub(tw, A, B):
    return tw.add[A, tw.neg[B]]


def smul(tw, s, A):
    return tw.mul[s, A]


def matmul(tw, A, B):
    """A (n,k) @ B (k,m) by fold over the inner axis."""
    A = np.asarray(A, dtype=np.uint16)
    B = np.asarray(B, dtype=np.uint16)
    n, k = A.shape
    k2, m = B.shape
    assert k == k2
    acc = np.zeros((n, m), dtype=np.uint16)
    for i in range(k):
        acc = tw.add[acc, tw.mul[A[:, i][:, None], B[i][None, :]]]
    return acc


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
        sel = None
        for r in range(row, n):
            if R[r, col] != 0:
                sel = r
                break
        if sel is None:
            continue
        if sel != row:
            R[[row, sel]] = R[[sel, row]]
        inv = tw.i_(int(R[row, col]))
        R[row] = tw.mul[inv, R[row]]
        for r in range(n):
            if r != row and R[r, col] != 0:
                f = tw.neg[R[r, col]]
                R[r] = tw.add[R[r], tw.mul[f, R[row]]]
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
    n, m = A.shape
    R, pivots = rref(tw, A)
    free = [c for c in range(m) if c not in pivots]
    basis = []
    for fc in free:
        v = np.zeros(m, dtype=np.uint16)
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = tw.neg[R[r, fc]]
        basis.append(v)
    if not basis:
        return np.zeros((0, m), dtype=np.uint16)
    return np.stack(basis)


def inverse(tw, A):
    n = A.shape[0]
    aug = np.concatenate([A, eye(n)], axis=1)
    R, pivots = rref(tw, aug)
    if pivots != list(range(n)):
        return None
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
        tw = self.tw
        v = np.array(v, dtype=np.uint16, copy=True)
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
