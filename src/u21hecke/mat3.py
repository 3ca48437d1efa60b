"""3x3 matrices over the Laurent field, stored as row-major tuples of raw
kernel triples for speed. Series objects only at the boundaries."""

from ._kernel import EXACT_ZERO, INF
from .errors import IndeterminateMembership, InsufficientPrecision
from .laurent import Series

EXACT_ONE = (0, INF, (1,))


class Mat3:
    __slots__ = ("tower", "e")

    def __init__(self, tower, entries):
        self.tower = tower
        self.e = tuple(entries)

    @classmethod
    def identity(cls, tower):
        z, o = EXACT_ZERO, EXACT_ONE
        return cls(tower, (o, z, z, z, o, z, z, z, o))

    def entry(self, i, j):
        return Series(self.tower, self.e[3 * i + j])

    def __mul__(self, other):
        return Mat3(self.tower, self.tower.ctx.mat3_mul(self.e, other.e))

    def conj(self):
        ctx = self.tower.ctx
        return Mat3(self.tower, tuple(ctx.ser_conj(t) for t in self.e))

    def transpose(self):
        e = self.e
        return Mat3(
            self.tower, (e[0], e[3], e[6], e[1], e[4], e[7], e[2], e[5], e[8])
        )

    def conj_transpose(self):
        return Mat3(self.tower, self.tower.ctx.mat3_conj_t(self.e))

    def __sub__(self, other):
        ctx = self.tower.ctx
        return Mat3(
            self.tower,
            tuple(
                ctx.ser_sub(a, b) for a, b in zip(self.e, other.e)
            ),
        )

    def decide_zero(self, min_prec=1):
        """Certified zero matrix (to window >= min_prec per entry)."""
        out = True
        for t in self.e:
            if t[2]:
                return False
            if t[1] < min_prec:
                out = None
        if out is None:
            raise InsufficientPrecision("matrix zero test window too small")
        return True

    def eq_to_prec(self, other, min_prec=1):
        return (self - other).decide_zero(min_prec)

    def min_prec(self):
        return min(t[1] for t in self.e)

    def __eq__(self, other):
        return isinstance(other, Mat3) and self.e == other.e

    def __hash__(self):
        return hash(self.e)

    def __repr__(self):
        rows = []
        for i in range(3):
            rows.append(
                "[" + ", ".join(repr(self.entry(i, j)) for j in range(3)) + "]"
            )
        return "Mat3(\n " + ",\n ".join(rows) + ")"


def form_matrix(tower):
    """The hermitian form: antidiagonal ones."""
    z, o = EXACT_ZERO, EXACT_ONE
    return Mat3(tower, (z, z, o, z, o, z, o, z, z))


def unitarity_defect(g):
    """g^T * J * conj(g) - J; certified zero iff g is in the unitary group."""
    J = form_matrix(g.tower)
    return g.transpose() * J * g.conj() - J


def unitary_inverse(g):
    """Inverse of a unitary-group element: J * conj(g)^T * J.  Multiplying
    by the antidiagonal J on both sides reverses the row-major entry order,
    and the entries are canonical triples, so this equals the two generic
    products triple for triple."""
    return Mat3(g.tower, g.conj_transpose().e[::-1])


def in_unitary_group(g, min_prec=1):
    return unitarity_defect(g).decide_zero(min_prec)


def decide_entry_val_ge(g, pattern):
    """Certified val(g[i][j]) >= pattern[i][j] for all entries.

    Returns False on a certified violation; raises when a window is too
    shallow to decide."""
    indet = False
    for i in range(3):
        for j in range(3):
            t = g.e[3 * i + j]
            need = pattern[i][j]
            if t[2]:
                if t[0] < need:
                    return False
            elif t[0] < need:
                indet = True
    if indet:
        raise IndeterminateMembership("entry valuation window too shallow")
    return True
