"""The quasi-split unitary group in three variables over the Laurent field,
preserving the hermitian form with antidiagonal ones.

Group elements are handled in two layers:
  * atoms -- short tuples tagging the standard generators: upper/lower
    unipotents, norm-compatible diagonals, powers of the diagonal shift
    element, and the form matrix itself (an involution in the group);
  * Mat3 matrices of Series entries -- for products of words, and the
    membership test and residue reduction of one matrix (reduce_to_gamma),
    which serve only the tests' scalar oracle, the certificate check of
    induction.translation_recursion_check and the benchmark's tracer.

Also here: the two standard maximal compact subgroups (stabilizer of the
standard lattice, and of a shifted lattice), reduction to their reductive
quotients over the residue field, and the scan that finds the unipotent
depth constants of each compact.  The filtration layers are read as
arrays, with no series: every entry of a layer atom is an exact monomial,
so layer_residues decides membership on the entries' degrees and reads the
residues of a whole layer as one (N, 9) array, which the scan and the
reduced unipotent groups (weights.gamma_upper, gamma_lower) share.
"""

import numpy as np

from .errors import (
    CrossCheckFailed,
    InsufficientPrecision,
    MembershipViolated,
    NotApplicable,
    RelationViolated,
)
from ._kernel import INF
from .fields import memo
from .laurent import Series, shift_trip
from .mat3 import EXACT_ONE, EXACT_ZERO, Mat3, form_matrix

K0 = "K0"
K1 = "K1"

# Entry-valuation patterns of the two compacts.
_K_PATTERN = {
    K0: ((0, 0, 0), (0, 0, 0), (0, 0, 0)),
    K1: ((0, 0, -1), (1, 0, 0), (1, 1, 0)),
}


# The entries the residue map of a compact reads, as (entry, degree) pairs:
# entry 3i + j (row-major) at degree p[i][j], p the pattern, where the pair
# (i, j), (j, i) sits at opposite depths, p[i][j] + p[j][i] == 0.  The
# residue is 0 at every other entry (those pairs sum to a positive depth).
# At K0 that is all nine entries at degree 0; at K1 the diagonal at degree
# 0, (0, 2) at -1 and (2, 0) at +1, which is U(1,1) x U(1) embedded as in
# GammaElem.
RESIDUE_PLACES = {
    K: tuple(
        (3 * i + j, p[i][j])
        for i in range(3)
        for j in range(3)
        if p[i][j] + p[j][i] == 0
    )
    for K, p in _K_PATTERN.items()
}


def require_compact(K):
    """The one check on a compact argument: NotApplicable unless K is K0 or
    K1."""
    if K not in _K_PATTERN:
        raise NotApplicable("unknown compact %r" % (K,))


# ---------------------------------------------------------------------------
# atoms


def _series(tower, v):
    if isinstance(v, Series):
        return v
    return Series.const(tower, v)


def _check_unipotent_relation(x, y):
    """x*conj(x) + y + conj(y) must not be certified nonzero."""
    r = x * x.conj() + y + y.conj()
    if r.coeffs:
        raise RelationViolated(
            "unipotent parameters violate x*conj(x) + y + conj(y) = 0"
        )
    return r.prec


def atom_n(tower, x, y):
    """Upper unipotent with rows (1, x, y), (0, 1, -conj(x)), (0, 0, 1)."""
    x, y = _series(tower, x), _series(tower, y)
    _check_unipotent_relation(x, y)
    return ("n", x.trip, y.trip)


def atom_np(tower, x, y):
    """Lower unipotent, mirror image of atom_n."""
    x, y = _series(tower, x), _series(tower, y)
    _check_unipotent_relation(x, y)
    return ("np", x.trip, y.trip)


def atom_d(tower, d1, d2, d3):
    """Diagonal group element diag(d1, d2, d3); needs d3 = conj(d1)^-1 and
    d2 * conj(d2) = 1."""
    d1, d2, d3 = _series(tower, d1), _series(tower, d2), _series(tower, d3)
    r1 = d1.conj() * d3 - Series.const(tower, 1)
    r2 = d2 * d2.conj() - Series.const(tower, 1)
    if r1.coeffs or r2.coeffs:
        raise RelationViolated("diagonal entries violate unitarity")
    return ("d", d1.trip, d2.trip, d3.trip)


def atom_alpha(e):
    """e-th power of the diagonal shift diag(t^-1, 1, t)."""
    return ("a", int(e))


def atom_beta():
    """The antidiagonal form matrix; an involution in the group."""
    return ("b",)


def atom_matrix(tower, atom):
    kind = atom[0]
    z, o = EXACT_ZERO, EXACT_ONE
    if kind == "n":
        mxb = (-Series(tower, atom[1]).conj()).trip
        return Mat3(tower, (o, atom[1], atom[2], z, o, mxb, z, z, o))
    if kind == "np":
        mxb = (-Series(tower, atom[1]).conj()).trip
        return Mat3(tower, (o, z, z, atom[1], o, z, atom[2], mxb, o))
    if kind == "d":
        return Mat3(tower, (atom[1], z, z, z, atom[2], z, z, z, atom[3]))
    if kind == "a":
        e = atom[1]
        te = Series.t_pow(tower, -e).trip
        ti = Series.t_pow(tower, e).trip
        return Mat3(tower, (te, z, z, z, o, z, z, z, ti))
    if kind == "b":
        return form_matrix(tower)
    raise ValueError("unknown atom kind %r" % (kind,))


# Products with one atom factor.  Every entry is a canonical triple (leading
# coefficient nonzero, exact tails stripped), so in the generic product a
# factor of exact one returns the other factor, a factor t^k is shift_trip by
# k, a factor of exact zero (in the atom or in the other matrix) gives exact
# zero, and ser_add returns the other summand of an exact zero.  The
# operations below skip exactly those calls, as mat3_mul skips its
# exact-zero products, so each result equals Mat3.__mul__ triple for triple,
# with the same ser_mul calls for every other entry and the sums in
# mat3_mul's order.  A zero known only to a finite precision is multiplied
# as any series.  (ser_mul is symmetric in its two arguments, so the row
# operations may pass the atom entry second.)


def _unipotent_data(ctx, atom):
    """(x, y, -conj(x)) of an "n" or "np" atom, None for an exact zero."""
    x, y = atom[1], atom[2]
    if not x[2] and x[1] >= INF:
        x = mxb = None
    else:
        mxb = ctx.ser_neg(ctx.ser_conj(x))
    if not y[2] and y[1] >= INF:
        y = None
    return x, y, mxb


def _lower_op(ctx, a0, a1, a2, x, y, mxb):
    """(a0, a0 x + a1, a0 y + a1 mxb + a2): one row times an "n" matrix."""
    mul, add = ctx.ser_mul, ctx.ser_add
    if not a0[2] and a0[1] >= INF:
        x = y = None
    if not a1[2] and a1[1] >= INF:
        mxb = None
    b1 = a1 if x is None else add(mul(a0, x), a1)
    if y is None:
        b2 = a2 if mxb is None else add(mul(a1, mxb), a2)
    elif mxb is None:
        b2 = add(mul(a0, y), a2)
    else:
        b2 = add(add(mul(a0, y), mul(a1, mxb)), a2)
    return a0, b1, b2


def _upper_op(ctx, a0, a1, a2, x, y, mxb):
    """(a0 + a1 x + a2 y, a1 + a2 mxb, a2): one row times an "np" matrix."""
    mul, add = ctx.ser_mul, ctx.ser_add
    if not a1[2] and a1[1] >= INF:
        x = None
    if not a2[2] and a2[1] >= INF:
        y = mxb = None
    b0 = a0 if x is None else add(a0, mul(a1, x))
    if y is not None:
        b0 = add(b0, mul(a2, y))
    return b0, a1 if mxb is None else add(a1, mul(a2, mxb)), a2


def times_atom(tower, e, atom):
    """Entries of M * atom_matrix(atom), for M with row-major entries e, by
    column operations: "a" shifts the outer columns, "b" reverses them, "d"
    scales them (at most 9 ser_mul) and "n"/"np" add multiples of one column
    to the others (at most 9 ser_mul); a product with an exact-zero factor
    is skipped.  Equal triple for triple to the generic product; see the
    comment above."""
    kind = atom[0]
    if kind == "a":
        k = (-atom[1], 0, atom[1])
        return tuple(shift_trip(t, k[i % 3]) for i, t in enumerate(e))
    if kind == "b":
        return (e[2], e[1], e[0], e[5], e[4], e[3], e[8], e[7], e[6])
    ctx = tower.ctx
    if kind == "d":
        mul, d = ctx.ser_mul, atom[1:]
        return tuple(
            mul(t, d[i % 3]) if t[2] or t[1] < INF else EXACT_ZERO
            for i, t in enumerate(e)
        )
    if kind == "n":
        op = _lower_op
    elif kind == "np":
        op = _upper_op
    else:
        raise ValueError("unknown atom kind %r" % (kind,))
    x, y, mxb = _unipotent_data(ctx, atom)
    return (
        op(ctx, e[0], e[1], e[2], x, y, mxb)
        + op(ctx, e[3], e[4], e[5], x, y, mxb)
        + op(ctx, e[6], e[7], e[8], x, y, mxb)
    )


def _transposed(e):
    return (e[0], e[3], e[6], e[1], e[4], e[7], e[2], e[5], e[8])


def atom_times(tower, atom, e):
    """Entries of atom_matrix(atom) * M, for M with row-major entries e, by
    row operations: (M^T * atom^T)^T.  The transpose of an atom's matrix is
    the matrix of the atom itself for "a", "b" and "d", and n(x, y)^T is
    np(x, y), so this costs what times_atom costs and agrees with the
    generic product in the same way."""
    if atom[0] in ("n", "np"):
        atom = ("np" if atom[0] == "n" else "n",) + atom[1:]
    return _transposed(times_atom(tower, _transposed(e), atom))


def atom_inv(tower, atom):
    kind = atom[0]
    if kind == "n":
        x, y = Series(tower, atom[1]), Series(tower, atom[2])
        return ("n", (-x).trip, y.conj().trip)
    if kind == "np":
        x, y = Series(tower, atom[1]), Series(tower, atom[2])
        return ("np", (-x).trip, y.conj().trip)
    if kind == "d":
        inv = tuple(Series(tower, t).inverse().trip for t in atom[1:])
        return ("d",) + inv
    if kind == "a":
        return ("a", -atom[1])
    if kind == "b":
        return atom
    raise ValueError("unknown atom kind %r" % (kind,))


def word_matrix(tower, word):
    """Product of the atom matrices of a word: the identity, then one column
    operation (times_atom) per atom."""
    e = Mat3.identity(tower).e
    for atom in word:
        e = times_atom(tower, e, atom)
    return Mat3(tower, e)


def word_inverse(tower, word):
    return tuple(atom_inv(tower, a) for a in reversed(word))


# ---------------------------------------------------------------------------
# residue quotients of the compacts


_IDENTITY = (1, 0, 0, 0, 1, 0, 0, 0, 1)
# Row-major entries of a residue below its diagonal and on it: it lies in
# the Borel when the first are 0, and in its unipotent radical when the
# second are also 1.
BELOW_DIAGONAL = [3, 6, 7]
DIAGONAL = [0, 4, 8]
# Entry 3i + j of J * conj(m)^T * J (J the antidiagonal) is the conjugate of
# entry 8 - i - 3j of m: the inverse of a residue element as one gather.
INVERSE_ENTRIES = [8 - i - 3 * j for i in range(3) for j in range(3)]


class GammaElem:
    """Element of the residue quotient of a maximal compact: a 3x3 matrix of
    residue indices, row-major, tagged with its compact.

    At K0 the quotient is the unitary group U(3) of the antidiagonal form over
    the residue extension.  At K1 it is U(1,1) x U(1), embedded block
    diagonally in the same U(3): U(1,1) on rows and columns {0, 2}, the
    norm-one circle at entry (1, 1).  The embedding is a homomorphism that
    keeps the form, so one formula serves both compacts for every operation
    below."""

    __slots__ = ("tower", "kind", "m")

    def __init__(self, tower, kind, m):
        self.tower = tower
        self.kind = kind
        self.m = tuple(m)

    @classmethod
    def identity(cls, tower, kind):
        return cls(tower, kind, _IDENTITY)

    def __mul__(self, other):
        ctx = self.tower.ctx
        add, mul = ctx.add, ctx.mul
        a, b = self.m, other.m
        out = tuple(
            add[add[mul[a[i]][b[j]]][mul[a[i + 1]][b[j + 3]]]][
                mul[a[i + 2]][b[j + 6]]
            ]
            for i in (0, 3, 6)
            for j in (0, 1, 2)
        )
        return GammaElem(self.tower, self.kind, out)

    def inverse(self):
        """J * conj(m)^T * J with J the antidiagonal: reverse both indices."""
        frob, a = self.tower.ctx.frob, self.m
        out = tuple(frob[a[k]] for k in INVERSE_ENTRIES)
        return GammaElem(self.tower, self.kind, out)

    def det(self):
        ctx = self.tower.ctx
        add, neg, mul = ctx.add, ctx.neg, ctx.mul
        a = self.m

        def minor(i, j, k, l):
            return add[mul[a[i]][a[j]]][neg[mul[a[k]][a[l]]]]

        d = add[mul[a[0]][minor(4, 8, 5, 7)]][neg[mul[a[1]][minor(3, 8, 5, 6)]]]
        return add[d][mul[a[2]][minor(3, 7, 4, 6)]]

    def in_borel(self):
        return not any(self.m[i] for i in BELOW_DIAGONAL)

    def in_unipotent(self):
        return self.in_borel() and all(self.m[i] == 1 for i in DIAGONAL)

    def torus_pair(self):
        """(first diagonal residue, middle diagonal residue) of a Borel
        element; the pair that torus characters are evaluated on."""
        if not self.in_borel():
            raise NotApplicable("torus data of a non-Borel element")
        return (self.m[0], self.m[4])

    def is_form_compatible(self):
        """The residue unitarity relation: the inverse formula inverts."""
        return (self * self.inverse()).m == _IDENTITY

    def key(self):
        return (self.kind, self.m)

    def __eq__(self, other):
        return isinstance(other, GammaElem) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "GammaElem(%s, %r)" % (self.kind, self.m)


def in_compact(tower, K, g):
    """Certified entry-pattern membership in the compact K.

    For matrices assembled from group atoms this is equivalent to lattice
    stabilization; the reduction below re-checks residue unitarity."""
    from .mat3 import decide_entry_val_ge

    return decide_entry_val_ge(g, _K_PATTERN[K])


def check_residue_unitarity(tower, m):
    """MembershipViolated unless every residue element of m, a (9, N) array
    of entries (entry first, row-major GammaElem entries), is unitary: m
    times its inverse J conj(m)^T J (INVERSE_ENTRIES) is the identity, for
    all N at once."""
    g = m.reshape(3, 3, -1)
    h = tower.frob[m[::-1]].reshape(3, 3, -1).transpose(1, 0, 2)
    terms = tower.times(g[:, :, None, :], h[None, :, :, :])
    prod = tower.plus(tower.plus(terms[:, 0], terms[:, 1]), terms[:, 2])
    if (prod != np.eye(3, dtype=prod.dtype)[:, :, None]).any():
        raise MembershipViolated("reduction is not residue-unitary")


def reduce_to_gamma(tower, K, g):
    """Reduce a compact element to its residue quotient.

    The image reads the coefficient of each entry of RESIDUE_PLACES[K] at
    its degree, and is 0 elsewhere."""
    if not in_compact(tower, K, g):
        raise MembershipViolated("matrix is not in the compact %s" % K)
    m = [0] * 9
    for e, deg in RESIDUE_PLACES[K]:
        m[e] = g.entry(e // 3, e % 3).coeff_at(deg)
    gamma = GammaElem(tower, K, m)
    if not gamma.is_form_compatible():
        raise MembershipViolated("reduction is not residue-unitary")
    return gamma


# ---------------------------------------------------------------------------
# filtration layers of the unipotent subgroups


def layer_coords(tower, k):
    """Coordinate tuple of the k-th filtration layer of the upper unipotent
    subgroup, in sorted order: pairs (x, y0) of residue indices with
    x * conj(x) + y0 + conj(y0) = 0 when k is even (y0 may be zero only with
    x = 0), and (0, y0) with y0 of trace zero when k is odd.  The position
    of a pair in this tuple is its digit in a coset tag's grid index
    (words.tag_from_coords), so the order is part of the tag."""
    return _layer_coords(tower, k % 2)


@memo
def _layer_coords(tower, parity):
    tw = tower
    if parity == 0:
        out = []
        for xi in range(tw.Q):
            c = tw.n(tw.m_(xi, tw.c(xi)))
            for ti in range(tw.Q):
                if tw.a(ti, tw.c(ti)) == c:
                    out.append((xi, ti))
        return tuple(out)
    return tuple((0, ti) for ti in tw.trace_zero)


def layer_positions(tower, k):
    """The position in layer_coords(k) of every pair (x, y0) as an int64
    array of Q^2 entries, indexed by x * Q + y0; -1 at a pair that is not a
    layer coordinate."""
    return _layer_positions(tower, k % 2)


@memo
def _layer_positions(tower, parity):
    out = np.full(tower.Q * tower.Q, -1, dtype=np.int64)
    for i, (xi, ti) in enumerate(_layer_coords(tower, parity)):
        out[xi * tower.Q + ti] = i
    out.flags.writeable = False
    return out


def layer_atom(tower, k, coords, prime=False):
    """Exact-constant representative of a filtration-layer coset: the atom
    of layer_transversal(k, prime) at the position of coords
    (layer_positions).  NotApplicable for an x coordinate on an odd layer,
    RelationViolated (as atom_n) for any other pair off the layer."""
    xi, ti = coords
    if k % 2 and xi:
        raise NotApplicable("odd layers carry no x coordinate")
    i = int(layer_positions(tower, k)[xi * tower.Q + ti])
    if i < 0:
        raise RelationViolated(
            "unipotent parameters violate x*conj(x) + y + conj(y) = 0"
        )
    return layer_transversal(tower, k, prime)[i]


def layer_size(tower, k):
    return tower.q ** 3 if k % 2 == 0 else tower.q


def layer_transversal(tower, k, prime=False):
    """Coset representatives of the k-th layer modulo the (k+1)-st, one
    atom per pair of layer_coords(k), in that order, as a tuple."""
    return _layer_transversal(tower, k, bool(prime))


@memo
def _layer_transversal(tower, k, prime):
    """The atoms of layer_transversal, built once per (k, prime) as the
    tuples atom_n (atom_np with prime) makes of the exact monomials
    x = xi t^(k/2) and y = ti t^k, after one check of the unipotent
    relation x conj(x) + y + conj(y) = 0 on all the layer's pairs at once:
    its only coefficient, at t^k, is xi conj(xi) + ti + conj(ti)."""
    tw = tower
    coords = layer_coords(tw, k)
    xi, ti = np.array(coords, dtype=np.uint16).reshape(-1, 2).T
    if tw.plus_times(tw.plus(ti, tw.frob[ti]), xi, tw.frob[xi]).any():
        raise RelationViolated(
            "unipotent parameters violate x*conj(x) + y + conj(y) = 0"
        )
    zero = (INF, INF, ())
    kind = "np" if prime else "n"
    return tuple(
        (kind, (k // 2, INF, (x,)) if x else zero, (k, INF, (t,)) if t else zero)
        for x, t in coords
    )


# ---------------------------------------------------------------------------
# depth constants of the compacts


def layer_residues(tower, K, k, prime=False):
    """The residues in K of the atoms of layer_transversal(k, prime), in
    that order, as one read-only (N, 9) uint16 array of rows (GammaElem.m),
    or None when some atom leaves K.  MembershipViolated where a residue
    fails unitarity (check_residue_unitarity)."""
    require_compact(K)
    return _layer_residues(tower, K, k, bool(prime))


@memo
def _layer_residues(tower, K, k, prime):
    """The read of layer_residues, off the exact monomial entries of the
    layer atoms: n(x, y) has x = xi t^(k/2) at (0, 1), y = ti t^k at (0, 2)
    and -conj(x) at (1, 2), np(x, y) the same at the transposed places, and
    exact ones and zeros elsewhere.  An atom lies in K iff each nonzero
    monomial has degree at least the pattern's (in_compact), and a residue
    entry is the monomial's coefficient where (entry, degree) is one of
    RESIDUE_PLACES[K] (reduce_to_gamma), zero elsewhere; the diagonal's
    exact ones sit at degree 0, a residue place at both compacts."""
    tw, pat = tower, _K_PATTERN[K]
    places = set(RESIDUE_PLACES[K])
    coords = np.array(layer_coords(tw, k), dtype=np.uint16).reshape(-1, 2)
    xi, ti = coords.T
    m = np.zeros((9, len(coords)), dtype=np.uint16)
    m[DIAGONAL] = 1
    for (i, j), deg, c in (
        ((0, 1), k // 2, xi),
        ((0, 2), k, ti),
        ((1, 2), k // 2, tw.neg[tw.frob[xi]]),
    ):
        if prime:
            i, j = j, i
        if deg < pat[i][j] and c.any():
            return None
        if (3 * i + j, deg) in places:
            m[3 * i + j] = c
    check_residue_unitarity(tw, m)
    rows = m.T.copy()
    rows.flags.writeable = False
    return rows


@memo
def iwahori_constants(tower, K):
    """Scan for the unipotent depth constants of the compact.

    Returns (n_K, m_K, t_K): the least k with the whole upper filtration
    group at depth k inside K (equivalently inside its pro-unipotent
    radical), the least k with the lower filtration group at depth k inside
    the pro-unipotent radical, and the residue size exponent of the
    depth-n_K upper layer.  Each layer is read by layer_residues."""
    require_compact(K)
    lo, hi = -4, 5

    def scan(inside):
        best = None
        for k in range(hi, lo - 1, -1):
            if not inside(k):
                break
            best = k
        if best is None:
            raise MembershipViolated("no unipotent layer inside %s" % K)
        return best

    def lower_inside(k):
        # in K with upper unitriangular residues (GammaElem.in_unipotent)
        rows = layer_residues(tower, K, k, prime=True)
        return (rows is not None and not rows[:, BELOW_DIAGONAL].any()
                and (rows[:, DIAGONAL] == 1).all())

    n_K = scan(lambda k: layer_residues(tower, K, k) is not None)
    m_K = scan(lower_inside)
    t_K = 3 if n_K % 2 == 0 else 1
    return (n_K, m_K, t_K)


# ---------------------------------------------------------------------------
# structural identities


def beta_compact_word(K):
    """Word of the distinguished form involution lying inside the compact.

    The antidiagonal involution itself stabilizes the standard lattice; the
    shifted lattice contains its product with the inverse diagonal shift
    (also an involution)."""
    if K == K0:
        return (atom_beta(),)
    return (atom_beta(), atom_alpha(-1))


def exchange(tower, uprime, u, verify=True):
    """Rewrite np(x, y) * n(x1, y1) as n * d * np.

    Closed form; requires the correction terms 1 + x*x1 + conj(y*y1) to be
    invertible (automatic when the product lands in the pro-unipotent
    radical).  Returns (n-atom, d-atom, np-atom).  No normalization uses it
    any more; the benchmark's tracer (perfbench/tracer.py) still wraps it."""
    if uprime[0] != "np" or u[0] != "n":
        raise NotApplicable("exchange wants a lower then an upper unipotent")
    x, y = Series(tower, uprime[1]), Series(tower, uprime[2])
    x1, y1 = Series(tower, u[1]), Series(tower, u[2])
    one = Series.const(tower, 1)
    d1 = one + x * x1 + (y * y1).conj()
    d2 = d1.conj()
    from .errors import InversionOfZero

    try:
        d1i = d1.inverse()
        d2i = d2.inverse()
    except (InversionOfZero, InsufficientPrecision):
        raise NotApplicable("exchange correction is not invertible")
    n_new = atom_n(tower, (x1 - x.conj() * y1.conj()) * d1i, y1 * d2i)
    d_new = atom_d(tower, d1i, d1 * d2i, d2)
    np_new = atom_np(tower, (x - (x1 * y).conj()) * d1i, y * d2i)
    if verify:
        lhs = word_matrix(tower, (uprime, u))
        rhs = word_matrix(tower, (n_new, d_new, np_new))
        if (lhs - rhs).decide_zero(1) is False:
            raise CrossCheckFailed("exchange closed form failed to reassemble")
    return (n_new, d_new, np_new)
