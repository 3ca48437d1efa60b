"""The quasi-split unitary group in three variables over the Laurent field,
preserving the hermitian form with antidiagonal ones.

Group elements are handled in two layers:
  * atoms -- short tuples tagging the standard generators: upper/lower
    unipotents, norm-compatible diagonals, powers of the diagonal shift
    element, and the form matrix itself (an involution in the group);
  * Mat3 matrices -- for products, membership tests and reductions.

Also here: the two standard maximal compact subgroups (stabilizer of the
standard lattice, and of a shifted lattice), reduction to their reductive
quotients over the residue field, and the scan that finds the unipotent
depth constants of each compact.
"""

from .errors import (
    CrossCheckFailed,
    InsufficientPrecision,
    MembershipViolated,
    NotApplicable,
    RelationViolated,
)
from ._kernel import INF
from .laurent import Series, shift_trip
from .mat3 import EXACT_ONE, EXACT_ZERO, Mat3, form_matrix

K0 = "K0"
K1 = "K1"

# Entry-valuation patterns of the two compacts.
_K_PATTERN = {
    K0: ((0, 0, 0), (0, 0, 0), (0, 0, 0)),
    K1: ((0, 0, -1), (1, 0, 0), (1, 1, 0)),
}


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
# coefficient nonzero, exact tails stripped), so in the generic product
# mat3_mul a factor of exact one returns the other factor, a factor t^k is
# shift_trip by k, a factor of exact zero gives exact zero, and ser_add
# returns the other summand of an exact zero.  The operations below skip
# exactly those calls, so each result equals Mat3.__mul__ triple for triple,
# with the same ser_mul calls for every other entry and the sums in
# mat3_mul's order.  (ser_mul is symmetric in its two arguments, so the row
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
    b1 = a1 if x is None else add(mul(a0, x), a1)
    if y is None:
        b2 = a2 if x is None else add(mul(a1, mxb), a2)
    elif x is None:
        b2 = add(mul(a0, y), a2)
    else:
        b2 = add(add(mul(a0, y), mul(a1, mxb)), a2)
    return a0, b1, b2


def _upper_op(ctx, a0, a1, a2, x, y, mxb):
    """(a0 + a1 x + a2 y, a1 + a2 mxb, a2): one row times an "np" matrix."""
    mul, add = ctx.ser_mul, ctx.ser_add
    if x is None:
        b0 = a0 if y is None else add(a0, mul(a2, y))
        return b0, a1, a2
    b0 = add(a0, mul(a1, x))
    if y is not None:
        b0 = add(b0, mul(a2, y))
    return b0, add(a1, mul(a2, mxb)), a2


def times_atom(tower, e, atom):
    """Entries of M * atom_matrix(atom), for M with row-major entries e, by
    column operations: "a" shifts the outer columns, "b" reverses them, "d"
    scales them (9 ser_mul) and "n"/"np" add multiples of one column to the
    others (at most 9 ser_mul, fewer when x or y is exact zero).  Equal
    triple for triple to the generic product; see the comment above."""
    kind = atom[0]
    if kind == "a":
        k = (-atom[1], 0, atom[1])
        return tuple(shift_trip(t, k[i % 3]) for i, t in enumerate(e))
    if kind == "b":
        return (e[2], e[1], e[0], e[5], e[4], e[3], e[8], e[7], e[6])
    ctx = tower.ctx
    if kind == "d":
        mul, d = ctx.ser_mul, atom[1:]
        return tuple(mul(e[i], d[i % 3]) for i in range(9))
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
    """Product of the atom matrices of a word: the first atom's matrix, then
    one column operation (times_atom) per further atom."""
    atoms = iter(word)
    first = next(atoms, None)
    if first is None:
        return Mat3.identity(tower)
    e = atom_matrix(tower, first).e
    for atom in atoms:
        e = times_atom(tower, e, atom)
    return Mat3(tower, e)


def word_inverse(tower, word):
    return tuple(atom_inv(tower, a) for a in reversed(word))


# ---------------------------------------------------------------------------
# residue quotients of the compacts


class GammaElem:
    """Element of the residue-field quotient of a maximal compact.

    For the standard lattice the quotient is the full unitary group of the
    hermitian form over the quadratic residue extension (a 3x3 matrix of
    residue indices).  For the shifted lattice it is the product of a
    two-variable unitary group (2x2 matrix) with the norm-one circle (one
    scalar)."""

    __slots__ = ("tower", "kind", "m", "s")

    def __init__(self, tower, kind, m, s=None):
        self.tower = tower
        self.kind = kind
        self.m = tuple(m)
        self.s = s

    @classmethod
    def identity(cls, tower, kind):
        if kind == K0:
            return cls(tower, kind, (1, 0, 0, 0, 1, 0, 0, 0, 1))
        return cls(tower, kind, (1, 0, 0, 1), 1)

    def _n(self):
        return 3 if self.kind == K0 else 2

    def __mul__(self, other):
        tw, n = self.tower, self._n()
        a, b = self.m, other.m
        out = []
        for i in range(n):
            for j in range(n):
                acc = 0
                for k in range(n):
                    acc = tw.a(acc, tw.m_(a[i * n + k], b[k * n + j]))
                out.append(acc)
        if self.kind == K0:
            return GammaElem(tw, self.kind, out)
        return GammaElem(tw, self.kind, out, tw.m_(self.s, other.s))

    def inverse(self):
        tw = self.tower
        if self.kind == K0:
            a = self.m
            # J * conj(a)^T * J with J the antidiagonal: reverse both indices.
            out = [
                tw.c(a[(2 - j) * 3 + (2 - i)]) for i in range(3) for j in range(3)
            ]
            return GammaElem(tw, self.kind, out)
        a = self.m
        out = [tw.c(a[3]), tw.c(a[1]), tw.c(a[2]), tw.c(a[0])]
        return GammaElem(tw, self.kind, out, tw.i_(self.s))

    def det(self):
        tw = self.tower
        a = self.m
        if self.kind == K0:
            d = 0
            for (i, j, k), sgn in (
                ((0, 1, 2), 1),
                ((1, 2, 0), 1),
                ((2, 0, 1), 1),
                ((0, 2, 1), -1),
                ((1, 0, 2), -1),
                ((2, 1, 0), -1),
            ):
                term = tw.m_(tw.m_(a[i], a[3 + j]), a[6 + k])
                d = tw.a(d, term if sgn == 1 else tw.n(term))
            return d
        d2 = tw.s(tw.m_(a[0], a[3]), tw.m_(a[1], a[2]))
        return tw.m_(d2, self.s)

    def in_borel(self):
        if self.kind == K0:
            return self.m[3] == 0 and self.m[6] == 0 and self.m[7] == 0
        return self.m[2] == 0

    def in_unipotent(self):
        if not self.in_borel():
            return False
        if self.kind == K0:
            return self.m[0] == 1 and self.m[4] == 1 and self.m[8] == 1
        return self.m[0] == 1 and self.m[3] == 1 and self.s == 1

    def torus_pair(self):
        """(first diagonal residue, circle residue) of a Borel element; the
        pair that torus characters are evaluated on."""
        if not self.in_borel():
            raise NotApplicable("torus data of a non-Borel element")
        if self.kind == K0:
            return (self.m[0], self.m[4])
        return (self.m[0], self.s)

    def is_form_compatible(self):
        """Check the residue unitarity relation."""
        tw = self.tower
        a = self.m
        if self.kind == K0:
            for i in range(3):
                for j in range(3):
                    acc = 0
                    for k in range(3):
                        acc = tw.a(
                            acc, tw.m_(a[k * 3 + i], tw.c(a[(2 - k) * 3 + j]))
                        )
                    want = 1 if i + j == 2 else 0
                    if acc != want:
                        return False
            return True
        for i in range(2):
            for j in range(2):
                acc = 0
                for k in range(2):
                    acc = tw.a(acc, tw.m_(a[k * 2 + i], tw.c(a[(1 - k) * 2 + j])))
                want = 1 if i + j == 1 else 0
                if acc != want:
                    return False
        return tw.m_(self.s, tw.c(self.s)) == 1

    def key(self):
        return (self.kind, self.m, self.s)

    def __eq__(self, other):
        return (
            isinstance(other, GammaElem)
            and self.kind == other.kind
            and self.m == other.m
            and self.s == other.s
        )

    def __hash__(self):
        return hash((self.kind, self.m, self.s))

    def __repr__(self):
        if self.kind == K0:
            return "GammaElem(K0, %r)" % (self.m,)
        return "GammaElem(K1, %r, %r)" % (self.m, self.s)


def in_compact(tower, K, g):
    """Certified entry-pattern membership in the compact K.

    For matrices assembled from group atoms this is equivalent to lattice
    stabilization; the reduction below re-checks residue unitarity."""
    from .mat3 import decide_entry_val_ge

    return decide_entry_val_ge(g, _K_PATTERN[K])


def reduce_to_gamma(tower, K, g):
    """Reduce a compact element to the residue quotient."""
    if not in_compact(tower, K, g):
        raise MembershipViolated("matrix is not in the compact %s" % K)
    if K == K0:
        m = tuple(g.entry(i, j).coeff_at(0) for i in range(3) for j in range(3))
        gamma = GammaElem(tower, K0, m)
    else:
        m = (
            g.entry(0, 0).coeff_at(0),
            g.entry(0, 2).coeff_at(-1),
            g.entry(2, 0).coeff_at(1),
            g.entry(2, 2).coeff_at(0),
        )
        gamma = GammaElem(tower, K1, m, g.entry(1, 1).coeff_at(0))
    if not gamma.is_form_compatible():
        raise MembershipViolated("reduction is not residue-unitary")
    return gamma


def in_iwahori_unipotent(tower, K, g):
    """Membership in the pro-unipotent radical: in K with unipotent image."""
    if not in_compact(tower, K, g):
        return False
    return reduce_to_gamma(tower, K, g).in_unipotent()


# ---------------------------------------------------------------------------
# filtration layers of the unipotent subgroups


def layer_coords(tower, k):
    """Deterministic coordinate list for the k-th filtration layer of the
    upper unipotent subgroup: pairs (x, y0) of residue indices with
    x * conj(x) + y0 + conj(y0) = 0 when k is even (y0 may be zero only with
    x = 0), and (0, y0) with y0 of trace zero when k is odd."""
    tw = tower
    if k % 2 == 0:
        out = []
        for xi in range(tw.Q):
            c = tw.n(tw.m_(xi, tw.c(xi)))
            for ti in range(tw.Q):
                if tw.a(ti, tw.c(ti)) == c:
                    out.append((xi, ti))
        return out
    return [(0, ti) for ti in tw.trace_zero]


def layer_atom(tower, k, coords, prime=False):
    """Exact-constant representative of a filtration-layer coset."""
    xi, ti = coords
    if k % 2 == 0:
        x = Series.from_coeffs(tower, k // 2, (xi,)) if xi else Series.zero(tower)
    else:
        if xi:
            raise NotApplicable("odd layers carry no x coordinate")
        x = Series.zero(tower)
    y = Series.from_coeffs(tower, k, (ti,)) if ti else Series.zero(tower)
    if prime:
        return atom_np(tower, x, y)
    return atom_n(tower, x, y)


def layer_size(tower, k):
    return tower.q ** 3 if k % 2 == 0 else tower.q


def layer_transversal(tower, k, prime=False):
    """Coset representatives of the k-th layer modulo the (k+1)-st."""
    return [layer_atom(tower, k, c, prime) for c in layer_coords(tower, k)]


# ---------------------------------------------------------------------------
# depth constants of the compacts


def _layer_inside(tower, K, k, prime, pro_unipotent):
    for atom in layer_transversal(tower, k, prime):
        g = atom_matrix(tower, atom)
        try:
            ok = (
                in_iwahori_unipotent(tower, K, g)
                if pro_unipotent
                else in_compact(tower, K, g)
            )
        except MembershipViolated:
            ok = False
        if not ok:
            return False
    return True


def iwahori_constants(tower, K):
    """Scan for the unipotent depth constants of the compact.

    Returns (n_K, m_K, t_K): the least k with the whole upper filtration
    group at depth k inside K (equivalently inside its pro-unipotent
    radical), the least k with the lower filtration group at depth k inside
    the pro-unipotent radical, and the residue size exponent of the
    depth-n_K upper layer."""
    cache = getattr(tower, "_iwahori_cache", None)
    if cache is None:
        cache = tower._iwahori_cache = {}
    if K in cache:
        return cache[K]
    lo, hi = -4, 5

    def scan(prime, pro_unipotent):
        best = None
        for k in range(hi, lo - 1, -1):
            if _layer_inside(tower, K, k, prime, pro_unipotent):
                best = k
            else:
                break
        if best is None:
            raise MembershipViolated("no unipotent layer inside %s" % K)
        return best

    n_K = scan(False, False)
    m_K = scan(True, True)
    t_K = 3 if n_K % 2 == 0 else 1
    cache[K] = (n_K, m_K, t_K)
    return cache[K]


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


def torus_unit_atoms(tower):
    """Transversal of the unit torus modulo its pro-p part: one diagonal
    atom diag(a, c, conj(a)^-1) per residue pair (a, c) with a invertible
    and c of norm one."""
    out = []
    for a in range(1, tower.Q):
        ainv_bar = tower.c(tower.i_(a))
        for c in tower.norm_one:
            out.append(
                atom_d(
                    tower,
                    Series.const(tower, a),
                    Series.const(tower, c),
                    Series.const(tower, ainv_bar),
                )
            )
    return out
