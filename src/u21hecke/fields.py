"""Finite residue fields and torus characters.

The residue tower is k_F = GF(q) inside k_E = GF(q^2), q = p^f with p odd.
Coefficient field for weights is the smallest GF(p^m) containing all
(q^2-1)-th roots of unity.  That is m = 2f by construction (the order of p
modulo p^(2f) - 1 is 2f), so the coefficient field coincides with k_E and
one set of tables serves both.

Elements are table indices (0 = zero, 1 = one); all arithmetic is lookups.
A scalar sum or product is one lookup in the Q x Q tables add and mul
(Tower.a, Tower.m_); the sum or product of index arrays is one flat take
over Q^2 entries (Tower.plus, Tower.times, Tower.plus_times), whose index
x Q + y is formed in place in the narrowest unsigned type holding Q^2.
In the package, every array lookup in add or mul goes through these three
methods.
"""

import numbers
from collections import OrderedDict
from functools import wraps

import numpy as np

from ._kernel import TableCtx
from .errors import InversionOfZero, NotApplicable

# Entries (or their total size) per memo table; a full table drops its
# oldest entries.
_MEMO_CAP = 150000
_MISS = object()
# Largest coefficient field size Q = q^2 that Tower builds tables for: each
# Q x Q table and the Q x Q x m intermediate of _build_tables grow with q^4,
# so q = 243 would need about 7 GB per table.
_MAX_Q = 1024


def memo(fn=None, *, size=None):
    """Memoize fn(owner, *args) in owner._memo, the dict a Tower or a Weight
    allocates in __init__, one table per function, keyed by the (hashable)
    arguments after the owner.  A hit returns the stored object.

    A table holds at most _MEMO_CAP entries, or with size (memo(size=...)),
    entries whose size(out) sum to at most _MEMO_CAP, so that a table of
    large records is bounded by what they hold.  A miss drops the table's
    oldest entries until the new one fits; an entry larger than _MEMO_CAP
    is returned and not stored."""
    if fn is None:
        return lambda fn: memo(fn, size=size)
    weigh = size or (lambda out: 1)

    @wraps(fn)
    def cached(owner, *args):
        tab = owner._memo.get(fn)
        if tab is None:
            tab = owner._memo[fn] = _MemoTable()
        out = tab.get(args, _MISS)
        if out is _MISS:
            out = fn(owner, *args)
            n = weigh(out)
            if n <= _MEMO_CAP:
                while tab and tab.held + n > _MEMO_CAP:
                    tab.held -= weigh(tab.popitem(last=False)[1])
                tab[args] = out
                tab.held += n
        return out

    return cached


class _MemoTable(OrderedDict):
    """The entries of one memo table in the order they were stored, and
    held, the sum of their sizes."""

    def __init__(self):
        super().__init__()
        self.held = 0


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _poly_mulmod(a, b, poly, p):
    """Multiply coefficient tuples mod (poly, p); poly is monic, degree m."""
    m = len(poly) - 1
    res = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                res[i + j] = (res[i + j] + ca * cb) % p
    # reduce by poly (x^m = -(poly[:-1]))
    for i in range(len(res) - 1, m - 1, -1):
        c = res[i]
        if c:
            res[i] = 0
            for j in range(m):
                res[i - m + j] = (res[i - m + j] - c * poly[j]) % p
    res = res[:m] + [0] * max(0, m - len(res))
    return tuple(res[:m])


def _poly_gcd(a, b, p):
    a, b = list(a), list(b)

    def deg(u):
        d = len(u) - 1
        while d >= 0 and u[d] % p == 0:
            d -= 1
        return d

    while deg(b) >= 0:
        da, db = deg(a), deg(b)
        if da < db:
            a, b = b, a
            continue
        inv = pow(b[db], p - 2, p)
        while deg(a) >= db:
            da = deg(a)
            c = a[da] * inv % p
            for j in range(db + 1):
                a[da - db + j] = (a[da - db + j] - c * b[j]) % p
        a, b = b, a
    return a


def _is_irreducible(poly, p):
    """poly = (c0..c_{m-1}) meaning x^m + sum c_k x^k; rabin test."""
    m = len(poly) - 1
    x = tuple([0, 1] + [0] * (m - 2)) if m >= 2 else (poly[0],)
    # compute x^(p^k) by iterated p-th powers
    def frob_iter(u, times):
        for _ in range(times):
            v = (1,) + (0,) * (m - 1)
            # u^p by square-and-multiply on exponent p
            e = p
            base = u
            acc = v
            while e:
                if e & 1:
                    acc = _poly_mulmod(acc, base, poly, p)
                base = _poly_mulmod(base, base, poly, p)
                e >>= 1
            u = acc
        return u

    xq = frob_iter(x, m)
    if xq != x:
        return False
    for r in _prime_factors(m):
        xr = frob_iter(x, m // r)
        diff = [(a - b) % p for a, b in zip(xr, x)]
        if not any(diff):
            return False
        g = _poly_gcd(list(poly), diff, p)
        nz = [i for i, c in enumerate(g) if c % p]
        if nz and max(nz) != 0:
            return False
    return True


def _find_poly(p, m):
    """Deterministic monic irreducible of degree m over GF(p): smallest
    coefficient vector in base-p counting order."""
    if m == 1:
        return (0, 1)
    for code in range(1, p**m):
        coeffs = []
        c = code
        for _ in range(m):
            coeffs.append(c % p)
            c //= p
        poly = tuple(coeffs) + (1,)
        if _is_irreducible(poly, p):
            return poly
    raise NotApplicable("no irreducible polynomial found")


class Tower:
    """Arithmetic tables for k_F < k_E = coefficient field GF(p^m)."""

    def __init__(self, p, f):
        for name, v in (("p", p), ("f", f)):
            if isinstance(v, bool) or not isinstance(v, numbers.Integral):
                raise NotApplicable("%s must be an int, got %r" % (name, v))
        p, f = int(p), int(f)
        if f < 1:
            raise NotApplicable("f must be at least 1, got %d" % f)
        if p < 3 or any(p % r == 0 for r in range(2, int(p**0.5) + 1)):
            raise NotApplicable("p must be an odd prime, got %r" % (p,))
        self.p = p
        self.f = f
        self.q = p**f
        self.m = 2 * f
        self.Q = self.q**2  # size of the coefficient field
        if self.Q > _MAX_Q:
            raise NotApplicable(
                "q^2 = %d is above the field-table cap %d" % (self.Q, _MAX_Q)
            )
        self.poly = _find_poly(p, self.m)
        # the one precision default: inversion windows and shift budgets
        self.default_window = 16
        self._build_tables()
        # x Q + y < Q^2 indexes the flat tables: uint16 up to Q = 256
        self.index_dtype = np.uint16 if self.Q**2 <= 2**16 else np.uint32
        self._add_flat = self.add.ravel()
        self._mul_flat = self.mul.ravel()
        # the products x y times Q, each the first index of a flat add entry
        self._mul_q_flat = self._mul_flat.astype(self.index_dtype) * self.Q
        self.ctx = TableCtx(self.add, self.neg, self.mul, self.inv, self.frob)
        self._memo = {}

    # ---- table construction -------------------------------------------
    def _idx_to_vec(self, i):
        v = []
        for _ in range(self.m):
            v.append(i % self.p)
            i //= self.p
        return tuple(v)

    def _vec_to_idx(self, v):
        i = 0
        for c in reversed(v):
            i = i * self.p + c
        return i

    def _build_tables(self):
        p, m, Q = self.p, self.m, self.Q
        digits = np.zeros((Q, m), dtype=np.int64)
        for i in range(Q):
            digits[i] = self._idx_to_vec(i)
        # addition: digitwise mod p
        summed = (digits[:, None, :] + digits[None, :, :]) % p
        powers = p ** np.arange(m, dtype=np.int64)
        self.add = (summed * powers).sum(axis=2).astype(np.uint16)
        self.neg = ((-digits) % p * powers).sum(axis=1).astype(np.uint16)
        # find a multiplicative generator using scalar poly multiplication
        def mul_scalar(a, b):
            return self._vec_to_idx(
                _poly_mulmod(self._idx_to_vec(a), self._idx_to_vec(b), self.poly, p)
            )

        order = Q - 1
        rs = _prime_factors(order)

        def pow_scalar(a, e):
            acc, base = 1, a
            while e:
                if e & 1:
                    acc = mul_scalar(acc, base)
                base = mul_scalar(base, base)
                e >>= 1
            return acc

        gen = None
        for cand in range(2, Q):
            if all(pow_scalar(cand, order // r) != 1 for r in rs):
                gen = cand
                break
        self.gen = gen
        # exp/log
        self.exp = np.zeros(order, dtype=np.uint16)
        self.log = np.zeros(Q, dtype=np.int64)
        cur = 1
        for k in range(order):
            self.exp[k] = cur
            self.log[cur] = k
            cur = mul_scalar(cur, gen)
        self.log[0] = -1
        # mul/inv/frobenius via logs
        li = self.log[:, None] + self.log[None, :]
        mul = self.exp[np.mod(li, order)]
        mul[0, :] = 0
        mul[:, 0] = 0
        self.mul = mul.astype(np.uint16)
        self.inv = np.zeros(Q, dtype=np.uint16)
        self.inv[1:] = self.exp[np.mod(-self.log[1:], order)]
        self.frob = np.zeros(Q, dtype=np.uint16)  # x -> x^q
        self.frob[1:] = self.exp[np.mod(self.log[1:] * self.q, order)]
        # subfield and special subsets
        self.in_base = self.frob == np.arange(Q)  # k_F = fixed field
        idxs = np.arange(Q)
        self.trace_zero = [int(i) for i in idxs if self.add[i, self.frob[i]] == 0]
        self.norm_one = [
            int(i) for i in idxs[1:] if self.mul[i, self.frob[i]] == 1
        ]
        self.norm_one.sort(key=lambda i: int(np.mod(self.log[i], order)))

    # ---- array arithmetic ----------------------------------------------
    def _index(self, a, b):
        """a Q + b for broadcast index arrays a and b in index_dtype, the
        flat position of the table entry [a, b]: a scalar a is scaled in
        Python, and b is added in place where a has the broadcast shape."""
        dt = self.index_dtype
        if np.ndim(a):
            i = np.multiply(a, self.Q, dtype=dt, casting="unsafe")
            if np.shape(b) == i.shape or np.broadcast(i, b).shape == i.shape:
                return np.add(i, b, out=i, casting="unsafe")
        else:
            i = int(a) * self.Q
        return np.add(i, b, dtype=dt, casting="unsafe")

    def plus(self, a, b):
        """The sums a + b of broadcast index arrays, as uint16."""
        return self._add_flat.take(self._index(a, b))

    def times(self, a, b):
        """The products a b of broadcast index arrays, as uint16."""
        return self._mul_flat.take(self._index(a, b))

    def plus_times(self, x, c, y):
        """x + c y for index arrays, with c and y broadcast and x
        broadcastable to their shape: one take of (c y) Q from the
        premultiplied product table, x added in place, one take from add."""
        i = self._mul_q_flat.take(self._index(c, y))
        np.add(i, x, out=i, casting="unsafe")
        return self._add_flat.take(i)

    # ---- scalar helpers ------------------------------------------------
    def a(self, i, j):
        return int(self.add[i, j])

    def s(self, i, j):
        return int(self.add[i, self.neg[j]])

    def n(self, i):
        return int(self.neg[i])

    def m_(self, i, j):
        return int(self.mul[i, j])

    def i_(self, i):
        if i == 0:
            raise InversionOfZero("residue-field inverse of 0")
        return int(self.inv[i])

    def c(self, i):
        return int(self.frob[i])

    def from_int(self, n):
        """Image of the rational integer n (prime-field element)."""
        n %= self.p
        acc = 0
        for _ in range(n):
            acc = self.a(acc, 1)
        return acc

    def trace_zero_unit_idx(self):
        """Smallest-index nonzero element with x + x^q = 0."""
        for i in self.trace_zero:
            if i != 0:
                return i
        raise NotApplicable("no trace-zero unit")

    def __repr__(self):
        return "Tower(p=%d, f=%d, q=%d, Lambda=GF(%d))" % (
            self.p,
            self.f,
            self.q,
            self.Q,
        )


class Character:
    """Character of the finite torus k_E^x × U1(k_E), stored as exponents
    (i mod q^2-1, j mod q+1) against the fixed generator zeta of k_E^x and
    xi = zeta^(q-1) of the norm-one subgroup."""

    __slots__ = ("tower", "i", "j")

    def __init__(self, tower, i, j):
        self.tower = tower
        self.i = int(i) % (tower.Q - 1)
        self.j = int(j) % (tower.q + 1)

    def value(self, a_idx, b_idx):
        """chi(a, b) as a coefficient-field index; a a unit, b norm-one."""
        t = self.tower
        if a_idx == 0:
            raise InversionOfZero("character at a = 0")
        la = int(t.log[a_idx])
        lb = int(t.log[b_idx])
        if b_idx == 0 or lb % (t.q - 1) != 0:
            raise NotApplicable("second coordinate is not norm-one")
        v = lb // (t.q - 1)
        k = (self.i * la + (t.q - 1) * self.j * v) % (t.Q - 1)
        return int(t.exp[k])

    def values(self, a, b):
        """value at index arrays a (units) and b (norm-one) of one shape:
        zeta^(i log a + j log b), as b = xi^v has log b = (q - 1) v."""
        t = self.tower
        la, lb = t.log[a], t.log[b]
        if (la < 0).any():
            raise InversionOfZero("character at a = 0")
        if ((lb < 0) | (lb % (t.q - 1) != 0)).any():
            raise NotApplicable("second coordinate is not norm-one")
        return t.exp[(self.i * la + self.j * lb) % (t.Q - 1)]

    def __mul__(self, other):
        return Character(self.tower, self.i + other.i, self.j + other.j)

    def inverse(self):
        return Character(self.tower, -self.i, -self.j)

    def is_trivial(self):
        return self.i == 0 and self.j == 0

    def det_twist_power(self):
        """k if chi is the k-th determinant twist (i == -k(q-1)), else None."""
        t = self.tower
        k = self.j
        if (self.i + k * (t.q - 1)) % (t.Q - 1) == 0:
            return k
        return None

    def __eq__(self, other):
        return (
            isinstance(other, Character) and self.i == other.i and self.j == other.j
        )

    def __hash__(self):
        return hash(("chi", self.i, self.j))

    def __repr__(self):
        return "Character(i=%d, j=%d)" % (self.i, self.j)


def characters_of_torus(tower):
    """All characters of the reduced torus, deterministic order."""
    out = []
    for i in range(tower.Q - 1):
        for j in range(tower.q + 1):
            out.append(Character(tower, i, j))
    return out


def char_s(chi):
    """Conjugate character: the hyperspecial/other involution sends the torus
    element with residues (a, b) to the one with residues (conj(a)^-1, b),
    hence exponents (i, j) -> (-q i, j). Independent of K."""
    return Character(chi.tower, -chi.tower.q * chi.i, chi.j)


def is_regular(chi):
    return char_s(chi) != chi
