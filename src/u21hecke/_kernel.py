"""The series/matrix kernel of the package: pure Python, and the only one.

A series is a triple (val, prec, coeffs): coeffs[k] is the table index of the
coefficient of t^(val+k), every coefficient of t^j for j < prec is certified,
and val + len(coeffs) == prec. A certified-zero window is (prec, prec, ()).
Exact zero uses the INF sentinel. Leading certified zeros are always stripped.

Each Tower builds one TableCtx (tower.ctx) that laurent and mat3 call into.
BACKEND_NAME and backend (this module itself) remain only because the
benchmark harness in perfbench/ reports the former and counts kernel calls
by wrapping the methods of backend.TableCtx.
"""

import sys

INF = 10**9
EXACT_ZERO = (INF, INF, ())

# Benchmark-facing names; see the module docstring.
BACKEND_NAME = "pure"
backend = sys.modules[__name__]


def _norm(val, prec, coeffs):
    i = 0
    n = len(coeffs)
    while i < n and coeffs[i] == 0:
        i += 1
    if i == n:
        if prec >= INF:
            return (INF, INF, ())
        return (prec, prec, ())
    if prec >= INF:
        # exact polynomial: strip trailing zeros too, canonical form
        while n > i and coeffs[n - 1] == 0:
            n -= 1
        return (val + i, INF, tuple(coeffs[i:n]))
    if i:
        return (val + i, prec, tuple(coeffs[i:]))
    return (val, prec, tuple(coeffs))


class TableCtx:
    """Arithmetic context bound to one set of field tables."""

    def __init__(self, add, neg, mul, inv, frob):
        self.add = add.tolist()
        self.neg = neg.tolist()
        self.mul = mul.tolist()
        self.inv = inv.tolist()
        self.frob = frob.tolist()

    # ---- series -------------------------------------------------------
    def ser_neg(self, a):
        val, prec, co = a
        neg = self.neg
        return (val, prec, tuple(neg[c] for c in co))

    def ser_add(self, a, b):
        va, pa, ca = a
        vb, pb, cb = b
        if not ca and pa >= INF:
            return b
        if not cb and pb >= INF:
            return a
        prec = pa if pa <= pb else pb
        if not ca and not cb:
            return (prec, prec, ()) if prec < INF else (INF, INF, ())
        lo = min(va if ca else pa, vb if cb else pb)
        if lo >= prec:
            return (prec, prec, ())
        if prec >= INF:
            n = max(va + len(ca), vb + len(cb)) - lo
        else:
            n = prec - lo
        out = [0] * n
        add = self.add
        for k, c in enumerate(ca):
            j = va + k - lo
            if 0 <= j < n:
                out[j] = c
        for k, c in enumerate(cb):
            j = vb + k - lo
            if 0 <= j < n:
                out[j] = add[out[j]][c]
        return _norm(lo, prec, out)

    def ser_sub(self, a, b):
        return self.ser_add(a, self.ser_neg(b))

    def ser_mul(self, a, b):
        va, pa, ca = a
        vb, pb, cb = b
        if not ca and pa >= INF:
            return (INF, INF, ())
        if not cb and pb >= INF:
            return (INF, INF, ())
        if pa >= INF and pb >= INF:
            prec = INF
        else:
            prec = min(va + pb, vb + pa)
            if prec > INF:
                prec = INF
        if not ca or not cb:
            if prec >= INF:
                return (INF, INF, ())
            return (prec, prec, ())
        val = va + vb
        n = prec - val
        la, lb = len(ca), len(cb)
        if n > la + lb - 1 and prec >= INF:
            n = la + lb - 1
            prec = INF
        out = [0] * n
        add = self.add
        mul = self.mul
        for i, ci in enumerate(ca):
            if ci == 0 or i >= n:
                continue
            mrow = mul[ci]
            top = min(lb, n - i)
            for j in range(top):
                cj = cb[j]
                if cj:
                    out[i + j] = add[out[i + j]][mrow[cj]]
        return _norm(val, prec, out)

    def ser_conj(self, a):
        val, prec, co = a
        frob = self.frob
        return (val, prec, tuple(frob[c] for c in co))

    def ser_inv(self, a, window):
        val, prec, co = a
        if not co:
            if prec >= INF:
                raise ZeroDivisionError("inverse of exact zero")
            raise ArithmeticError("inverse of certified-zero window")
        L = len(co)
        if prec >= INF and L == 1:
            return (-val, INF, (self.inv[co[0]],))
        # exact polynomials invert to an infinite series: certify `window`
        # coefficients; finite-precision inputs keep their window (capped).
        n = window if prec >= INF else min(L, window)
        add, mul, neg, inv = self.add, self.mul, self.neg, self.inv
        c0i = inv[co[0]]
        out = [0] * n
        out[0] = c0i
        for k in range(1, n):
            s = 0
            top = min(k, L - 1)
            for j in range(1, top + 1):
                t = mul[co[j]][out[k - j]]
                s = add[s][t]
            out[k] = mul[neg[c0i]][s] if s else 0
        return _norm(-val, -val + n, out)

    # ---- 3x3 matrices (tuples of 9 series, row major) ------------------
    def mat3_mul(self, A, B):
        """A * B.  A product with an exact-zero factor is skipped, with the
        ser_add that would take it: ser_mul returns exact zero there, and
        ser_add returns the other summand of an exact zero, so every entry
        equals the sum of all three products triple for triple.  A zero
        known only to a finite precision is multiplied as any series."""
        mul, add = self.ser_mul, self.ser_add
        out = []
        for i in range(3):
            for j in range(3):
                s = None
                for k in range(3):
                    a, b = A[3 * i + k], B[3 * k + j]
                    if (a[2] or a[1] < INF) and (b[2] or b[1] < INF):
                        p = mul(a, b)
                        s = p if s is None else add(s, p)
                out.append(EXACT_ZERO if s is None else s)
        return tuple(out)

    def mat3_conj_t(self, A):
        return tuple(self.ser_conj(A[3 * j + i]) for i in range(3) for j in range(3))
