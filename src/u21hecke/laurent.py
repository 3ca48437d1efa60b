"""Truncated Laurent series over the quadratic residue extension.

E = k_E((t)) in equal characteristic; the Galois involution acts as the
q-power Frobenius on each coefficient and fixes t. Constant/polynomial data
is exact (infinite precision sentinel); inversion of a non-monomial
introduces a finite certified window, and windows propagate through
arithmetic by the usual valuation rules. A series whose certified
coefficients all vanish is a "zero window": it represents every element of
valuation >= prec, which is what support certificates quantify over.
"""

from ._kernel import INF
from .errors import InsufficientPrecision, InversionOfZero


def shift_trip(trip, e):
    """The triple of t^e times a series, with no table lookups: exact zero
    stays exact zero, and every other triple moves its valuation and its
    (finite) window by e."""
    val, prec, co = trip
    if prec >= INF:
        return (val + e, INF, co) if co else trip
    return (val + e, prec + e, co)


class Series:
    __slots__ = ("tower", "trip")

    def __init__(self, tower, trip):
        self.tower = tower
        self.trip = trip

    # ---- constructors --------------------------------------------------
    @classmethod
    def zero(cls, tower):
        return cls(tower, (INF, INF, ()))

    @classmethod
    def zero_window(cls, tower, prec):
        """The class of all elements with valuation >= prec."""
        return cls(tower, (prec, prec, ()))

    @classmethod
    def const(cls, tower, idx):
        idx = int(idx)
        if idx == 0:
            return cls.zero(tower)
        return cls(tower, (0, INF, (idx,)))

    @classmethod
    def t_pow(cls, tower, e, coeff=1):
        coeff = int(coeff)
        if coeff == 0:
            return cls.zero(tower)
        return cls(tower, (e, INF, (coeff,)))

    @classmethod
    def from_coeffs(cls, tower, val, coeffs, prec=INF):
        """Exact polynomial sum(coeffs[k] t^(val+k)); finite prec truncates."""
        co = tuple(int(c) for c in coeffs)
        i = 0
        while i < len(co) and co[i] == 0:
            i += 1
        n = len(co)
        while n > i and co[n - 1] == 0:
            n -= 1
        if i == n:
            s = cls.zero(tower)
        else:
            s = cls(tower, (val + i, INF, co[i:n]))
        if prec < INF:
            s = s + cls.zero_window(tower, prec)
        return s

    # ---- basic queries --------------------------------------------------
    @property
    def val(self):
        return self.trip[0]

    @property
    def prec(self):
        return self.trip[1]

    @property
    def coeffs(self):
        return self.trip[2]

    def is_exact_zero(self):
        return self.trip[1] >= INF and not self.trip[2]

    def is_zero_window(self):
        return not self.trip[2]

    def val_lower_bound(self):
        """Certified lower bound for the valuation (prec for zero windows)."""
        return self.trip[0]

    def coeff_at(self, j):
        val, prec, co = self.trip
        if j >= prec:
            raise InsufficientPrecision(
                "coefficient of t^%d not certified (prec %d)" % (j, prec)
            )
        if j < val:
            return 0
        if j - val >= len(co):
            return 0  # exact series: beyond the stored coefficients
        return co[j - val]

    def residue(self):
        return self.coeff_at(0)

    # ---- arithmetic ------------------------------------------------------
    def __add__(self, other):
        return Series(self.tower, self.tower.ctx.ser_add(self.trip, other.trip))

    def __sub__(self, other):
        return Series(self.tower, self.tower.ctx.ser_sub(self.trip, other.trip))

    def __neg__(self):
        return Series(self.tower, self.tower.ctx.ser_neg(self.trip))

    def __mul__(self, other):
        return Series(self.tower, self.tower.ctx.ser_mul(self.trip, other.trip))

    def conj(self):
        return Series(self.tower, self.tower.ctx.ser_conj(self.trip))

    def inverse(self, window=None):
        w = window if window is not None else self.tower.default_window
        try:
            trip = self.tower.ctx.ser_inv(self.trip, w)
        except ZeroDivisionError:
            raise InversionOfZero("series inverse of zero")
        except ArithmeticError:
            raise InsufficientPrecision(
                "series inverse: no certified leading coefficient"
            )
        return Series(self.tower, trip)

    def shift(self, e):
        return Series(self.tower, shift_trip(self.trip, e))

    def truncate(self, prec):
        """Forget coefficients at or beyond t^prec."""
        return self + Series.zero_window(self.tower, prec)

    def scale(self, idx):
        return self * Series.const(self.tower, idx)

    # ---- decisions -------------------------------------------------------
    def decide_zero(self, min_prec=1):
        """True if certified zero with window >= min_prec, False if some
        certified coefficient is nonzero, else InsufficientPrecision."""
        val, prec, co = self.trip
        if co:
            return False
        if prec >= min_prec:
            return True
        raise InsufficientPrecision(
            "zero to precision %d only (need %d)" % (prec, min_prec)
        )

    def eq_to_prec(self, other, min_prec=1):
        return (self - other).decide_zero(min_prec)

    def decide_val_ge(self, k):
        """True/False for val >= k when certified; else raises."""
        val, prec, co = self.trip
        if co:
            return val >= k
        if val >= k:
            return True
        raise InsufficientPrecision("valuation window too shallow")

    def __eq__(self, other):
        return isinstance(other, Series) and self.trip == other.trip

    def __hash__(self):
        return hash(self.trip)

    def __repr__(self):
        val, prec, co = self.trip
        if not co:
            return "O(t^%s)" % ("inf" if prec >= INF else prec)
        body = " + ".join(
            "%d*t^%d" % (c, val + k) for k, c in enumerate(co) if c
        )
        tail = "" if prec >= INF else " + O(t^%d)" % prec
        return body + tail


def trace_zero_unit(tower):
    """The fixed trace-zero unit of k_E, as an exact constant series."""
    return Series.const(tower, tower.trace_zero_unit_idx())
