"""Certified-precision Laurent series over the residue tower."""

import pytest
from hypothesis import given, settings, strategies as st

from u21hecke.errors import InsufficientPrecision, InversionOfZero
from u21hecke.fields import Tower
from u21hecke.laurent import INF, Series, trace_zero_unit

# A tower of this module's own, so its window does not depend on test order.
TW = Tower(3, 1)
TW.default_window = 24


def exact_series(draw_val, coeffs):
    return Series.from_coeffs(TW, draw_val, coeffs)


series_strategy = st.builds(
    exact_series,
    st.integers(-4, 4),
    st.lists(st.integers(0, 8), min_size=1, max_size=5),
)

window_strategy = st.builds(
    lambda v, co, extra: Series.from_coeffs(TW, v, co, prec=v + len(co)),
    st.integers(-4, 4),
    st.lists(st.integers(0, 8), min_size=1, max_size=5),
    st.integers(0, 3),
)

mixed_strategy = st.one_of(
    series_strategy,
    window_strategy,
    st.just(Series.zero(TW)),
    st.builds(lambda p: Series.zero_window(TW, p), st.integers(-3, 6)),
)


def test_normalization_strips_leading_zeros():
    s = Series.from_coeffs(TW, -2, [0, 0, 5, 0, 1, 0])
    assert s.val == 0
    assert s.coeffs == (5, 0, 1)
    assert s.prec >= INF
    z = Series.from_coeffs(TW, 3, [0, 0])
    assert z.is_exact_zero()


def test_window_invariant():
    s = Series.from_coeffs(TW, 1, [2, 0, 1], prec=4)
    assert s.val + len(s.coeffs) == s.prec
    trimmed = Series.from_coeffs(TW, 1, [0, 0, 1], prec=4)
    assert trimmed.val == 3 and trimmed.coeffs == (1,)


def test_constructors():
    one = Series.const(TW, 1)
    assert one.val == 0 and one.coeffs == (1,) and one.prec >= INF
    tp = Series.t_pow(TW, -3)
    assert tp.val == -3 and tp.coeffs == (1,)
    u = trace_zero_unit(TW)
    assert u.residue() == TW.trace_zero_unit_idx()


@settings(max_examples=120, deadline=None)
@given(a=mixed_strategy, b=mixed_strategy, c=mixed_strategy)
def test_ring_axioms(a, b, c):
    assert ((a + b) + c).trip == (a + (b + c)).trip
    assert (a + b).trip == (b + a).trip
    assert (a * b).trip == (b * a).trip
    lhs = a * (b + c)
    rhs = a * b + a * c
    # distributivity holds as far as both sides are certified
    p = min(lhs.prec, rhs.prec)
    if p > max(lhs.val_lower_bound(), rhs.val_lower_bound()):
        assert lhs.eq_to_prec(rhs, min_prec=min(p, 10**6))


@settings(max_examples=120, deadline=None)
@given(a=mixed_strategy)
def test_additive_inverse_and_conj(a):
    assert (a - a).decide_zero(min_prec=min(a.prec, 10**6)) or a.prec < 1
    assert a.conj().conj().trip == a.trip
    t = Series.t_pow(TW, 1)
    assert (t.conj()).trip == t.trip  # uniformizer is fixed by conjugation


@settings(max_examples=80, deadline=None)
@given(a=series_strategy, b=series_strategy)
def test_conj_is_ring_hom(a, b):
    assert (a * b).conj().trip == (a.conj() * b.conj()).trip
    assert (a + b).conj().trip == (a.conj() + b.conj()).trip


def test_precision_of_products():
    a = Series.from_coeffs(TW, 1, [1, 2], prec=3)
    b = Series.from_coeffs(TW, -2, [2, 1, 1], prec=1)
    prod = a * b
    assert prod.prec == min(a.val + b.prec, b.val + a.prec)
    assert prod.val == a.val + b.val


def test_inverse_certifies_window():
    a = Series.from_coeffs(TW, -1, [2, 0, 1])
    inv = a.inverse(window=12)
    assert (a * inv - Series.const(TW, 1)).decide_zero(min_prec=8)
    with pytest.raises(InversionOfZero):
        Series.zero(TW).inverse()
    with pytest.raises(InsufficientPrecision):
        Series.zero_window(TW, 5).inverse()


def test_exact_zero_is_absorbing():
    z = Series.zero(TW)
    w = Series.from_coeffs(TW, -3, [1, 2], prec=-1)
    assert (z + w).trip == w.trip
    assert (w + z).trip == w.trip
    assert (z * w).is_exact_zero()
    assert (w * z).is_exact_zero()
    assert z.shift(-5).is_exact_zero()
    assert z.conj().is_exact_zero()
    assert (-z).is_exact_zero()


def test_shift_and_truncate():
    s = Series.from_coeffs(TW, 2, [1, 0, 2])
    assert s.shift(-4).val == -2
    assert s.shift(3).prec >= INF
    w = s.truncate(4)
    assert w.prec == 4
    assert w.coeffs == (1, 0)
    zw = Series.zero_window(TW, 2).shift(-5)
    assert zw.prec == -3 and zw.is_zero_window()


def test_decide_zero_semantics():
    assert Series.zero(TW).decide_zero(min_prec=100)
    assert Series.zero_window(TW, 5).decide_zero(min_prec=5)
    assert not Series.from_coeffs(TW, 3, [1]).decide_zero()
    with pytest.raises(InsufficientPrecision):
        Series.zero_window(TW, 2).decide_zero(min_prec=3)


def test_decide_val_ge():
    s = Series.from_coeffs(TW, 2, [1], prec=5)
    assert s.decide_val_ge(2)
    assert s.decide_val_ge(1)
    assert not Series.from_coeffs(TW, 0, [1]).decide_val_ge(1)
    with pytest.raises(InsufficientPrecision):
        Series.zero_window(TW, 3).decide_val_ge(5)


def test_residue_and_coeff_at():
    s = Series.from_coeffs(TW, -1, [2, 1, 0, 1])
    assert s.residue() == 1
    assert s.coeff_at(-1) == 2
    assert s.coeff_at(2) == 1
    assert s.coeff_at(5) == 0  # exact series: beyond window is certified 0
    w = Series.from_coeffs(TW, 0, [1], prec=1)
    with pytest.raises(InsufficientPrecision):
        w.coeff_at(1)
