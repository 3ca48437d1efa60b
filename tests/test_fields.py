"""Residue-tower tables and torus characters."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from u21hecke.errors import InversionOfZero, NotApplicable
from u21hecke.fields import (
    Tower,
    char_s,
    characters_of_torus,
    Character,
    is_regular,
)


def test_tower_q3_shape(tower):
    assert (tower.p, tower.f, tower.q) == (3, 1, 3)
    # the coefficient field is exactly the quadratic extension: m = 2f
    assert tower.m == 2
    assert tower.Q == 9
    # deterministic modulus for GF(9): x^2 + 1
    assert tower.poly == (1, 0, 1)


def test_tower_q3_frozen_subsets(tower):
    # independently derived by brute force over all 9 indices
    assert set(tower.trace_zero) == {0, 3, 6}
    assert set(tower.norm_one) == {1, 2, 3, 6}
    # norm-one list is sorted by discrete log: a cyclic generator comes second
    first = tower.norm_one[0]
    second = tower.norm_one[1]
    assert first == 1
    cur, seen = 1, []
    for _ in range(4):
        cur = tower.m_(cur, second)
        seen.append(cur)
    assert set(seen) == {1, 2, 3, 6}
    # the canonical trace-zero unit squares to -1
    u = tower.trace_zero_unit_idx()
    assert u == 3
    assert tower.m_(u, u) == tower.n(1)


def test_base_field_is_frobenius_fixed(tower):
    fixed = [i for i in range(tower.Q) if tower.c(i) == i]
    assert len(fixed) == tower.q
    assert all(tower.in_base[i] for i in fixed)


def test_scalar_ops_field_axioms(tower):
    Q = tower.Q
    for a in range(Q):
        assert tower.a(a, 0) == a
        assert tower.m_(a, 1) == a
        assert tower.a(a, tower.n(a)) == 0
        if a:
            assert tower.m_(a, tower.i_(a)) == 1
        # Frobenius is additive and multiplicative and an involution here
        assert tower.c(tower.c(a)) == a
    for a in range(Q):
        for b in range(Q):
            assert tower.a(a, b) == tower.a(b, a)
            assert tower.m_(a, b) == tower.m_(b, a)
            assert tower.c(tower.a(a, b)) == tower.a(tower.c(a), tower.c(b))
            assert tower.c(tower.m_(a, b)) == tower.m_(tower.c(a), tower.c(b))


def test_inversion_of_zero_raises(tower):
    with pytest.raises(InversionOfZero):
        tower.i_(0)


def test_from_int(tower):
    assert tower.from_int(0) == 0
    assert tower.from_int(1) == 1
    assert tower.from_int(3) == 0
    assert tower.from_int(-1) == tower.n(1)


def test_even_prime_rejected():
    with pytest.raises(NotApplicable):
        Tower(2, 1)
    with pytest.raises(NotApplicable):
        Tower(9, 1)


@pytest.mark.parametrize("p, f", [(3, -1), (3, 0), (3, 1.5), (3.0, 1),
                                  ("3", 1), (3, True)])
def test_tower_rejects_bad_arguments(p, f):
    """p and f must be ints and f at least 1; anything else fails with
    NotApplicable before a table is built."""
    with pytest.raises(NotApplicable):
        Tower(p, f)


def test_huge_tower_rejected_before_tables():
    # q = 37 would need 1369 x 1369 field tables, above the cap of q^2 <= 1024
    with pytest.raises(NotApplicable):
        Tower(37, 1)


def test_tower_q5_generalizes(tower5):
    assert tower5.m == 2
    assert tower5.Q == 25
    assert len(tower5.trace_zero) == 5
    assert len(tower5.norm_one) == 6
    u = tower5.trace_zero_unit_idx()
    # x^2 for a trace-zero unit is a base-field unit
    assert tower5.in_base[tower5.m_(u, u)]


# ---- array arithmetic ------------------------------------------------------


@pytest.mark.parametrize("p, f, index_dtype", [
    (3, 1, np.uint16), (5, 1, np.uint16), (7, 1, np.uint16),
    (3, 2, np.uint16), (17, 1, np.uint32),
], ids=["q3", "q5", "q7", "q9", "q17"])
def test_array_methods_match_the_tables(p, f, index_dtype):
    """Tower.plus, times and plus_times equal the Q x Q tables on all Q^2
    index pairs, for uint16 and intp inputs and broadcast shapes; q = 17
    (Q^2 > 2^16) forms its indices in uint32."""
    tw = Tower(p, f)
    Q = tw.Q
    assert tw.index_dtype == index_dtype
    grid = np.arange(Q)
    for dtype in (np.uint16, np.intp):
        a = np.repeat(grid, Q).astype(dtype)
        b = np.tile(grid, Q).astype(dtype)
        col, row = grid.astype(dtype)[:, None], grid.astype(dtype)[None, :]
        for method, table in ((tw.plus, tw.add), (tw.times, tw.mul)):
            for out in (method(a, b), method(col, row).ravel(),
                        method(a.reshape(Q, Q), b.reshape(Q, Q)).ravel()):
                assert out.dtype == np.uint16
                assert np.array_equal(out, table.ravel())
            # a scalar against an array, and two scalars
            assert np.array_equal(method(Q - 1, row), table[Q - 1][None, :])
            assert np.array_equal(method(col, 1), table[:, 1][:, None])
            assert method(Q - 1, Q - 2) == table[Q - 1, Q - 2]
        # x + c y over all (c, y) pairs, x broadcast along c
        x = grid[::-1].astype(dtype)[:, None]
        assert np.array_equal(tw.plus_times(x, col, row),
                              tw.add[x, tw.mul[col, row]])
        assert np.array_equal(tw.plus_times(b, a, b),
                              tw.add[b, tw.mul[a, b]])


# ---- torus characters ------------------------------------------------------


def test_character_counts(tower):
    chars = characters_of_torus(tower)
    assert len(chars) == (tower.Q - 1) * (tower.q + 1)  # 32 at q = 3
    regs = [c for c in chars if is_regular(c)]
    assert len(regs) == 16
    # regular exactly when the first exponent is odd (q = 3 case)
    assert all(c.i % 2 == 1 for c in regs)


def test_character_involution(tower):
    for chi in characters_of_torus(tower):
        assert char_s(char_s(chi)) == chi
        assert is_regular(chi) == (char_s(chi) != chi)


def test_character_values_are_homomorphic(tower):
    chi = Character(tower, 3, 2)
    units = [i for i in range(1, tower.Q)]
    circle = list(tower.norm_one)
    for a1 in units[:4]:
        for a2 in units[:4]:
            for b1 in circle:
                for b2 in circle:
                    lhs = chi.value(tower.m_(a1, a2), tower.m_(b1, b2))
                    rhs = tower.m_(chi.value(a1, b1), chi.value(a2, b2))
                    assert lhs == rhs
    assert chi.value(1, 1) == 1


def test_character_rejects_bad_arguments(tower):
    chi = Character(tower, 1, 0)
    with pytest.raises(InversionOfZero):
        chi.value(0, 1)
    bad = next(i for i in range(2, tower.Q) if i not in tower.norm_one)
    with pytest.raises(NotApplicable):
        chi.value(1, bad)


def test_det_twists_frozen(tower):
    # the four characters factoring through the determinant, derived by
    # solving i + k(q-1) = 0 mod (Q-1) for each k
    twists = {
        (chi.i, chi.j)
        for chi in characters_of_torus(tower)
        if chi.det_twist_power() is not None
    }
    assert twists == {(0, 0), (6, 1), (4, 2), (2, 3)}
    for chi in characters_of_torus(tower):
        k = chi.det_twist_power()
        if k is not None:
            assert not is_regular(chi)


@settings(max_examples=60, deadline=None)
@given(i1=st.integers(0, 7), j1=st.integers(0, 3), i2=st.integers(0, 7), j2=st.integers(0, 3))
def test_character_group_law(i1, j1, i2, j2):
    tw = Tower(3, 1)
    c1, c2 = Character(tw, i1, j1), Character(tw, i2, j2)
    prod = c1 * c2
    for a in (1, 2, tw.gen):
        for b in tw.norm_one:
            assert prod.value(a, b) == tw.m_(c1.value(a, b), c2.value(a, b))
    assert (c1 * c1.inverse()).is_trivial()
