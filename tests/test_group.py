"""Atoms of the quasi-split rank-one unitary group and their identities.

Every identity is checked by full matrix reassembly at certified precision.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from u21hecke.errors import (
    MembershipViolated,
    NotApplicable,
    RelationViolated,
)
from u21hecke._kernel import INF
from u21hecke.fields import Tower
from u21hecke.induction import grid_count
from u21hecke.laurent import Series
from u21hecke.mat3 import (
    Mat3,
    form_matrix,
    in_unitary_group,
    unitarity_defect,
    unitary_inverse,
)
from u21hecke.unitary_group import (
    GammaElem,
    atom_alpha,
    atom_beta,
    atom_d,
    atom_inv,
    atom_matrix,
    atom_n,
    atom_np,
    atom_times,
    exchange,
    in_compact,
    iwahori_constants,
    layer_atom,
    layer_coords,
    layer_size,
    layer_transversal,
    reduce_to_gamma,
    times_atom,
    word_matrix,
)
from u21hecke.weights import TRIVIAL, make_weight
from u21hecke.words import nf_uak, nf_uak_batch

from scalar import in_iwahori_unipotent, torus_unit_atoms

# A tower of this module's own, so its window does not depend on test order.
TW = Tower(3, 1)
TW.default_window = 24
TW5 = Tower(5, 1)


def scalar(v, coeffs):
    return Series.from_coeffs(TW, v, coeffs)


def torus_h(x):
    """The torus element diag(x, -conj(x)/x, conj(x)^-1); its entries carry
    finite windows when x is not a monomial."""
    xb = x.conj()
    return atom_d(TW, x, -(xb * x.inverse()), xb.inverse())


def test_atoms_are_unitary():
    x, y = scalar(-1, [3]), scalar(-2, [1])
    atoms = [
        atom_n(TW, x, y),
        atom_np(TW, x, y),
        torus_h(scalar(1, [2, 1])),
        atom_alpha(-3),
        atom_beta(),
        atom_d(TW, 1, 1, 1),
    ]
    for a in atoms:
        g = atom_matrix(TW, a)
        assert in_unitary_group(g, min_prec=12)
        gi = atom_matrix(TW, atom_inv(TW, a))
        assert (g * gi).eq_to_prec(Mat3.identity(TW), min_prec=12)


def test_unipotent_relation_enforced():
    with pytest.raises(RelationViolated):
        atom_n(TW, scalar(0, [1]), Series.zero(TW))
    with pytest.raises(RelationViolated):
        atom_np(TW, Series.zero(TW), scalar(0, [1]))
    # trace-zero y with x = 0 is fine
    atom_n(TW, Series.zero(TW), scalar(0, [TW.trace_zero_unit_idx()]))


@settings(max_examples=50, deadline=None)
@given(
    c1=st.integers(0, 26),
    c2=st.integers(0, 26),
    deep1=st.integers(0, 2),
    deep2=st.integers(0, 2),
)
def test_exchange_reassembles(c1, c2, deep1, deep2):
    # arguments from Iwahori-depth layers so the correction is invertible
    nK, mK, _ = iwahori_constants(TW, "K0")
    coords_n = layer_coords(TW, nK + 2 * deep1)
    coords_np = layer_coords(TW, mK + 2 * deep2)
    un = layer_atom(TW, nK + 2 * deep1, coords_n[c1 % len(coords_n)])
    unp = layer_atom(TW, mK + 2 * deep2, coords_np[c2 % len(coords_np)], prime=True)
    n2, d2, np2 = exchange(TW, unp, un, verify=True)
    lhs = atom_matrix(TW, unp) * (atom_matrix(TW, un))
    rhs = atom_matrix(TW, n2) * (atom_matrix(TW, d2)) * (atom_matrix(TW, np2))
    assert lhs.eq_to_prec(rhs, min_prec=6)


def test_exchange_rejects_singular_correction():
    tz = TW.trace_zero_unit_idx()
    u = scalar(0, [tz])
    # 1 + conj(y*y1) = 1 + conj(-1) = 0: no opposite-cell factorization
    with pytest.raises(NotApplicable):
        exchange(TW, atom_np(TW, Series.zero(TW), u), atom_n(TW, Series.zero(TW), u))


def test_iwahori_constants_frozen():
    assert iwahori_constants(TW, "K0") == (0, 1, 3)
    assert iwahori_constants(TW, "K1") == (-1, 2, 1)


def test_layer_sizes():
    assert layer_size(TW, 0) == 27
    assert layer_size(TW, 1) == 3
    assert layer_size(TW, -2) == 27
    assert len(layer_coords(TW, 4)) == 27
    assert len(layer_coords(TW, 3)) == 3
    assert len(layer_transversal(TW, 2)) == 27
    # coordinates satisfy the defining residue relation
    for xt, tt in layer_coords(TW, 0):
        lhs = TW.a(TW.m_(xt, TW.c(xt)), TW.a(tt, TW.c(tt)))
        assert lhs == 0


@pytest.mark.parametrize("tw", [TW, TW5], ids=["q3", "q5"])
def test_layer_atoms_match_atom_n(tw):
    """Each layer transversal, built once per (k, prime) from one array
    check of the unipotent relation, holds the atoms atom_n (atom_np for
    prime) makes of the monomials x = xi t^(k/2) and y = ti t^k, in the
    order of layer_coords, for k in -4..5; layer_atom reads the same atom.
    A pair off the layer raises what atom_n raises, and an x coordinate on
    an odd layer NotApplicable."""
    for k in range(-4, 6):
        coords = layer_coords(tw, k)
        for prime, make in ((False, atom_n), (True, atom_np)):
            atoms = layer_transversal(tw, k, prime)
            assert atoms is layer_transversal(tw, k, prime)
            assert atoms == tuple(
                make(tw, Series.from_coeffs(tw, k // 2, (xi,)),
                     Series.from_coeffs(tw, k, (ti,)))
                for xi, ti in coords
            )
            assert all(layer_atom(tw, k, c, prime) is a
                       for c, a in zip(coords, atoms))
    with pytest.raises(RelationViolated):
        layer_atom(tw, 0, (1, 0))
    with pytest.raises(RelationViolated):
        layer_atom(tw, 1, (0, 1))
    with pytest.raises(NotApplicable):
        layer_atom(tw, 1, (1, 0))


def test_weyl_atom_membership():
    b = atom_matrix(TW, atom_beta())
    assert in_compact(TW, "K0", b)
    assert not in_compact(TW, "K1", b)
    bp = b * (atom_matrix(TW, atom_alpha(-1)))
    assert in_compact(TW, "K1", bp)
    assert not in_compact(TW, "K0", bp)
    assert in_compact(TW, "K0", Mat3.identity(TW))
    assert in_compact(TW, "K1", Mat3.identity(TW))


def test_unitary_inverse_matches_form():
    g = atom_matrix(TW, atom_n(TW, Series.zero(TW), scalar(0, [TW.trace_zero_unit_idx()])))
    gi = unitary_inverse(g)
    assert (g * gi).eq_to_prec(Mat3.identity(TW), min_prec=10)
    assert unitarity_defect(g).decide_zero(min_prec=10)
    J = form_matrix(TW)
    assert (J * J).eq_to_prec(Mat3.identity(TW), min_prec=10)


def compact_word(tw, rng_idx, K):
    """Deterministic small words lying in the compact."""
    nK, mK, _ = iwahori_constants(tw, K)
    words = []
    # the second and the last coordinates: on even layers the last has x != 0
    for k, prime in ((nK, False), (nK + 1, False), (mK - 1, True), (mK, True)):
        cs = layer_coords(tw, k)
        for coords in (cs[1], cs[-1]):
            words.append((layer_atom(tw, k, coords, prime=prime),))
    words.extend((t,) for t in torus_unit_atoms(tw)[:4])
    if K == "K0":
        words.append((atom_beta(),))
    else:
        words.append((atom_alpha(1), atom_beta()))
    return words[rng_idx % len(words)]


@settings(max_examples=80, deadline=None)
@given(
    ijk=st.lists(st.integers(0, 40), min_size=3, max_size=3),
    K=st.sampled_from(["K0", "K1"]),
    tw=st.sampled_from([TW, TW5]),
)
def test_residue_reduction_is_homomorphic(ijk, K, tw):
    gs = [word_matrix(tw, compact_word(tw, i, K)) for i in ijk]
    r1, r2, r3 = (reduce_to_gamma(tw, K, g) for g in gs)
    r12 = reduce_to_gamma(tw, K, gs[0] * gs[1])
    one = GammaElem.identity(tw, K)
    assert r1 * r2 == r12
    assert r12 * r3 == r1 * (r2 * r3)
    assert r1.is_form_compatible()
    assert r1 * r1.inverse() == one == r1.inverse() * r1
    assert r12.inverse() == r2.inverse() * r1.inverse()
    assert r12.det() == tw.m_(r1.det(), r2.det())
    if r1.in_borel() and r2.in_borel():
        assert r12.in_borel()
        (a1, s1), (a2, s2) = r1.torus_pair(), r2.torus_pair()
        assert r12.torus_pair() == (tw.m_(a1, a2), tw.m_(s1, s2))


def old_k1_reading(g):
    """The former K1 residue reading: the 2x2 block (a, b; c, d) read at
    degrees (0, -1; 1, 0) plus the circle s at (1, 1), embedded here as
    (a, 0, b; 0, s, 0; c, 0, d)."""
    a, b, c, d, s = (
        g.entry(i, j).coeff_at(deg)
        for i, j, deg in ((0, 0, 0), (0, 2, -1), (2, 0, 1), (2, 2, 0), (1, 1, 0))
    )
    return (a, 0, b, 0, s, 0, c, 0, d)


def old_k1_unitary(tw, m):
    """The former K1 residue unitarity check: m2^T J2 conj(m2) = J2 on the
    2x2 block m2 with J2 antidiagonal, and s conj(s) = 1."""
    m2 = (m[0], m[2], m[6], m[8])
    for i in range(2):
        for j in range(2):
            acc = 0
            for k in range(2):
                acc = tw.a(acc, tw.m_(m2[k * 2 + i], tw.c(m2[(1 - k) * 2 + j])))
            if acc != (1 if i + j == 1 else 0):
                return False
    return tw.m_(m[4], tw.c(m[4])) == 1


@settings(max_examples=60, deadline=None)
@given(
    idx=st.lists(st.integers(0, 40), min_size=1, max_size=4),
    tw=st.sampled_from([TW, TW5]),
)
def test_k1_reduction_matches_old_reading(idx, tw):
    word = sum((compact_word(tw, i, "K1") for i in idx), ())
    g = word_matrix(tw, word)
    assert reduce_to_gamma(tw, "K1", g).m == old_k1_reading(g)


def test_k1_unitarity_matches_old_check():
    """Every K1 block matrix over GF(9): the 3x3 relation agrees with the
    former 2x2-plus-circle check (384 of the 9^5 blocks are unitary)."""
    found = 0
    for a, b, c, d, s in itertools.product(range(TW.Q), repeat=5):
        m = (a, 0, b, 0, s, 0, c, 0, d)
        ok = GammaElem(TW, "K1", m).is_form_compatible()
        assert ok == old_k1_unitary(TW, m)
        found += ok
    assert found == 384


def test_residue_reduction_rejects_noncompact():
    g = atom_matrix(TW, atom_alpha(1))
    with pytest.raises(MembershipViolated):
        reduce_to_gamma(TW, "K0", g)


def test_iwahori_unipotent_detection():
    nK, mK, _ = iwahori_constants(TW, "K0")
    inn = layer_atom(TW, nK, layer_coords(TW, nK)[1])
    assert in_iwahori_unipotent(TW, "K0", atom_matrix(TW, inn))
    shallow = layer_atom(TW, mK - 1, layer_coords(TW, mK - 1)[1], prime=True)
    assert not in_iwahori_unipotent(TW, "K0", atom_matrix(TW, shallow))


def test_torus_unit_atoms_cover_all_pairs():
    atoms = torus_unit_atoms(TW)
    assert len(atoms) == (TW.Q - 1) * len(TW.norm_one)  # 32 at q = 3
    pairs = set()
    for a in atoms:
        g = atom_matrix(TW, a)
        r = reduce_to_gamma(TW, "K0", g)
        assert r.in_borel()
        pairs.add(r.torus_pair())
    assert len(pairs) == 32


# ---------------------------------------------------------------------------
# structure-aware products against the generic 3x3 product


@st.composite
def raw_series(draw):
    """Any canonical triple: exact zero, a zero window, an exact polynomial
    or a finite-precision series, at valuations of both signs."""
    v = draw(st.integers(-3, 3))
    shape = draw(st.sampled_from(["zero", "window", "exact", "finite"]))
    if shape == "zero":
        return Series.zero(TW).trip
    if shape == "window":
        return Series.zero_window(TW, v).trip
    co = draw(st.lists(st.integers(0, 8), min_size=1, max_size=4))
    prec = INF if shape == "exact" else v + draw(st.integers(-1, 5))
    return Series.from_coeffs(TW, v, co, prec=prec).trip


@st.composite
def raw_atom(draw):
    """An atom of any of the five kinds with arbitrary entries (the
    unitarity relations do not matter to a matrix product)."""
    kind = draw(st.sampled_from(["n", "np", "d", "a", "b"]))
    if kind in ("n", "np"):
        return (kind, draw(raw_series()), draw(raw_series()))
    if kind == "d":
        return ("d",) + tuple(draw(raw_series()) for _ in range(3))
    if kind == "a":
        return ("a", draw(st.integers(-3, 3)))
    return ("b",)


raw_matrix = st.lists(raw_series(), min_size=9, max_size=9).map(
    lambda e: Mat3(TW, e)
)


def generic_word_matrix(word):
    m = Mat3.identity(TW)
    for atom in word:
        m = m * atom_matrix(TW, atom)
    return m


@settings(max_examples=150, deadline=None)
@given(word=st.lists(raw_atom(), max_size=6), m=raw_matrix, atom=raw_atom())
def test_atom_operations_match_generic_products(word, m, atom):
    assert word_matrix(TW, word).e == generic_word_matrix(word).e
    g = atom_matrix(TW, atom)
    assert times_atom(TW, m.e, atom) == (m * g).e
    assert atom_times(TW, atom, m.e) == (g * m).e
    J = form_matrix(TW)
    assert unitary_inverse(m).e == (J * m.conj_transpose() * J).e


def unskipped_product(A, B):
    """The generic product of two entry tuples with every ser_mul and
    ser_add made, exact-zero factors included."""
    ctx = TW.ctx
    out = []
    for i in range(3):
        for j in range(3):
            s = ctx.ser_mul(A[3 * i], B[j])
            s = ctx.ser_add(s, ctx.ser_mul(A[3 * i + 1], B[3 + j]))
            s = ctx.ser_add(s, ctx.ser_mul(A[3 * i + 2], B[6 + j]))
            out.append(s)
    return tuple(out)


@settings(max_examples=150, deadline=None)
@given(a=raw_matrix, b=raw_matrix, atom=raw_atom())
def test_exact_zero_skips_match_unskipped_product(a, b, atom):
    """mat3_mul and the atom operations skip every product with an
    exact-zero factor; on entries that mix exact zeros, zero windows and
    nonzero series their results equal the unskipped product triple for
    triple."""
    assert TW.ctx.mat3_mul(a.e, b.e) == unskipped_product(a.e, b.e)
    g = atom_matrix(TW, atom).e
    assert times_atom(TW, a.e, atom) == unskipped_product(a.e, g)
    assert atom_times(TW, atom, a.e) == unskipped_product(g, a.e)


def test_finite_precision_zero_is_multiplied(monkeypatch):
    """Only exact zeros are skipped: a product whose factor is a zero known
    to a finite precision still goes through ser_mul, and gives that
    precision."""
    one, zero = Series.const(TW, 1).trip, Series.zero(TW).trip
    window = Series.zero_window(TW, 3).trip
    a = (window, zero, zero, zero, one, zero, zero, zero, one)
    b = (one, zero, zero, zero, one, zero, zero, zero, one)
    calls = []
    real = type(TW.ctx).ser_mul

    def counted(self, x, y):
        calls.append((x, y))
        return real(self, x, y)

    monkeypatch.setattr(type(TW.ctx), "ser_mul", counted)
    out = TW.ctx.mat3_mul(a, b)
    # the three products of two nonzero factors, and none other
    assert sorted(calls) == sorted([(window, one), (one, one), (one, one)])
    assert out == unskipped_product(a, b)
    assert out[0] == window and out[1] == zero


@pytest.mark.parametrize("entry", [
    lambda K: iwahori_constants(TW, K),
    lambda K: nf_uak(TW, K, (atom_alpha(1),)),
    lambda K: nf_uak_batch(TW, K, [(atom_alpha(1),)]),
    lambda K: grid_count(TW, K, 1),
    lambda K: make_weight(TW, K, TRIVIAL),
], ids=["iwahori_constants", "nf_uak", "nf_uak_batch", "grid_count",
        "make_weight"])
def test_unknown_compact_is_typed(entry):
    """An unknown compact fails with NotApplicable, not a lookup error."""
    with pytest.raises(NotApplicable, match="unknown compact 'K2'"):
        entry("K2")
