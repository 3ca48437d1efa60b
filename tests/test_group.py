"""Atoms of the quasi-split rank-one unitary group and their identities.

Every identity is checked by full matrix reassembly at certified precision.
"""

import pytest
from hypothesis import given, settings, strategies as st

from u21hecke.errors import (
    MembershipViolated,
    NotApplicable,
    RelationViolated,
)
from u21hecke._kernel import INF
from u21hecke.fields import Tower
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
    in_iwahori_unipotent,
    iwahori_constants,
    layer_atom,
    layer_coords,
    layer_size,
    layer_transversal,
    reduce_to_gamma,
    times_atom,
    torus_unit_atoms,
    word_matrix,
)

# A tower of this module's own, so its window does not depend on test order.
TW = Tower(3, 1)
TW.default_window = 24


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


def compact_word(rng_idx, K):
    """Deterministic small words lying in the compact."""
    nK, mK, _ = iwahori_constants(TW, K)
    words = []
    for k in (nK, nK + 1):
        for coords in layer_coords(TW, k)[:2]:
            words.append((layer_atom(TW, k, coords),))
    for k in (mK - 1, mK):
        for coords in layer_coords(TW, k)[:2]:
            words.append((layer_atom(TW, k, coords, prime=True),))
    words.extend((t,) for t in torus_unit_atoms(TW)[:4])
    if K == "K0":
        words.append((atom_beta(),))
    else:
        words.append((atom_alpha(1), atom_beta()))
    return words[rng_idx % len(words)]


@settings(max_examples=60, deadline=None)
@given(i=st.integers(0, 40), j=st.integers(0, 40), K=st.sampled_from(["K0", "K1"]))
def test_residue_reduction_is_homomorphic(i, j, K):
    w1, w2 = compact_word(i, K), compact_word(j, K)
    g1, g2 = word_matrix(TW, w1), word_matrix(TW, w2)
    r1 = reduce_to_gamma(TW, K, g1)
    r2 = reduce_to_gamma(TW, K, g2)
    r12 = reduce_to_gamma(TW, K, g1 * (g2))
    assert r1 * r2 == r12
    assert r1.is_form_compatible()
    assert (r1 * r1.inverse()) == GammaElem.identity(TW, K)


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
