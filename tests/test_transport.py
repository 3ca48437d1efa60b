"""The batched value transport of induction: sigma(gamma) v for many
(gamma, v) rows at once, through the weight's array action, against the
one-row-at-a-time oracle gfmat.matvec(weight.matrix(gamma), v), and the
action of every kind of weight against dense matrices built here from the
scalar classify_coset."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from u21hecke import gfmat
from u21hecke import induction as I
from u21hecke import weights as W
from u21hecke.fields import Character, characters_of_torus, is_regular
from u21hecke.unitary_group import K0, K1, GammaElem

# (compact, kind, power) of the q = 3 weights: dims 1, 3 and 27
Q3_WEIGHTS = [(K0, W.DET_TWIST, 1), (K1, W.STEINBERG, None),
              (K0, W.STEINBERG, None)]


@pytest.fixture(scope="module")
def q3_weights(tower):
    return [W.make_weight(tower, K, kind, power=power)
            for K, kind, power in Q3_WEIGHTS]


def oracle(weight, gammas, vecs, inverse):
    tw = weight.tower
    out = [
        gfmat.matvec(tw, weight.matrix(g.inverse() if inverse else g), v)
        for g, v in zip(gammas, vecs)
    ]
    return np.array(out, dtype=np.uint16).reshape(len(gammas), weight.dim)


def product(weight, picks):
    """The product of the reduced-group generators at the given indices."""
    gens = W.gamma_generators(weight.tower, weight.K)
    out = GammaElem.identity(weight.tower, weight.K)
    for i in picks:
        out = out * gens[i % len(gens)]
    return out


def rows_of(weight, residues, picks, rng):
    """Rows on the picked residues, each a fresh GammaElem object, so rows
    on one residue share its key but never its object; random vectors."""
    gammas = [GammaElem(weight.tower, weight.K, residues[i].m) for i in picks]
    vecs = rng.integers(0, weight.tower.Q, (len(picks), weight.dim))
    return gammas, vecs.astype(np.uint16)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_transport_matches_per_row_oracle(q3_weights, data):
    weight = data.draw(st.sampled_from(q3_weights), label="weight")
    words = data.draw(st.lists(
        st.lists(st.integers(0, 63), min_size=1, max_size=4),
        min_size=1, max_size=4), label="residue words")
    residues = [product(weight, w) for w in words]
    picks = data.draw(st.lists(st.integers(0, len(residues) - 1),
                               max_size=12), label="rows")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    gammas, vecs = rows_of(weight, residues, picks,
                           np.random.default_rng(seed))
    inverse = data.draw(st.booleans(), label="inverse")
    block = 9 * weight.dim
    # default blocks, one row per block, and blocks of 3 rows, which do not
    # divide a residue's group of 4, 5, 7 ... rows
    budget = data.draw(st.sampled_from([I._TRANSPORT_ENTRIES, 1, 3 * block]),
                       label="budget")
    with mock.patch.object(I, "_TRANSPORT_ENTRIES", budget):
        got = I._transport(weight, gammas, vecs, inverse)
    assert got.dtype == np.uint16
    assert np.array_equal(got, oracle(weight, gammas, vecs, inverse))


@pytest.mark.parametrize("budget", [None, 1, 3])
def test_transport_chunks_split_one_group(q3_weights, budget):
    """Seven rows on one residue (distinct objects with equal keys) and two
    on another, in blocks of every row, of one row, and of three rows (which
    do not divide seven); the transport builds no Weight.matrix."""
    rng = np.random.default_rng(3)
    for weight in q3_weights:
        residues = [product(weight, [0, 2, 5]), product(weight, [1, 9])]
        gammas, vecs = rows_of(weight, residues, [0, 1, 0, 0, 1, 0, 0, 0, 0],
                               rng)
        n = (I._TRANSPORT_ENTRIES if budget is None
             else budget * 9 * weight.dim)
        for inverse in (False, True):
            want = oracle(weight, gammas, vecs, inverse)
            with mock.patch.object(I, "_TRANSPORT_ENTRIES", n), \
                    mock.patch.object(W.Weight, "matrix", autospec=True,
                                      side_effect=W.Weight.matrix) as spy:
                got = I._transport(weight, gammas, vecs, inverse)
            assert np.array_equal(got, want)
            assert spy.call_count == 0


def test_transport_of_no_rows(q3_weights):
    for weight in q3_weights:
        empty = np.zeros((0, weight.dim), dtype=np.uint16)
        for inverse in (False, True):
            got = I._transport(weight, [], empty, inverse)
            assert got.shape == (0, weight.dim) and got.dtype == np.uint16
        assert I.InducedFn.from_raw(weight, []).is_zero()


def test_transport_dim_125_rows(tower5):
    """A few rows of the 125-dimensional K0 steinberg at q = 5: five on one
    residue, split over two blocks of four rows, and one on another; and
    all of them in one block of the default size."""
    weight = W.make_weight(tower5, K0, W.STEINBERG)
    assert weight.dim == 125
    residues = [product(weight, [0, 3]), product(weight, [2, 1, 4])]
    gammas, vecs = rows_of(weight, residues, [0, 1, 0, 0, 0, 0],
                           np.random.default_rng(5))
    assert I._TRANSPORT_ENTRIES // (9 * 125) == 58
    for budget in (I._TRANSPORT_ENTRIES, 4 * 9 * 125):
        for inverse in (False, True):
            with mock.patch.object(I, "_TRANSPORT_ENTRIES", budget):
                got = I._transport(weight, gammas, vecs, inverse)
            assert np.array_equal(got, oracle(weight, gammas, vecs, inverse))


def test_transport_multiplies_each_distinct_pair_once(q3_weights,
                                                     monkeypatch):
    """Nine rows holding four distinct (residue, vector) pairs: one vector
    repeated on both residues counts once per residue, and the residues
    come as distinct objects with equal keys.  The weight's action moves
    four rows, no Weight.matrix is built, and every row matches the
    oracle, in both directions."""
    moved = []

    def apply_spy(self, rows, ids, vecs, _orig=W.Weight.apply):
        moved.append(len(vecs))
        return _orig(self, rows, ids, vecs)

    monkeypatch.setattr(W.Weight, "apply", apply_spy)
    for weight in q3_weights:
        d = weight.dim
        base = np.array([[1] * d, [2] * d, [1] * (d - 1) + [3]],
                        dtype=np.uint16)
        residues = [product(weight, [0, 2, 5]), product(weight, [1, 9])]
        picks = [(0, 0), (0, 0), (0, 1), (1, 0), (1, 0), (1, 2), (0, 1),
                 (1, 2), (0, 0)]
        gammas, _ = rows_of(weight, residues, [r for r, _ in picks],
                            np.random.default_rng(0))
        vecs = base[[v for _, v in picks]]
        for inverse in (False, True):
            want = oracle(weight, gammas, vecs, inverse)
            moved.clear()
            with mock.patch.object(W.Weight, "matrix", autospec=True,
                                   side_effect=W.Weight.matrix) as spy:
                got = I._transport(weight, gammas, vecs, inverse)
            assert np.array_equal(got, want)
            # a steinberg's action moves its rows once more on its base
            assert moved[0] == 4 and len(moved) <= 2
            assert spy.call_count == 0


# ---------------------------------------------------------------------------
# the array action of every kind against dense scalar oracles


def ps_dense(tw, K, chi, gamma):
    """The principal series matrix of gamma from the scalar classify_coset:
    entry (i, k) is chi(b) where reps[i] gamma = b reps[k]."""
    reps, _ = W.borel_coset_reps(tw, K)
    m = np.zeros((len(reps), len(reps)), dtype=np.uint16)
    for i, x in enumerate(reps):
        k, b = W.classify_coset(tw, K, x * gamma)
        m[i, k] = chi.value(*b.torus_pair())
    return m


def sub_dense(tw, m, rows):
    """The matrix of m on the stable span of rows, in the coordinates of its
    rref basis (read at the pivots)."""
    basis = gfmat.row_space(tw, rows)
    pivots = [int(np.flatnonzero(r)[0]) for r in basis]
    return gfmat.matmul(tw, basis, m.T)[:, pivots].T


def quotient_dense(tw, m, rows):
    """The matrix of m on the quotient by the stable span of rows, in the
    coordinates of the non-pivot positions."""
    sub = gfmat.Basis(tw, m.shape[0])
    for r in rows:
        sub.add(r)
    free = [i for i in range(m.shape[0]) if i not in sub.pivots()]
    return sub.reduce(m[:, free].T)[:, free].T


def det_dense(tw, k, gamma):
    return np.array([[tw.exp[(int(tw.log[gamma.det()]) * k) % (tw.Q - 1)]]],
                    dtype=np.uint16)


@pytest.fixture(scope="module")
def kinds(tower):
    """(weight, gamma -> dense oracle matrix) for every kind of weight at
    q = 3: trivial, a determinant twist, principal series, steinberg, the
    two layers of a regular length-two series, sub_weight and
    quotient_weight, and the spanned weight of spin_K, whose oracle is its
    own per-residue builder."""
    tw = tower
    chi0 = Character(tw, 0, 0)
    chi_r = next(c for c in characters_of_torus(tw) if is_regular(c))
    ones = [np.ones(28, dtype=np.uint16)]
    ps0_k1 = W.make_weight(tw, K1, W.PRINCIPAL_SERIES, chi=chi0)
    base, layer = W._regular_ps_layers(tw, chi_r)
    out = [
        (W.make_weight(tw, K0, W.TRIVIAL), lambda g: gfmat.eye(1)),
        (W.make_weight(tw, K1, W.DET_TWIST, power=2),
         lambda g: det_dense(tw, 2, g)),
        (W.make_weight(tw, K0, W.PRINCIPAL_SERIES, chi=Character(tw, 3, 2)),
         lambda g: ps_dense(tw, K0, Character(tw, 3, 2), g)),
        (W.make_weight(tw, K0, W.STEINBERG),
         lambda g: quotient_dense(tw, ps_dense(tw, K0, chi0, g), ones)),
        (W.make_weight(tw, K1, W.STEINBERG),
         lambda g: quotient_dense(tw, ps_dense(tw, K1, chi0, g),
                                  [ones[0][:4]])),
        (W.make_weight(tw, K1, W.PS_SUB_QUOTIENT, chi=chi_r, part="sub"),
         lambda g: sub_dense(tw, ps_dense(tw, K1, chi_r, g), layer)),
        (W.make_weight(tw, K1, W.PS_SUB_QUOTIENT, chi=chi_r, part="quotient"),
         lambda g: quotient_dense(tw, ps_dense(tw, K1, chi_r, g), layer)),
        (W.sub_weight(ps0_k1, [ones[0][:4]]),
         lambda g: sub_dense(tw, ps_dense(tw, K1, chi0, g), [ones[0][:4]])),
        (W.quotient_weight(base, layer),
         lambda g: quotient_dense(tw, ps_dense(tw, K1, chi_r, g), layer)),
    ]
    trivial_k1 = W.make_weight(tw, K1, W.TRIVIAL)
    spanned = I.spin_K(I.f_basis(trivial_k1, 1)).weight
    out.append((spanned, spanned.matrix))
    return out


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_action_matches_dense_scalar_oracle(kinds, data):
    """The transport through each kind's array action equals the dense
    oracle built from the scalar classify_coset, row by row, with inverse
    on and off; and Weight.matrix, the action on the identity rows, equals
    the oracle matrix."""
    weight, dense = data.draw(st.sampled_from(kinds), label="weight")
    words = data.draw(st.lists(
        st.lists(st.integers(0, 63), min_size=1, max_size=4),
        min_size=1, max_size=3), label="residue words")
    residues = [product(weight, w) for w in words]
    picks = data.draw(st.lists(st.integers(0, len(residues) - 1),
                               min_size=1, max_size=8), label="rows")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    gammas, vecs = rows_of(weight, residues, picks,
                           np.random.default_rng(seed))
    inverse = data.draw(st.booleans(), label="inverse")
    tw = weight.tower
    want = np.array([
        gfmat.matvec(tw, dense(g.inverse() if inverse else g), v)
        for g, v in zip(gammas, vecs)
    ], dtype=np.uint16).reshape(len(gammas), weight.dim)
    assert np.array_equal(I._transport(weight, gammas, vecs, inverse), want)
    for g in residues:
        assert np.array_equal(weight.matrix(g), dense(g)), weight.label
