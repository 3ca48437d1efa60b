"""The batched value transport of induction: sigma(gamma) v for many
(gamma, v) rows at once, one matrix product per distinct residue, against
the one-row-at-a-time oracle gfmat.matvec(weight.matrix(gamma), v)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from u21hecke import gfmat
from u21hecke import induction as I
from u21hecke import weights as W
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
    d2 = weight.dim ** 2
    # default chunks, one row per product, and products of 3 rows, which
    # do not divide a residue's group of 4, 5, 7 ... rows
    budget = data.draw(st.sampled_from([I._TRANSPORT_ENTRIES, 1, 3 * d2]),
                       label="budget")
    with mock.patch.object(I, "_TRANSPORT_ENTRIES", budget):
        got = I._transport(weight, gammas, vecs, inverse)
    assert got.dtype == np.uint16
    assert np.array_equal(got, oracle(weight, gammas, vecs, inverse))


@pytest.mark.parametrize("budget", [None, 1, 3])
def test_transport_chunks_split_one_group(q3_weights, budget):
    """Seven rows on one residue (distinct objects with equal keys) and two
    on another, with products of every residue's rows, of one row, and of
    three rows (which do not divide seven); one Weight.matrix per
    residue."""
    rng = np.random.default_rng(3)
    for weight in q3_weights:
        residues = [product(weight, [0, 2, 5]), product(weight, [1, 9])]
        gammas, vecs = rows_of(weight, residues, [0, 1, 0, 0, 1, 0, 0, 0, 0],
                               rng)
        n = I._TRANSPORT_ENTRIES if budget is None else budget * weight.dim**2
        for inverse in (False, True):
            want = oracle(weight, gammas, vecs, inverse)
            with mock.patch.object(I, "_TRANSPORT_ENTRIES", n), \
                    mock.patch.object(W.Weight, "matrix", autospec=True,
                                      side_effect=W.Weight.matrix) as spy:
                got = I._transport(weight, gammas, vecs, inverse)
            assert np.array_equal(got, want)
            assert spy.call_count == 2


def test_transport_of_no_rows(q3_weights):
    for weight in q3_weights:
        empty = np.zeros((0, weight.dim), dtype=np.uint16)
        for inverse in (False, True):
            got = I._transport(weight, [], empty, inverse)
            assert got.shape == (0, weight.dim) and got.dtype == np.uint16
        assert I.InducedFn.from_raw(weight, []).is_zero()


def test_transport_dim_125_rows(tower5):
    """A few rows of the 125-dimensional K0 steinberg at q = 5: five on one
    residue, split over two products of four rows, and one on another."""
    weight = W.make_weight(tower5, K0, W.STEINBERG)
    assert weight.dim == 125
    residues = [product(weight, [0, 3]), product(weight, [2, 1, 4])]
    gammas, vecs = rows_of(weight, residues, [0, 1, 0, 0, 0, 0],
                           np.random.default_rng(5))
    assert I._TRANSPORT_ENTRIES // 125**2 == 4
    for inverse in (False, True):
        got = I._transport(weight, gammas, vecs, inverse)
        assert np.array_equal(got, oracle(weight, gammas, vecs, inverse))


def test_transport_multiplies_each_distinct_pair_once(q3_weights,
                                                     monkeypatch):
    """Nine rows holding four distinct (residue, vector) pairs: one vector
    repeated on both residues counts once per residue, and the residues
    come as distinct objects with equal keys.  _apply multiplies four rows,
    Weight.matrix is called once per residue, and every row matches the
    oracle, in both directions."""
    multiplied = []

    def apply_spy(tw, M, rows, _orig=I._apply):
        multiplied.append(len(rows))
        return _orig(tw, M, rows)

    monkeypatch.setattr(I, "_apply", apply_spy)
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
            multiplied.clear()
            with mock.patch.object(W.Weight, "matrix", autospec=True,
                                   side_effect=W.Weight.matrix) as spy:
                got = I._transport(weight, gammas, vecs, inverse)
            assert np.array_equal(got, oracle(weight, gammas, vecs, inverse))
            assert sum(multiplied) == 4
            assert spy.call_count == 2
