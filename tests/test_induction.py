"""Compactly induced functions: normalized storage, grid form, the two-sum
averaging operators, structure constants, translation recursion, spans."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from u21hecke import fields, gfmat, words
from u21hecke import unitary_group as U
from u21hecke import induction as I
from u21hecke import weights as W
from u21hecke.errors import (
    ClosureBudgetExceeded,
    CrossCheckFailed,
    InvarianceViolated,
    NotApplicable,
    PrecisionBudgetExceeded,
)
from u21hecke.fields import Tower, char_s, characters_of_torus, is_regular
from u21hecke.laurent import Series
from u21hecke.unitary_group import (
    K0,
    K1,
    atom_n,
    beta_compact_word,
    iwahori_constants,
    layer_transversal,
    word_inverse,
)
from u21hecke.words import nf_uak, tag_of, word_from_tag

from reads import expand, expand_batch

BOTH = (K0, K1)


def _catalog(tower):
    cat = {}
    for K in BOTH:
        cat[(K, "trivial")] = W.make_weight(tower, K, W.TRIVIAL)
        cat[(K, "steinberg")] = W.make_weight(tower, K, W.STEINBERG)
        for k in (1, 2, 3):
            cat[(K, "det%d" % k)] = W.make_weight(
                tower, K, W.DET_TWIST, power=k
            )
    return cat


@pytest.fixture(scope="module")
def catalog(tower):
    """One shared weight object per catalog entry, so per-weight caches of
    basis functions and operator stencils are reused across tests."""
    return _catalog(tower)


@pytest.fixture(scope="module")
def catalog5(tower5):
    """The catalog at q = 5, shared so that each weight builds its
    matrices once."""
    return _catalog(tower5)


@pytest.fixture(scope="module")
def regular_pairs(tower):
    regs = [c for c in characters_of_torus(tower) if is_regular(c)]
    pairs = []
    for chi in regs:
        sub = W.make_weight(tower, K1, W.PS_SUB_QUOTIENT, chi=chi, part="sub")
        quot = W.make_weight(
            tower, K1, W.PS_SUB_QUOTIENT, chi=chi, part="quotient"
        )
        pairs.append((chi, sub, quot))
    return pairs


# ---------------------------------------------------------------------------
# basis functions and the normalized form


FROZEN_COUNTS = {
    (K0, 0): 1, (K0, 1): 3, (K0, 2): 243, (K0, 3): 19683,
    (K1, 0): 1, (K1, 1): 27, (K1, 2): 2187, (K1, 3): 177147,
    (K0, -1): 81, (K0, -2): 6561, (K0, -3): 531441,
    (K1, -1): 81, (K1, -2): 6561, (K1, -3): 531441,
}


def test_grid_counts_frozen(tower):
    for (K, n), cnt in FROZEN_COUNTS.items():
        assert I.grid_count(tower, K, n) == cnt


def test_basis_sizes(tower, catalog):
    for K in BOTH:
        w = catalog[(K, "trivial")]
        for n in (0, 1, -1, -2):
            f = I.f_basis(w, n)
            assert len(f.data) == FROZEN_COUNTS[(K, n)]
            assert f.shifts() == [n]
        # the same object comes back from the per-weight cache
        assert I.f_basis(w, 1) is I.f_basis(w, 1)


def test_basis_cap_and_depth_guard(tower, catalog):
    w = catalog[(K0, "trivial")]
    with pytest.raises(ClosureBudgetExceeded):
        I.f_basis(w, 3, tag_cap=10000)
    with pytest.raises(PrecisionBudgetExceeded):
        I.f_basis(w, 6)
    with pytest.raises(PrecisionBudgetExceeded):
        I.f_grid(w, 11, n_max=12)
    # a built cell is stored, but the cap and the depth budget still hold
    assert len(I.f_basis(w, 2).data) == 243
    with pytest.raises(ClosureBudgetExceeded):
        I.f_basis(w, 2, tag_cap=100)
    with pytest.raises(PrecisionBudgetExceeded):
        I.f_basis(w, 2, n_max=1)


def _memo_run(tw):
    """Recursion, grid averaging and tag reads on a fresh tower; returns
    the results, the largest memo table after each step, the tower and the
    weight."""
    w = W.make_weight(tw, K0, W.TRIVIAL)
    out, largest = [], []
    for step in (
        lambda: I.translation_recursion_check(w, 1, 1),
        lambda: I.op_Sminus_grid(I.f_grid(w, 1)).coeffs,
        lambda: [
            tag_of(tw, K, word_from_tag(tw, K, tag))
            for K in BOTH for n in (0, 1, -1) for tag in I.grid_tags(tw, K, n)
        ],
    ):
        out.append(step())
        tables = [*tw._memo.values(), *w._memo.values()]
        largest.append(max(len(t) for t in tables))
    return out, largest, tw, w


def test_memo_eviction_leaves_results_unchanged(monkeypatch):
    expected, _, _, _ = _memo_run(Tower(3, 1))
    batched = []

    def spy(tower, K, heads, tails=((),), pairs=None):
        read = words_batch(tower, K, heads, tails, pairs)
        if pairs is None:
            pairs = [(i, 0) for i in range(len(heads))]
        batched.append(([heads[i] + tails[j] for i, j in pairs],
                        expand_batch(tower, K, read)))
        return read

    words_batch = I.nf_uak_batch
    monkeypatch.setattr(I, "nf_uak_batch", spy)
    points = []

    def grid_spy(self, heads, tails=((),), _orig=I.GridElement.values_at):
        points.extend(x + t for x in heads for t in tails)
        return _orig(self, heads, tails)

    monkeypatch.setattr(I.GridElement, "values_at", grid_spy)
    monkeypatch.setattr(fields, "_MEMO_CAP", 3)
    got, largest, tw, w = _memo_run(Tower(3, 1))
    assert got == expected
    assert largest == [3, 3, 3]
    # the recursion step read its 243 products through the batch
    assert sum(len(b[0]) for b in batched) >= 243
    # the grid averaging read the inverses of all its points through the
    # batch; one bounded nf_uak table serves the scalar coset_normalize and
    # tag_of
    read = {word for b in batched for word in b[0]}
    assert points and {word_inverse(tw, x) for x in points} <= read
    assert len(tw._memo[nf_uak.__wrapped__]) == 3
    # the product table holds at most 3 words over all its records
    records = tw._memo[I._product_read.__wrapped__]
    assert records.held == sum(map(len, records.values())) <= 3
    assert len(tw._memo[I.coset_normalize.__wrapped__]) == 3


def test_product_table_bounded_by_words(monkeypatch):
    """The product table holds at most _MEMO_CAP words over all its
    records: a repeated product read is one hit that returns the same
    record without a batch read, a new record drops the oldest ones until
    it fits, and a read of more than _MEMO_CAP words is returned unstored.
    Every read still expands to what the batch returned."""
    tw = Tower(3, 1)
    tw.default_window = 24
    w = W.make_weight(tw, K0, W.STEINBERG)
    monkeypatch.setattr(fields, "_MEMO_CAP", 200)
    batched = []

    def spy(tower, K, heads, tails=((),), pairs=None, _orig=I.nf_uak_batch):
        out = _orig(tower, K, heads, tails, pairs)
        batched.append(expand_batch(tower, K, out))
        return out

    f = I.f_basis(w, -1)
    pairs = [(word_from_tag(tw, K0, tag), v) for tag, v in f.data.items()]
    third = [word_from_tag(tw, K0, tag) for tag in I.f_basis(w, 2).data]
    first, second = third[:81], third[81:162]
    # start from an empty product table
    del tw._memo[I._product_read.__wrapped__]
    monkeypatch.setattr(I, "nf_uak_batch", spy)
    records = lambda: tw._memo[I._product_read.__wrapped__]
    assert I.InducedFn.from_raw(w, pairs) == f
    stored = I._normalize_words(tw, K0, [word for word, _ in pairs])
    batched.clear()
    assert I._normalize_words(tw, K0, [word for word, _ in pairs]) is stored
    assert batched == []
    assert len(stored) == 81 and len(records()) == 1
    # 81 + 81 words fit, and a third record of 81 drops the oldest
    one = I._normalize_words(tw, K0, first)
    assert len(one) == 81 and expand(one) == batched[0]
    assert records().held == 162
    two = I._normalize_words(tw, K0, second)
    assert len(two) == 81 and expand(two) == batched[1]
    assert records().held == 162 and list(records().values()) == [one, two]
    # 243 words are more than the table holds
    big = I._normalize_words(tw, K0, third)
    assert len(big) == 243 and expand(big) == batched[2]
    assert records().held == sum(map(len, records().values())) == 162
    assert I._normalize_words(tw, K0, third) is not big


def test_recursion_step_keeps_one_record():
    """On a fresh q = 3 tower, the exhaustive step 2 -> 3 of trivial@K0
    reads its 19,683 products as one product read: the product table holds
    that record, one tag per word, while coset_normalize's per-word table
    keeps only the few words of the small invariance reads."""
    tw = Tower(3, 1)
    tw.default_window = 24
    w = W.make_weight(tw, K0, W.TRIVIAL)
    I.translation_recursion_check(w, 2, 1)
    assert len(tw._memo[I.coset_normalize.__wrapped__]) < 100
    prefixes = I.translation_prefixes(tw, K0, 2, 1)
    reps = [word_from_tag(tw, K0, tag) for tag in I.f_basis(w, 2).data]
    records = tw._memo[I._product_read.__wrapped__]
    read = records[(K0, tuple(prefixes), tuple(reps))]
    assert len(read.tag_ids) == len(read.tags) == 19683
    assert set(read.tags) == set(I.f_basis(w, 3).data)


def test_from_raw_reads_pairs_once(catalog):
    """from_raw reads its pairs once, so a one-shot generator gives what the
    list gives, on the scalar route (3 pairs) and the batch (81 pairs)."""
    w = catalog[(K0, "steinberg")]
    for n in (1, -1):
        f = I.f_basis(w, n)
        pairs = [(word_from_tag(w.tower, K0, t), v) for t, v in f.data.items()]
        reads = [0]

        def one_shot():
            for pair in pairs:
                reads[0] += 1
                yield pair

        assert I.InducedFn.from_raw(w, one_shot()) == I.InducedFn.from_raw(w, pairs)
        assert reads[0] == len(pairs)


def test_translates_match_pairs_oracle(monkeypatch):
    """Every translate-sum read as a product equals the sum of its plain
    (word, value) pairs through from_raw, at both compacts with every memo
    table bounded at 3 entries: op_T, op_SK, op_Sminus, an exhaustive
    recursion step, g_act by a torus unit (a word the batch does not carry,
    so its misses take the scalar route), an empty function, and a call
    with fewer than _BATCH_MIN words (no batch read)."""
    tw = Tower(3, 1)
    tw.default_window = 24
    monkeypatch.setattr(fields, "_MEMO_CAP", 3)
    reads = []

    def spy(tower, K, heads, tails=((),), pairs=None, _orig=I.nf_uak_batch):
        out = _orig(tower, K, heads, tails, pairs)
        reads.append(out)
        return out

    monkeypatch.setattr(I, "nf_uak_batch", spy)

    def oracle(f, prefixes):
        K = f.weight.K
        return I.InducedFn.from_raw(f.weight, [
            (p + word_from_tag(tw, K, tag), v)
            for p in prefixes for tag, v in f.data.items()
        ])

    rng = np.random.default_rng(5)
    for K in BOTH:
        w = W.make_weight(tw, K, W.STEINBERG)
        f0, f1, fm1 = (I.f_basis(w, n) for n in (0, 1, -1))
        # invariant, with values that differ between its two cells
        mixed = f0.add(f1.scale(2))
        t_pairs = [
            (word_from_tag(tw, K, tag) + suffix, I._vmat(tw, M, v))
            for suffix, M in I._t_matrices(w)
            for tag, v in mixed.data.items()
        ]
        assert I.op_T(w, mixed) == I.InducedFn.from_raw(w, t_pairs)
        assert I.op_SK(w, mixed) == oracle(mixed, I._sk_suffixes(tw, K))
        assert I.op_Sminus(w, mixed) == oracle(
            mixed, I._sminus_suffixes(tw, K)
        )
        prefixes = I.translation_prefixes(tw, K, 0, -1)
        assert f0.translates(prefixes) == oracle(f0, prefixes) == fm1
        rough = I.InducedFn(w, {
            tag: tuple(int(x) for x in rng.integers(1, tw.Q, w.dim))
            for tag in fm1.data
        })
        unit = next(a for a in I.pro_iwahori_sample(tw, K) if a[0] == "d")
        reads.clear()
        assert rough.g_act((unit,)) == oracle(rough, [(unit,)])
        assert reads and all((ids < 0).all() for ids, _, _ in reads)
        assert rough.translates(prefixes[:3]) == oracle(rough, prefixes[:3])
        zero = I.InducedFn.zero(w)
        assert zero.translates(prefixes).is_zero()
        assert I.op_T(w, zero).is_zero()
        reads.clear()
        assert len(f1.data) < I._BATCH_MIN
        assert f1.translates(prefixes[1:2]) == oracle(f1, prefixes[1:2])
        assert reads == []


def test_transport_one_matrix_per_residue(monkeypatch, catalog):
    """op_T(steinberg@K0, f_-1) and op_SK_grid(f_grid(steinberg@K0, -1))
    call gfmat.matvec never and Weight.matrix at most once per distinct
    residue their coset reads return: 30 for the 6,804 terms of op_T.
    Transporting those terms stays within a traced-memory bound set by
    _TRANSPORT_ENTRIES."""
    w = catalog[(K0, "steinberg")]
    f, g = I.f_basis(w, -1), I.f_grid(w, -1)
    ops = {"op_T": lambda: I.op_T(w, f), "op_SK_grid": lambda: I.op_SK_grid(g)}
    expected = {name: op() for name, op in ops.items()}  # warm stencils
    counts = {"matvec": 0, "matrix": 0}
    residues, transported = set(), []

    def matvec_spy(*args, _orig=gfmat.matvec):
        counts["matvec"] += 1
        return _orig(*args)

    def matrix_spy(self, gamma, _orig=W.Weight.matrix):
        counts["matrix"] += 1
        return _orig(self, gamma)

    def normalize_spy(tower, K, heads, tails=((),),
                      _orig=I._normalize_words):
        out = _orig(tower, K, heads, tails)
        residues.update(gamma.key() for gamma in out.residues)
        return out

    def transport_spy(weight, ids, res, vecs, inverse=False,
                      _orig=I._transport_ids):
        transported.append((ids, res, vecs.copy(), inverse))
        return _orig(weight, ids, res, vecs, inverse)

    monkeypatch.setattr(gfmat, "matvec", matvec_spy)
    monkeypatch.setattr(W.Weight, "matrix", matrix_spy)
    monkeypatch.setattr(I, "_normalize_words", normalize_spy)
    monkeypatch.setattr(I, "_transport_ids", transport_spy)
    for name, op in ops.items():
        counts.update(matvec=0, matrix=0)
        residues.clear()
        transported.clear()
        assert op() == expected[name]
        assert counts["matvec"] == 0, name
        assert 0 < counts["matrix"] <= len(residues), name
        if name == "op_T":
            assert len(residues) == 30
            ids, res, vecs, inverse = transported[-1]
            assert len(ids) == 6804 and len(res) == 30
    monkeypatch.undo()
    want = I._transport_ids(w, ids, res, vecs.copy(), inverse)
    for budget in (I._TRANSPORT_ENTRIES, 8 * w.dim**2):
        monkeypatch.setattr(I, "_TRANSPORT_ENTRIES", budget)
        tracemalloc.start()
        try:
            got = I._transport_ids(w, ids, res, vecs, inverse)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, want)
        # the output, the rows sorted by residue, and per product the
        # entry products (2 bytes each) and their index arrays (8 bytes)
        assert peak < 2 * vecs.nbytes + 16 * budget + 2**19, budget


def test_unipotent_relation_checked_once_per_layer_coordinate(monkeypatch):
    """Layer atoms are built once per tower and coordinate: over a recursion
    step on a fresh tower, the unipotent relation is checked at most once
    per distinct (layer, coordinates, side) that asks for a layer atom."""
    checks, coords = [0], set()
    check = U._check_unipotent_relation

    def counted(x, y):
        checks[0] += 1
        return check(x, y)

    monkeypatch.setattr(U, "_check_unipotent_relation", counted)
    for mod in (U, words, I):
        def spy(tower, k, c, prime=False, _orig=mod.layer_atom):
            coords.add((k, tuple(c), bool(prime)))
            return _orig(tower, k, c, prime)

        monkeypatch.setattr(mod, "layer_atom", spy)
    tw = Tower(3, 1)
    tw.default_window = 24
    I.translation_recursion_check(W.make_weight(tw, K0, W.TRIVIAL), 1, 1)
    assert 0 < checks[0] <= len(coords)


def test_zero_and_linearity(tower, catalog):
    w = catalog[(K0, "trivial")]
    f1 = I.f_basis(w, 1)
    z = I.InducedFn.zero(w)
    assert z.is_zero()
    assert f1.add(z) == f1
    assert f1.sub(f1).is_zero()
    assert f1.scale(0).is_zero()
    assert f1.add(f1).add(f1).is_zero()  # characteristic 3
    assert f1.scale(2) == f1.add(f1)


def test_eval_agreement_basis_vs_grid(tower, catalog):
    rng = random.Random(11)
    for K in BOTH:
        w = catalog[(K, "trivial")]
        ws = catalog[(K, "steinberg")]
        for n in (0, 1, -1):
            for wt in (w, ws):
                fb = I.f_basis(wt, n)
                fg = I.f_grid(wt, n)
                pts = I._invariance_points(fb)
                # plus deliberately off-support points
                pts.append(word_from_tag(tower, K, (0, ())))
                for x in pts:
                    assert fb.eval_at(x) == fg.eval_at(x)
                assert (I._tuples(fb.values_at(pts))
                        == I._tuples(fg.values_at(pts))
                        == [fb.eval_at(x) for x in pts])
                tails = [()] + [(a,) for a in I.pro_iwahori_sample(tower, K)]
                assert I._tuples(fb.values_at(pts, tails)) == [
                    fg.eval_at(x + t) for x in pts for t in tails
                ]


def test_eval_off_support_is_zero(tower, catalog):
    w = catalog[(K0, "trivial")]
    f1 = I.f_basis(w, 1)
    assert f1.eval_at(()) == (0,) * w.dim
    fm1 = I.f_basis(w, -1)
    x = word_inverse(tower, word_from_tag(tower, K0, next(iter(f1.data))))
    assert fm1.eval_at(x) == (0,) * w.dim


def test_g_act_composition(tower, catalog):
    w = catalog[(K1, "trivial")]
    f = I.f_basis(w, 0)
    atoms = I.pro_iwahori_sample(tower, K1)
    bw = beta_compact_word(K1)
    w1 = bw + (atoms[0],)
    w2 = (atoms[4],) + bw
    lhs = f.g_act(w1).g_act(w2)
    rhs = f.g_act(w2 + w1)
    assert lhs == rhs
    assert f.g_act(()) == f
    assert f.g_act(w1).g_act(word_inverse(tower, w1)) == f


def test_from_raw_order_independent(tower, catalog):
    w = catalog[(K0, "steinberg")]
    f = I.f_basis(w, 1)
    pairs = [
        (word_from_tag(tower, K0, tag), v) for tag, v in f.data.items()
    ]
    rng = random.Random(5)
    for _ in range(3):
        rng.shuffle(pairs)
        assert I.InducedFn.from_raw(w, pairs) == f


def test_invariance_checker_catches_doctored(tower, catalog):
    w = catalog[(K0, "trivial")]
    f = I.f_basis(w, -1)
    tag = sorted(f.data)[0]
    doctored = dict(f.data)
    doctored[tag] = I._vscale(tower, 2, doctored[tag])
    g = I.InducedFn(w, doctored)
    pts = [word_inverse(tower, word_from_tag(tower, K0, tag))]
    assert not I.is_pro_iwahori_invariant(g, points=pts)
    # every point is checked, not only the first
    clean = word_inverse(tower, word_from_tag(tower, K0, sorted(f.data)[-1]))
    assert I.is_pro_iwahori_invariant(g, points=[clean])
    assert not I.is_pro_iwahori_invariant(g, points=[clean] + pts)
    with pytest.raises(CrossCheckFailed):
        I.GridElement.from_induced(g)


def test_equality_never_merges_modules(catalog):
    # trivial and det_twist^1 share the compact, the dimension and the data
    # of these functions, but they are elements of different modules
    triv, det1 = catalog[(K0, "trivial")], catalog[(K0, "det1")]
    assert I.f_grid(triv, 2) == I.f_grid(triv, 2)
    assert I.f_grid(triv, 2) != I.f_grid(det1, 2)
    assert I.f_basis(triv, 0) != I.f_basis(det1, 0)
    with pytest.raises(NotApplicable):
        I.f_basis(triv, 0).add(I.f_basis(det1, 0))


def test_coset_normalize_inverts_no_series(monkeypatch):
    # the coset is read off the matrix of the word: no series is inverted,
    # so neither the normal form nor the coset depends on the window; the
    # batch reads exact polynomials and inverts none either
    from u21hecke import _kernel
    from u21hecke.unitary_group import atom_alpha, atom_beta

    tw = Tower(3, 1)
    tz = tw.trace_zero_unit_idx()
    shallow = atom_n(tw, Series.zero(tw), Series.from_coeffs(tw, -3, [tz, tz]))
    monomial = atom_n(tw, Series.zero(tw), Series.from_coeffs(tw, -3, [tz]))
    words = [(shallow,), (atom_beta(),), (atom_alpha(2), shallow),
             (shallow, atom_alpha(-1), atom_beta())]
    batch = [w + (u,) for w in ((monomial,), (atom_alpha(2), monomial))
             for u in layer_transversal(tw, 1, prime=True)]
    real = _kernel.TableCtx.ser_inv
    calls = []

    def counted(self, a, window):
        calls.append(window)
        return real(self, a, window)

    monkeypatch.setattr(_kernel.TableCtx, "ser_inv", counted)
    for K in BOTH:
        for word in words:
            I.nf_uak(tw, K, word)
            I.coset_normalize(tw, K, word)
        ids, _, _ = I.nf_uak_batch(tw, K, batch)
        assert (ids >= 0).all()
    assert calls == []
    for K in BOTH:
        assert expand_batch(tw, K, I.nf_uak_batch(tw, K, batch)) == [
            I.coset_normalize(tw, K, w) for w in batch
        ]


def test_weight_mismatch_rejected(tower, catalog):
    w = catalog[(K0, "trivial")]
    other = W.make_weight(tower, K0, W.TRIVIAL)
    f = I.f_basis(other, 0)
    with pytest.raises(NotApplicable):
        I.op_T(w, f)


# ---------------------------------------------------------------------------
# grid form


def test_grid_reconstruction_round_trip(tower, catalog):
    for K in BOTH:
        for name in ("trivial", "steinberg"):
            w = catalog[(K, name)]
            for n in (0, 1, -1):
                g = I.GridElement.from_induced(I.f_basis(w, n))
                assert g.coeffs == {n: 1}
                assert g.to_induced() == I.f_basis(w, n)
                assert g == I.f_grid(w, n)


def test_grid_linearity(tower, catalog):
    w = catalog[(K1, "steinberg")]
    a = I.f_grid(w, 1)
    b = I.f_grid(w, -2)
    s = a.add(b.scale(2))
    assert s.coeffs == {1: 1, -2: 2}
    assert s.add(s).add(s).coeffs == {}


# ---------------------------------------------------------------------------
# the averaging operators: frozen structure constants


FROZEN_CONSTANTS = {
    # label: (lam, c, c_minus, d0, d_deep)  -- identical at both compacts
    "trivial": (1, 2, 2, 0, 2),
    "steinberg": (0, 0, 2, 2, 2),
    "det1": (2, 2, 1, 0, 1),
    "det2": (1, 2, 2, 0, 2),
    "det3": (2, 2, 1, 0, 1),
}


def test_constants_battery_frozen(monkeypatch, tower, catalog):
    """The frozen table, read with the materialized op_T and f_basis
    raising: constants() reads lam and c from op_T_grid."""

    def forbidden(*args, **kwargs):
        raise AssertionError("materialized route called")

    monkeypatch.setattr(I, "op_T", forbidden)
    monkeypatch.setattr(I, "f_basis", forbidden)
    for K in BOTH:
        for name, (lam, c, cm, d0, dd) in FROZEN_CONSTANTS.items():
            hc = I.constants(catalog[(K, name)])
            assert (hc.lam, hc.c, hc.c_minus) == (lam, c, cm), (K, name)
            assert hc.d == {0: d0, 1: dd, 2: dd, 3: dd}, (K, name)


def test_deep_cell_eigenvalue_is_twist_invariant(tower, catalog):
    """The deep-cell eigenvalue equals chi(beta_K) * c_minus for every
    one-dimensional weight: both factors flip together under odd
    determinant twists, leaving c itself twist-invariant."""
    for K in BOTH:
        for name in ("trivial", "det1", "det2", "det3"):
            w = catalog[(K, name)]
            hc = I.constants(w)
            chib = int(w.matrix(W.gamma_beta(tower, K))[0, 0])
            assert hc.c == int(tower.mul[chib, hc.c_minus])
            assert hc.c == 2  # q - 1, independently of the twist


FROZEN_CONSTANTS_Q5 = {
    # label: (lam, c, c_minus, d0, d_deep)  -- identical at both compacts
    "trivial": (1, 4, 4, 0, 4),
    "steinberg": (0, 0, 4, 4, 4),
    "det1": (4, 4, 1, 0, 1),
    "det2": (1, 4, 4, 0, 4),
    "det3": (4, 4, 1, 0, 1),
}


def test_constants_battery_frozen_q5(tower5, catalog5):
    """The constants battery at q = 5, on the catalog at both compacts and
    on three seeded regular K1 characters.  The deep-cell eigenvalue
    follows its closed forms: chi(beta_K) c_minus = q - 1 for the
    one-dimensional weights, and every constant of a regular weight is 0."""
    q = tower5.q
    for K in BOTH:
        for name, (lam, c, cm, d0, dd) in FROZEN_CONSTANTS_Q5.items():
            w = catalog5[(K, name)]
            hc = I.constants(w)
            assert (hc.lam, hc.c, hc.c_minus) == (lam, c, cm), (K, name)
            assert hc.d == {0: d0, 1: dd, 2: dd, 3: dd}, (K, name)
            if w.dim == 1:
                chib = int(w.matrix(W.gamma_beta(tower5, K))[0, 0])
                assert hc.c == int(tower5.mul[chib, hc.c_minus]) == q - 1
    regs = [c for c in characters_of_torus(tower5) if is_regular(c)]
    for chi in random.Random(5).sample(regs, 3):
        for part in ("sub", "quotient"):
            w = W.make_weight(tower5, K1, W.PS_SUB_QUOTIENT, chi=chi, part=part)
            hc = I.constants(w)
            assert (hc.lam, hc.c, hc.c_minus) == (0, 0, 0), (chi, part)
            assert set(hc.d.values()) == {0}, (chi, part)


def test_regular_constants_vanish(tower, regular_pairs):
    for chi, sub, quot in regular_pairs:
        for w in (sub, quot):
            hc = I.constants(w)
            assert (hc.lam, hc.c, hc.c_minus) == (0, 0, 0)
            assert set(hc.d.values()) == {0}


def test_route_a_s_ops_match_grid(tower, catalog):
    for K, name in ((K0, "trivial"), (K1, "steinberg")):
        w = catalog[(K, name)]
        f1 = I.f_basis(w, 1)
        # S_K carries the first positive cell onto the first negative one
        out = I.op_SK(w, f1)
        assert out == I.f_basis(w, -1)
        assert I.GridElement.from_induced(out) == I.op_SK_grid(I.f_grid(w, 1))
        # S_- fixes the first positive cell up to its eigenvalue
        hc = I.constants(w)
        sm = I.op_Sminus(w, f1)
        assert sm == f1.scale(hc.c_minus)
        # and carries the zero cell onto the first positive one
        assert I.op_Sminus(w, I.f_basis(w, 0)) == f1


def test_deep_s_identities_grid(tower, catalog):
    for K in BOTH:
        for name in ("trivial", "steinberg"):
            w = catalog[(K, name)]
            for n in range(1, 5):
                out = I.op_SK_grid(I.f_grid(w, n))
                assert out.coeffs == {-n: 1}, (K, name, n)
            for n in range(0, 4):
                out = I.op_Sminus_grid(I.f_grid(w, -n))
                assert out.coeffs == {n + 1: 1}, (K, name, n)


def test_deep_s_identities_grid_q5(catalog5):
    """The grid_q5 known answers at q = 5: S_K f_n = f_-n for n = 1..3 and
    S_- f_-n = f_(n+1) for n = 0..2."""
    for K in BOTH:
        for name in ("trivial", "steinberg", "det1"):
            w = catalog5[(K, name)]
            for n in range(1, 4):
                out = I.op_SK_grid(I.f_grid(w, n))
                assert out.coeffs == {-n: 1}, (K, w.label, n)
            for n in range(0, 3):
                out = I.op_Sminus_grid(I.f_grid(w, -n))
                assert out.coeffs == {n + 1: 1}, (K, w.label, n)


def _nf_kau_eval(elem, word):
    """A grid element's value at the point of the word, read through the
    mirrored normal form word = k alpha^T u: sigma(red k) coeff(-T)
    grid_value(-T)."""
    w = elem.weight
    tw, K = w.tower, w.K
    k_mat, t, _ = words.nf_kau(tw, K, tuple(word))
    c = elem.coeffs.get(-t)
    if not c:
        return (0,) * w.dim
    gamma = U.reduce_to_gamma(tw, K, k_mat)
    return I._vscale(tw, c, I._vmat(tw, w.matrix(gamma), I.grid_value(w, -t)))


def test_grid_values_match_nf_kau_read(monkeypatch):
    """Every point the grid averaging evaluates, read by one batched coset
    read of the inverted points, has the value the mirrored normal form
    gives, and the batch falls back on none of them (no id is -1)."""
    seen, batched = [], []

    def values_spy(self, heads, tails=((),), _orig=I.GridElement.values_at):
        out = _orig(self, heads, tails)
        seen.append(([x + t for x in heads for t in tails], out))
        return out

    def batch_spy(tower, K, heads, tails=((),), pairs=None,
                  _orig=I.nf_uak_batch):
        read = _orig(tower, K, heads, tails, pairs)
        batched.append(read[0])
        return read

    monkeypatch.setattr(I.GridElement, "values_at", values_spy)
    monkeypatch.setattr(I, "nf_uak_batch", batch_spy)
    rng = random.Random(9)
    for p in (3, 5):
        tw = Tower(p, 1)
        for K in BOTH:
            for kind in (W.TRIVIAL, W.STEINBERG):
                w = W.make_weight(tw, K, kind)
                elem = I.GridElement(
                    w, {n: rng.randrange(1, tw.Q) for n in range(-2, 3)}
                )
                seen.clear()
                I.op_SK_grid(elem)
                I.op_Sminus_grid(elem)
                assert len(seen) == 2
                for pts, values in seen:
                    assert I._tuples(values) == [
                        _nf_kau_eval(elem, x) for x in pts
                    ]
    assert batched and all((ids >= 0).all() for ids in batched)


def test_sampled_check_catches_a_dropped_suffix(monkeypatch, tower, catalog):
    """Averaging over a transversal with one coset missing gives a
    non-invariant image, which the sampled spot check of _op_grid sees."""
    suffixes = I._sk_suffixes(tower, K1)
    monkeypatch.setattr(I, "_sk_suffixes", lambda tw, K: suffixes[1:])
    with pytest.raises(InvarianceViolated):
        I.op_SK_grid(I.f_grid(catalog[(K1, "trivial")], 1))


def test_op_grid_evaluates_every_sampled_point(monkeypatch, tower, catalog):
    """_op_grid evaluates the window points and, for the first three window
    shifts, 2 x (1 + 4) spot-check points, each once per suffix."""
    counts, calls = [], []

    def spy(self, heads, tails=((),), _orig=I.GridElement.values_at):
        counts.append(len(heads) * len(tails))
        calls.append((set(heads), list(tails)))
        return _orig(self, heads, tails)

    monkeypatch.setattr(I.GridElement, "values_at", spy)
    alpha = U.atom_alpha
    for K in BOTH:
        w = catalog[(K, "steinberg")]
        atoms = I.pro_iwahori_sample(tower, K)[:4]
        bw = beta_compact_word(K)
        for coeffs in ({0: 1}, {1: 1}, {-2: 1, 1: 2}):
            elem = I.GridElement(w, coeffs)
            shifts = sorted(elem.coeffs)
            for op, window, suffixes in (
                (I.op_SK_grid, I._sk_window(shifts),
                 I._sk_suffixes(tower, K)),
                (I.op_Sminus_grid, I._sminus_window(tower, K, shifts),
                 I._sminus_suffixes(tower, K)),
            ):
                counts.clear()
                calls.clear()
                op(elem)
                expect = (len(window) + 10 * min(3, len(window))) * len(suffixes)
                assert counts == [expect], (K, coeffs, op.__name__)
                heads = {(alpha(-j),) for j in window}
                for j in window[:3]:
                    for y in ((alpha(-j),), bw + (alpha(-j),)):
                        heads |= {y} | {y + (a,) for a in atoms}
                assert calls == [(heads, suffixes)], (K, coeffs, op.__name__)


def test_s_op_precondition_enforced(tower, catalog):
    w = catalog[(K0, "trivial")]
    f = I.f_basis(w, 1)
    doctored = dict(f.data)
    tag = sorted(doctored)[0]
    doctored[tag] = I._vscale(tower, 2, doctored[tag])
    g = I.InducedFn(w, doctored)
    with pytest.raises(InvarianceViolated):
        I.op_SK(w, g)


def test_twisting_law(tower, catalog):
    for K in BOTH:
        bw = beta_compact_word(K)
        for name in ("trivial", "steinberg", "det1"):
            w = catalog[(K, name)]
            f0, f1 = I.f_basis(w, 0), I.f_basis(w, 1)
            torus = [a for a in I.pro_iwahori_sample(tower, K) if a[0] == "d"]
            assert torus
            suffixes = I._sk_suffixes(tower, K)
            for h in torus:
                hw = (h,)
                hs = bw + hw + word_inverse(tower, bw)
                for f in (f0, f1):
                    lhs = f.g_act(hw).translates(suffixes)
                    rhs = f.translates(suffixes).g_act(hs)
                    assert lhs == rhs


def test_images_remain_invariant(tower, catalog):
    for K in BOTH:
        for name in ("trivial", "steinberg", "det1"):
            w = catalog[(K, name)]
            f0, f1 = I.f_basis(w, 0), I.f_basis(w, 1)
            assert I.is_pro_iwahori_invariant(I.op_T(w, f0))
            assert I.is_pro_iwahori_invariant(I.op_SK(w, f1))
            assert I.is_pro_iwahori_invariant(I.op_Sminus(w, f0))


def test_t_sigma_variant(tower, catalog):
    for K in BOTH:
        for name in ("trivial", "steinberg", "det2"):
            w = catalog[(K, name)]
            f0 = I.f_basis(w, 0)
            ts = I.op_T_sigma(w, f0)
            t = I.op_T(w, f0)
            if w.dim == 1:
                assert ts == t.add(f0)
            else:
                assert ts == t


# ---------------------------------------------------------------------------
# translation recursion and equivariance


def test_translation_recursion_exhaustive(tower, catalog):
    for K in BOTH:
        w = catalog[(K, "trivial")]
        for n_from, direction in [(0, 1), (1, 1), (0, -1), (-1, -1)]:
            ev = I.translation_recursion_check(w, n_from, direction)
            assert ev["mode"] == "exhaustive"
            assert ev["prefixes"] * I.grid_count(tower, K, n_from) == (
                ev["target_cosets"]
            )


def test_translation_recursion_certificates(tower, catalog):
    for K in BOTH:
        w = catalog[(K, "steinberg")]
        for n_from, direction in [(2, 1), (-2, -1)]:
            ev = I.translation_recursion_check(
                w, n_from, direction, tag_cap=5000
            )
            assert ev["mode"] == "certificate"
            assert ev["sampled"] == 64
            assert ev["distinct_hits"] > 32


def test_translation_recursion_depth_three_exhaustive(tower, catalog):
    # the largest materializable target: 19683 cosets
    w = catalog[(K0, "trivial")]
    ev = I.translation_recursion_check(w, 2, 1)
    assert ev["mode"] == "exhaustive"
    assert ev["target_cosets"] == 19683


def test_translation_recursion_q5(tower5):
    """The recursion at q = 5: exhaustive where the target grid is within
    the materialization cap, a certificate at K1 for 1 -> 2; the target
    counts follow their closed forms in q."""
    q = tower5.q
    steps = [
        (K0, 0, 1, q, "exhaustive"),
        (K0, 1, 1, q**5, "exhaustive"),
        (K0, 0, -1, q**4, "exhaustive"),
        (K1, 0, 1, q**3, "exhaustive"),
        (K1, 0, -1, q**4, "exhaustive"),
        (K1, 1, 1, q**7, "certificate"),
    ]
    weights = {K: W.make_weight(tower5, K, W.TRIVIAL) for K in BOTH}
    for K, n_from, direction, count, mode in steps:
        ev = I.translation_recursion_check(weights[K], n_from, direction)
        assert (ev["target_cosets"], ev["mode"]) == (count, mode)
    assert q**7 > I.DEFAULT_TAG_CAP
    assert ev["sampled"] == 64 and ev["distinct_hits"] > 32


def test_equivariance_spots(tower, catalog):
    assert I.equivariance_spot_check(catalog[(K0, "trivial")])
    assert I.equivariance_spot_check(catalog[(K0, "det1")])


def test_deep_t_identity_exact(tower, catalog):
    """Fully materialized deep-cell identity on the second positive cell."""
    w = catalog[(K0, "trivial")]
    out = I.op_T(w, I.f_basis(w, 2))
    g = I.GridElement.from_induced(out)
    hc = I.constants(w)
    assert g.coeffs == {2: hc.c, 3: 1}


def test_t_mirror_identity(tower, catalog):
    for K in BOTH:
        for name in ("trivial", "steinberg", "det1"):
            w = catalog[(K, name)]
            hc = I.constants(w)
            g = I.GridElement.from_induced(I.op_T(w, I.f_basis(w, -1)))
            expect = {-2: 1}
            if hc.c:
                expect[-1] = hc.c
            assert g.coeffs == expect


# ---------------------------------------------------------------------------
# T on the grid form


def test_op_T_grid_matches_materialized(tower, catalog):
    """op_T_grid reads the same coefficients as the materialized op_T."""
    for K in BOTH:
        for name in ("trivial", "steinberg", "det1"):
            w = catalog[(K, name)]
            for n in (0, 1, -1):
                oracle = I.GridElement.from_induced(I.op_T(w, I.f_basis(w, n)))
                assert I.op_T_grid(I.f_grid(w, n)) == oracle, (K, name, n)
            zero = I.GridElement(w, {})
            assert I.op_T_grid(zero) == zero


def test_t_windows_frozen(tower):
    """The certified window of T on cell n: {+-1} for n = 0 and
    {+-(|n|-1), +-|n|, +-(|n|+1)} for 1 <= |n| <= 4, at both compacts."""
    for K in BOTH:
        assert I._t_window(tower, K, [0]) == [-1, 1]
        for n in range(1, 5):
            expect = sorted({s * m for s in (1, -1) for m in (n - 1, n, n + 1)})
            for shift in (n, -n):
                assert I._t_window(tower, K, [shift]) == expect, (K, shift)


def test_t_adjoint_lands_on_one_suffix(tower):
    """Every inverted stencil suffix s^-1 lies in the coset alpha K, so the
    adjoint stencil reads one stencil residue g_s' for all s."""
    for K in BOTH:
        adjoint = I._t_adjoint(tower, K)
        assert len(adjoint) == len(I._t_stencil(tower, K))
        assert len({g.key() for _, g, _ in adjoint}) == 1


def test_op_T_grid_rejects_a_dropped_suffix(monkeypatch):
    """A stencil with one coset missing at K1 makes op_T_grid raise, both
    for a suffix of the first family and for the suffix every s^-1 lands
    on: the stencil no longer covers the cells +-1."""
    tw = Tower(3, 1)
    stencil = I._t_stencil(tw, K1)
    alpha_coset = I.coset_normalize(tw, K1, (U.atom_alpha(1),))[0]
    matched = next(
        i for i, (s, _) in enumerate(stencil)
        if I.coset_normalize(tw, K1, s)[0] == alpha_coset
    )
    assert matched != 0
    for drop in (0, matched):
        tw = Tower(3, 1)
        tw.default_window = 24
        w = W.make_weight(tw, K1, W.TRIVIAL)
        kept = stencil[:drop] + stencil[drop + 1:]
        monkeypatch.setattr(I, "_t_stencil", lambda tower, K: kept)
        with pytest.raises(CrossCheckFailed):
            I.op_T_grid(I.f_grid(w, 1))


def test_deep_t_identities_grid(tower, catalog):
    """T f_n = c f_n + f_(n+1) and T f_-n = c f_-n + f_(-n-1) for
    1 <= n <= 4, on the grid form, for the catalog at both compacts."""
    for K in BOTH:
        for name in FROZEN_CONSTANTS:
            w = catalog[(K, name)]
            c = I.constants(w).c
            for n in range(1, 5):
                for sign in (1, -1):
                    out = I.op_T_grid(I.f_grid(w, sign * n))
                    expect = {sign * (n + 1): 1}
                    if c:
                        expect[sign * n] = c
                    assert out.coeffs == expect, (K, name, sign * n)


# ---------------------------------------------------------------------------
# degenerate-case identities


def test_degenerate_identities(tower, catalog):
    for K in BOTH:
        wt = catalog[(K, "trivial")]
        f0, f1 = I.f_basis(wt, 0), I.f_basis(wt, 1)
        assert I.op_Sminus(wt, f0.add(f1)).is_zero()
        t1f0 = I.op_T(wt, f0).add(f0)
        assert t1f0 == I.f_basis(wt, -1).add(f1).add(f0)

        ws = catalog[(K, "steinberg")]
        g0, g1 = I.f_basis(ws, 0), I.f_basis(ws, 1)
        lhs = I.op_T(ws, g0.add(g1))
        assert lhs == I.f_basis(ws, -1).add(I.f_basis(ws, 2))


# ---------------------------------------------------------------------------
# spans of the translated basis vector


# Per tower: the catalog weights whose span is checked at each compact, and
# whether the disjoint-support candidates are swept there.  The K0 Steinberg
# weight at q >= 5 and the q = 7 K0 sweep are left out for time.
SPAN_CASES = {
    3: {K0: (("trivial", "steinberg", "det1"), True),
        K1: (("trivial", "steinberg", "det1"), True)},
    5: {K0: (("trivial", "det1"), True),
        K1: (("trivial", "steinberg", "det1"), True)},
    7: {K0: (("trivial",), False),
        K1: (("trivial", "steinberg", "det1"), True)},
}


@pytest.mark.parametrize("q", sorted(SPAN_CASES))
def test_span_dimensions_and_disjoint_basis(q, tower, catalog, tower5,
                                            catalog5, tower7):
    """spin_K(f_1) has dim 1 + q^t_K; where swept, the translates of f_1 by
    the words u beta_K (u in the first upper layer) and f_1 itself have
    disjoint supports and full-rank coordinates in the span."""
    tw = {3: tower, 5: tower5, 7: tower7}[q]
    cat = {3: catalog, 5: catalog5}.get(q) or _catalog(tw)
    for K in BOTH:
        n_K, _, t_K = iwahori_constants(tw, K)
        names, sweep = SPAN_CASES[q][K]
        for name in names:
            w = cat[(K, name)]
            f1 = I.f_basis(w, 1)
            span = I.spin_K(f1)
            assert span.dim == 1 + q ** t_K, (K, name)
            if not sweep:
                continue
            bw = beta_compact_word(K)
            cands = [f1] + [
                f1.g_act((u,) + bw) for u in layer_transversal(tw, n_K)
            ]
            assert len(cands) == span.dim
            sup = [frozenset(c.data) for c in cands]
            for i in range(len(sup)):
                for j in range(i + 1, len(sup)):
                    assert not (sup[i] & sup[j])
            coords = np.stack([span.coords_of(c) for c in cands])
            assert gfmat.rank(tw, coords) == span.dim


def _first_layer_generator_words(tower, K):
    """Words generating the residue group with more redundancy than
    gamma_generators: every nontrivial atom of the first upper and lower
    layers, the two torus generator atoms and the form involution."""
    n_K, m_K, _ = iwahori_constants(tower, K)
    words = [(a,) for a in layer_transversal(tower, n_K)[1:]]
    words += [(a,) for a in layer_transversal(tower, m_K - 1, prime=True)[1:]]
    words += [(a,) for a in W.torus_generator_atoms(tower)]
    words.append(beta_compact_word(K))
    return words


def test_span_holds_first_layer_translates(tower, catalog):
    """For every catalog weight at q = 3, the translate of f_1 by each word
    of a wider generating list of the residue group (first-layer atoms,
    torus generators, involution) lies in spin_K(f_1), whose closure runs
    on the lifts of gamma_generators only.  With the dimensions of
    test_span_dimensions_and_disjoint_basis this pins the span."""
    for K in BOTH:
        words = _first_layer_generator_words(tower, K)
        for name in ("trivial", "steinberg", "det1", "det2", "det3"):
            f1 = I.f_basis(catalog[(K, name)], 1)
            span = I.spin_K(f1)
            for word in words:
                assert span.contains(f1.g_act(word)), (K, name, word)


def test_closure_budget_is_typed(tower, catalog, monkeypatch):
    """Past weights.SPIN_BUDGET the shared closure raises
    ClosureBudgetExceeded, through both W.spin and I.spin_K."""
    ps = W.make_weight(
        tower, K0, W.PRINCIPAL_SERIES, chi=fields.Character(tower, 1, 0)
    )
    f1 = I.f_basis(catalog[(K0, "trivial")], 1)
    monkeypatch.setattr(W, "SPIN_BUDGET", 3)
    with pytest.raises(ClosureBudgetExceeded):
        W.spin(ps, [gfmat.eye(ps.dim)[0]])
    with pytest.raises(ClosureBudgetExceeded):
        I.spin_K(f1)


def test_spin_K_tag_cap(tower, catalog, monkeypatch):
    """spin_K raises ClosureBudgetExceeded once the orbit of the seed's
    tags passes DEFAULT_TAG_CAP."""
    f1 = I.f_basis(catalog[(K0, "trivial")], 1)
    monkeypatch.setattr(I, "DEFAULT_TAG_CAP", len(f1.data))
    with pytest.raises(ClosureBudgetExceeded):
        I.spin_K(f1)


def test_span_intertwiner_with_ps(tower, catalog):
    for K, name in ((K1, "trivial"), (K0, "steinberg"), (K1, "det1")):
        w = catalog[(K, name)]
        span = I.spin_K(I.f_basis(w, 1))
        chis = char_s(w.chi_of())
        ps = W.make_weight(tower, K, W.PRINCIPAL_SERIES, chi=chis)
        assert ps.dim == span.dim
        sw = span.weight
        found = False
        for w0 in W.borel_eigenvectors(sw, chis):
            mat = W.reciprocity_map_from_ps(sw, chis, w0)
            if gfmat.rank(tower, mat) == sw.dim and W.check_equivariant(
                ps, sw, mat
            ):
                found = True
                break
        assert found


def test_span_rejects_outsiders(tower, catalog):
    w = catalog[(K1, "trivial")]
    span = I.spin_K(I.f_basis(w, 1))
    assert not span.contains(I.f_basis(w, -2))
    with pytest.raises(CrossCheckFailed):
        span.coords_of(I.f_basis(w, -2))
    # a function of another induced module is refused, not read by its tags
    with pytest.raises(NotApplicable):
        span.contains(I.f_basis(catalog[(K1, "det1")], 1))


# ---------------------------------------------------------------------------
# the regular chain at the shifted compact


def test_regular_chain(tower, regular_pairs):
    for chi, sub, quot in regular_pairs[:4]:
        ps = W.make_weight(tower, K1, W.PRINCIPAL_SERIES, chi=chi)
        chain = W.socle_chain(ps)
        assert [b.shape[0] for b in chain] == [2, 4]
        assert sub.chi_of() == char_s(chi)
        assert quot.chi_of() == chi

        w = quot
        f1 = I.f_basis(w, 1)
        span = I.spin_K(f1)
        assert span.dim == 4

        coords = []
        for i in range(w.dim):
            v = tuple(1 if j == i else 0 for j in range(w.dim))
            co = span.coords_of(I.op_T(w, I.InducedFn.generator(w, (), v)))
            assert co is not None
            coords.append(co)
        tmat = np.stack(coords)
        assert gfmat.rank(tower, tmat) == w.dim == 2

        fm1 = I.f_basis(w, -1)
        assert I.op_SK(w, f1) == fm1
        co = span.coords_of(fm1)
        assert co is not None
        assert gfmat.rank(tower, np.vstack([tmat, co])) == 2
        orbit = [co]
        for g in W.gamma_generators(tower, K1):
            oc = span.coords_of(fm1.g_act(W.gamma_lift_word(tower, K1, g)))
            assert oc is not None
            orbit.append(oc)
        assert gfmat.rank(tower, np.stack(orbit)) == 2

        # the quotient of the span by the image carries the partner trace
        sw = span.weight
        basis = gfmat.row_space(tower, tmat)
        for g in W.gamma_generators(tower, K1):
            for row in basis:
                img = gfmat.matvec(tower, sw.matrix(g), row)
                assert gfmat.in_row_space(tower, basis, img)
        cur = basis.copy()
        for i in range(sw.dim):
            e = np.zeros(sw.dim, dtype=np.uint16)
            e[i] = 1
            if gfmat.rank(tower, np.vstack([cur, e])) > cur.shape[0]:
                cur = np.vstack([cur, e])
            if cur.shape[0] == sw.dim:
                break
        finv = gfmat.inverse(tower, cur.T)
        for g in W.fingerprint_elements(tower, K1):
            M = gfmat.matmul(
                tower, finv, gfmat.matmul(tower, sw.matrix(g), cur.T)
            )
            qtrace = 0
            for r in range(2, 4):
                qtrace = int(tower.add[qtrace, int(M[r, r])])
            strace = 0
            S = sub.matrix(g)
            for r in range(sub.dim):
                strace = int(tower.add[strace, int(S[r, r])])
            assert qtrace == strace


# ---------------------------------------------------------------------------
# property tests


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_property_t_linearity(tower, data, catalog):
    K = data.draw(st.sampled_from(BOTH))
    name = data.draw(st.sampled_from(["trivial", "steinberg", "det2"]))
    w = catalog[(K, name)]
    a = data.draw(st.integers(min_value=0, max_value=2))
    f = I.f_basis(w, data.draw(st.sampled_from([0, 1])))
    g = I.f_basis(w, data.draw(st.sampled_from([0, -1])))
    lhs = I.op_T(w, f.scale(a).add(g))
    rhs = I.op_T(w, f).scale(a).add(I.op_T(w, g))
    assert lhs == rhs


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_property_grid_eval_matches_average(tower, data, catalog):
    K = data.draw(st.sampled_from(BOTH))
    w = catalog[(K, "trivial")]
    n = data.draw(st.sampled_from([-2, -1, 0, 1, 2]))
    c = data.draw(st.integers(min_value=1, max_value=2))
    g = I.f_grid(w, n).scale(c)
    # evaluating at the canonical point of the cell recovers c * w_n
    from u21hecke.unitary_group import atom_alpha

    val = g.eval_at((atom_alpha(-n),))
    assert val == I._vscale(tower, c, I.grid_value(w, n))
    # and at a cell it does not meet, zero
    val2 = g.eval_at((atom_alpha(-(n + 1)),))
    assert val2 == (0,) * w.dim


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_property_normalization_invariance(tower, data, catalog):
    """Acting on a single generator by a pro-unipotent word permutes the
    tags of the cell, and the transported value lands exactly on the stored
    value of the permuted tag -- the per-generator form of invariance."""
    K = data.draw(st.sampled_from(BOTH))
    w = catalog[(K, "steinberg")]
    f1 = I.f_basis(w, 1)
    tag = data.draw(st.sampled_from(sorted(f1.data)))
    atoms = I.pro_iwahori_sample(tower, K)
    k_word = tuple(
        data.draw(st.sampled_from(atoms))
        for _ in range(data.draw(st.integers(min_value=1, max_value=3)))
    )
    rep = word_from_tag(tower, K, tag)
    tag2, gamma = I.coset_normalize(tower, K, k_word + rep)
    assert tag2[0] == tag[0]
    v = f1.data[tag]
    assert f1.data[tag2] == I._vmat(tower, w.matrix(gamma), v)
