"""Compactly induced functions: normalized storage, grid form, the two-sum
averaging operators, structure constants, translation recursion, spans."""

import functools
import itertools
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
from u21hecke.words import (
    nf_uak,
    nf_uak_batch,
    tag_of,
    word_from_tag,
)

from reads import expand, expand_batch
from sample import (
    layer_sample,
    pro_iwahori_sample,
    sample_invariant,
    scalar_translate,
)

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


def test_basis_cap_and_depth_guard(tower, catalog, monkeypatch):
    w = catalog[(K0, "trivial")]
    with pytest.raises(ClosureBudgetExceeded):
        I.f_basis(w, 3, tag_cap=10000)
    with pytest.raises(PrecisionBudgetExceeded):
        I.f_basis(w, 6)
    # a built cell is stored, but the cap and the depth budget still hold
    assert len(I.f_basis(w, 2).data) == 243
    with pytest.raises(ClosureBudgetExceeded):
        I.f_basis(w, 2, tag_cap=100)
    monkeypatch.setattr(I, "DEFAULT_N_MAX", 1)
    with pytest.raises(PrecisionBudgetExceeded):
        I.f_basis(w, 2)


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

    def spy(tower, K, heads, tails=((),)):
        read = words_batch(tower, K, heads, tails)
        batched.append(([h + t for t in tails for h in heads],
                        expand_batch(tower, K, read)))
        return read

    words_batch = words.nf_uak_batch
    monkeypatch.setattr(words, "nf_uak_batch", spy)
    inverses = []

    def grid_spy(weight, elems, inv_tails, inv_heads, image,
                 _orig=I._cell_images):
        inverses.extend(t + x for x in inv_heads for t in inv_tails)
        return _orig(weight, elems, inv_tails, inv_heads, image)

    monkeypatch.setattr(I, "_cell_images", grid_spy)
    monkeypatch.setattr(fields, "_MEMO_CAP", 3)
    got, largest, tw, w = _memo_run(Tower(3, 1))
    assert got == expected
    assert largest == [3, 3, 3]
    # the recursion step read its 243 products through the batch
    assert sum(len(b[0]) for b in batched) >= 243
    # the grid averaging read the inverses of all its points through the
    # batch; one bounded nf_uak table serves tag_of
    read = {word for b in batched for word in b[0]}
    assert inverses and set(inverses) <= read
    assert len(tw._memo[nf_uak.__wrapped__]) == 3
    # the product table holds at most 3 words over all its records
    records = tw._memo[words._product_read.__wrapped__]
    assert records.held == sum(map(len, records.values())) <= 3
    # the run made no scalar coset_normalize read; the oracle's per-word
    # table is bounded too
    assert I.coset_normalize.__wrapped__ not in tw._memo
    for tag in I.grid_tags(tw, K0, -1):
        I.coset_normalize(tw, K0, word_from_tag(tw, K0, tag))
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

    def spy(tower, K, heads, tails=((),),
            _orig=words.nf_uak_batch):
        out = _orig(tower, K, heads, tails)
        batched.append(expand_batch(tower, K, out))
        return out

    f = I.f_basis(w, -1)
    pairs = [(word_from_tag(tw, K0, t), v) for t, v in zip(f.tags, f.data)]
    third = [word_from_tag(tw, K0, tag) for tag in I.f_basis(w, 2).tags]
    first, second = third[:81], third[81:162]
    # start from an empty product table
    tw._memo.pop(words._product_read.__wrapped__, None)
    monkeypatch.setattr(words, "nf_uak_batch", spy)
    records = lambda: tw._memo[words._product_read.__wrapped__]
    assert I.InducedFn.from_raw(w, pairs) == f
    stored = words._normalize_words(tw, K0, [word for word, _ in pairs])
    batched.clear()
    again = words._normalize_words(tw, K0, [word for word, _ in pairs])
    assert again is stored
    assert batched == []
    assert len(stored) == 81 and len(records()) == 1
    # 81 + 81 words fit, and a third record of 81 drops the oldest
    one = words._normalize_words(tw, K0, first)
    assert len(one) == 81 and expand(tw, K0, one) == batched[0]
    assert records().held == 162
    two = words._normalize_words(tw, K0, second)
    assert len(two) == 81 and expand(tw, K0, two) == batched[1]
    assert records().held == 162 and list(records().values()) == [one, two]
    # 243 words are more than the table holds
    big = words._normalize_words(tw, K0, third)
    assert len(big) == 243 and expand(tw, K0, big) == batched[2]
    assert records().held == sum(map(len, records().values())) == 162
    assert words._normalize_words(tw, K0, third) is not big


def test_recursion_step_keeps_one_record():
    """On a fresh q = 3 tower, the exhaustive step 2 -> 3 of trivial@K0
    reads its 19,683 products as one product read: the product table holds
    that record, one tag per word, kept as two read-only arrays, and the
    scalar coset_normalize's per-word table is never made."""
    tw = Tower(3, 1)
    tw.default_window = 24
    w = W.make_weight(tw, K0, W.TRIVIAL)
    I.translation_recursion_check(w, 2, 1)
    assert I.coset_normalize.__wrapped__ not in tw._memo
    prefixes = I.translation_prefixes(tw, K0, 2, 1)
    reps = [word_from_tag(tw, K0, tag) for tag in I.f_basis(w, 2).tags]
    records = tw._memo[words._product_read.__wrapped__]
    read = records[(K0, tuple(prefixes), tuple(reps))]
    assert len(read.tag_ids) == len(read.tag_tuple()) == 19683
    assert set(read.tag_tuple()) == set(I.f_basis(w, 3).tags)
    for arr in (read.tag_shifts, read.tag_indices):
        assert arr.shape == (19683,) and not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0
    tags = set(zip(read.tag_shifts.tolist(), read.tag_indices.tolist()))
    assert len(tags) == 19683 and tags == set(I.f_basis(w, 3).tags)


def test_from_raw_reads_pairs_once(catalog):
    """from_raw reads its pairs once, so a one-shot generator gives what the
    list gives, on 3 pairs and on 81 pairs."""
    w = catalog[(K0, "steinberg")]
    for n in (1, -1):
        f = I.f_basis(w, n)
        pairs = [(word_from_tag(w.tower, K0, t), v)
                 for t, v in zip(f.tags, f.data)]
        reads = [0]

        def one_shot():
            for pair in pairs:
                reads[0] += 1
                yield pair

        assert I.InducedFn.from_raw(w, one_shot()) == I.InducedFn.from_raw(w, pairs)
        assert reads[0] == len(pairs)


def _t_matrix_oracle(f):
    """op_T of f from its plain (word, value) pairs through from_raw: for
    every stencil suffix s with residue g (_t_stencil) and every tag, the
    word rep(tag) s carries j sigma(g) f(tag), with j the matrix
    Weight.j_matrix()."""
    w = f.weight
    tw, K = w.tower, w.K
    j = w.j_matrix()
    return I.InducedFn.from_raw(w, [
        (word_from_tag(tw, K, tag) + suffix, v)
        for suffix, g in zip(*I._t_stencil(tw, K))
        for tag, v in zip(f.tags, gfmat.matmul(tw, f.data, gfmat.matmul(
            tw, j, w.matrix(U.GammaElem(tw, K, g.tolist()))).T))
    ])


def test_op_T_matches_matrix_oracle(tower, catalog, regular_pairs):
    """op_T equals the matrix oracle on a function with random values, off
    the canonical line, on the cells 0 and +-1: for the 10 q = 3 catalog
    weights and the sub and the quotient of one regular K1 character."""
    rng = np.random.default_rng(11)
    _, sub, quot = regular_pairs[0]
    for w in [*catalog.values(), sub, quot]:
        tags = [t for n in (0, 1, -1) for t in I.grid_tags(tower, w.K, n)]
        f = I.InducedFn(w, tags, rng.integers(
            1, tower.Q, (len(tags), w.dim)).astype(np.uint16))
        assert len(f.shifts()) == 3
        assert I.op_T(w, f) == _t_matrix_oracle(f), w.label


def test_translates_match_pairs_oracle(monkeypatch):
    """Every translate-sum read as a product equals the sum of its plain
    (word, value) pairs through from_raw, at both compacts with every memo
    table bounded at 3 entries: op_T, op_SK, op_Sminus, an exhaustive
    recursion step, g_act by a torus generator atom, an empty function, and
    a call with one prefix, which the batch reads like every other.  g_act
    by a depth-one torus unit, a word the batch does not carry, is
    refused."""
    tw = Tower(3, 1)
    tw.default_window = 24
    monkeypatch.setattr(fields, "_MEMO_CAP", 3)
    reads = []

    def spy(tower, K, heads, tails=((),),
            _orig=words.nf_uak_batch):
        out = _orig(tower, K, heads, tails)
        reads.append(out)
        return out

    monkeypatch.setattr(words, "nf_uak_batch", spy)

    def oracle(f, prefixes):
        K = f.weight.K
        return I.InducedFn.from_raw(f.weight, [
            (p + word_from_tag(tw, K, tag), v)
            for p in prefixes for tag, v in zip(f.tags, f.data)
        ])

    rng = np.random.default_rng(5)
    for K in BOTH:
        w = W.make_weight(tw, K, W.STEINBERG)
        f0, f1, fm1 = (I.f_basis(w, n) for n in (0, 1, -1))
        # invariant, with values that differ between its two cells
        mixed = f0.add(f1.scale(2))
        assert I.op_T(w, mixed) == _t_matrix_oracle(mixed)
        assert I.op_SK(w, mixed) == oracle(mixed, I._sk_suffixes(tw, K))
        assert I.op_Sminus(w, mixed) == oracle(
            mixed, I._sminus_suffixes(tw, K)
        )
        prefixes = I.translation_prefixes(tw, K, 0, -1)
        assert f0.translates(prefixes) == oracle(f0, prefixes) == fm1
        rough = I.InducedFn(w, fm1.tags, rng.integers(
            1, tw.Q, (len(fm1.tags), w.dim)).astype(np.uint16))
        unit = next(a for a in pro_iwahori_sample(tw, K) if a[0] == "d")
        reads.clear()
        with pytest.raises(NotApplicable):
            rough.g_act((unit,))
        assert reads and all((index < 0).all() for _, index, _, _ in reads)
        torus = (W.torus_atom(tw, *W.torus_generator_pairs(tw)[0]),)
        assert rough.g_act(torus) == oracle(rough, [torus])
        assert rough.translates(prefixes[:3]) == oracle(rough, prefixes[:3])
        zero = I.InducedFn.zero(w)
        assert zero.translates(prefixes).is_zero()
        assert I.op_T(w, zero).is_zero()
        reads.clear()
        assert f1.translates(prefixes[1:2]) == oracle(f1, prefixes[1:2])
        assert reads


def test_transport_builds_no_matrix(monkeypatch, catalog):
    """op_T(steinberg@K0, f_-1) and op_SK_grid(f_grid(steinberg@K0, -1))
    call gfmat.matvec never, and their transports build no Weight.matrix:
    the values move through the weight's array action, over the 30
    residues of the 6,804 terms of op_T.  Transporting those terms stays
    within a traced-memory bound set by _TRANSPORT_ENTRIES."""
    w = catalog[(K0, "steinberg")]
    f, g = I.f_basis(w, -1), I.f_grid(w, -1)
    ops = {"op_T": lambda: I.op_T(w, f), "op_SK_grid": lambda: I.op_SK_grid(g)}
    expected = {name: op() for name, op in ops.items()}  # warm stencils
    counts = {"matvec": 0, "matrix": 0}
    residues, transported, inside = set(), [], []

    def matvec_spy(*args, _orig=gfmat.matvec):
        counts["matvec"] += 1
        return _orig(*args)

    def matrix_spy(self, gamma, _orig=W.Weight.matrix):
        counts["matrix"] += bool(inside)
        return _orig(self, gamma)

    def normalize_spy(tower, K, heads, tails=((),),
                      _orig=I._normalize_words):
        out = _orig(tower, K, heads, tails)
        residues.update(map(tuple, out.residues.tolist()))
        return out

    def transport_spy(weight, ids, res, vecs, inverse=False,
                      _orig=I._transport_ids):
        transported.append((ids, res, vecs.copy(), inverse))
        inside.append(True)
        try:
            return _orig(weight, ids, res, vecs, inverse)
        finally:
            inside.pop()

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
        assert transported and counts["matrix"] == 0, name
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
    """Layer atoms are built once per tower and layer: over a recursion
    step on a fresh tower, every layer atom asked for comes from a layer
    transversal built (and its unipotent relation checked, on all its
    coordinates at once) exactly once per (layer, side), and no layer atom
    goes through the scalar relation check of atom_n."""
    checks, coords, builds = [0], set(), []
    check = U._check_unipotent_relation
    build = U._layer_transversal.__wrapped__

    def counted(x, y):
        checks[0] += 1
        return check(x, y)

    def built(tower, k, prime):
        builds.append((k, prime))
        return build(tower, k, prime)

    monkeypatch.setattr(U, "_check_unipotent_relation", counted)
    monkeypatch.setattr(U, "_layer_transversal", fields.memo(built))
    for mod in (U, words, I):
        def spy(tower, k, c, prime=False, _orig=mod.layer_atom):
            coords.add((k, tuple(c), bool(prime)))
            return _orig(tower, k, c, prime)

        monkeypatch.setattr(mod, "layer_atom", spy)
    tw = Tower(3, 1)
    tw.default_window = 24
    I.translation_recursion_check(W.make_weight(tw, K0, W.TRIVIAL), 1, 1)
    assert coords and checks[0] == 0
    assert len(builds) == len(set(builds))
    assert {(k, prime) for k, _, prime in coords} <= set(builds)


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


def _as_dict(f):
    """An InducedFn as a dict from tag to value tuple."""
    return {tag: tuple(v.tolist()) for tag, v in zip(f.tags, f.data)}


def _dict_combine(tw, a, b, s):
    """a + s b on dicts of value tuples, by the scalar field tables, with
    zero values dropped."""
    out = dict(a)
    for tag, v in b.items():
        cur = out.get(tag, (0,) * len(v))
        out[tag] = tuple(tw.a(x, tw.m_(s, y)) for x, y in zip(cur, v))
    return {tag: v for tag, v in out.items() if any(v)}


@st.composite
def _fn_parts(draw, dim, Q):
    """Distinct tags of three cells and one value row per tag, a third of
    the rows zero."""
    pool = [(n, i) for n in (-1, 0, 1) for i in range(5)]
    tags = draw(st.lists(st.sampled_from(pool), unique=True, max_size=8))
    row = st.lists(st.integers(0, Q - 1), min_size=dim, max_size=dim)
    rows = [draw(st.one_of(st.just([0] * dim), row, row)) for _ in tags]
    return tuple(tags), np.array(rows, dtype=np.uint16).reshape(len(tags), dim)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_linear_structure_matches_dict_oracle(tower, catalog, data):
    """add, sub, neg and scale (by 0 and by a unit) of InducedFn agree with
    the same operations on dicts of value tuples: zero rows are dropped, the
    tags stay distinct and the values read-only.  Equality and the hash do
    not depend on the order of the tags, and equality is that of the dicts.
    A memoized f_basis cannot be written into."""
    tw = tower
    w = catalog[(K0, data.draw(st.sampled_from(["trivial", "steinberg"])))]
    f = I.InducedFn(w, *data.draw(_fn_parts(w.dim, tw.Q)))
    g = I.InducedFn(w, *data.draw(_fn_parts(w.dim, tw.Q)))
    a, b = _as_dict(f), _as_dict(g)
    assert all(map(any, a.values())) and all(map(any, b.values()))
    s = data.draw(st.integers(1, tw.Q - 1))
    zero = {}
    for out, want in (
        (f.add(g), _dict_combine(tw, a, b, 1)),
        (f.sub(g), _dict_combine(tw, a, b, tw.n(1))),
        (f.neg(), _dict_combine(tw, zero, a, tw.n(1))),
        (f.scale(s), _dict_combine(tw, zero, a, s)),
        (f.scale(0), zero),
    ):
        assert _as_dict(out) == want
        assert len(set(out.tags)) == len(out.tags) == len(want)
        assert out.data.dtype == np.uint16 and not out.data.flags.writeable
        assert out.is_zero() == (not want)
    order = data.draw(st.permutations(range(len(f.tags))))
    shuffled = I.InducedFn(w, tuple(f.tags[i] for i in order),
                           f.data[list(order)])
    assert shuffled == f and hash(shuffled) == hash(f)
    assert (f == g) == (a == b)
    if f == g:
        assert hash(f) == hash(g)
    basis = I.f_basis(w, 1)
    assert basis is I.f_basis(w, 1)
    with pytest.raises(ValueError):
        basis.data[0, 0] = 1


def test_eval_agreement_basis_vs_grid(tower, catalog):
    for K in BOTH:
        w = catalog[(K, "trivial")]
        ws = catalog[(K, "steinberg")]
        bw = beta_compact_word(K)
        for n in (0, 1, -1):
            for wt in (w, ws):
                fb = I.f_basis(wt, n)
                fg = I.f_grid(wt, n)
                # the first and the middle coset of the cell, the compact's
                # involution times the latter, and an off-support point
                pts = [word_inverse(tower, word_from_tag(tower, K, tag))
                       for tag in (fb.tags[0], fb.tags[len(fb.tags) // 2])]
                pts += [bw + pts[-1], word_from_tag(tower, K, (0, 0))]
                for x in pts:
                    assert np.array_equal(fb.eval_at(x), fg.eval_at(x))
                values = fb.values_at(pts)
                assert np.array_equal(values, fg.values_at(pts))
                assert np.array_equal(values, [fb.eval_at(x) for x in pts])
                tails = [()] + [(a,) for a in layer_sample(tower, K)]
                assert np.array_equal(fb.values_at(pts, tails), [
                    fg.eval_at(x + t) for x in pts for t in tails
                ])


def test_eval_off_support_is_zero(tower, catalog):
    w = catalog[(K0, "trivial")]
    f1 = I.f_basis(w, 1)
    assert not f1.eval_at(()).any()
    fm1 = I.f_basis(w, -1)
    x = word_inverse(tower, word_from_tag(tower, K0, f1.tags[0]))
    assert not fm1.eval_at(x).any()


def test_g_act_composition(tower, catalog):
    w = catalog[(K1, "trivial")]
    f = I.f_basis(w, 0)
    atoms = layer_sample(tower, K1)
    bw = beta_compact_word(K1)
    w1 = bw + (atoms[0],)
    w2 = (W.torus_atom(tower, *W.torus_generator_pairs(tower)[0]),) + bw
    lhs = f.g_act(w1).g_act(w2)
    rhs = f.g_act(w2 + w1)
    assert lhs == rhs
    assert f.g_act(()) == f
    assert f.g_act(w1).g_act(word_inverse(tower, w1)) == f


def test_from_raw_order_independent(tower, catalog):
    w = catalog[(K0, "steinberg")]
    f = I.f_basis(w, 1)
    pairs = [
        (word_from_tag(tower, K0, tag), v) for tag, v in zip(f.tags, f.data)
    ]
    rng = random.Random(5)
    for _ in range(3):
        rng.shuffle(pairs)
        assert I.InducedFn.from_raw(w, pairs) == f


def _doctored(f, tag):
    """f with its value at tag doubled."""
    data = f.data.copy()
    i = f.tags.index(tag)
    data[i] = f.weight.tower.times(2, data[i])
    return I.InducedFn(f.weight, f.tags, data)


def test_invariance_checker_catches_doctored(tower, catalog):
    """The exact check sees every single-tag doctoring of f_-1 at K0 (81
    tags) and of f_1 at K1 (27), and from_induced refuses each."""
    for K, n, size in ((K0, -1, 81), (K1, 1, 27)):
        f = I.f_basis(catalog[(K, "trivial")], n)
        assert len(f.tags) == size
        assert sample_invariant(f)
        for tag in f.tags:
            g = _doctored(f, tag)
            assert not sample_invariant(g), (K, tag)
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


def _regular_chain_pieces(tw, chi):
    """The pieces of test_regular_chain for one K1 character: the socle
    chain, the span of f_1 of the quotient layer, T on its generators, S_K
    f_1, the orbit of f_-1 under the generator lifts and the span's residue
    action on the fingerprint elements."""
    W.socle_chain(W.make_weight(tw, K1, W.PRINCIPAL_SERIES, chi=chi))
    quot = W.make_weight(tw, K1, W.PS_SUB_QUOTIENT, chi=chi, part="quotient")
    span = I.spin_K(I.f_basis(quot, 1))
    for v in np.eye(quot.dim, dtype=np.uint16).tolist():
        span.coords_of(I.op_T(quot, I.InducedFn.generator(quot, (), v)))
    fm1 = I.op_SK(quot, I.f_basis(quot, 1))
    for g in W.gamma_generators(tw, K1):
        span.coords_of(fm1.g_act(W.gamma_lift_word(tw, K1, g)))
    for g in W.fingerprint_elements(tw, K1):
        span.weight.matrix(g)


def test_production_runs_make_no_scalar_coset_read(monkeypatch):
    """On a fresh q = 3 tower (so no product read is memoized yet), the
    catalog set-up (each weight's v0, j_matrix and chi_of), the constants
    battery, the exhaustive recursion steps, spin_K of f_0, f_1 and f_-1
    of the catalog and the regular-chain pieces of one K1 character each
    call the scalar coset_normalize, the series products and inverses
    (TableCtx.ser_mul, ser_inv) and the Mat3 constructor 0 times: every
    word they read is carried by the batch, and every residue comes from a
    product read."""
    from u21hecke import _kernel
    from u21hecke.mat3 import Mat3

    calls = {}

    def spy(name, owner):
        orig = owner.__dict__[name]

        def counted(*args):
            calls[name] = calls.get(name, 0) + 1
            return orig(*args)

        monkeypatch.setattr(owner, name, counted)

    spy("coset_normalize", I)
    spy("ser_mul", _kernel.TableCtx)
    spy("ser_inv", _kernel.TableCtx)
    spy("__init__", Mat3)
    tw = Tower(3, 1)
    tw.default_window = 24
    cat = {}
    chi = next(c for c in characters_of_torus(tw) if is_regular(c))

    def set_up():
        cat.update(_catalog(tw))
        for w in cat.values():
            w.v0(), w.j_matrix(), w.chi_of()

    runs = {
        "set-up": set_up,
        "constants": lambda: [I.constants(w, check=True)
                              for w in cat.values()],
        "recursion": lambda: [
            I.translation_recursion_check(cat[(K0, "trivial")], n, d)
            for n, d in ((0, 1), (1, 1), (2, 1), (0, -1), (-1, -1))
        ],
        "spin_K": lambda: [I.spin_K(I.f_basis(w, n))
                           for w in cat.values() for n in (0, 1, -1)],
        "regular chain": lambda: _regular_chain_pieces(tw, chi),
    }
    for name, run in runs.items():
        calls.clear()
        run()
        assert calls == {}, name


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
        _, indices, _, _ = nf_uak_batch(tw, K, batch)
        assert (indices >= 0).all()
    assert calls == []
    for K in BOTH:
        assert expand_batch(tw, K, nf_uak_batch(tw, K, batch)) == [
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
    raising: constants() reads lam and c from op_T_grids."""

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
        return np.zeros(w.dim, dtype=np.uint16)
    gamma = U.reduce_to_gamma(tw, K, k_mat)
    return tw.times(c, gfmat.matvec(tw, w.matrix(gamma), I.grid_value(w, -t)))


def test_grid_values_match_nf_kau_read(monkeypatch):
    """Every point the grid averaging evaluates, read by one batched coset
    read of the inverted points, has the value the mirrored normal form
    gives, and the batch carries every one of them (no id is -1)."""
    seen, batched = [], []

    def values_spy(weight, elems, inv_tails, inv_heads, image,
                   _orig=I._cell_images):
        # the values of each f_n at the points, as the operator reads them
        by_cells = []

        def keep(by_cell):
            by_cells.append(by_cell)
            return image(by_cell)

        out = _orig(weight, elems, inv_tails, inv_heads, keep)
        (by_cell,) = by_cells
        tw = weight.tower
        cells = sorted(set().union(*(elem.coeffs for elem in elems)))
        points = [word_inverse(tw, t + x)
                  for x in inv_heads for t in inv_tails]
        for elem in elems:
            values = np.zeros(by_cell.shape[1:], dtype=np.uint16)
            for n, c in elem.coeffs.items():
                values = tw.plus_times(values, c, by_cell[cells.index(n)])
            seen.append((points, values))
        return out

    def batch_spy(tower, K, heads, tails=((),),
                  _orig=words.nf_uak_batch):
        read = _orig(tower, K, heads, tails)
        batched.append(read[1])
        return read

    monkeypatch.setattr(I, "_cell_images", values_spy)
    monkeypatch.setattr(words, "nf_uak_batch", batch_spy)
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
                    assert np.array_equal(values, [
                        _nf_kau_eval(elem, x) for x in pts
                    ])
    assert batched and all((index >= 0).all() for index in batched)


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("fault", [
    lambda atoms: atoms[1:],
    lambda atoms: atoms[:1] + atoms[:-1],
], ids=["dropped", "repeated"])
def test_dropped_layer_atom_fails_the_suffix_certificates(monkeypatch, p,
                                                          fault):
    """With one atom missing from every layer transversal (or one atom in
    place of another), the averaging suffixes are no transversal: on a
    fresh tower (the certificates are memoized per compact) both grid
    averages raise CrossCheckFailed, at both compacts."""
    tw = Tower(p, 1)
    monkeypatch.setattr(
        I, "layer_transversal",
        lambda tower, k, prime=False, _orig=I.layer_transversal:
            fault(_orig(tower, k, prime=prime)),
    )
    for K in BOTH:
        w = W.make_weight(tw, K, W.TRIVIAL)
        with pytest.raises(CrossCheckFailed):
            I.op_SK_grid(I.f_grid(w, 1))
        with pytest.raises(CrossCheckFailed):
            I.op_Sminus_grid(I.f_grid(w, 0))


@pytest.mark.parametrize("p", [3, 5])
def test_untwisted_positive_value_fails_its_certificate(monkeypatch, tower,
                                                        tower5, p):
    """With gamma_beta read as the identity, the value of the positive cells
    of the steinberg weight is v0, which the lower unipotent group moves:
    on a fresh weight (the value is memoized per weight) f_basis and f_grid
    of cell 1 raise InvarianceViolated, and cell 0 is still certified."""
    tw = tower if p == 3 else tower5
    monkeypatch.setattr(I, "gamma_beta",
                        lambda tower, K: U.GammaElem.identity(tower, K))
    for K in BOTH:
        w = W.make_weight(tw, K, W.STEINBERG)
        with pytest.raises(InvarianceViolated):
            I.f_basis(w, 1)
        with pytest.raises(InvarianceViolated):
            I.f_grid(w, 1)
        assert I.f_grid(w, 0) == I.GridElement(w, {0: 1})


def test_grid_values_fixed_by_exactly_their_own_group(tower, tower5):
    """The steinberg values are fixed by the unipotent group of their own
    sign only (v0 by the upper one, sigma(beta_K) v0 by the lower one), so
    the certificate of _grid_value tells the two apart; the one-dimensional
    values are fixed by both."""
    for tw in (tower, tower5):
        for K in BOTH:
            groups = (W.gamma_upper_generators(tw, K),
                      W.gamma_lower_generators(tw, K))
            for kind in (W.TRIVIAL, W.STEINBERG, W.DET_TWIST):
                w = W.make_weight(tw, K, kind)
                for n, own in ((0, 0), (1, 1)):
                    v = I.grid_value(w, n)
                    fixed = [all(np.array_equal(w.act(g, v), v) for g in gens)
                             for gens in groups]
                    assert fixed[own], (K, w.label, n)
                    assert fixed[1 - own] == (w.dim == 1), (K, w.label, n)


def test_op_grid_evaluates_every_sampled_point(monkeypatch, tower, catalog):
    """_op_grids evaluates the window points only, each once per suffix,
    read through their inverses."""
    counts, calls = [], []

    def spy(weight, elems, inv_tails, inv_heads, image,
            _orig=I._cell_images):
        counts.append(len(inv_heads) * len(inv_tails))
        calls.append((set(inv_heads), list(inv_tails)))
        return _orig(weight, elems, inv_tails, inv_heads, image)

    monkeypatch.setattr(I, "_cell_images", spy)
    alpha = U.atom_alpha
    for K in BOTH:
        w = catalog[(K, "steinberg")]
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
                expect = len(window) * len(suffixes)
                assert counts == [expect], (K, coeffs, op.__name__)
                heads = {word_inverse(tower, (alpha(-j),)) for j in window}
                tails = [word_inverse(tower, t) for t in suffixes]
                assert calls == [(heads, tails)], (K, coeffs, op.__name__)


def test_s_op_precondition_enforced(tower, catalog):
    w = catalog[(K0, "trivial")]
    f = I.f_basis(w, 1)
    g = _doctored(f, sorted(f.tags)[0])
    with pytest.raises(InvarianceViolated):
        I.op_SK(w, g)


def test_twisting_law(tower, catalog):
    for K in BOTH:
        bw = beta_compact_word(K)
        for name in ("trivial", "steinberg", "det1"):
            w = catalog[(K, name)]
            f0, f1 = I.f_basis(w, 0), I.f_basis(w, 1)
            torus = [a for a in pro_iwahori_sample(tower, K) if a[0] == "d"]
            assert torus
            suffixes = I._sk_suffixes(tower, K)
            for h in torus:
                hw = (h,)
                hs = bw + hw + word_inverse(tower, bw)
                for f in (f0, f1):
                    lhs = scalar_translate(f, hw).translates(suffixes)
                    rhs = scalar_translate(f.translates(suffixes), hs)
                    assert lhs == rhs


def test_images_remain_invariant(tower, catalog):
    for K in BOTH:
        for name in ("trivial", "steinberg", "det1"):
            w = catalog[(K, name)]
            f0, f1 = I.f_basis(w, 0), I.f_basis(w, 1)
            assert sample_invariant(I.op_T(w, f0))
            assert sample_invariant(I.op_SK(w, f1))
            assert sample_invariant(I.op_Sminus(w, f0))


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


def _recursion_steps(tower, K):
    """Every step (n_from, direction) within DEFAULT_N_MAX whose target
    grid is within DEFAULT_TAG_CAP: the exhaustive steps."""
    return [
        (n, d) for d in (1, -1) for n in range(0, d * I.DEFAULT_N_MAX, d)
        if I.grid_count(tower, K, n + d) <= I.DEFAULT_TAG_CAP
    ]


def test_exhaustive_recursion_matches_function_oracle(tower, catalog):
    """On every exhaustive q = 3 step at both compacts,
    translation_recursion_check holds for all 10 catalog weights, and for
    trivial, steinberg and det1 the materialized functions agree:
    f_basis(w, n).translates(prefixes) == f_basis(w, n + direction).  The
    step 0 -> 1 holds also where sigma(beta_K) moves v0 (steinberg, det1
    and det3): its prefixes end in beta_K, which carries v0 to the
    canonical value sigma(beta_K) v0 of cell 1."""
    for K in BOTH:
        steps = _recursion_steps(tower, K)
        deepest = {K0: 2, K1: 1}[K]
        assert steps == [(n, 1) for n in range(deepest + 1)] + [(0, -1),
                                                               (-1, -1)]
        moves = set()
        for label in ("trivial", "steinberg", "det1", "det2", "det3"):
            w = catalog[(K, label)]
            for n, d in steps:
                ev = I.translation_recursion_check(w, n, d)
                assert ev["mode"] == "exhaustive", (K, label, n, d)
                if label in ("trivial", "steinberg", "det1"):
                    prefixes = I.translation_prefixes(tower, K, n, d)
                    assert I.f_basis(w, n).translates(prefixes) == (
                        I.f_basis(w, n + d)), (K, label, n, d)
            if (I.grid_value(w, 1) != I.grid_value(w, 0)).any():
                moves.add(label)
        assert moves == {"steinberg", "det1", "det3"}, K


def test_exhaustive_recursion_builds_no_function(monkeypatch, tower,
                                                 catalog):
    """The exhaustive steps of steinberg build no InducedFn, and call
    neither f_basis nor InducedFn.__eq__."""
    def refuse(*args, **kwargs):
        raise AssertionError("the exhaustive recursion built a function")

    monkeypatch.setattr(I, "f_basis", refuse)
    monkeypatch.setattr(I.InducedFn, "__init__", refuse)
    monkeypatch.setattr(I.InducedFn, "__eq__", refuse)
    for K in BOTH:
        w = catalog[(K, "steinberg")]
        for n, d in _recursion_steps(tower, K):
            ev = I.translation_recursion_check(w, n, d)
            assert ev["mode"] == "exhaustive"


def _moved_tag(weight, read):
    """The read with its first tag moved to the next cell."""
    shifts = read.tag_shifts.copy()
    shifts[0] += 1
    return words.ProductRead(read.tag_ids, shifts, read.tag_indices,
                             read.res_ids, read.residues)


def _shared_tag(weight, read):
    """The read with the words of its second tag moved onto its first, so
    that the tags number one less than the words."""
    ids = read.tag_ids.copy()
    ids[ids == 1] = 0
    ids[ids > 1] -= 1
    keep = np.arange(len(read.tag_shifts)) != 1
    return words.ProductRead(ids, read.tag_shifts[keep],
                             read.tag_indices[keep], read.res_ids,
                             read.residues)


def _moving_residue(weight, read):
    """The read with its first residue swapped for a generator of the
    residue group that moves the canonical value of cell 0 off that of
    cell -1."""
    tw, K = weight.tower, weight.K
    w_from, w = I.grid_value(weight, 0), I.grid_value(weight, -1)
    bad = [g for g in W.gamma_generators(tw, K)
           if (weight.act(g, w_from) != w).any()]
    assert bad
    residues = read.residues.copy()
    residues[0] = bad[0].m
    return words.ProductRead(read.tag_ids, read.tag_shifts, read.tag_indices,
                             read.res_ids, residues)


@pytest.mark.parametrize("doctor, match", [
    (_moved_tag, "escapes the target cell"),
    (_shared_tag, "land in 80 cosets, not the 81"),
    (_moving_residue, "a residue moves the canonical value"),
], ids=["moved_tag", "shared_tag", "moving_residue"])
def test_doctored_read_fails_the_exhaustive_recursion(monkeypatch, tower,
                                                      catalog, doctor,
                                                      match):
    """The exhaustive step 0 -> -1 of steinberg at both compacts, with its
    product read doctored: a tag moved to another cell, two words on one
    tag, or a residue that moves the source value off the target's, each
    raise CrossCheckFailed naming the check that fails.  The undoctored
    read passes through the same patch."""
    reads = []

    def read(tower, K, heads, tails=((),), _orig=I._normalize_words):
        out = _orig(tower, K, heads, tails)
        reads.append(out)
        return fault(out)

    monkeypatch.setattr(I, "_normalize_words", read)
    for K in BOTH:
        w = catalog[(K, "steinberg")]
        fault = lambda out: out
        assert I.translation_recursion_check(w, 0, -1)["mode"] == (
            "exhaustive")
        fault = functools.partial(doctor, w)
        with pytest.raises(CrossCheckFailed, match=match):
            I.translation_recursion_check(w, 0, -1)
    assert len(reads) == 4


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


def _t_matches_materialized(w):
    """op_T_grid of f_0 and f_+-1, whose images fill the cells -2..2, and
    of zero against the materialized op_T."""
    for n in (0, 1, -1):
        oracle = I.GridElement.from_induced(I.op_T(w, I.f_basis(w, n)))
        assert I.op_T_grid(I.f_grid(w, n)) == oracle, (w, n)
    zero = I.GridElement(w, {})
    assert I.op_T_grid(zero) == zero


def test_op_T_grid_matches_materialized(tower, catalog):
    """op_T_grid reads the same coefficients as the materialized op_T on
    cells -2..2, for every q = 3 catalog weight at both compacts."""
    for w in catalog.values():
        _t_matches_materialized(w)


def test_op_T_grid_matches_materialized_q5(monkeypatch):
    """The same at q = 5 for trivial, det1 and steinberg at K1 and trivial
    at K0.  The memo cap is raised so that the K1 weights share the product
    read of op_T on f_-1 (625 tags times 750 suffixes)."""
    monkeypatch.setattr(fields, "_MEMO_CAP", 2**20)
    tw = Tower(5, 1)
    tw.default_window = 24
    for K, kind, power in ((K1, W.TRIVIAL, None), (K1, W.DET_TWIST, 1),
                           (K1, W.STEINBERG, None), (K0, W.TRIVIAL, None)):
        _t_matches_materialized(W.make_weight(tw, K, kind, power=power))


@pytest.mark.parametrize("p, counts", [
    (3, {K0: (84, 1, 28), K1: (108, 1, 4)}),
    (5, {K0: (630, 1, 126), K1: (750, 1, 6)}),
])
def test_t_adjoint_counts(p, counts):
    """The adjoint stencil of T at both compacts: its suffixes, and the
    distinct residue rows g_s' and r_s that _t_tables turns into rows (one
    g_s'; q^3 + 1 residues r_s at K0 and q + 1 at K1)."""
    tw = Tower(p, 1)
    for K, (n, g, r) in counts.items():
        partner, rs = I._t_adjoint(tw, K)
        _, residues = I._t_stencil(tw, K)
        assert len(partner) == len(rs) == n
        assert rs.shape == (n, 9) and rs.dtype == np.uint16
        assert len(np.unique(residues[partner], axis=0)) == g
        assert len(np.unique(rs, axis=0)) == r


def test_residues_in_compact_agree_with_reduce_word(tower, tower5):
    """The batched residues of the stencil words (the inverses (ua ub)^-1
    and beta_K) are the reductions of their matrices, at q = 3 and q = 5,
    and a word outside the compact, u beta_K alpha(1), raises
    CrossCheckFailed."""
    for tw, K in itertools.product((tower, tower5), BOTH):
        n_K, _, _ = iwahori_constants(tw, K)
        words_in = [
            word_inverse(tw, (ua, ub))
            for ua in layer_transversal(tw, n_K)
            for ub in layer_transversal(tw, n_K + 1)
        ] + [beta_compact_word(K)]
        rows = words._residues_in_compact(tw, K, words_in)
        assert rows.shape == (len(words_in), 9) and rows.dtype == np.uint16
        assert rows.tolist() == [
            list(U.reduce_to_gamma(tw, K, U.word_matrix(tw, w)).m)
            for w in words_in
        ]
        bw = beta_compact_word(K)
        u = layer_transversal(tw, n_K)[1]
        with pytest.raises(CrossCheckFailed):
            words._residues_in_compact(tw, K, [(u,) + bw + (U.atom_alpha(1),)])


def test_doctored_t_table_fails_constants(monkeypatch, tower):
    """A T table with its first R row moved off sigma(r_s) v0 makes
    constants() raise CrossCheckFailed, for fresh one-dimensional weights
    at both compacts: the first suffix is alpha^-1, so the row carries the
    value of T f_0 at the cell-1 point."""

    def doctored(weight, _orig=I._t_tables):
        ell_rows, v0_rows = _orig(weight)
        v0_rows = v0_rows.copy()
        v0_rows[0] = weight.tower.plus(v0_rows[0], weight.v0())
        return ell_rows, v0_rows

    monkeypatch.setattr(I, "_t_tables", doctored)
    for K in BOTH:
        for kind, power in ((W.TRIVIAL, None), (W.DET_TWIST, 1)):
            w = W.make_weight(tower, K, kind, power=power)
            with pytest.raises(CrossCheckFailed):
                I.constants(w)


def test_constants_make_no_word_matrix_call(monkeypatch):
    """On a fresh q = 3 tower, once every catalog weight has its v0,
    j_matrix and chi_of (the benchmark's set-up), constants() over the
    catalog forms no matrix of a word: the residues of the stencil and of
    the d[0] sum come from product reads (_residues_in_compact)."""
    calls = []

    def spy(tower, word, _orig=U.word_matrix):
        calls.append(word)
        return _orig(tower, word)

    tw = Tower(3, 1)
    tw.default_window = 24
    cat = _catalog(tw)
    for w in cat.values():
        w.v0(), w.j_matrix(), w.chi_of()
    for mod in (U, W, words, I):
        if hasattr(mod, "word_matrix"):
            monkeypatch.setattr(mod, "word_matrix", spy)
    for w in cat.values():
        I.constants(w, check=True)
    assert calls == []


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
    adjoint stencil names one partner suffix s', and one stencil residue
    g_s', for all s."""
    for K in BOTH:
        partner, _ = I._t_adjoint(tower, K)
        suffixes, residues = I._t_stencil(tower, K)
        assert len(partner) == len(suffixes)
        assert len(set(partner.tolist())) == 1
        assert len(np.unique(residues[partner], axis=0)) == 1


def test_op_T_grid_rejects_a_dropped_suffix(monkeypatch):
    """A stencil with one coset missing at K1 makes op_T_grid raise, both
    for a suffix of the first family and for the suffix every s^-1 lands
    on: the stencil no longer covers the cells +-1."""
    tw = Tower(3, 1)
    suffixes, residues = I._t_stencil(tw, K1)
    alpha_coset = I.coset_normalize(tw, K1, (U.atom_alpha(1),))[0]
    matched = next(
        i for i, s in enumerate(suffixes)
        if I.coset_normalize(tw, K1, s)[0] == alpha_coset
    )
    assert matched != 0
    for drop in (0, matched):
        tw = Tower(3, 1)
        tw.default_window = 24
        w = W.make_weight(tw, K1, W.TRIVIAL)
        kept = (suffixes[:drop] + suffixes[drop + 1:],
                np.delete(residues, drop, axis=0))
        monkeypatch.setattr(I, "_t_stencil", lambda tower, K: kept)
        with pytest.raises(CrossCheckFailed):
            I.op_T_grid(I.f_grid(w, 1))


GRID_OPS = (
    (I.op_T_grids, I.op_T_grid),
    (I.op_SK_grids, I.op_SK_grid),
    (I.op_Sminus_grids, I.op_Sminus_grid),
)


def _list_forms_match(w, elems):
    """Each list form applied to the elements at once equals its
    one-element form on every element."""
    for grids, single in GRID_OPS:
        assert grids(elems) == [single(e) for e in elems], (w, single)


def _fixed_elems(w):
    """f_0, f_+-1, f_-2 + 2 f_1 and zero."""
    return [I.f_grid(w, n) for n in (0, 1, -1)] + [
        I.GridElement(w, {-2: 1, 1: 2}), I.GridElement(w, {})]


def _random_elems(w, rng):
    """Three elements with random nonzero coefficients on 2, 3 and 4 random
    cells of -2..2 of at most 243 cosets each, so that the materialized
    op_T of each takes well under a second: the cells -1..2 at K0, and
    -1..1 at K1, where the last element has all three."""
    tw = w.tower
    cells = [n for n in range(-2, 3) if I.grid_count(tw, w.K, n) <= 243]
    return [
        I.GridElement(w, {n: rng.randrange(1, tw.Q)
                          for n in rng.sample(cells, min(k, len(cells)))})
        for k in (2, 3, 4)
    ]


def test_list_forms_equal_single_forms(monkeypatch, tower, catalog,
                                       catalog5):
    """The list forms of T, S_K and S_- equal their one-element forms, at
    q = 3 on trivial and steinberg at both compacts (the fixed elements of
    _fixed_elems and three random ones) and at q = 5 at K1 (the fixed
    ones).  At q = 3 each image of T on a random element also equals the
    materialized oracle, GridElement.from_induced(op_T(w, e.to_induced())),
    and each list-form call transports its grid values once
    (_transport_ids with inverse, from _cell_images)."""
    rng = random.Random(28)
    transports = []

    def spy(weight, ids, residues, vecs, inverse=False,
            _orig=I._transport_ids):
        transports.append(inverse)
        return _orig(weight, ids, residues, vecs, inverse)

    for K in BOTH:
        for name in ("trivial", "steinberg"):
            w = catalog[(K, name)]
            elems = _random_elems(w, rng)
            assert all(len(e.coeffs) >= 2 for e in elems), (K, name)
            _list_forms_match(w, _fixed_elems(w) + elems)
            assert I.op_T_grids(elems) == [
                I.GridElement.from_induced(I.op_T(w, e.to_induced()))
                for e in elems
            ], (K, name)
            with monkeypatch.context() as m:
                m.setattr(I, "_transport_ids", spy)
                for grids, _ in GRID_OPS:
                    transports.clear()
                    grids(elems)
                    assert transports.count(True) == 1, (K, name, grids)
    for name in ("trivial", "steinberg"):
        w = catalog5[(K1, name)]
        _list_forms_match(w, _fixed_elems(w))


def test_list_forms_refuse_empty_and_mixed_lists(catalog):
    """An empty list, or one whose elements live in different induced
    modules, raises NotApplicable in every list form."""
    mixed = [I.f_grid(catalog[(K0, "trivial")], 0),
             I.f_grid(catalog[(K0, "steinberg")], 0)]
    for grids, _ in GRID_OPS:
        for elems in ([], mixed):
            with pytest.raises(NotApplicable):
                grids(elems)


def _batch_spy(monkeypatch):
    """The (K, heads, tails) of every nf_uak_batch call, as a list that
    fills while the spy is installed."""
    calls = []

    def spy(tower, K, heads, tails=((),),
            _orig=words.nf_uak_batch):
        calls.append((K, heads, tails))
        return _orig(tower, K, heads, tails)

    monkeypatch.setattr(words, "nf_uak_batch", spy)
    return calls


def test_constants_reads_per_compact(monkeypatch):
    """On a fresh q = 3 tower, once the catalog is set up, constants() over
    the catalog makes at most 7 batched product reads per compact (T on
    f_0 and f_+-1 and S_K on f_0..f_-3 are one read each, T's stencil and
    its adjoint share one, and so do the S_K certificate and the d[0]
    sum; the other weights of a compact hit the same records), and each
    of its three grid-operator calls transports its grid values once:
    30 transports with inverse (_cell_images) in all."""
    tw = Tower(3, 1)
    tw.default_window = 24
    cat = _catalog(tw)
    for w in cat.values():
        w.v0(), w.j_matrix(), w.chi_of()
    calls = _batch_spy(monkeypatch)
    transports = []

    def spy(weight, ids, residues, vecs, inverse=False,
            _orig=I._transport_ids):
        transports.append(inverse)
        return _orig(weight, ids, residues, vecs, inverse)

    monkeypatch.setattr(I, "_transport_ids", spy)
    for w in cat.values():
        I.constants(w, check=True)
    for K in BOTH:
        assert 0 < len([c for c in calls if c[0] == K]) <= 7, K
    assert transports.count(True) == 3 * len(cat) == 30


def test_op_T_grid_is_one_stencil_read(monkeypatch):
    """On a fresh q = 3 tower, op_T_grid(f_1) reads the product of the
    heads alpha^j and the stencil once, for j = -2..2: its window and its
    values come from the same record."""
    calls = _batch_spy(monkeypatch)
    for K in BOTH:
        tw = Tower(3, 1)
        tw.default_window = 24
        w = W.make_weight(tw, K, W.TRIVIAL)
        stencil = tuple(I._t_stencil(tw, K)[0])
        calls.clear()
        I.op_T_grid(I.f_grid(w, 1))
        reads = [heads for _, heads, tails in calls if tails == stencil]
        assert reads == [tuple((U.atom_alpha(j),) for j in range(-2, 3))], K


def test_a_cell_outside_a_window_fails_the_call(monkeypatch, catalog):
    """An S_K window doctored to lose the cell -1 for f_-1, in a call whose
    other element f_1 keeps it: the image of f_-1, d[1] f_-1 with
    d[1] != 0, is read at that cell point and raises CrossCheckFailed."""
    w = catalog[(K0, "trivial")]
    elems = [I.f_grid(w, -1), I.f_grid(w, 1)]
    d1 = I.constants(w).d[1]
    assert d1
    assert I.op_SK_grids(elems)[0].coeffs == {-1: d1}

    def doctored(shifts, _orig=I._sk_window):
        return [1] if shifts == [-1] else _orig(shifts)

    monkeypatch.setattr(I, "_sk_window", doctored)
    with pytest.raises(CrossCheckFailed):
        I.op_SK_grids(elems)


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
# weight at q = 7 and the q = 7 K0 sweep are left out for time.
SPAN_CASES = {
    3: {K0: (("trivial", "steinberg", "det1"), True),
        K1: (("trivial", "steinberg", "det1"), True)},
    5: {K0: (("trivial", "steinberg", "det1"), True),
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
            sup = [frozenset(c.tags) for c in cands]
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
    words += [(W.torus_atom(tower, a, c),)
              for a, c in W.torus_generator_pairs(tower)]
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
        image = gfmat.Basis(tower, sw.dim)
        image.extend(tmat)
        basis = image.matrix()
        for g in W.gamma_generators(tower, K1):
            for row in basis:
                img = gfmat.matvec(tower, sw.matrix(g), row)
                assert image.contains(img)
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
    assert np.array_equal(val, tower.times(c, I.grid_value(w, n)))
    # and at a cell it does not meet, zero
    val2 = g.eval_at((atom_alpha(-(n + 1)),))
    assert not val2.any()


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_property_normalization_invariance(tower, data, catalog):
    """Acting on a single generator by a pro-unipotent word permutes the
    tags of the cell, and the transported value lands exactly on the stored
    value of the permuted tag -- the per-generator form of invariance."""
    K = data.draw(st.sampled_from(BOTH))
    w = catalog[(K, "steinberg")]
    f1 = I.f_basis(w, 1)
    tag = data.draw(st.sampled_from(sorted(f1.tags)))
    atoms = pro_iwahori_sample(tower, K)
    k_word = tuple(
        data.draw(st.sampled_from(atoms))
        for _ in range(data.draw(st.integers(min_value=1, max_value=3)))
    )
    rep = word_from_tag(tower, K, tag)
    tag2, gamma = I.coset_normalize(tower, K, k_word + rep)
    assert tag2[0] == tag[0]
    v = f1.data[f1.tags.index(tag)]
    assert np.array_equal(f1.data[f1.tags.index(tag2)],
                          gfmat.matvec(tower, w.matrix(gamma), v))
