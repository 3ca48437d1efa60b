"""Normal forms u * shift^T * k and coset tags."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from u21hecke import induction as I
from u21hecke import words as words_mod
from u21hecke._kernel import INF
from u21hecke.errors import (
    CrossCheckFailed,
    InsufficientPrecision,
    MembershipViolated,
    NotApplicable,
)
from u21hecke.fields import Tower
from u21hecke.laurent import Series
from u21hecke.mat3 import EXACT_ONE, Mat3
from u21hecke.unitary_group import (
    K0,
    K1,
    GammaElem,
    atom_alpha,
    atom_beta,
    atom_d,
    atom_matrix,
    atom_n,
    atom_np,
    beta_compact_word,
    iwahori_constants,
    layer_atom,
    layer_coords,
    layer_positions,
    reduce_to_gamma,
    word_inverse,
    word_matrix,
)
from u21hecke.words import (
    _atom_form,
    nf_kau,
    nf_uak,
    nf_uak_batch,
    sort_unipotent_mix,
    tag_coords,
    tag_from_coords,
    tag_of,
    tag_of_nf,
    word_from_tag,
)

from reads import expand, expand_batch
from sample import layer_sample, pro_iwahori_sample
from scalar import torus_unit_atoms
from test_group import old_k1_reading

# A tower of this module's own, so its window does not depend on test order.
TW = Tower(3, 1)
TW.default_window = 26


def rand_pair(rng, maxv=2):
    v = rng.randint(-maxv, maxv)
    co = [rng.randrange(9) for _ in range(rng.randint(1, 3))]
    if not any(co):
        co[0] = 1
    x = Series.from_coeffs(TW, v, co)
    y = (-(x * x.conj())).scale(TW.i_(TW.from_int(2)))
    if rng.random() < 0.7:
        k = rng.randint(-2 * maxv, 2 * maxv)
        y = y + Series.from_coeffs(TW, k, [TW.trace_zero_unit_idx()])
    return x, y


def rand_atom(rng):
    r = rng.random()
    if r < 0.3:
        return atom_n(TW, *rand_pair(rng))
    if r < 0.6:
        return atom_np(TW, *rand_pair(rng))
    if r < 0.75:
        return atom_alpha(rng.randint(-2, 2))
    if r < 0.9:
        return atom_beta()
    a = rng.randrange(1, 9)
    c = rng.choice(sorted(TW.norm_one))
    d1 = Series.const(TW, a)
    d2 = Series.const(TW, c)
    return atom_d(TW, d1, d2, d1.conj().inverse())


def check_nf(K, word):
    nf = nf_uak(TW, K, word)
    # reassembly: u * shift^T * k equals the input word
    lhs = word_matrix(TW, word)
    rhs = word_matrix(TW, nf.u + (atom_alpha(nf.t),)) * nf.k
    assert lhs.eq_to_prec(rhs, min_prec=1)
    tg = tag_of(TW, K, word)
    rep = word_from_tag(TW, K, tg)
    assert tag_of(TW, K, rep) == tg
    # rep lies in the same double coset: rep^-1 * g has the trivial tag shape
    comb = word_inverse(TW, rep) + tuple(word)
    tg0 = tag_of(TW, K, comb)
    assert tg0[0] == 0 and tag_coords(TW, K, tg0) == ()
    k_mat, t_mirror, u = nf_kau(TW, K, word)
    lhs2 = k_mat * word_matrix(TW, (atom_alpha(t_mirror),) + tuple(u))
    assert lhs.eq_to_prec(lhs2, min_prec=1)
    assert abs(t_mirror) == abs(nf.t)
    return tg


def battery_words():
    rng = random.Random(9011)
    for K in ("K0", "K1"):
        for _ in range(40):
            yield K, tuple(rand_atom(rng) for _ in range(rng.randint(1, 5)))


def test_randomized_battery():
    spread = {"K0": set(), "K1": set()}
    for K, word in battery_words():
        tg = check_nf(K, word)
        spread[K].add(tg[0])
    # the battery must reach well beyond the compact (|t| >= 3 both sides)
    assert max(spread["K0"]) >= 3 and min(spread["K0"]) <= -3
    assert max(spread["K1"]) >= 3 and min(spread["K1"]) <= -3


def test_shift_word_normal_forms():
    for K in ("K0", "K1"):
        for e in (-3, -1, 0, 2, 4):
            nf = nf_uak(TW, K, (atom_alpha(e),))
            assert nf.t == e
            assert nf.u == ()
            assert nf.k.eq_to_prec(Mat3.identity(TW), min_prec=1)


def test_weyl_atom_tags():
    # the form atom lies in the standard compact but not the shifted one:
    # against K1 it shifts by one step
    assert tag_of(TW, "K0", (atom_beta(),))[0] == 0
    t1 = tag_of(TW, "K1", (atom_beta(),))
    assert t1 == tag_of(TW, "K1", (atom_alpha(-1),))
    assert t1[0] == -1


def test_tag_coords_shapes():
    nK, mK, _ = iwahori_constants(TW, "K0")
    # positive side: 2t - 1 layers of lower-unipotent data starting at mK
    tg = tag_of(TW, "K0", (atom_alpha(2),))
    coords = tag_coords(TW, "K0", tg)
    assert tg[0] == 2 and len(coords) == 3
    assert [c[0] for c in coords] == [mK, mK + 1, mK + 2]
    # negative side: 2|t| layers of upper-unipotent data starting at nK
    tg2 = tag_of(TW, "K0", (atom_alpha(-2),))
    coords2 = tag_coords(TW, "K0", tg2)
    assert tg2[0] == -2 and len(coords2) == 4
    assert [c[0] for c in coords2] == [nK, nK + 1, nK + 2, nK + 3]
    assert all(c[1:] == (0, 0) for c in coords2)


def test_distinct_layer_data_gives_distinct_tags():
    nK, mK, _ = iwahori_constants(TW, "K0")
    seen = set()
    for coords in layer_coords(TW, mK):
        word = (layer_atom(TW, mK, coords, prime=True), atom_alpha(1))
        seen.add(tag_of(TW, "K0", word))
    assert len(seen) == len(layer_coords(TW, mK))


@settings(max_examples=40, deadline=None)
@given(
    K=st.sampled_from(["K0", "K1"]),
    e=st.integers(-2, 2),
    i=st.integers(0, 26),
    j=st.integers(0, 3),
    depth=st.integers(0, 1),
)
def test_tag_coset_invariance(K, e, i, j, depth):
    """Tags label right cosets g*(compact): invariant under the compact on
    the right, and on the left under elements whose conjugate by the shift
    stays compact (the non-coordinate unipotent side)."""
    nK, mK, _ = iwahori_constants(TW, K)
    base = (atom_alpha(e),)
    tg = tag_of(TW, K, base)
    if e >= 0:
        k_layer = nK + 2 * depth
        coords = layer_coords(TW, k_layer)
        left = layer_atom(TW, k_layer, coords[i % len(coords)])
    else:
        k_layer = mK + 2 * depth
        coords = layer_coords(TW, k_layer)
        left = layer_atom(TW, k_layer, coords[i % len(coords)], prime=True)
    assert tag_of(TW, K, (left,) + base) == tg
    # right multiply by a compact atom
    k_right = nK if K == "K0" else nK + 1
    rights = [
        layer_atom(TW, k_right, layer_coords(TW, k_right)[j % 3]),
        torus_unit_atoms(TW)[(i + j) % 32],
    ]
    if K == "K0":
        rights.append(atom_beta())
    for right in rights:
        assert tag_of(TW, K, base + (right,)) == tg


def test_tag_detects_moved_coset():
    # a lower-unipotent left factor at the first peeled layer moves the coset
    nK, mK, _ = iwahori_constants(TW, "K0")
    left = layer_atom(TW, mK, layer_coords(TW, mK)[1], prime=True)
    assert tag_of(TW, "K0", (left, atom_alpha(1))) != tag_of(TW, "K0", (atom_alpha(1),))


def test_sort_unipotent_mix_roundtrip():
    rng = random.Random(4)
    for lower_first in (True, False):
        for _ in range(10):
            atoms = []
            for _ in range(rng.randint(2, 4)):
                if rng.random() < 0.5:
                    atoms.append(atom_n(TW, *rand_pair(rng, maxv=1)))
                else:
                    atoms.append(atom_np(TW, *rand_pair(rng, maxv=1)))
            try:
                triple = sort_unipotent_mix(TW, atoms, lower_first=lower_first)
            except Exception:
                continue  # non-invertible corrections are legitimately skipped
            kinds = [a[0] for a in triple]
            if lower_first:
                assert kinds == ["np", "d", "n"]
            else:
                assert kinds == ["n", "d", "np"]
            lhs = word_matrix(TW, tuple(atoms))
            assert lhs.eq_to_prec(word_matrix(TW, triple), min_prec=1)


def shallow_word(tw):
    """An upper unipotent of depth -3, far outside both compacts."""
    tz = tw.trace_zero_unit_idx()
    y = Series.from_coeffs(tw, -3, [tz, tz])
    return (atom_n(tw, Series.zero(tw), y),)


def test_normal_form_independent_of_window():
    forms = []
    for window in (16, 24):
        tw = Tower(3, 1)
        tw.default_window = window
        nf = nf_uak(tw, K0, shallow_word(tw))
        forms.append((nf.u, nf.t, nf.k, tag_of(tw, K0, shallow_word(tw))))
    assert forms[0] == forms[1]


def test_hidden_row_minimum_is_indeterminate():
    # a zero window in row 0, with no certified entry beside it, can hide
    # the row minimum that fixes the shift
    hidden = ("d", Series.zero_window(TW, -5).trip, EXACT_ONE, EXACT_ONE)
    with pytest.raises(InsufficientPrecision):
        nf_uak(TW, K0, (hidden,))


def test_k1_reduction_matches_old_reading_on_battery():
    """The closing factor k of every K1 battery word reduces to what the
    former 2x2-plus-circle reading gives."""
    for K, word in battery_words():
        if K == K1:
            k = nf_uak(TW, K, word).k
            assert reduce_to_gamma(TW, K, k).m == old_k1_reading(k)


def test_tags_self_certify(tower5):
    """Every canonical representative reads back its own tag, and its
    normal form's unipotent part is the representative's layer atoms."""
    for tw, cells in ((TW, (0, 1, -1, 2, -2)), (tower5, (0, 1, -1))):
        for K in (K0, K1):
            for n in cells:
                for tag in I.grid_tags(tw, K, n):
                    rep = word_from_tag(tw, K, tag)
                    nf = nf_uak(tw, K, rep)
                    assert tag_of_nf(tw, K, nf) == tag
                    assert nf.u == rep[:-1]


def test_transport_residue_matches_generic_product():
    """coset_normalize(word) = (tag, red(rep(tag)^-1 * word)), with the
    product formed here by the generic 3x3 product of atom matrices."""
    for K, word in battery_words():
        tag, gamma = I.coset_normalize(TW, K, word)
        g = Mat3.identity(TW)
        for atom in word_inverse(TW, word_from_tag(TW, K, tag)) + word:
            g = g * atom_matrix(TW, atom)
        assert gamma == reduce_to_gamma(TW, K, g)


# ---------------------------------------------------------------------------
# the batched read against the scalar oracle


def oracle(tw, K, word):
    """The scalar coset_normalize, bypassing its memo table."""
    return I.coset_normalize.__wrapped__(tw, K, word)


def template_words(tw, K, pieces, picks):
    """One word per pick: the pieces (a layer atom, a layer atom with x = 0,
    so with coordinates (0, 0) or (0, y), an atom of pro_iwahori_sample, an
    alpha power or the compact's involution) with each layer atom's
    coordinates chosen by the pick, so that many words share a
    signature."""
    words = []
    for pick in picks:
        word = []
        for n, (kind, a, b) in enumerate(pieces):
            if kind == "layer":
                coords = layer_coords(tw, a)
                word.append(layer_atom(tw, a, coords[pick[n] % len(coords)], b))
            elif kind == "zero":
                coords = [c for c in layer_coords(tw, a) if c[0] == 0]
                word.append(layer_atom(tw, a, coords[pick[n] % len(coords)], b))
            elif kind == "sample":
                word.append(pro_iwahori_sample(tw, K)[a])
            elif kind == "alpha":
                word.append(atom_alpha(a))
            else:
                word.extend(beta_compact_word(K))
        words.append(tuple(word))
    return words


PIECE = st.one_of(
    st.tuples(st.just("layer"), st.integers(-2, 5), st.booleans()),
    st.tuples(st.just("alpha"), st.integers(-3, 3), st.just(None)),
    st.tuples(st.just("beta"), st.none(), st.none()),
)


@settings(max_examples=30, deadline=None)
@given(
    q5=st.booleans(),
    K=st.sampled_from([K0, K1]),
    pieces=st.lists(PIECE, min_size=1, max_size=6),
    picks=st.lists(st.lists(st.integers(0, 124), min_size=6, max_size=6),
                   min_size=1, max_size=40),
)
def test_batch_matches_scalar_read(tower5, q5, K, pieces, picks):
    """Row for row, the batch gives the (tag, residue) of the scalar
    coset_normalize, on words of layer atoms, alpha powers and the compact's
    involution at q = 3 and q = 5."""
    tw = tower5 if q5 else TW
    words = template_words(tw, K, pieces, picks)
    read = expand_batch(tw, K, nf_uak_batch(tw, K, words))
    assert read == [oracle(tw, K, w) for w in words]


def test_batch_reads_every_grid_tag(tower5):
    """Every canonical representative of test_tags_self_certify's cells
    reads back its own tag, with the identity residue, through the batch."""
    for tw, cells in ((TW, (0, 1, -1, 2, -2)), (tower5, (0, 1, -1))):
        for K in (K0, K1):
            one = GammaElem.identity(tw, K)
            for n in cells:
                tags = list(I.grid_tags(tw, K, n))
                words = [word_from_tag(tw, K, t) for t in tags]
                read = expand_batch(tw, K, nf_uak_batch(tw, K, words))
                assert read == [(tag, one) for tag in tags]


def test_uncarried_words_are_refused():
    """Words with a pro-unipotent sample atom: the two diagonal atoms have
    entries that are not monomials, so exactly their 2 x 20 words get the
    id -1 from the batch, and the product read refuses them (NotApplicable)
    while the scalar coset_normalize still reads them; the carried rows
    equal the scalar ones."""
    tw = Tower(3, 1)
    for K in (K0, K1):
        sample = pro_iwahori_sample(tw, K)
        assert [_atom_form(tw, a) is None for a in sample] == [False] * 4 + [True] * 2
        bases = [word_from_tag(tw, K, t) for t in I.grid_tags(tw, K, -1)][:20]
        words = [b + (a,) for b in bases for a in sample]
        _, indices, _, _ = nf_uak_batch(tw, K, words)
        assert (indices < 0).tolist() == [a[0] == "d" for _ in bases
                                          for a in sample]
        assert (indices < 0).sum() == 2 * len(bases)
        refused = [w for w, i in zip(words, indices.tolist()) if i < 0]
        for batch in (refused[:1], refused, words):
            with pytest.raises(NotApplicable):
                words_mod._normalize_words(tw, K, batch)
        # the scalar read still reads them, into the cell of their base
        assert {oracle(tw, K, w)[0][0] for w in refused} == {-1}
        carried = [w for w, i in zip(words, indices.tolist()) if i >= 0]
        read = expand(tw, K, words_mod._normalize_words(tw, K, carried))
        assert read == [oracle(tw, K, w) for w in carried]


def test_batch_raises_on_a_corrupt_row(monkeypatch):
    """A batch of reads that certify, plus one word read against a wrong
    lattice: its closing factor leaves the compact, and the batch raises
    CrossCheckFailed instead of routing the word to the scalar read."""
    tw = Tower(3, 1)
    good = [word_from_tag(tw, K0, t) for t in I.grid_tags(tw, K0, -1)]
    bad = word_from_tag(tw, K0, list(I.grid_tags(tw, K0, 1))[-1])
    assert nf_uak_batch(tw, K0, good + [bad])[1][-1] >= 0
    monkeypatch.setitem(words_mod._LATTICE, K0, words_mod._LATTICE[K1])
    read = expand_batch(tw, K0, nf_uak_batch(tw, K0, good))
    assert read == [oracle(tw, K0, w) for w in good]
    with pytest.raises(CrossCheckFailed):
        oracle(tw, K0, bad)
    with pytest.raises(CrossCheckFailed):
        nf_uak_batch(tw, K0, good + [bad])
    with pytest.raises(CrossCheckFailed):
        words_mod._normalize_words(tw, K0, good + [bad])


PRODUCT_PIECE = st.one_of(
    PIECE,
    st.tuples(st.just("zero"), st.integers(-2, 5), st.booleans()),
    st.tuples(st.just("sample"), st.integers(0, 5), st.none()),
)
TEMPLATE = st.tuples(
    st.lists(PRODUCT_PIECE, max_size=4),
    st.lists(st.lists(st.integers(0, 124), min_size=6, max_size=6),
             min_size=1, max_size=6),
)


@settings(max_examples=25, deadline=None)
@given(
    q5=st.booleans(),
    K=st.sampled_from([K0, K1]),
    head_templates=st.lists(TEMPLATE, min_size=1, max_size=3),
    tail_templates=st.lists(TEMPLATE, min_size=1, max_size=3),
    data=st.data(),
)
def test_product_entry_matches_scalar_read(tower5, q5, K, head_templates,
                                           tail_templates, data):
    """Every word head + tail of the product of sublists of the heads and
    the tails gives the (tag, residue) of the scalar coset_normalize, on
    heads and tails of several signatures each, with layer atoms of
    coordinates (0, 0) and (0, y); exactly the words with a
    pro_iwahori_sample "d" atom are not carried (None)."""
    tw = tower5 if q5 else TW
    heads, tails = (
        [w for pieces, picks in templates
         for w in template_words(tw, K, pieces, picks)]
        for templates in (head_templates, tail_templates)
    )
    hs, ts = (
        data.draw(st.lists(st.sampled_from(words), min_size=1, max_size=8),
                  label=label)
        for words, label in ((heads, "heads"), (tails, "tails"))
    )
    read = expand_batch(tw, K, nf_uak_batch(tw, K, hs, ts))
    words = [h + t for t in ts for h in hs]
    assert len(read) == len(words)
    for word, r in zip(words, read):
        if any(_atom_form(tw, a) is None for a in word):
            assert r is None
        else:
            assert r == oracle(tw, K, word)


@pytest.mark.parametrize("chunk", [4096, 7])
def test_product_read_matches_scalar_rows(monkeypatch, chunk):
    """Row for row, a product read (the record of _normalize_words) gives
    the (tag, residue) of the scalar coset_normalize: on heads times tails
    with the layer atoms of pro_iwahori_sample, on a call of a few words,
    and, with chunks of 7 words, over several chunks.  Each read is one
    batch call that groups the heads and the tails once each, whatever the
    chunks, and builds its head block once when the heads fit one chunk.
    The tags are distinct and numbered in order of first appearance, the
    residues are the distinct rows of one (r, 9) uint16 array, the record's
    arrays are read-only, and reading the product again returns it."""
    tw = Tower(3, 1)
    monkeypatch.setattr(words_mod, "_BATCH_CHUNK", chunk)
    calls, grouped, built = [], [], []

    def batch_spy(*args, _orig=words_mod.nf_uak_batch, **kwargs):
        calls.append(args)
        return _orig(*args, **kwargs)

    def group_spy(tower, words, _orig=words_mod._grouped):
        grouped.append(words)
        return _orig(tower, words)

    def block_spy(*args, _orig=words_mod._head_block):
        built.append(args)
        return _orig(*args)

    monkeypatch.setattr(words_mod, "nf_uak_batch", batch_spy)
    monkeypatch.setattr(words_mod, "_grouped", group_spy)
    monkeypatch.setattr(words_mod, "_head_block", block_spy)
    for K in (K0, K1):
        heads = [word_from_tag(tw, K, t) for t in I.grid_tags(tw, K, -1)][:12]
        tails = [()] + [(a,) for a in layer_sample(tw, K)]
        for hs, ts in ((heads, tails), (heads[:3], tails[:4]), (heads, [()])):
            calls.clear()
            grouped.clear()
            built.clear()
            read = words_mod._normalize_words(tw, K, hs, ts)
            assert len(calls) == 1
            assert grouped == [tuple(hs), tuple(ts)]
            assert len(built) == 1 or len(hs) > chunk
            words = [h + t for t in ts for h in hs]
            assert expand(tw, K, read) == [oracle(tw, K, w) for w in words]
            assert len(set(read.tag_tuple())) == len(read.tag_tuple())
            assert read.residues.shape == (len(read.residues), 9)
            assert read.residues.dtype == np.uint16
            assert len(np.unique(read.residues, axis=0)) == len(read.residues)
            firsts = np.unique(read.tag_ids, return_index=True)[1]
            assert (np.diff(firsts) > 0).all()
            assert isinstance(read.tag_tuple(), tuple)
            for arr in (read.tag_ids, read.tag_shifts, read.tag_indices,
                        read.res_ids, read.residues):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = 0
            assert words_mod._normalize_words(tw, K, hs, ts) is read
            assert len(calls) == 1


def signature(word):
    """The batch's signature of a word it carries."""
    ((sig, _),), _, _ = words_mod._grouped(TW, [word])
    return sig


def read_key(tw, K, word):
    """The (shift, pivot) under which the batch reads a word, from its
    scalar row minima."""
    lat = words_mod._LATTICE[K]
    e = word_matrix(tw, word).e
    v0, j0 = words_mod._row_min(e, 0, lat)
    v2, j2 = words_mod._row_min(e, 2, lat)
    t = -v0 if v0 < min(v2, 0) else min(v2, 0)
    return t, (j0 if t > 0 else j2 if t < 0 else 0)


def test_one_cell_read_per_shift_and_pivot(monkeypatch):
    """A call whose words have many signatures reads each distinct (shift,
    pivot) of a chunk (_read_chunk) with exactly one _read_cell, although
    several signatures share a (shift, pivot) there."""
    tw = Tower(3, 1)
    K = K0
    words = [word_from_tag(tw, K, t) for n in (-1, 1, 2)
             for t in I.grid_tags(tw, K, n)][::3]
    words += [w + (atom_alpha(-1),) for w in words[:40]]
    chunk = 64
    monkeypatch.setattr(words_mod, "_BATCH_CHUNK", chunk)
    reads, starts = [], []

    def read_spy(blk, K, t, j, _orig=words_mod._read_cell):
        reads.append((t, j))
        return _orig(blk, K, t, j)

    def chunk_spy(*args, _orig=words_mod._read_chunk):
        starts.append(len(reads))
        return _orig(*args)

    monkeypatch.setattr(words_mod, "_read_cell", read_spy)
    monkeypatch.setattr(words_mod, "_read_chunk", chunk_spy)
    read = expand(tw, K, words_mod._normalize_words(tw, K, words))
    assert read == [oracle(tw, K, w) for w in words]
    assert len(starts) == -(-len(words) // chunk)
    shared = False
    for c, (lo, hi) in enumerate(zip(starts, starts[1:] + [len(reads)])):
        part = words[c * chunk : (c + 1) * chunk]
        keys = {read_key(tw, K, w) for w in part}
        assert sorted(reads[lo:hi]) == sorted(keys)
        groups = {(read_key(tw, K, w), signature(w)) for w in part}
        shared |= len(groups) > len(keys)
    assert shared


def test_corrupt_row_in_a_shared_read_raises():
    """A word that is no group element, the representative of a cell -1 tag
    times diag(t^-1, 1, 1), is read under the same (shift, pivot) as the
    good cell -1 representatives of other signatures; its closing factor
    leaves the compact, and the whole call raises CrossCheckFailed."""
    tw = Tower(3, 1)
    good = [word_from_tag(tw, K0, t) for t in I.grid_tags(tw, K0, -1)]
    scale = ("d", Series.t_pow(tw, -1).trip, EXACT_ONE, EXACT_ONE)
    bad = good[-1] + (scale,)
    assert _atom_form(tw, scale) is not None
    assert {read_key(tw, K0, w) for w in good + [bad]} == {read_key(tw, K0, bad)}
    assert len({signature(w) for w in good + [bad]}) > 2
    read = expand_batch(tw, K0, nf_uak_batch(tw, K0, good))
    assert read == [oracle(tw, K0, w) for w in good]
    with pytest.raises(CrossCheckFailed):
        oracle(tw, K0, bad)
    with pytest.raises(CrossCheckFailed):
        nf_uak_batch(tw, K0, good + [bad])
    with pytest.raises(CrossCheckFailed):
        nf_uak_batch(tw, K0, good, [(), (scale,)])
    with pytest.raises(CrossCheckFailed):
        words_mod._normalize_words(tw, K0, good + [bad])


def test_residues_certified_once_per_distinct_row(monkeypatch):
    """A batch call certifies the unitarity of each distinct residue row
    once.  The word of one diagonal atom diag(2, 1, 1) of exact constants
    lies in K0 and the batch carries it, but its residue is not unitary;
    repeated among good words so that it straddles chunks of 7 words, it
    makes the call raise MembershipViolated, directly and through the
    product read, as the scalar reduce_to_gamma does."""
    tw = Tower(3, 1)
    monkeypatch.setattr(words_mod, "_BATCH_CHUNK", 7)
    checked = []

    def unitarity_spy(tower, m, _orig=words_mod.check_residue_unitarity):
        checked.append(m.shape[1])
        return _orig(tower, m)

    monkeypatch.setattr(words_mod, "check_residue_unitarity", unitarity_spy)
    good = [word_from_tag(tw, K0, t) for t in I.grid_tags(tw, K0, -1)]
    read = words_mod._normalize_words(tw, K0, good)
    assert checked == [len(read.residues)]
    assert len(read.residues) < len(good)
    bad = (("d", (0, INF, (2,)), (0, INF, (1,)), (0, INF, (1,))),)
    assert _atom_form(tw, bad[0]) is not None
    with pytest.raises(MembershipViolated):
        reduce_to_gamma(tw, K0, word_matrix(tw, bad))
    words = good[:6] + [bad, bad] + good[6:20] + [bad] + good[20:]
    with pytest.raises(MembershipViolated):
        nf_uak_batch(tw, K0, words)
    with pytest.raises(MembershipViolated):
        words_mod._normalize_words(tw, K0, words)


# ---------------------------------------------------------------------------
# grid indices


def brute_layer_coords(tw, k):
    """Every pair (x, y) with x * conj(x) + y + conj(y) = 0, and x = 0 on
    an odd layer, in increasing order."""
    add, mul, frob = tw.add, tw.mul, tw.frob
    return [
        (x, y)
        for x in range(tw.Q if k % 2 == 0 else 1)
        for y in range(tw.Q)
        if add[mul[x, frob[x]], add[y, frob[y]]] == 0
    ]


@pytest.mark.parametrize("fixture", ["tower", "tower5", "tower7"])
def test_layer_coords_sorted_and_complete(fixture, request):
    """layer_coords is one memoized tuple per layer parity, sorted (the
    grid index relies on it), and equal to the brute-force enumeration of
    the relation; layer_positions inverts it."""
    tw = request.getfixturevalue(fixture)
    for k in range(-3, 4):
        cs = layer_coords(tw, k)
        assert isinstance(cs, tuple) and cs is layer_coords(tw, k + 2)
        assert list(cs) == sorted(cs) == brute_layer_coords(tw, k)
        pos = layer_positions(tw, k)
        assert [pos[x * tw.Q + y] for x, y in cs] == list(range(len(cs)))
        assert (pos >= 0).sum() == len(cs)


ENCODED_CELLS = [(3, n) for n in range(-3, 4)] + [(5, n) for n in range(-2, 3)]


@pytest.mark.parametrize("K", [K0, K1])
@pytest.mark.parametrize("q, n", ENCODED_CELLS)
def test_grid_index_follows_coordinate_order(q, n, K, tower, tower5):
    """The coordinate tuples of a cell, in the order of the product of its
    layers' coordinates, strictly increase, and the i-th of them has the
    grid index i: for every tag in the batch's encoding (_grid_indices),
    and for every tag of a cell of at most 4096 (a spread sample of 4096
    above that) in tag_from_coords, whose inverse tag_coords is."""
    tw = tower if q == 3 else tower5
    span = words_mod.grid_layer_span(tw, K, n)
    grids = [np.array(layer_coords(tw, k), dtype=np.uint16) for k, _ in span]
    count = I.grid_count(tw, K, n)
    assert list(I.grid_tags(tw, K, n)) == [(n, i) for i in range(count)]
    # row i: the x, y of each layer at the digits of i, in product order
    digits = np.indices([len(g) for g in grids]).reshape(len(grids), count)
    coords = np.zeros((count, 2 * len(grids)), dtype=np.uint16)
    for c, (g, d) in enumerate(zip(grids, digits)):
        coords[:, 2 * c : 2 * c + 2] = g[d]
    if count > 1:
        step = np.diff(coords.astype(np.int32), axis=0)
        lead = step[np.arange(len(step)), (step != 0).argmax(axis=1)]
        assert (lead > 0).all()
    index = words_mod._grid_indices(tw, K, n, coords)
    assert index.dtype == np.int64
    assert np.array_equal(index, np.arange(count))
    for i in sorted({*range(0, count, -(-count // 4096)), count - 1}):
        old = tuple(
            (k, int(coords[i, 2 * c]), int(coords[i, 2 * c + 1]))
            for c, (k, _) in enumerate(span)
        )
        assert tag_coords(tw, K, (n, i)) == old
        assert tag_from_coords(tw, K, n, old) == (n, i)
    with pytest.raises(NotApplicable):
        tag_coords(tw, K, (n, count))


def wide_cell_words(tw, K):
    """The tags of cell -10 at q = 3, which has 81^10 > 2^63 cosets, drawn
    across the whole grid (indices above and below 2^63), and their
    representative words."""
    count = I.grid_count(tw, K, -10)
    assert count > words_mod._INDEX_LIMIT
    rng = random.Random(1010)
    tags = [(-10, rng.randrange(count)) for _ in range(6)]
    tags += [(-10, 0), (-10, count - 1), (-10, 2**63 - 1), (-10, 2**63)]
    return tags, [word_from_tag(tw, K, tag) for tag in tags]


def test_grid_indices_past_int64():
    """The batch gives the grid indices of cell -10 as exact Python ints,
    as tag_of does."""
    tw = Tower(3, 1)
    for K in (K0, K1):
        tags, words = wide_cell_words(tw, K)
        shifts, indices, _, _ = nf_uak_batch(tw, K, words)
        assert indices.dtype == object
        assert list(zip(shifts.tolist(), indices.tolist())) == tags
        assert [tag_of(tw, K, w) for w in words] == tags


@pytest.mark.parametrize("chunk", [4096, 3])
def test_product_read_numbers_wide_tags(monkeypatch, chunk):
    """The product read numbers the tags of cell -10 (object indices) on
    the one path of int64 ones: over batch calls of chunk words, on the
    words of test_grid_indices_past_int64, some of them again in reverse
    order, and one word of cell -1 (int64 indices) among them, the tags
    are those of tag_of in order of first appearance, and the id of every
    word names its tag.  An empty product is an empty record."""
    tw = Tower(3, 1)
    monkeypatch.setattr(words_mod, "_BATCH_CHUNK", chunk)
    for K in (K0, K1):
        _, wide = wide_cell_words(tw, K)
        words = wide[:5] + [word_from_tag(tw, K, (-1, 5))] + wide[5:]
        words += words[::-2]
        read = words_mod._normalize_words(tw, K, words)
        expected = [tag_of(tw, K, w) for w in words]
        tags = read.tag_tuple()
        assert tags == tuple(dict.fromkeys(expected))
        assert len(tags) == len(wide) + 1
        assert [tags[t] for t in read.tag_ids.tolist()] == expected
        assert expand(tw, K, read) == [oracle(tw, K, w) for w in words]
        for heads, tails in (([], [()]), (words, [])):
            empty = words_mod._normalize_words(tw, K, heads, tails)
            assert len(empty) == 0
            assert empty.tag_tuple() == () and empty.residues.shape == (0, 9)
            assert empty.tag_ids.shape == empty.res_ids.shape == (0,)


def test_grid_index_fallback_matches_tag_of(monkeypatch):
    """With the int64 limit forced down, every cell of more than one coset
    is numbered by the Python-int fallback, and the batch still gives the
    tags of tag_of."""
    tw = Tower(3, 1)
    monkeypatch.setattr(words_mod, "_INDEX_LIMIT", 1)
    for K in (K0, K1):
        words = [word_from_tag(tw, K, t) for n in (-2, -1, 0, 1, 2)
                 for t in I.grid_tags(tw, K, n)][::37]
        words += [w + (atom_beta(),) for w in words[:40]]
        shifts, indices, _, _ = nf_uak_batch(tw, K, words)
        assert (indices >= 0).all()
        assert list(zip(shifts.tolist(), indices.tolist())) == [
            tag_of(tw, K, w) for w in words]


# ---- column operations of the batched read --------------------------------

# The slices of the nine entries that the column operations pair: the three
# columns and the three rows.
ENTRY_SLICES = [slice(j, 9, 3) for j in range(3)] + [
    slice(3 * i, 3 * i + 3) for i in range(3)
]


def random_block(tw, rng, n, depth, lo):
    """A _Block of n matrices with random entries over depth degrees from
    lo, each entry zero or nonzero on a random interval (its span)."""
    e = rng.integers(0, tw.Q, (9, depth, n)).astype(np.uint16)
    span = []
    for i in range(9):
        a, b = sorted(rng.integers(0, depth, 2).tolist())
        if rng.random() < 0.2:
            e[i] = 0
            span.append(None)
            continue
        e[i, :a] = 0
        e[i, b + 1 :] = 0
        span.append((lo + a, lo + b))
    return words_mod._Block(tw, e, lo, span)


def block_terms(blk):
    """{(entry, matrix): {degree: coefficient}} of the nonzero terms."""
    out = {}
    for i, d, r in zip(*np.nonzero(blk.e)):
        terms = out.setdefault((int(i), int(r)), {})
        terms[blk.lo + int(d)] = int(blk.e[i, d, r])
    return out


def spans_bound(blk):
    return all(
        blk.span[i] is not None and blk.span[i][0] <= deg <= blk.span[i][1]
        for (i, _), terms in block_terms(blk).items() for deg in terms
    )


def coefficient_vector(tw, rng, n, zeros):
    c = rng.integers(1, tw.Q, n).astype(np.uint16)
    if zeros == "all":
        c[:] = 0
    elif zeros == "part":
        c[rng.random(n) < 0.5] = 0
    return c


@settings(max_examples=60, deadline=None)
@given(
    q5=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 7),
    depth=st.integers(1, 4),
    lo=st.integers(-3, 3),
    pair=st.sampled_from([(d, s) for d in range(6) for s in range(6)
                          if d != s and (d < 3) == (s < 3)]),
    s=st.integers(-3, 3),
    zeros=st.sampled_from(["all", "part", "none"]),
    intp=st.booleans(),
)
def test_block_column_operations_match_tables(tower5, q5, seed, n, depth, lo,
                                              pair, s, zeros, intp):
    """_Block.axpy and scale equal the same steps written term by term with
    the Q x Q tables, for uint16 and intp coefficients none, some or all of
    which are 0; the span stays a bound of every entry, and an axpy by all
    zero coefficients leaves e, lo and span as they were."""
    tw = tower5 if q5 else TW
    rng = np.random.default_rng(seed)
    blk = random_block(tw, rng, n, depth, lo)
    dst, src = (ENTRY_SLICES[k] for k in pair)
    c = coefficient_vector(tw, rng, n, zeros)
    if intp:
        c = c.astype(np.intp)
    terms = block_terms(blk)
    want = {k: dict(v) for k, v in terms.items()}
    for i, j in zip(range(9)[dst], range(9)[src]):
        for r in range(n):
            for deg, x in terms.get((j, r), {}).items():
                row = want.setdefault((i, r), {})
                y = row.get(deg + s, 0)
                row[deg + s] = int(tw.add[y, tw.mul[c[r], x]])
    want = {k: {d: x for d, x in v.items() if x} for k, v in want.items()}
    e, span = blk.e, list(blk.span)
    blk.axpy(dst, src, c, s)
    assert block_terms(blk) == {k: v for k, v in want.items() if v}
    assert spans_bound(blk)
    if zeros == "all":
        assert blk.e is e and blk.lo == lo and blk.span == span
    # scale the destination entries by c t^s, or by t^s alone
    terms = block_terms(blk)
    for scalar in (c, None):
        want = {
            (i, r): {d + s: x if scalar is None else int(tw.mul[scalar[r], x])
                     for d, x in v.items()}
            if i in range(9)[dst] else v
            for (i, r), v in terms.items()
        }
        want = {k: {d: x for d, x in v.items() if x} for k, v in want.items()}
        scaled = words_mod._Block(tw, blk.e.copy(), blk.lo, blk.span)
        scaled.scale(dst, scalar, s)
        assert block_terms(scaled) == {k: v for k, v in want.items() if v}
        assert spans_bound(scaled)
