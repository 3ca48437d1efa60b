"""Dense linear algebra over the coefficient field against a scalar
reference that exists only here: one table lookup per entry operation, in
the textbook order.  Run on q = 3 and on q = 9, where the addition table is
not integer addition mod p."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from u21hecke import gfmat
from u21hecke.errors import InversionOfZero, NotApplicable
from u21hecke.fields import Tower

TOWERS = {(3, 1): Tower(3, 1), (3, 2): Tower(3, 2)}


on_towers = pytest.mark.parametrize(
    "tw", list(TOWERS.values()), ids=["q%d" % tw.q for tw in TOWERS.values()]
)


# ---------------------------------------------------------------------------
# scalar reference


def ref_matmul(tw, A, B):
    n, k = A.shape
    m = B.shape[1]
    out = np.zeros((n, m), dtype=np.uint16)
    for i in range(n):
        for j in range(m):
            acc = 0
            for t in range(k):
                acc = tw.a(acc, tw.m_(int(A[i, t]), int(B[t, j])))
            out[i, j] = acc
    return out


def ref_rref(tw, A):
    n, m = A.shape
    R = [[int(x) for x in r] for r in A]
    pivots = []
    row = 0
    for col in range(m):
        if row >= n:
            break
        sel = next((r for r in range(row, n) if R[r][col]), None)
        if sel is None:
            continue
        R[row], R[sel] = R[sel], R[row]
        inv = tw.i_(R[row][col])
        R[row] = [tw.m_(inv, x) for x in R[row]]
        for r in range(n):
            if r != row and R[r][col]:
                f = tw.n(R[r][col])
                R[r] = [tw.a(x, tw.m_(f, y)) for x, y in zip(R[r], R[row])]
        pivots.append(col)
        row += 1
    return np.array(R, dtype=np.uint16).reshape(n, m), pivots


def ref_nullspace(tw, A):
    m = A.shape[1]
    R, pivots = ref_rref(tw, A)
    rows = []
    for fc in (c for c in range(m) if c not in pivots):
        v = [0] * m
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = tw.n(int(R[r, fc]))
        rows.append(v)
    return np.array(rows, dtype=np.uint16).reshape(len(rows), m)


# ---------------------------------------------------------------------------
# strategies: sparse entries, so rank deficiency and zero rows are common


def matrices(tw, n, m):
    entry = st.one_of(st.just(0), st.just(1), st.integers(0, tw.Q - 1))
    return st.lists(entry, min_size=n * m, max_size=n * m).map(
        lambda xs: np.array(xs, dtype=np.uint16).reshape(n, m)
    )


def draw_matrix(data, tw, max_n=6, max_m=7):
    n = data.draw(st.integers(0, max_n), label="n")
    m = data.draw(st.integers(0, max_m), label="m")
    return data.draw(matrices(tw, n, m), label="A")


def random_matrix(tw, rng, n, m, density=0.7):
    A = rng.integers(0, tw.Q, size=(n, m))
    A[rng.random((n, m)) > density] = 0
    return A.astype(np.uint16)


# ---------------------------------------------------------------------------
# products


@on_towers
def test_matmul_every_small_shape(tw):
    """Inner lengths 0 through 9 (the odd ones leave a tail at some halving
    step), including n = 0 and m = 0."""
    rng = np.random.default_rng(7)
    for n in (0, 1, 3):
        for k in range(10):
            for m in (0, 1, 2):
                A = random_matrix(tw, rng, n, k)
                B = random_matrix(tw, rng, k, m)
                got = gfmat.matmul(tw, A, B)
                assert got.dtype == np.uint16
                assert np.array_equal(got, ref_matmul(tw, A, B))


@on_towers
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_matmul_and_matvec_match_reference(tw, data):
    A = draw_matrix(data, tw, max_n=5, max_m=9)
    m = data.draw(st.integers(0, 4), label="cols")
    B = data.draw(matrices(tw, A.shape[1], m), label="B")
    assert np.array_equal(gfmat.matmul(tw, A, B), ref_matmul(tw, A, B))
    v = data.draw(matrices(tw, A.shape[1], 1), label="v")
    want = ref_matmul(tw, A, v)[:, 0]
    assert np.array_equal(gfmat.matvec(tw, A, v[:, 0]), want)


@on_towers
def test_matmul_shape_mismatch_is_typed(tw):
    with pytest.raises(NotApplicable):
        gfmat.matmul(tw, gfmat.zeros((2, 3)), gfmat.zeros((2, 3)))
    with pytest.raises(NotApplicable):
        gfmat.matvec(tw, gfmat.eye(3), gfmat.zeros(2))


# ---------------------------------------------------------------------------
# elimination


@on_towers
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rref_family_matches_reference(tw, data):
    A = draw_matrix(data, tw)
    R, pivots = gfmat.rref(tw, A)
    R_ref, pivots_ref = ref_rref(tw, A)
    assert pivots == pivots_ref
    assert np.array_equal(R, R_ref)
    assert gfmat.rank(tw, A) == len(pivots_ref)
    assert np.array_equal(gfmat.row_space(tw, A), R_ref[: len(pivots_ref)])
    ns = gfmat.nullspace(tw, A)
    assert np.array_equal(ns, ref_nullspace(tw, A))
    assert not ref_matmul(tw, A, ns.T).any()


@on_towers
def test_rref_zero_rows_and_empty(tw):
    A = np.array([[0, 0, 0], [0, 2, 1], [0, 0, 0], [0, 0, 0]], dtype=np.uint16)
    A[3] = tw.times(tw.gen, A[1])
    R, pivots = gfmat.rref(tw, A)
    R_ref, pivots_ref = ref_rref(tw, A)
    assert pivots == pivots_ref == [1]
    assert np.array_equal(R, R_ref)
    for shape in ((0, 4), (3, 0), (0, 0)):
        R, pivots = gfmat.rref(tw, gfmat.zeros(shape))
        assert R.shape == shape and pivots == []
        assert gfmat.row_space(tw, gfmat.zeros(shape)).shape == (0, shape[1])
        ns = gfmat.nullspace(tw, gfmat.zeros(shape))
        assert np.array_equal(ns, gfmat.eye(shape[1]))


@on_towers
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_inverse_matches_reference(tw, data):
    n = data.draw(st.integers(0, 5), label="n")
    A = data.draw(matrices(tw, n, n), label="A")
    _, pivots_ref = ref_rref(tw, A)
    if len(pivots_ref) < n:
        with pytest.raises(InversionOfZero):
            gfmat.inverse(tw, A)
        return
    inv = gfmat.inverse(tw, A)
    assert np.array_equal(ref_matmul(tw, A, inv), gfmat.eye(n))
    assert np.array_equal(ref_matmul(tw, inv, A), gfmat.eye(n))


@on_towers
def test_singular_inverse_is_typed(tw):
    A = np.array([[1, 2], [0, 0]], dtype=np.uint16)
    A[1] = tw.times(tw.gen, A[0])
    with pytest.raises(InversionOfZero):
        gfmat.inverse(tw, A)
    with pytest.raises(InversionOfZero):
        gfmat.inverse(tw, gfmat.zeros((3, 3)))


# ---------------------------------------------------------------------------
# incremental basis


@on_towers
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_basis_matches_reference(tw, data):
    V = draw_matrix(data, tw, max_n=7, max_m=6)
    width = V.shape[1]
    basis = gfmat.Basis(tw, width)
    for i, v in enumerate(V):
        before = len(ref_rref(tw, V[:i])[1])
        _, pivots_after = ref_rref(tw, V[: i + 1])
        p = basis.add(v)
        if len(pivots_after) == before:
            assert p is None
        else:
            assert p in pivots_after
    R_ref, pivots_ref = ref_rref(tw, V)
    assert basis.dim == len(pivots_ref)
    assert basis.pivots() == pivots_ref
    assert np.array_equal(basis.matrix(), R_ref[: len(pivots_ref)])
    # the same span inserted as one block
    whole = gfmat.Basis(tw, width)
    whole.extend(V)
    assert np.array_equal(whole.matrix(), basis.matrix())
    # reduce on one vector and on a stack of row vectors agree row by row
    W = data.draw(matrices(tw, data.draw(st.integers(0, 4)), width), label="W")
    reduced = basis.reduce(W)
    assert reduced.shape == W.shape
    for w, r in zip(W, reduced):
        assert np.array_equal(basis.reduce(w), r)
        assert not r[pivots_ref].any()
        in_span = len(ref_rref(tw, np.concatenate([V, w[None]]))[1]) == len(
            pivots_ref
        )
        assert basis.contains(w) == in_span == (not r.any())
        assert whole.contains(w) == in_span


@on_towers
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_basis_extend_matches_reference(tw, data):
    """Basis.extend inserts a block of rows as one reduction: after blocks
    V_1, V_2, ... the basis is the rref of their stack, and each call
    returns rows that are rref'd, vanish at the old pivots and span the
    new part (old span plus them is the new span)."""
    width = data.draw(st.integers(1, 6), label="width")
    basis, seen = gfmat.Basis(tw, width), np.zeros((0, width), dtype=np.uint16)
    for _ in range(data.draw(st.integers(1, 4), label="blocks")):
        V = data.draw(matrices(tw, data.draw(st.integers(0, 4)), width), label="V")
        old_piv = basis.pivots()
        added = basis.extend(V)
        seen = np.concatenate([seen, V])
        R_ref, pivots_ref = ref_rref(tw, seen)
        assert basis.pivots() == pivots_ref
        assert np.array_equal(basis.matrix().reshape(-1, width),
                              R_ref[: len(pivots_ref)])
        assert len(added) == len(pivots_ref) - len(old_piv)
        assert not added[:, old_piv].any()
        assert np.array_equal(added, ref_rref(tw, added)[0])
        assert all(basis.contains(row) for row in added)


@on_towers
def test_basis_coords_at_the_pivots(tw):
    """Basis.coords reads a member at the pivots, one vector or one row per
    row of a block, and the coordinates rebuild it from the basis rows;
    a vector outside the span, alone or as one row of a block, gives None."""
    rng = np.random.default_rng(7)
    V = random_matrix(tw, rng, 3, 6)
    basis = gfmat.Basis(tw, 6)
    basis.extend(V)
    M = basis.matrix()
    C = random_matrix(tw, rng, 4, basis.dim)
    members = gfmat.matmul(tw, C, M)
    assert np.array_equal(basis.coords(members), C)
    assert np.array_equal(basis.coords(members[0]), C[0])
    outside = next(e for e in gfmat.eye(6) if not basis.contains(e))
    assert basis.coords(outside) is None
    assert basis.coords(np.concatenate([members, outside[None]])) is None
    assert basis.coords(np.zeros((0, 6), dtype=np.uint16)).shape == (
        0, basis.dim)


def row_loop_clear(tw, v, pivots, B):
    """The reference clearing: each pivot in turn, in every row, by
    subtracting v[:, p] times that basis row."""
    v = v.copy()
    for p, row in zip(pivots, B):
        f = tw.neg[v[:, p]]
        hit = np.flatnonzero(f)
        if hit.size:
            v[hit] = tw.plus_times(v[hit], f[hit, None], row)
    return v


CLEAR_TOWERS = {"GF9": Tower(3, 1), "GF25": Tower(5, 1)}


@pytest.mark.parametrize("tw", list(CLEAR_TOWERS.values()),
                         ids=list(CLEAR_TOWERS))
@settings(max_examples=150, deadline=None)
@given(data=st.data(), entries=st.sampled_from([1, 7, 1 << 20]),
       pivots_min=st.sampled_from([0, 4]),
       density=st.sampled_from([1, 16, 1 << 20]), sparse=st.booleans())
def test_clear_matches_row_loop(tw, data, entries, pivots_min, density,
                                sparse):
    """_clear, v - v[:, P] B as one product or one pivot at a time, equals
    clearing the pivots of a reduced basis B one row at a time, also when
    its chunks hold as few as one row (a small entry budget).  Both paths
    are reached on these small blocks by moving the switch: at 0 pivots
    the product needs only one pivot in use, and the density cut _SPARSE
    at 1 sends all but fully dense factors, at 2^20 none, to the steps."""
    width = data.draw(st.integers(1, 9), label="width")
    n_gens = max(0, width - 2) if sparse else data.draw(st.integers(0, 8))
    gens = data.draw(matrices(tw, n_gens, width), label="gens")
    R, pivots = gfmat.rref(tw, gens)
    B = R[: len(pivots)]
    v = data.draw(matrices(tw, data.draw(st.integers(0, 6)), width), label="v")
    if sparse and pivots:
        # row i keeps only pivot i mod |P|: mostly zero factors
        off = np.zeros(v.shape, dtype=bool)
        off[:, pivots] = True
        keep = [pivots[i % len(pivots)] for i in range(len(v))]
        off[np.arange(len(v)), keep] = False
        v[off] = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gfmat, "_CLEAR_ENTRIES", entries)
        mp.setattr(gfmat, "_PRODUCT_PIVOTS", pivots_min)
        mp.setattr(gfmat, "_SPARSE", density)
        out = gfmat._clear(tw, v, pivots, B)
    assert out is not v
    assert np.array_equal(out, row_loop_clear(tw, v, pivots, B))
    assert not out[:, pivots].any()


# ---------------------------------------------------------------------------
# numbering distinct rows


@settings(max_examples=80, deadline=None)
@given(
    Q=st.sampled_from([81, 1024]),
    n=st.integers(0, 30),
    width=st.integers(0, 14),
    data=st.data(),
)
def test_row_ids_match_unique(Q, n, width, data):
    """gfmat.row_ids gives the inverse and first indices of
    np.unique(axis=0), on no rows, zero width, one column and rows of
    table indices up to Q - 1 at Q = 81 and Q = 1024: at base 1024 an
    int64 key holds six columns, so wide rows are refined over several
    blocks.  Rows are drawn from a few distinct ones so that most of them
    repeat."""
    value = st.sampled_from([0, 1, Q - 1]) | st.integers(0, Q - 1)
    distinct = data.draw(st.lists(
        st.lists(value, min_size=width, max_size=width),
        min_size=1, max_size=5), label="distinct rows")
    picks = data.draw(st.lists(st.integers(0, len(distinct) - 1),
                               min_size=n, max_size=n), label="picks")
    a = np.array([distinct[i] for i in picks], dtype=np.uint16).reshape(n, width)
    for arr in (a, a.astype(np.intp)):
        ids, first = gfmat.row_ids(arr)
        _, idx, inv = np.unique(arr, axis=0, return_index=True,
                                return_inverse=True)
        assert np.array_equal(ids, inv.reshape(-1))
        assert np.array_equal(first, idx)


def test_row_ids_refuse_keys_past_int64():
    big = np.array([[2**62], [1]], dtype=np.int64)
    with pytest.raises(NotApplicable):
        gfmat.row_ids(big)
    ids, first = gfmat.row_ids(big[:1])
    assert ids.tolist() == [0] and first.tolist() == [0]
