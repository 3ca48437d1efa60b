"""Coset normal forms and coset tags, read off the matrix of a word.

Every group element handled by the verification code is a short word in the
atoms of unitary_group.  The group is the disjoint union of the double
cosets I_1 * shift^T * K (the lattice model of the building), so the left
coset g K of g = word_matrix(word) is fixed by the shift T and by finitely
many filtration-layer coordinates of a lower (T >= 1) or an upper (T <= -1)
unipotent.  nf_uak reads those numbers straight off the entries of g:

  1. T from the certified row minima of g against the lattice of K;
  2. each layer coordinate as a residue quotient of two single coefficients
     of one pivot column, peeling that layer atom off on the left before
     the next layer is read;
  3. the closing factor k = shift^-T * (peeled remainder), whose certified
     membership in K is the certificate of word = u * shift^T * k.

No series is inverted, so the result does not depend on the precision
window.  The mirrored shape k * shift^T * u comes from the inverted word
(nf_kau); function evaluation reads the coset of the inverted point the same
way, without forming it.  The coset tag is (T, layer coordinates), and
word_from_tag builds its canonical representative u * shift^T.

nf_uak_batch gives the same read, and the residue of k, for many words at
once, as arrays.  A word of shifts, involutions and unipotent or diagonal
atoms whose entries are exact monomials has a matrix of exact Laurent
polynomials, and words with one signature (each atom without its residue
coefficients) differ only in their coefficients.  The batch reads the words
head + tail of a list of (head, tail) pairs; a plain list of words is the
same with the single empty tail.  Each head signature group is built as one
uint16 array of coefficient indices by column operations, and each tail's
atoms are applied by column operations to the head columns its pairs use.
All of a call's matrices are then stacked into one array over their common
degree range, and steps 1-3, the membership certificate and the residue
read run once per distinct (shift, pivot column) on all of its matrices, by
lookups in the tower's add, mul, neg, inv and frob tables.  The result is a
tag id per pair over the call's distinct tags (a tag tuple is built once
per distinct coordinate row, numbered by gfmat.row_ids) and the (N, 9)
residue rows.  A word of any other form gets the id -1, and a word that
fails a certificate raises the scalar route's error.  The scalar nf_uak
serves single words (tag_of, and the scalar coset_normalize of a word the
batch does not carry or of a small call) and is the batch's test oracle.
"""

import itertools

import numpy as np

from ._kernel import INF
from .errors import (
    CrossCheckFailed,
    InsufficientPrecision,
    MembershipViolated,
    RelationViolated,
)
from .fields import memo
from .gfmat import row_ids
from .laurent import Series
from .mat3 import Mat3, unitary_inverse
from .unitary_group import (
    _K_PATTERN,
    K0,
    K1,
    atom_alpha,
    atom_d,
    atom_inv,
    atom_n,
    atom_np,
    atom_times,
    in_compact,
    iwahori_constants,
    layer_atom,
    require_compact,
    word_inverse,
    word_matrix,
)

# Not used here: the benchmark's tracer (perfbench/tracer.py) counts calls
# made through words.exchange.
from .unitary_group import exchange  # noqa: F401

# Column exponents e of the lattice diag(t^e) O^3 whose stabilizer is K.
_LATTICE = {K0: (0, 0, 0), K1: (0, 0, 1)}


class NormalForm:
    """Certified factorization word = u * shift^T * k.

    t is the shift, k the closing factor (a Mat3 certified in the compact)
    and coords the tag's (layer, x, depth) coordinates, zero layers
    included.  u, the nonzero layer atoms, is rebuilt from the tag when
    asked for rather than kept, since the nf_uak memo holds one
    instance per normalized word."""

    __slots__ = ("tower", "K", "t", "k", "coords")

    def __init__(self, tower, K, t, k, coords):
        self.tower = tower
        self.K = K
        self.t = t
        self.k = k
        self.coords = tuple(coords)

    @property
    def u(self):
        """The representative word_from_tag(tag) without its shift."""
        return word_from_tag(self.tower, self.K, (self.t, self.coords))[:-1]

    def __repr__(self):
        return "NormalForm(t=%d, |coords|=%d)" % (self.t, len(self.coords))


def grid_layer_span(tower, K, n):
    """(layer, prime) pairs indexing the tag coordinates of shift cell n:
    2n - 1 lower layers from m_K for n >= 1, 2|n| upper layers from n_K for
    n <= -1, none for n = 0."""
    n_K, m_K, _ = iwahori_constants(tower, K)
    if n >= 1:
        return tuple((k, True) for k in range(m_K, m_K + 2 * n - 1))
    return tuple((k, False) for k in range(n_K, n_K - 2 * n))


def _row_min(e, i, lat):
    """Certified min over j of val g[i][j] + lat[j] - lat[i], and the first
    column, in the order 0, 2, 1, that attains it."""
    best, pivot, hidden = INF, None, INF
    for j in (0, 2, 1):
        val, _, co = e[3 * i + j]
        v = val + lat[j] - lat[i]
        if not co:
            hidden = min(hidden, v)
        elif v < best:
            best, pivot = v, j
    if pivot is None or hidden < best:
        raise InsufficientPrecision("a zero window can hide the row minimum")
    return best, pivot


@memo
def nf_uak(tower, K, word):
    """Normal form word = u * shift^T * k, read off g = word_matrix(word)
    for a tuple of atoms.

    With v_i the certified row minima of g against the lattice of K, the
    shift is T = -v_0 if v_0 < min(v_2, 0), else T = v_2 if v_2 < 0, else 0.
    For T >= 1 the pivot is the first column j (order 0, 2, 1) attaining v_0
    and its row-0 leading coefficient c; layer l of the tag has x = g[1][j]
    at degree l/2 + d over c and depth g[2][j] at degree l + d over c, with
    d = -T - e_j.  For T <= -1 the pivot attains v_2 in row 2, d = T + e_2 -
    e_j, x = conj(-g[1][j] / c) and the depth is read from row 0.  Each
    layer atom is removed on the left before the next layer is read (x is 0
    on odd layers); the remainder, shifted by alpha^-T, is k."""
    require_compact(K)
    tw, lat = tower, _LATTICE[K]
    e = word_matrix(tw, word).e
    v0, j0 = _row_min(e, 0, lat)
    v2, j2 = _row_min(e, 2, lat)
    t = -v0 if v0 < min(v2, 0) else min(v2, 0)
    coords = []
    if t:
        # pivot row p, depth row r, pivot column j, pivot degree d
        p, r, j = (0, 2, j0) if t > 0 else (2, 0, j2)
        d = (-t if t > 0 else t + lat[2]) - lat[j]
        c_inv = tw.i_(e[3 * p + j][2][0])
        for layer, prime in grid_layer_span(tw, K, t):
            xi = 0
            if layer % 2 == 0:
                a = Series(tw, e[3 + j]).coeff_at(layer // 2 + d)
                xi = tw.m_(a, c_inv)
                if t < 0:
                    xi = tw.c(tw.n(xi))
            ti = tw.m_(Series(tw, e[3 * r + j]).coeff_at(layer + d), c_inv)
            coords.append((layer, xi, ti))
            if xi or ti:
                atom = layer_atom(tw, layer, (xi, ti), prime=prime)
                e = atom_times(tw, atom_inv(tw, atom), e)
    k = Mat3(tw, atom_times(tw, atom_alpha(-t), e))
    if not in_compact(tw, K, k):
        raise CrossCheckFailed("coset read left a factor outside the compact")
    return NormalForm(tw, K, t, k, coords)


def nf_kau(tower, K, word):
    """Mirrored normal form word = k * shift^T * u.

    Returns (k matrix, T, u atoms); computed from the normal form of the
    inverted word by inverting it.  No production code calls it: the point
    evaluations of induction read the coset of the inverted word directly,
    and this form is their test oracle."""
    nf = nf_uak(tower, K, word_inverse(tower, tuple(word)))
    return (unitary_inverse(nf.k), -nf.t, word_inverse(tower, nf.u))


def sort_unipotent_mix(tower, atoms, lower_first=True):
    """Split a product of atoms as np * d * n (lower_first) or n * d * np.

    Read off its matrix M: the lower-first split is
    np(M10/M00, M20/M00) * diag(M00, M11 - M10 M01/M00, conj(M00)^-1) *
    n(M01/M00, M02/M00), and the upper-first split is its mirror through
    M22 (conjugation by the form involution reverses both indices).  Needs
    an invertible M00 (M22); the split is certified by reassembly."""
    lhs = word_matrix(tower, tuple(atoms))
    m = [Series(tower, t) for t in (lhs.e if lower_first else lhs.e[::-1])]
    p_inv = m[0].inverse()
    x, y, a, b = (m[i] * p_inv for i in (1, 2, 3, 6))
    d = (m[0], m[4] - m[3] * x, m[0].conj().inverse())
    if lower_first:
        triple = (atom_np(tower, a, b), atom_d(tower, *d), atom_n(tower, x, y))
    else:
        triple = (
            atom_n(tower, -a.conj(), b),
            atom_d(tower, *d[::-1]),
            atom_np(tower, -x.conj(), y),
        )
    if (lhs - word_matrix(tower, triple)).decide_zero(1) is False:
        raise CrossCheckFailed("unipotent sort failed to reassemble")
    return triple


# ---------------------------------------------------------------------------
# coset tags


def tag_of_nf(tower, K, nf):
    """Canonical coset tag of a normal form: the shift exponent together
    with the layer coordinates that the stabilizer does not absorb (lower
    layers for a positive shift, upper layers for a negative one)."""
    return (nf.t, nf.coords)


def tag_of(tower, K, word):
    return tag_of_nf(tower, K, nf_uak(tower, K, word))


def word_from_tag(tower, K, tag):
    """Canonical representative word of a coset tag."""
    t, coords = tag
    prime = t >= 1
    atoms = []
    for (k, xi, ti) in coords:
        if xi or ti:
            atoms.append(layer_atom(tower, k, (xi, ti), prime=prime))
    atoms.append(atom_alpha(t))
    return tuple(atoms)


# ---------------------------------------------------------------------------
# batched read


def _monomial(trip):
    """(degree, coefficient) of an exact monomial, (None, 0) of exact zero,
    None for any other series."""
    val, prec, co = trip
    if prec < INF or len(co) > 1:
        return None
    return (val, co[0]) if co else (None, 0)


def _atom_form(atom):
    """(signature, coefficients) of an atom the batch carries, None for any
    other: the signature is the atom without its residue coefficients (kind,
    the degree of each monomial entry, None for an exact zero, or the alpha
    exponent); the coefficients are those of its "n"/"np"/"d" entries.

    An "n"/"np" atom with x = 0 and y of even degree dy is given x = 0 t^(dy/2),
    the degree x has on that layer, so the atoms of an even layer other than
    the identity share one signature; the identity (x = y = 0) has signature
    None and is dropped from its word.  Both are exact: a column operation by
    the coefficient 0 adds nothing."""
    kind = atom[0]
    if kind in ("a", "b"):
        return atom, ()
    if kind not in ("n", "np", "d"):
        return None
    terms = [_monomial(t) for t in atom[1:]]
    if None in terms or (kind == "d" and (None, 0) in terms):
        return None
    if kind != "d" and terms[0][0] is None:
        dy = terms[1][0]
        if dy is None:
            return None, ()
        if dy % 2 == 0:
            terms[0] = (dy // 2, 0)
    return (kind,) + tuple(d for d, _ in terms), tuple(c for _, c in terms)


def _by_signature(words, idx, forms):
    """The words at the indices idx that the batch carries, grouped by
    signature: {signature: (indices, (coefficients, N) array)}.  forms
    holds the atom forms of one batch call by id (the words hold their
    atoms, so an id names one atom there)."""
    groups = {}
    for i in idx:
        sig, coefs = [], []
        for atom in words[i]:
            form = forms.get(id(atom), False)
            if form is False:
                form = forms[id(atom)] = _atom_form(atom)
            if form is None:
                break
            if form[0] is not None:
                sig.append(form[0])
                coefs.extend(form[1])
        else:
            group = groups.setdefault(tuple(sig), ([], []))
            group[0].append(i)
            group[1].append(coefs)
    return {
        sig: (ids, np.array(cs, dtype=np.intp).reshape(len(ids), -1).T)
        for sig, (ids, cs) in groups.items()
    }


def _union(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return (min(a[0], b[0]), max(a[1], b[1]))


def _moved(span, s):
    return None if span is None else (span[0] + s, span[1] + s)


class _Block:
    """N matrices whose entries are exact Laurent polynomials: the words of
    one signature while they are built, all the words of a batch call once
    stacked.

    e is a uint16 array of shape (9, D, N): e[i, d, r] is the table index of
    the coefficient of t^(lo + d) in entry i (row major) of matrix r, so
    every lookup runs over contiguous runs of N.  span[i] is a degree
    interval outside which entry i vanishes in every matrix (None where it
    vanishes everywhere); the array grows when an operation reaches a degree
    outside [lo, lo + D)."""

    def __init__(self, tower, e, lo, span):
        self.tower = tower
        self.e, self.lo, self.span = e, lo, list(span)

    @classmethod
    def identity(cls, tower, n):
        e = np.zeros((9, 1, n), dtype=np.uint16)
        e[0::4] = 1
        return cls(tower, e, 0, [(0, 0) if i % 4 == 0 else None for i in range(9)])

    @classmethod
    def stack(cls, tower, blocks):
        """One block of the matrices of all the blocks, in order, over their
        common degree range; a single block is returned as it is."""
        if len(blocks) == 1:
            return blocks[0]
        lo = min(b.lo for b in blocks)
        hi = max(b.lo + b.e.shape[1] for b in blocks)
        e = np.zeros((9, hi - lo, sum(b.e.shape[2] for b in blocks)), dtype=np.uint16)
        span, c = [None] * 9, 0
        for b in blocks:
            d, n = b.e.shape[1:]
            e[:, b.lo - lo : b.lo - lo + d, c : c + n] = b.e
            span = [_union(s, t) for s, t in zip(span, b.span)]
            c += n
        return cls(tower, e, lo, span)

    def take(self, rows):
        return _Block(self.tower, self.e[:, :, rows], self.lo, self.span)

    def _fit(self, a, b):
        """Grow the array to hold degrees a..b, with slack on a grown side."""
        top = self.lo + self.e.shape[1] - 1
        if a >= self.lo and b <= top:
            return
        lo = min(self.lo, a - 2)
        hi = max(top, b + 2)
        e = np.zeros((9, hi - lo + 1, self.e.shape[2]), dtype=np.uint16)
        e[:, self.lo - lo : top - lo + 1] = self.e
        self.e, self.lo = e, lo

    def _hull(self, sl):
        span = None
        for i in range(9)[sl]:
            span = _union(span, self.span[i])
        return span

    def coeff(self, i, deg):
        """The coefficients of t^deg in entry i, one per matrix."""
        d = deg - self.lo
        if 0 <= d < self.e.shape[1]:
            return self.e[i, d].astype(np.intp)
        return np.zeros(self.e.shape[2], dtype=np.intp)

    def val(self):
        """(9, N) valuations of the entries, INF for a zero entry."""
        nz = self.e != 0
        return np.where(nz.any(axis=1), self.lo + nz.argmax(axis=1), INF)

    def axpy(self, dst, src, c, s):
        """Entries dst += (c t^s) * entries src, for two slices of the nine
        entries taken in parallel and one coefficient index per matrix."""
        span = self._hull(src)
        if span is None:
            return
        a, b = span[0] + s, span[1] + s
        self._fit(a, b)
        tw, Q, e, lo = self.tower, np.intp(self.tower.Q), self.e, self.lo
        prod = tw.mul.ravel().take(c * Q + e[src, span[0] - lo : span[1] - lo + 1])
        out = e[dst, a - lo : b - lo + 1]
        out[...] = tw.add.ravel().take(out * Q + prod)
        for i, j in zip(range(9)[dst], range(9)[src]):
            self.span[i] = _union(self.span[i], _moved(self.span[j], s))

    def scale(self, sl, c, s):
        """Entries sl times c t^s (times t^s alone when c is None)."""
        span = self._hull(sl)
        if span is None:
            return
        a, b = span[0] + s, span[1] + s
        self._fit(a, b)
        e, lo = self.e, self.lo
        prod = e[sl, span[0] - lo : span[1] - lo + 1]
        if c is None:
            prod = prod.copy()
        else:
            prod = self.tower.mul.ravel().take(c * np.intp(self.tower.Q) + prod)
        e[sl, span[0] - lo : span[1] - lo + 1] = 0
        e[sl, a - lo : b - lo + 1] = prod
        for i in range(9)[sl]:
            self.span[i] = _moved(self.span[i], s)

    def times_atom(self, form, coefs):
        """Right multiplication by one atom of the signature, as times_atom
        does it: column operations on all N matrices at once."""
        kind, tw = form[0], self.tower
        col = [slice(j, 9, 3) for j in range(3)]
        if kind == "a":
            self.scale(col[0], None, -form[1])
            self.scale(col[2], None, form[1])
        elif kind == "b":
            perm = [2, 1, 0, 5, 4, 3, 8, 7, 6]
            self.e = self.e[perm]
            self.span = [self.span[i] for i in perm]
        elif kind == "d":
            for j in range(3):
                self.scale(col[j], coefs[j], form[1 + j])
        else:
            (dx, dy), (cx, cy) = form[1:], coefs
            mxb = tw.neg[tw.frob[cx]].astype(np.intp)
            if kind == "n":
                if dy is not None:
                    self.axpy(col[2], col[0], cy, dy)
                if dx is not None:
                    self.axpy(col[2], col[1], mxb, dx)
                    self.axpy(col[1], col[0], cx, dx)
            else:
                if dx is not None:
                    self.axpy(col[0], col[1], cx, dx)
                if dy is not None:
                    self.axpy(col[0], col[2], cy, dy)
                if dx is not None:
                    self.axpy(col[1], col[2], mxb, dx)

    def times_word(self, sig, cs):
        """Right multiplication by the atoms of a word signature, with cs
        the (coefficients, N) array of their coefficients."""
        k = 0
        for form in sig:
            width = len(form) - 1 if form[0] in ("n", "np", "d") else 0
            self.times_atom(form, cs[k : k + width])
            k += width


def _row_mins(val, lat, i):
    """Row minimum of row i against the lattice and its pivot column, first
    in the order 0, 2, 1, for every matrix at once (as _row_min)."""
    best = np.full(val.shape[1], INF, dtype=np.int64)
    pivot = np.full(val.shape[1], -1, dtype=np.int64)
    for j in (0, 2, 1):
        v = np.where(val[3 * i + j] < INF, val[3 * i + j] + lat[j] - lat[i], INF)
        better = v < best
        best = np.where(better, v, best)
        pivot = np.where(better, j, pivot)
    if (pivot < 0).any():
        raise InsufficientPrecision("a zero window can hide the row minimum")
    return best, pivot


def _read_cell(blk, K, t, j):
    """Tag coordinates and residues of a block whose matrices share the
    shift t and the pivot column j: the read of nf_uak, then the residue
    read and unitarity check of reduce_to_gamma, for all matrices at once.
    Returns an (N, 2L) array, the (x, y) of each of the L layers of
    grid_layer_span(t) in turn, and the (N, 9) residue rows."""
    tw, lat, pat = blk.tower, _LATTICE[K], _K_PATTERN[K]
    add, mul, neg, frob, inv = tw.add, tw.mul, tw.neg, tw.frob, tw.inv
    rows = [slice(3 * i, 3 * i + 3) for i in range(3)]
    span = grid_layer_span(tw, K, t)
    coords = np.zeros((blk.e.shape[2], 2 * len(span)), dtype=np.intp)
    if t:
        p, r = (0, 2) if t > 0 else (2, 0)
        d = (-t if t > 0 else t + lat[2]) - lat[j]
        c_inv = inv[blk.coeff(3 * p + j, d)].astype(np.intp)
        for n, (layer, prime) in enumerate(span):
            half = layer // 2
            xi = np.zeros_like(c_inv)
            if layer % 2 == 0:
                xi = mul[blk.coeff(3 + j, half + d), c_inv].astype(np.intp)
                if t < 0:
                    xi = frob[neg[xi]].astype(np.intp)
            ti = mul[blk.coeff(3 * r + j, layer + d), c_inv].astype(np.intp)
            rel = add[mul[xi, frob[xi]], add[ti, frob[ti]]]
            if rel.any():
                raise RelationViolated(
                    "unipotent parameters violate x*conj(x) + y + conj(y) = 0"
                )
            coords[:, 2 * n] = xi
            coords[:, 2 * n + 1] = ti
            # peel the layer atom off on the left: its inverse has x' = -x,
            # y' = conj(y) and -conj(x') = conj(x)
            nx = neg[xi].astype(np.intp)
            cy = frob[ti].astype(np.intp)
            cx = frob[xi].astype(np.intp)
            if prime:
                blk.axpy(rows[2], rows[0], cy, layer)
                if layer % 2 == 0:
                    blk.axpy(rows[2], rows[1], cx, half)
                    blk.axpy(rows[1], rows[0], nx, half)
            else:
                if layer % 2 == 0:
                    blk.axpy(rows[0], rows[1], nx, half)
                blk.axpy(rows[0], rows[2], cy, layer)
                if layer % 2 == 0:
                    blk.axpy(rows[1], rows[2], cx, half)
    # k = alpha^-t * remainder: row 0 of k is t^t times row 0, row 2 is
    # t^-t times row 2, so entry (i, j) of k at degree P is entry (i, j) of
    # the remainder at degree P - shift[i]
    shift = (t, 0, -t)
    need = np.array([pat[i][jj] - shift[i] for i in range(3) for jj in range(3)])
    if (blk.val() < need[:, None]).any():
        raise CrossCheckFailed("coset read left a factor outside the compact")
    m = np.zeros((9, blk.e.shape[2]), dtype=np.intp)
    for i in range(3):
        for jj in range(3):
            if pat[i][jj] + pat[jj][i] == 0:
                m[3 * i + jj] = blk.coeff(3 * i + jj, int(need[3 * i + jj]))
    # residue unitarity: m times its inverse J conj(m)^T J is the identity
    g = m.reshape(3, 3, -1)
    h = frob[m[::-1]].reshape(3, 3, -1).transpose(1, 0, 2)
    terms = mul[g[:, :, None, :], h[None, :, :, :]]
    prod = add[add[terms[:, 0], terms[:, 1]], terms[:, 2]]
    if (prod != np.eye(3, dtype=prod.dtype)[:, :, None]).any():
        raise MembershipViolated("reduction is not residue-unitary")
    return coords, m.T


def nf_uak_batch(tower, K, heads, tails=((),), pairs=None):
    """The tags and residues that coset_normalize gives the words heads[i] +
    tails[j], for each (i, j) of pairs, read for all of them at once.  By
    default pairs reads every word of heads with the single empty tail, so
    nf_uak_batch(tower, K, words) reads a plain list of words.

    Returns (ids, tags, residues): ids[r] is the position in tags, the list
    of distinct tags, of the tag of pair r, or -1 where the batch does not
    carry its word; residues is the (N, 9) uint16 array of the residue rows
    (row-major GammaElem entries; zero where the word is not carried).

    The batch carries words whose atoms are "a", "b", and "n", "np" or "d"
    atoms with entries that are exact monomials or exact zero.  Their
    matrices are exact Laurent polynomials.  The heads the pairs use are
    grouped by signature (each atom without its residue coefficients); each
    group is built by the column operations of times_atom, for all its heads
    at once, and the groups are stacked into one block.  For each tail
    signature, the head columns its pairs need are gathered from that block
    and the tail's atoms applied to them by column operations; the results
    are stacked again, so the row minima, the shift and the pivot are found
    once for the whole call, and the read of nf_uak and the residue read of
    reduce_to_gamma run once per distinct (shift, pivot).  Within one such
    read the coordinate rows are numbered by gfmat.row_ids, and a tag tuple
    is built once per distinct row.  A matrix that fails the unipotent
    relation, the membership of k in K or the residue unitarity raises the
    scalar route's error (RelationViolated, CrossCheckFailed,
    MembershipViolated); it is never routed around."""
    require_compact(K)
    if pairs is None:
        pairs = [(i, 0) for i in range(len(heads))]
    hi, ti = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    ids = np.full(len(hi), -1, dtype=np.intp)
    residues = np.zeros((len(hi), 9), dtype=np.uint16)
    index, forms = {}, {}
    # column of each carried head in the stacked head block, -1 elsewhere
    col, blocks, n = np.full(len(heads), -1, dtype=np.intp), [], 0
    for sig, (hs, cs) in _by_signature(heads, np.unique(hi).tolist(), forms).items():
        col[hs] = np.arange(n, n + len(hs))
        n += len(hs)
        blk = _Block.identity(tower, len(hs))
        blk.times_word(sig, cs)
        blocks.append(blk)
    if not blocks:
        return ids, [], residues
    head_blk = _Block.stack(tower, blocks)
    hcol = col[hi]
    rows, blocks = [], []
    for sig, (ts, cs) in _by_signature(tails, np.unique(ti).tolist(), forms).items():
        pos = np.full(len(tails), -1, dtype=np.intp)
        pos[ts] = np.arange(len(ts))
        tpos = pos[ti]
        sel = np.flatnonzero((tpos >= 0) & (hcol >= 0))
        if len(sel):
            blk = head_blk.take(hcol[sel])
            blk.times_word(sig, cs[:, tpos[sel]])
            rows.append(sel)
            blocks.append(blk)
    if not blocks:
        return ids, [], residues
    blk = _Block.stack(tower, blocks)
    rows = np.concatenate(rows)
    lat = _LATTICE[K]
    val = blk.val()
    v0, j0 = _row_mins(val, lat, 0)
    v2, j2 = _row_mins(val, lat, 2)
    low = np.minimum(v2, 0)
    t = np.where(v0 < low, -v0, low)
    j = np.where(t > 0, j0, np.where(t < 0, j2, 0))
    key = 3 * t + j
    for kv in np.unique(key).tolist():
        sub = np.flatnonzero(key == kv)
        shift, pivot = divmod(kv, 3)
        part = blk if len(sub) == len(rows) else blk.take(sub)
        coords, m = _read_cell(part, K, shift, pivot)
        local, first = row_ids(coords)
        # the tag of each distinct coordinate row, built column-wise
        cols = coords[first].T.tolist()
        layers = [
            zip(itertools.repeat(layer), cols[2 * k], cols[2 * k + 1])
            for k, (layer, _) in enumerate(grid_layer_span(tower, K, shift))
        ]
        tags = zip(itertools.repeat(shift), zip(*layers) if layers else [()])
        # a tag can be read under two pivots, so the ids go through one index
        at = [index.setdefault(tag, len(index)) for tag in tags]
        ids[rows[sub]] = np.array(at, dtype=np.intp)[local]
        residues[rows[sub]] = m
    return ids, list(index), residues
