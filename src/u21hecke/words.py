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
way, without forming it.

The coset tag is the pair (T, i) of two ints: the shift cell T and the grid
index i of the layer coordinates, a mixed-radix number whose digits are the
positions of the layers' (x, y) in their sorted layer_coords
(tag_from_coords).  Grid order is therefore the order of the coordinates,
and tag[0] is the cell.  tag_coords reads the coordinates back, and
word_from_tag builds the canonical representative u * shift^T.

nf_uak_batch gives the same read, and the residue of k, for many words at
once, as arrays.  A word of shifts, involutions and unipotent or diagonal
atoms whose entries are exact monomials has a matrix of exact Laurent
polynomials, and words with one signature (each atom without its residue
coefficients) differ only in their coefficients.  The batch reads the words
head + tail of the whole product of two word lists; a plain list of words
is the product with the single empty tail.  One call is one pass: each list
is grouped by signature once, and the words are read in chunks of
_BATCH_CHUNK, in the order of their tails' groups.  Each head signature
group is built as one uint16 array of coefficient indices by column
operations, once for the chunks that use the same heads (all of them when
the heads fit one chunk), and each tail's atoms are applied by column
operations to the head columns its words use.  A chunk's matrices are then
stacked into one array over their common degree range, and steps 1-3, the
membership certificate and the residue read run once per distinct (shift,
pivot column) on all of its matrices.  Every sum and product there is one
flat take through the tower's array methods (Tower.plus, times and
plus_times, uint16 indices up to Q = 256), with gathers from its neg, inv
and frob tables, and a column step whose coefficients are all 0 is
skipped.  The coordinates become grid indices by table lookups and one
Horner pass per cell (_grid_indices).  The result is the shift and the grid
index of each word, and its residue as an id into the distinct (r, 9)
residue rows, the residue matrices row-major: the one format of a residue
from the batch to the weights' action (Weight.apply).  The call numbers its residue rows once (gfmat.row_ids) and
certifies each distinct one unitary once.  A word of any other form gets
the index -1, and a word that fails a certificate raises the scalar route's
error.  The product read (_normalize_words, memoized by _product_read) is
one batch call; it numbers the batch's tags, by one np.lexsort over (shift,
index), and keeps the distinct ones as two arrays, cells and grid indices,
refuses a word the batch does not carry (NotApplicable), and is the one
production read of a coset or residue (_residues_in_compact, or
_compact_residues on a part of a read).  The scalar nf_uak reads a word's
Mat3 matrix of series; it, tag_of and induction.coset_normalize serve only
the tests' oracle and the benchmark's tracer.
"""

import math
from array import array

import numpy as np

from . import gfmat
from ._kernel import INF
from .errors import (
    CrossCheckFailed,
    InsufficientPrecision,
    NotApplicable,
    RelationViolated,
)
from .fields import memo
from .laurent import Series
from .mat3 import Mat3, unitary_inverse
from .unitary_group import (
    _K_PATTERN,
    K0,
    K1,
    RESIDUE_PLACES,
    atom_alpha,
    atom_d,
    atom_inv,
    atom_n,
    atom_np,
    atom_times,
    check_residue_unitarity,
    in_compact,
    iwahori_constants,
    layer_atom,
    layer_coords,
    layer_positions,
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
    and coords the (layer, x, depth) coordinates over grid_layer_span(t),
    zero layers included; the coset tag (t, i) encodes them by their grid
    index (tag_of_nf).  u, the nonzero layer atoms, is rebuilt from coords
    when asked for rather than kept, since the nf_uak memo holds one
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
        """The layer atoms of word_from_tag(tag), built from coords."""
        return _rep_word(self.tower, self.t, self.coords)[:-1]

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


# A grid index below this bound fits int64, where nf_uak_batch joins the
# digits of a whole cell at once; the indices of a cell of more cosets are
# Python ints, in an object array (_grid_indices).
_INDEX_LIMIT = 2**63


@memo
def _cell_layers(tower, K, t):
    """(layer, layer_coords(layer), layer_positions(layer)) for each layer
    of grid_layer_span(t), in order."""
    return tuple(
        (layer, layer_coords(tower, layer), layer_positions(tower, layer))
        for layer, _ in grid_layer_span(tower, K, t)
    )


def tag_from_coords(tower, K, t, coords):
    """The coset tag (t, i) of the layer coordinates ((layer, x, y), ...)
    of shift cell t, one per layer of grid_layer_span(t): i is the
    mixed-radix number whose digits, most significant first, are the
    positions of the pairs (x, y) in layer_coords(layer).  The layer
    coordinates are sorted, so grid order is the lexicographic order of
    the coordinates."""
    layers = _cell_layers(tower, K, t)
    if len(coords) != len(layers):
        raise NotApplicable("cell %d has %d layers" % (t, len(layers)))
    i, Q = 0, tower.Q
    for (layer, cs, pos), (k, xi, ti) in zip(layers, coords):
        digit = int(pos[xi * Q + ti]) if k == layer else -1
        if digit < 0:
            raise NotApplicable("(%d, %d, %d) is no coordinate of layer %d"
                                % (k, xi, ti, layer))
        i = i * len(cs) + digit
    return (t, i)


def tag_coords(tower, K, tag):
    """The layer coordinates ((layer, x, y), ...) of a coset tag (t, i),
    one per layer of grid_layer_span(t): the inverse of tag_from_coords."""
    t, i = tag
    out = []
    for layer, cs, _ in reversed(_cell_layers(tower, K, t)):
        i, digit = divmod(i, len(cs))
        out.append((layer,) + cs[digit])
    if i:
        raise NotApplicable("tag %r lies outside the grid of its cell" % (tag,))
    return tuple(out[::-1])


def tag_of_nf(tower, K, nf):
    """Canonical coset tag of a normal form: the shift exponent together
    with the grid index of the layer coordinates that the stabilizer does
    not absorb (lower layers for a positive shift, upper layers for a
    negative one)."""
    return tag_from_coords(tower, K, nf.t, nf.coords)


def tag_of(tower, K, word):
    return tag_of_nf(tower, K, nf_uak(tower, K, word))


def _rep_word(tower, t, coords):
    """u * shift^t, with u the layer atoms of the nonzero coordinates."""
    prime = t >= 1
    atoms = [
        layer_atom(tower, k, (xi, ti), prime=prime)
        for (k, xi, ti) in coords
        if xi or ti
    ]
    atoms.append(atom_alpha(t))
    return tuple(atoms)


def word_from_tag(tower, K, tag):
    """Canonical representative word of a coset tag."""
    return _rep_word(tower, tag[0], tag_coords(tower, K, tag))


# ---------------------------------------------------------------------------
# batched read


def _monomial(trip):
    """(degree, coefficient) of an exact monomial, (None, 0) of exact zero,
    None for any other series."""
    val, prec, co = trip
    if prec < INF or len(co) > 1:
        return None
    return (val, co[0]) if co else (None, 0)


@memo
def _atom_form(tower, atom):
    """(signature, coefficients) of an atom the batch carries, None for any
    other, derived once per tower and atom: the signature is the atom
    without its residue coefficients (kind, the degree of each monomial
    entry, None for an exact zero, or the alpha exponent); the coefficients
    are those of its "n"/"np"/"d" entries.

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


def _grouped(tower, words):
    """The words of a list that the batch carries, grouped by signature, as
    (groups, group, col): groups lists (signature, (coefficients, N) uint16
    array) in turn, and word i is column col[i] of group group[i], -1 for a
    word not carried.  The coefficients gather in one flat uint16 buffer per
    group, so the grouping of a long list holds no Python list per word, and
    the form of each distinct atom is looked up once."""
    groups, forms = {}, {}
    for i, word in enumerate(words):
        sig, coefs = [], []
        for atom in word:
            form = forms.get(atom, forms)
            if form is forms:
                form = forms[atom] = _atom_form(tower, atom)
            if form is None:
                break
            if form[0] is not None:
                sig.append(form[0])
                coefs.extend(form[1])
        else:
            group = groups.get(tuple(sig))
            if group is None:
                group = groups[tuple(sig)] = (array("q"), array("H"))
            group[0].append(i)
            group[1].extend(coefs)
    group = np.full(len(words), -1, dtype=np.intp)
    col = np.full(len(words), -1, dtype=np.intp)
    out = []
    for g, (sig, (ids, cs)) in enumerate(groups.items()):
        ids = np.array(ids, dtype=np.intp)
        group[ids] = g
        col[ids] = np.arange(len(ids))
        cs = np.array(cs, dtype=np.uint16).reshape(len(ids), -1).T
        out.append((sig, cs))
    return out, group, col


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
        """The coefficients of t^deg in entry i, one per matrix (a view of
        the array while deg is in its range)."""
        d = deg - self.lo
        if 0 <= d < self.e.shape[1]:
            return self.e[i, d]
        return np.zeros(self.e.shape[2], dtype=np.uint16)

    def val(self, sl):
        """Valuations of the entries of a slice of the nine, one row per
        entry and one column per matrix, INF for a zero entry.  Each
        entry's degrees are scanned upward from the low end of its span
        until every matrix has met a nonzero coefficient."""
        rows = range(9)[sl]
        out = np.full((len(rows), self.e.shape[2]), INF, dtype=np.int64)
        for v, i in zip(out, rows):
            if self.span[i] is None:
                continue
            for d in range(self.span[i][0], self.span[i][1] + 1):
                v[(self.coeff(i, d) != 0) & (v == INF)] = d
                if (v < INF).all():
                    break
        return out

    def vanish_below(self, need):
        """Does entry i vanish below degree need[i] in every matrix, for
        each of the nine entries?  Reads the stored coefficients below
        need[i], whatever the spans say."""
        return not any(self.e[i, : max(0, n - self.lo)].any()
                       for i, n in enumerate(need))

    def axpy(self, dst, src, c, s):
        """Entries dst += (c t^s) * entries src, for two slices of the nine
        entries taken in parallel and one coefficient index per matrix.
        Where every coefficient is 0 it returns at once: nothing is added,
        and span stays a bound."""
        span = self._hull(src)
        if span is None or not c.any():
            return
        a, b = span[0] + s, span[1] + s
        self._fit(a, b)
        e, lo = self.e, self.lo
        out = e[dst, a - lo : b - lo + 1]
        out[...] = self.tower.plus_times(
            out, c, e[src, span[0] - lo : span[1] - lo + 1])
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
        prod = prod.copy() if c is None else self.tower.times(c, prod)
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
            mxb = tw.neg[tw.frob[cx]]
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
    in the order 0, 2, 1, for every matrix at once (as _row_min); val holds
    the (3, N) valuations of row i."""
    best = np.full(val.shape[1], INF, dtype=np.int64)
    pivot = np.full(val.shape[1], -1, dtype=np.int64)
    for j in (0, 2, 1):
        v = np.where(val[j] < INF, val[j] + lat[j] - lat[i], INF)
        better = v < best
        best = np.where(better, v, best)
        pivot = np.where(better, j, pivot)
    if (pivot < 0).any():
        raise InsufficientPrecision("a zero window can hide the row minimum")
    return best, pivot


def _read_cell(blk, K, t, j):
    """Tag coordinates and residues of a block whose matrices share the
    shift t and the pivot column j: the read of nf_uak, then the residue
    read of reduce_to_gamma, for all matrices at once.  Returns an (N, 2L)
    array, the (x, y) of each of the L layers of grid_layer_span(t) in
    turn, and the (N, 9) residue rows, whose unitarity nf_uak_batch
    certifies once per distinct row."""
    tw, lat, pat = blk.tower, _LATTICE[K], _K_PATTERN[K]
    neg, frob = tw.neg, tw.frob
    rows = [slice(3 * i, 3 * i + 3) for i in range(3)]
    span = grid_layer_span(tw, K, t)
    coords = np.zeros((blk.e.shape[2], 2 * len(span)), dtype=np.intp)
    if t:
        p, r = (0, 2) if t > 0 else (2, 0)
        d = (-t if t > 0 else t + lat[2]) - lat[j]
        c_inv = tw.inv[blk.coeff(3 * p + j, d)]
        for n, (layer, prime) in enumerate(span):
            half = layer // 2
            xi = np.zeros_like(c_inv)
            if layer % 2 == 0:
                xi = tw.times(blk.coeff(3 + j, half + d), c_inv)
                if t < 0:
                    xi = frob[neg[xi]]
            ti = tw.times(blk.coeff(3 * r + j, layer + d), c_inv)
            cx, cy = frob[xi], frob[ti]
            if tw.plus_times(tw.plus(ti, cy), xi, cx).any():
                raise RelationViolated(
                    "unipotent parameters violate x*conj(x) + y + conj(y) = 0"
                )
            coords[:, 2 * n] = xi
            coords[:, 2 * n + 1] = ti
            # peel the layer atom off on the left: its inverse has x' = -x,
            # y' = conj(y) and -conj(x') = conj(x)
            nx = neg[xi]
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
    need = [pat[i][jj] - shift[i] for i in range(3) for jj in range(3)]
    if not blk.vanish_below(need):
        raise CrossCheckFailed("coset read left a factor outside the compact")
    m = np.zeros((9, blk.e.shape[2]), dtype=np.uint16)
    for e, _ in RESIDUE_PLACES[K]:
        m[e] = blk.coeff(e, need[e])
    return coords, m.T


def _distinct(a):
    """The distinct values of an array of nonnegative integers, in
    increasing order, as a list.  (np.unique without return_index or
    return_inverse calls np.ma.is_masked, whose first call imports
    numpy.ma.)"""
    return np.flatnonzero(np.bincount(a)).tolist()


def _grid_indices(tower, K, t, coords):
    """The grid index (tag_from_coords) of each row of the (N, 2L) array of
    layer coordinates of shift cell t, as an (N,) array: int64, or object
    dtype holding Python ints in a cell of more than _INDEX_LIMIT cosets,
    where int64 would overflow.  Each layer's pairs become digits by one
    lookup in its position table (layer_positions); _read_cell has checked
    the unipotent relation, so every pair is a layer coordinate.  The
    digits are joined by one Horner pass over the layers."""
    Q, layers = tower.Q, _cell_layers(tower, K, t)
    sizes = [len(cs) for _, cs, _ in layers]
    wide = math.prod(sizes) > _INDEX_LIMIT
    index = np.zeros(len(coords), dtype=object if wide else np.int64)
    for n, ((_, _, pos), size) in enumerate(zip(layers, sizes)):
        index = index * size + pos[coords[:, 2 * n] * Q + coords[:, 2 * n + 1]]
    return index


def nf_uak_batch(tower, K, heads, tails=((),)):
    """The tags and residues that coset_normalize gives the words of the
    product of two word lists, read for all of them at once: word n is
    heads[n % H] + tails[n // H] for H heads (tail-major), so
    nf_uak_batch(tower, K, words) reads a plain list of words.

    Returns (shifts, indices, res_ids, residues), one entry per word of the
    first three: word n lies in the coset of tag (shifts[n], indices[n]),
    and its residue is residues[res_ids[n]], where residues is the (r, 9)
    uint16 array of the distinct residue rows (the residue matrices,
    row-major) in lexicographic order (gfmat.row_ids).  shifts is int64;
    indices is int64, or object dtype holding Python ints when a cell of the
    call has more than _INDEX_LIMIT cosets (_grid_indices).  Where the batch
    does not carry a word, its index and its res_id are -1 and its shift 0.
    The tags are not numbered here: the caller numbers them, as
    _product_read does.

    The batch carries words whose atoms are "a", "b", and "n", "np" or "d"
    atoms with entries that are exact monomials or exact zero.  Their
    matrices are exact Laurent polynomials.  The heads and the tails are
    each grouped once by signature (each atom without its residue
    coefficients, _grouped).  The words are then read in chunks of
    _BATCH_CHUNK (_read_chunk), which bounds the arrays whatever the call's
    size, taken in the order of their tails' groups so that a chunk applies
    few tail signatures.  The head block, every head group built by the
    column operations of times_atom and stacked, is built from the heads a
    chunk uses and kept while the next chunks use the same heads, as every
    chunk does when the heads fit one chunk; each chunk gathers its head
    columns from it.  A matrix that fails the unipotent relation or the
    membership of k in K raises the scalar route's error (RelationViolated,
    CrossCheckFailed).  The residue rows of the carried words are numbered
    once, and each distinct row is certified unitary once; a call with a
    row that is not raises MembershipViolated.  No failure is routed
    around."""
    require_compact(K)
    nh = len(heads)
    n = nh * len(tails)
    shifts = np.zeros(n, dtype=np.int64)
    indices = np.full(n, -1, dtype=np.int64)
    rows = np.zeros((n, 9), dtype=np.uint16)
    head_groups = _grouped(tower, heads)
    tail_groups = _grouped(tower, tails)
    by_group = np.argsort(tail_groups[1], kind="stable")
    built = None
    for start in range(0, n, _BATCH_CHUNK):
        r = np.arange(start, min(n, start + _BATCH_CHUNK))
        t, h = by_group[r // nh], r % nh
        used, pos = np.unique(h, return_inverse=True)
        if built is None or not np.array_equal(used, built):
            built = used
            blk, cols = _head_block(tower, head_groups, used)
        at = t * nh + h
        shifts[at], index, rows[at] = _read_chunk(
            K, blk, cols[pos], tail_groups, t)
        if index.dtype != indices.dtype:
            indices = indices.astype(object)
        indices[at] = index
    carried = indices >= 0
    if not carried.all():
        rows = rows[carried]
    res_ids = np.full(n, -1, dtype=np.intp)
    res_ids[carried], first = gfmat.row_ids(rows)
    residues = rows[first]
    check_residue_unitarity(tower, residues.T)
    return shifts, indices, res_ids, residues


def _head_block(tower, head_groups, ids):
    """The block of the heads ids (an array of head indices) of a grouping
    (_grouped), each group built by the column operations of times_word
    on the identity and the groups stacked, and the column of each id in
    it, -1 for a head not carried (None for the block when none is)."""
    groups, group, col = head_groups
    cols = np.full(len(ids), -1, dtype=np.intp)
    of = group[ids]
    blocks, n = [], 0
    for g, (sig, cs) in enumerate(groups):
        sel = np.flatnonzero(of == g)
        if len(sel):
            cols[sel] = np.arange(n, n + len(sel))
            n += len(sel)
            blk = _Block.identity(tower, len(sel))
            blk.times_word(sig, cs[:, col[ids[sel]]])
            blocks.append(blk)
    return (_Block.stack(tower, blocks) if blocks else None), cols


def _read_chunk(K, head_blk, hcol, tail_groups, ti):
    """The shifts, grid indices and residue rows of one chunk of
    nf_uak_batch's words, a zero row for a word not carried: word r is the
    head in column hcol[r] of head_blk, -1 for a head not carried, times
    the tail ti[r] of the grouping tail_groups (_grouped).  For each tail
    signature the head columns of its words are gathered and the tail's
    atoms applied to them by column operations; the results are stacked,
    so the row minima, the shift and the pivot are found once for the
    chunk, and the read of nf_uak and the residue read of reduce_to_gamma
    run once per distinct (shift, pivot) (_read_cell).  Within one such
    read the coordinates become grid indices (_grid_indices)."""
    n = len(ti)
    shifts = np.zeros(n, dtype=np.int64)
    indices = np.full(n, -1, dtype=np.int64)
    residues = np.zeros((n, 9), dtype=np.uint16)
    groups, group, col = tail_groups
    tg = np.where(hcol >= 0, group[ti], -1)
    order = np.argsort(tg, kind="stable")
    bounds = np.searchsorted(tg[order], np.arange(len(groups) + 1))
    rows, blocks = [], []
    for g, (sig, cs) in enumerate(groups):
        sel = order[bounds[g] : bounds[g + 1]]
        if len(sel):
            blk = head_blk.take(hcol[sel])
            blk.times_word(sig, cs[:, col[ti[sel]]])
            rows.append(sel)
            blocks.append(blk)
    if not blocks:
        return shifts, indices, residues
    tower = head_blk.tower
    blk = _Block.stack(tower, blocks)
    rows = np.concatenate(rows)
    lat = _LATTICE[K]
    v0, j0 = _row_mins(blk.val(slice(0, 3)), lat, 0)
    v2, j2 = _row_mins(blk.val(slice(6, 9)), lat, 2)
    low = np.minimum(v2, 0)
    t = np.where(v0 < low, -v0, low)
    j = np.where(t > 0, j0, np.where(t < 0, j2, 0))
    cells, cell_of = np.unique(3 * t + j, return_inverse=True)
    for c, kv in enumerate(cells.tolist()):
        sub = np.flatnonzero(cell_of == c)
        shift, pivot = divmod(kv, 3)
        part = blk if len(sub) == len(rows) else blk.take(sub)
        coords, m = _read_cell(part, K, shift, pivot)
        index = _grid_indices(tower, K, shift, coords)
        if index.dtype != indices.dtype:
            indices = indices.astype(object)
        shifts[rows[sub]] = shift
        indices[rows[sub]] = index
        residues[rows[sub]] = m
    return shifts, indices, residues


# Words per chunk of nf_uak_batch (_read_chunk), which bounds its arrays
# whatever the call's size.  On the 19,683 words of the recursion step
# 2 -> 3 at q = 3 (K0), one product read (min of 7, CPython 3.11, numpy
# 2.4, one core of a shared 2-CPU host): chunks of 4096 took 0.023 s with
# a traced peak 2.9 MB above the 0.6 MB of the stored record; chunks of
# 512 took 0.046 s and 1.3 MB, and one chunk of 32768 0.025 s and 13.6 MB.
_BATCH_CHUNK = 4096


class ProductRead:
    """The cosets of the words h + t of one product read, t over the tails
    and h over the heads, in tail-major order (word n is heads[n % H] +
    tails[n // H]): word n lies in the coset of the tag (tag_shifts[k],
    tag_indices[k]), k = tag_ids[n], with residue residues[res_ids[n]], so
    that [word, v] normalizes to [rep(tag), sigma(residue) v].  The tags
    are numbered in order of first appearance and kept as two arrays, the
    cells tag_shifts (int64) and the grid indices tag_indices (int64, or
    object dtype as nf_uak_batch gives them); residues is the (r, 9) uint16
    array of the distinct residue rows of nf_uak_batch, in lexicographic
    order, as Weight.apply takes them.  Read-only: no array is writeable.
    Its len is the number of words."""

    __slots__ = ("tag_ids", "tag_shifts", "tag_indices", "res_ids",
                 "residues")

    def __init__(self, tag_ids, tag_shifts, tag_indices, res_ids, residues):
        for a in (tag_ids, tag_shifts, tag_indices, res_ids, residues):
            a.flags.writeable = False
        self.tag_ids, self.res_ids, self.residues = tag_ids, res_ids, residues
        self.tag_shifts, self.tag_indices = tag_shifts, tag_indices

    def tag_tuple(self):
        """The tuple of the tags (shift, index), built anew on each call,
        for the readers that key dicts by tag; a reader of cells reads
        tag_shifts."""
        return tuple(zip(self.tag_shifts.tolist(), self.tag_indices.tolist()))

    def __len__(self):
        return len(self.tag_ids)


def _normalize_words(tower, K, heads, tails=((),)):
    """The product read (ProductRead) of the word lists heads and tails,
    kept in one memo table keyed by (K, heads, tails) as tuples; a plain
    list of words is the product with the single empty tail.  The table
    holds at most fields._MEMO_CAP words over all its records, dropping its
    oldest records."""
    return _product_read(tower, K, tuple(heads), tuple(tails))


@memo(size=len)
def _product_read(tower, K, heads, tails):
    """The ProductRead of _normalize_words, read by one nf_uak_batch call
    over the whole product, which groups the heads and the tails once,
    reads them in chunks, and numbers the residue rows.  NotApplicable for
    a word the batch does not carry: it has no other production read.

    The tags are numbered once, here, from the shift and grid index of
    every word (_first_appearance), and the distinct ones kept as two
    arrays."""
    shifts, indices, res_ids, residues = nf_uak_batch(tower, K, heads, tails)
    missing = indices < 0
    if missing.any():
        raise NotApplicable(
            "word %d of a product read is not a word of exact monomial "
            "atoms" % int(np.argmax(missing)))
    tag_ids, firsts = _first_appearance(shifts, indices)
    return ProductRead(tag_ids, shifts[firsts], indices[firsts], res_ids,
                       residues)


def _first_appearance(shifts, indices):
    """Number the pairs (shifts[r], indices[r]) in order of first
    appearance: (ids, firsts), where pairs r and s are equal exactly when
    ids[r] == ids[s], and firsts[k] is the first r of id k, so that
    shifts[firsts] and indices[firsts] are the distinct pairs in id order
    (ProductRead.tag_shifts and tag_indices).  One np.lexsort over (shift,
    index) brings equal pairs together, for int64 and for object indices
    alike; it is stable, so each run of equal pairs starts at its first r,
    and the runs are ranked by it."""
    order = np.lexsort((indices, shifts))
    s, i = shifts[order], indices[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (s[1:] != s[:-1]) | (i[1:] != i[:-1])
    firsts = order[new]
    by_first = np.argsort(firsts)
    rank = np.empty(len(firsts), dtype=np.intp)
    rank[by_first] = np.arange(len(firsts))
    ids = np.empty(len(order), dtype=np.intp)
    ids[order] = rank[np.cumsum(new) - 1]
    return ids, firsts[by_first]


def _residues_in_compact(tower, K, words):
    """The residue red(w) of every word w of a list that lies in the
    compact, as an (n, 9) array of rows, by _compact_residues of one read."""
    return _compact_residues(_normalize_words(tower, K, words), slice(None))


def _compact_residues(read, part):
    """The residues of the words of a slice part of a ProductRead, which
    lie in the compact, as an (n, 9) array of rows of read.residues in word
    order.  A word w in K lies in the coset K itself, tag (0, 0), whose
    representative alpha^0 is the identity, so the read w = rep k has k = w
    and its residue is red(w).  CrossCheckFailed unless every tag of the
    part is (0, 0): a word outside K has no residue."""
    used = _distinct(read.tag_ids[part])
    if read.tag_shifts[used].any() or read.tag_indices[used].any():
        raise CrossCheckFailed("a word to reduce lies outside the compact")
    return read.residues[read.res_ids[part]]
