"""Compactly induced modules and their spherical operator calculus.

A function induced from a weight of a maximal compact is stored on canonical
coset tags: the module element sum_i [g_i, v_i] keeps, for every occupied
coset g K, the tag of the canonical representative together with the value
transported to it ([g k, v] = [g, sigma(k) v]), as a tuple of tags and one
read-only uint16 array of their values, row by row.  Left translation, the
spherical operator T (by its explicit two-sum coset expansion), and the two
partial averaging operators S_K and S_- are sums of translates, each read as
a product of two word lists by InducedFn._from_words: prefixes times tag
representatives, or representatives times the stencil suffixes of T.  Every
landing coset membership is certified by the residue reduction.  The words
of one operation are normalized together, as one product read
(words._normalize_words), the one production read of a coset: it is kept as
one record of tag ids, residue ids and the (r, 9) array of its distinct
residue rows, and a word of any form other than exact monomial atoms is
refused.  The scalar coset_normalize, which reads a word through its Mat3
matrix of series, has no caller here: it serves the tests as the oracle of
the product read, and the benchmark's tracer.

Residues travel as such rows, the format of the weight's array action
(Weight.apply).  Values are transported a call at a time (_transport_ids,
on ids into an array of residue rows): each distinct (id, vector) pair is
moved once, by Weight.apply, in blocks bounded by _TRANSPORT_ENTRIES, with
no matrix per residue; the rows are summed per coset (_merge, on the tag
ids) or per point as arrays.  A grid-operator call makes one such
transport for all its elements (_cell_images).

The span of the compact translates of f_n (spin_K) lives on a fixed tag
index, the orbit of the support under the lifts of gamma_generators, each
certified to permute it; weights.closure, the loop of weights.spin, closes
it, and its residue action reads coordinates at its rref pivots.

The canonical invariant functions f_n (supported on the n-th shift cell,
pro-unipotent-invariant, one per shift) come in two forms: a materialized
InducedFn over the full coordinate grid of the cell, and a coordinate form
(GridElement) that evaluates points lazily from the coset of their inverse.
The grid form makes T and the averaging operators affordable at every
shift: an invariant function supported on finitely many certified cells and
vanishing at each cell point alpha^{-j} is identically zero, so reading the
values at those points reconstructs the coordinates faithfully.  The
support window of each grid operator is certified by exact double-cell
labels.  Invariance is certified exactly, once per weight or compact: the
canonical value of each f_n is fixed by the residue image of its coset's
stabilizer (_grid_value), and the averaging suffixes and T's stencil are
certified transversals (_suffixes_certified, _t_adjoint), so every image of
an invariant function is invariant.  Each grid operator takes a list of
elements of one weight (op_T_grids, op_SK_grids, op_Sminus_grids; op_T_grid
and the other one-element forms are lists of one) and reads all their
images at one set of cell points (_read_grids), and a nonzero value outside
an element's own window fails the call.  The images are built from
per-cell images (_cell_images): the words of a point read do not depend on
the element, so one product read serves the call; the canonical value of
each cell in use is transported once, over the words of that cell; each
operator reduces the values of f_n to its image at the points, and the
image of an element is sum_n c_n image_n, on (points, dim) arrays.  The
one-element evaluations GridElement.values_at, values_at_inverses and
eval_at are the same function with no reduction.  T reads its windows and
its points as one product (_t_rows).  op_T_grids reads T through its
adjoint stencil and is the route of the structure constants; the
materialized op_T stays as the test oracle and the route of op_T_sigma
and equivariance_spot_check.  Both read T's rank-one idempotent
j = v0 ell^T through its certified factors (Weight.j_factors).  op_T gives
each word rep(tag) s the value (L_s . f(tag)) v0, with L_s =
sigma(g_s)^T ell for the stencil residue g_s (_t_stencil_rows), one
product for all words.  The adjoint stencil names each suffix's partner s'
and residue r_s (_t_adjoint); with the tables L_s' and R_s = sigma(r_s) v0
of a weight (_t_tables), (T F)(x) = sum_s (L_s' . F(s^-1 x)) R_s is one
product and one matrix product per call, besides the one transport of the
grid values.

A word that lies in the compact lies in the coset K itself, tag (0, 0),
whose representative alpha^0 is the identity, so its residue is the
residue of its read (words._compact_residues), with no matrix of a word.
Each certificate shares its product read with the residues it needs: T's
stencil residues and its adjoint are one read (_t_read), and the residues
of the direct d[0] sum and the certificate of the S_K suffixes are one
read (_sk_read).

Deep shifts are reached by the translation recursion
    f_{n+1} = sum_{w} w . (alpha . f_n)
with w running over the shallow layer transversal being re-exposed by the
shift (alpha beta_K in place of alpha on the step 0 -> 1, which carries
the value v0 of f_0 to the value sigma(beta_K) v0 of f_1); combined with
the (machine-checked) translation equivariance of T, this certifies the
operator identities far beyond the range where the raw two-sum expansion
is computable.  A step whose target cell is within the tag cap is checked
exhaustively on one product read of the prefixes times the representatives
of the source cell, with no function built: the products fill the target
grid once each, and each distinct residue carries the source cell's value
to the target's (translation_recursion_check).
"""

import functools
import itertools
import random

import numpy as np

from . import gfmat
from .errors import (
    ClosureBudgetExceeded,
    CrossCheckFailed,
    InvarianceViolated,
    NotApplicable,
    PrecisionBudgetExceeded,
)
from .fields import memo
from .unitary_group import (
    atom_alpha,
    beta_compact_word,
    iwahori_constants,
    layer_atom,
    layer_coords,
    layer_size,
    layer_transversal,
    reduce_to_gamma,
    word_inverse,
    word_matrix,
)
from .weights import (
    DET_TWIST,
    STEINBERG,
    TRIVIAL,
    BuiltWeight,
    closure,
    gamma_beta,
    gamma_generators,
    gamma_lift_word,
    gamma_lower_generators,
    gamma_upper_generators,
    inverse_rows,
    _entry_products,
)
from .words import (
    _compact_residues,
    _distinct,
    _normalize_words,
    grid_layer_span,
    nf_uak,
    tag_from_coords,
    tag_of_nf,
    word_from_tag,
)

# Not used here: the benchmark's tracer (perfbench/tracer.py) counts calls
# made through induction.nf_kau.
from .words import nf_kau  # noqa: F401

DEFAULT_N_MAX = 5
DEFAULT_TAG_CAP = 30000
CONSTANTS_N_TOP = 3


# ---------------------------------------------------------------------------
# coset normalization


@memo
def coset_normalize(tower, K, word):
    """Canonical tag of the coset word*K plus the compact transport residue.

    The normal form reads word = rep(tag) * k off the matrix of the word,
    with rep(tag) = word_from_tag(tag) and k certified in the compact;
    returns (tag, red(k)), so the generator [word, v] normalizes to
    [rep(tag), sigma(red k) v].  The scalar oracle of the product read
    (words._product_read), for the tests and the benchmark's tracer."""
    nf = nf_uak(tower, K, word)
    return (tag_of_nf(tower, K, nf), reduce_to_gamma(tower, K, nf.k))


# Entries per block of the value transport and of op_T's coefficient
# product (_apply), which bounds their arrays whatever the number of rows:
# _transport_ids passes the weight's action _TRANSPORT_ENTRIES // (9 dim)
# rows at a time, as a principal series classifies each residue of a block
# on its dim cosets, 9 entries each (weights.classify_rows).  Medians of
# five on a 2-CPU host (CPython 3.11), at 16,384, 65,536 and 524,288: in
# op_T(steinberg@K0, f_-1) at q = 3, the transport (6,804 vectors, 30
# residues, dim 27) took 1.1 ms at each, with a traced peak of 0.78 MB, and
# the coefficients 0.84, 0.54 and 0.51 ms, with peaks of 0.2, 0.7 and 2.1
# MB; an op_SK_grid at q = 5 on shifts -2..2 (4,375 vectors, 742 residues,
# dim 125) took 0.085, 0.052 and 0.066 s, with peaks of 2.6, 3.9 and 18.1 MB.
_TRANSPORT_ENTRIES = 65536


def _apply(tw, M, rows):
    """rows M^T, the products M v of the rows v of rows as an (n, m)
    array, with one gfmat.matmul per _TRANSPORT_ENTRIES // M.size rows."""
    step = max(1, _TRANSPORT_ENTRIES // M.size)
    out = np.empty((len(rows), len(M)), dtype=np.uint16)
    for s in range(0, len(rows), step):
        out[s : s + step] = gfmat.matmul(tw, rows[s : s + step], M.T)
    return out


def _transport_ids(weight, ids, residues, vecs, inverse=False):
    """sigma(residues[ids[i]]) v_i for every row i of the (n, dim) array
    vecs, or the inverse residues with inverse, for any (r, 9) array of
    residue rows (a read's ProductRead.residues among them).

    Each distinct (id, row) pair is transported once: the pairs are
    numbered by one gfmat.row_ids over the rows with their id in front,
    which sorts them by id.  The rows in use, residues[used], are inverted
    by one gather (weights.inverse_rows) with inverse, and the pairs go to
    Weight.apply in blocks of _TRANSPORT_ENTRIES // (9 dim) rows."""
    vecs = np.asarray(vecs)
    # the residue id in front, in the narrowest type that holds it
    keyed = np.empty((len(vecs), 1 + vecs.shape[1]), dtype=np.promote_types(
        vecs.dtype, np.min_scalar_type(len(residues))))
    keyed[:, 0] = ids
    keyed[:, 1:] = vecs
    back, first = gfmat.row_ids(keyed)
    rows = vecs[first]
    used, res_of = np.unique(np.asarray(ids)[first], return_inverse=True)
    gammas = np.asarray(residues)[used]
    if inverse:
        gammas = inverse_rows(weight.tower, gammas)
    out = np.empty((len(rows), weight.dim), dtype=np.uint16)
    step = max(1, _TRANSPORT_ENTRIES // (9 * weight.dim))
    for s in range(0, len(rows), step):
        block = slice(s, s + step)
        # the pairs are sorted by residue, so a block's residues are a range
        lo, hi = res_of[block][[0, -1]].tolist()
        out[block] = weight.apply(gammas[lo : hi + 1], res_of[block] - lo,
                                  rows[block])
    return out[back]


def _positions(index, tags):
    """The position index[tag] of every tag of a sequence, -1 for a tag not
    in the dict index, as an intp array."""
    return np.fromiter(map(index.get, tags, itertools.repeat(-1)), np.intp,
                       len(tags))


def _merge(tw, ids, n, rows):
    """Sums of the rows that share an id (0 <= id < n), as an (n, dim)
    array: the r-th row of every id is added by one lookup, for each r up
    to the largest number of rows on one id."""
    out = np.zeros((n, rows.shape[1]), dtype=np.uint16)
    counts = np.bincount(ids, minlength=n)
    rank = np.empty(len(ids), dtype=np.intp)
    rank[np.argsort(ids, kind="stable")] = np.arange(len(ids)) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    by_rank = np.argsort(rank, kind="stable")
    start = 0
    for size in np.bincount(rank):
        sel = by_rank[start : start + size]
        start += size
        at = ids[sel]
        out[at] = tw.plus(out[at], rows[sel])
    return out


@memo(size=len)
def _inverses(tower, words):
    """The inverses of a tuple of words, memoized by the tuple in a table
    bounded by the words it holds: the tails of the point reads (the suffix
    lists of the grid averages) are the same lists from call to call, and
    T's stencil read (_t_read) inverts the same lists twice."""
    return [word_inverse(tower, w) for w in words]


def _point_values(weight, inv_tails, inv_heads, index, stored):
    """Values at the points x t (x-major) of a materialized function
    (InducedFn.values_at), whose value at the representative of a tag is
    the row index[tag] of the (m, dim) array stored, for the tags of the
    dict index (the support), given the inverted tails t^-1 and the
    inverted heads x^-1; an (points, dim) array.  The grid forms are
    evaluated by _cell_images instead, which transports the canonical
    value of each cell once for all the elements of a call.

    The inverses t^-1 x^-1 of all points are read by one _normalize_words
    call, as the product of inv_tails (its heads) and inv_heads (its
    tails): with (x t)^-1 = rep(tag) k and gamma = red(k), the value at x t
    is sigma(gamma^-1) stored[index[tag]], and a point off the support
    costs only its read.  The batch builds each inverted tail once and
    applies each inverted head to it by column operations.  Each distinct
    tag is looked up once (_positions).  The values of the supported points are
    transported by one _transport_ids call, so a residue shared by many
    points is inverted and classified once."""
    read = _normalize_words(weight.tower, weight.K, inv_tails, inv_heads)
    out = np.zeros((len(read.tag_ids), weight.dim), dtype=np.uint16)
    at = _positions(index, read.tag_tuple())[read.tag_ids]
    hit = np.flatnonzero(at >= 0)
    if len(hit):
        out[hit] = _transport_ids(
            weight, read.res_ids[hit], read.residues, stored[at[hit]],
            inverse=True,
        )
    return out


# ---------------------------------------------------------------------------
# induced functions


class InducedFn:
    """Finitely supported equivariant function in normalized form.

    tags is a tuple of distinct coset tags (n, i), the shift cell n and the
    grid index i of the coset in that cell (words.tag_from_coords), and
    data the read-only (len(tags), dim) uint16 array of their values, row
    by row; the element is sum over tags of [rep(tag), value], with
    rep = word_from_tag.  Zero rows are dropped on construction, so the
    tags are the support.  Equality does not depend on the order of the
    tags, and the hash reads only the tag set.  Instances are treated as
    immutable: all operations return new objects."""

    __slots__ = ("weight", "tags", "data")

    def __init__(self, weight, tags, data):
        live = data.any(axis=1)
        if not live.all():
            tags, data = itertools.compress(tags, live), data[live]
        data.flags.writeable = False
        self.weight, self.tags, self.data = weight, tuple(tags), data

    @classmethod
    def zero(cls, weight):
        return cls(weight, (), np.zeros((0, weight.dim), dtype=np.uint16))

    @classmethod
    def _from_words(cls, weight, heads, tails, vals):
        """The sum of the generators [h + t, v] over every tail t and head
        h, with their values as one (words, dim) array in the tail-major
        order of _normalize_words, which reads all the words as a product.
        The values are transported by one _transport_ids call (one matrix
        product per distinct residue) and summed per coset by _merge."""
        tw = weight.tower
        read = _normalize_words(tw, weight.K, heads, tails)
        moved = _transport_ids(weight, read.res_ids, read.residues, vals)
        return cls(weight, read.tag_tuple(),
                   _merge(tw, read.tag_ids, len(read.tag_shifts), moved))

    @classmethod
    def from_raw(cls, weight, pairs):
        """Normalize raw generators [word, value], read once, and merge
        per coset: the product of the words with the single empty tail."""
        words, vecs = [], []
        for word, vec in pairs:
            words.append(word)
            vecs.append(vec)
        vals = np.array(vecs, dtype=np.uint16).reshape(len(vecs), weight.dim)
        return cls._from_words(weight, words, ((),), vals)

    @classmethod
    def generator(cls, weight, word, vec):
        return cls.from_raw(weight, [(tuple(word), vec)])

    # -- linear structure ----------------------------------------------------

    def _require_same_module(self, other):
        if self.weight is not other.weight:
            raise NotApplicable("operands live in different induced modules")

    def add(self, other):
        """The tags of self, then the new tags of other, with the rows of
        both summed per tag by one _merge."""
        self._require_same_module(other)
        n = len(self.tags)
        index = dict(zip(self.tags, range(n)))
        ids = [index.setdefault(tag, len(index)) for tag in other.tags]
        ids = np.concatenate([np.arange(n), np.array(ids, dtype=np.intp)])
        rows = np.concatenate([self.data, other.data])
        return InducedFn(self.weight, tuple(index),
                         _merge(self.weight.tower, ids, len(index), rows))

    def neg(self):
        return InducedFn(self.weight, self.tags,
                         self.weight.tower.neg[self.data])

    def sub(self, other):
        return self.add(other.neg())

    def scale(self, s):
        if s == 0:
            return InducedFn.zero(self.weight)
        return InducedFn(self.weight, self.tags,
                         self.weight.tower.times(s, self.data))

    def translates(self, prefixes):
        """The sum over the prefix words p of the left translates p . f,
        read as the product of the prefixes (heads) and the representatives
        of the tags of f (tails)."""
        tw = self.weight.tower
        K = self.weight.K
        return InducedFn._from_words(
            self.weight,
            prefixes,
            [word_from_tag(tw, K, tag) for tag in self.tags],
            np.repeat(self.data, len(prefixes), axis=0),
        )

    def g_act(self, word):
        """Left translation by the element of the word: g.[x, v] = [g x, v]."""
        return self.translates([tuple(word)])

    def is_zero(self):
        return not self.tags

    def __eq__(self, other):
        """Same module, same tag set, and the same row on every tag: the
        tags of self are looked up among those of other, in one pass."""
        if not isinstance(other, InducedFn):
            return NotImplemented
        n = len(other.tags)
        if self.weight is not other.weight or len(self.tags) != n:
            return False
        at = _positions(dict(zip(other.tags, range(n))), self.tags)
        return bool((at >= 0).all()) and np.array_equal(self.data,
                                                         other.data[at])

    def __hash__(self):
        return hash((self.weight.K, frozenset(self.tags)))

    # -- inspection ------------------------------------------------------------

    def shifts(self):
        """Sorted list of occupied shift cells."""
        return sorted({tag[0] for tag in self.tags})

    def values_at(self, heads, tails=((),)):
        """Values at the points x t, for x in heads and t in tails (x-major;
        zero off the support), read together; an (points, dim) array."""
        tw = self.weight.tower
        return _point_values(
            self.weight, _inverses(tw, tuple(tails)),
            [word_inverse(tw, x) for x in heads],
            dict(zip(self.tags, range(len(self.tags)))), self.data,
        )

    def eval_at(self, word):
        """Value at the point of the word (zero off the support), a (dim,)
        array."""
        return self.values_at([tuple(word)])[0]

    def __repr__(self):
        return "InducedFn(%s, tags=%d, shifts=%s)" % (
            self.weight.label,
            len(self.tags),
            self.shifts(),
        )


# ---------------------------------------------------------------------------
# the canonical invariant grid


def grid_count(tower, K, n):
    cnt = 1
    for k, _ in grid_layer_span(tower, K, n):
        cnt *= layer_size(tower, k)
    return cnt


def grid_tags(tower, K, n):
    """All canonical tags of shift cell n, in grid order: (n, i) for i
    below grid_count."""
    return zip(itertools.repeat(n), range(grid_count(tower, K, n)))


def grid_value(weight, n):
    """The canonical value at the cell point, a read-only (dim,) array: v0
    for n <= 0, the involution translate of v0 for n >= 1."""
    return _grid_value(weight, n >= 1)


@memo
def _grid_value(weight, positive):
    """The (dim,) array of grid_value, read-only: it is shared.  Certified
    to make every f_n on its side of zero pro-unipotent invariant.

    The tags of cell n are the orbit of the coset alpha^n K under the
    pro-unipotent radical I1, so f_n is the sum over I1/Stab of the
    translates u . [alpha^n, w], Stab the stabilizer of that coset.  Such
    an orbit sum is I1-invariant iff [alpha^n, w] is Stab-invariant, that
    is iff w is fixed by the residue image of alpha^-n Stab alpha^n: the
    upper unipotent group for n <= 0, the lower one for n >= 1.  So w is
    checked against the generators of that group (gamma_upper_generators,
    gamma_lower_generators), in one transport; InvarianceViolated
    otherwise."""
    tw = weight.tower
    v = weight.v0()
    gens = gamma_upper_generators(tw, weight.K)
    if positive:
        v = gfmat.matvec(tw, weight.matrix(gamma_beta(tw, weight.K)), v)
        gens = gamma_lower_generators(tw, weight.K)
    rows = np.array([g.m for g in gens], dtype=np.uint16)
    moved = _transport_ids(weight, np.arange(len(rows)), rows,
                           np.broadcast_to(v, (len(rows), weight.dim)))
    if (moved != v).any():
        raise InvarianceViolated(
            "the canonical value of the %s cells is not fixed by the "
            "stabilizer of their cell point" % ("positive" if positive
                                                else "nonpositive"))
    v.flags.writeable = False
    return v


def _depth_guard(n):
    if abs(n) > DEFAULT_N_MAX:
        raise PrecisionBudgetExceeded(
            "shift %d exceeds the configured budget DEFAULT_N_MAX=%d"
            % (n, DEFAULT_N_MAX)
        )


def f_basis(weight, n, tag_cap=DEFAULT_TAG_CAP):
    """The canonical invariant function of shift cell n, materialized.

    Every coordinate combination of the cell grid is one coset tag; all tags
    carry the same canonical value, so the function is assembled without any
    normalization work, its values one read-only broadcast of that value.
    The depth and cap checks run on every call; the support is exact by
    construction, and the invariance is certified on the value
    (_grid_value)."""
    tw = weight.tower
    _depth_guard(n)
    cnt = grid_count(tw, weight.K, n)
    if cnt > tag_cap:
        raise ClosureBudgetExceeded(
            "shift %d grid has %d cosets, above the materialization cap %d; "
            "use the grid form" % (n, cnt, tag_cap)
        )
    return _f_basis(weight, n)


@memo
def _f_basis(weight, n):
    tags = tuple(grid_tags(weight.tower, weight.K, n))
    w = grid_value(weight, n)
    return InducedFn(weight, tags, np.broadcast_to(w, (len(tags), weight.dim)))


def is_pro_iwahori_invariant(f, atoms):
    """Whether left translation by each atom fixes f, exactly: a . f == f
    on the whole support."""
    return all(f.translates([(a,)]) == f for a in atoms)


# ---------------------------------------------------------------------------
# the spherical operator (explicit coset expansion)


def _t_firsts(tower, K):
    """The first family of T's stencil, the words u = (ua, ub) with ua and
    ub in the layers n_K and n_K + 1."""
    n_K, _, _ = iwahori_constants(tower, K)
    return [(ua, ub) for ua in layer_transversal(tower, n_K)
            for ub in layer_transversal(tower, n_K + 1)]


def _t_read(tower, K, suffixes):
    """The one product read of T's stencil, shared by _t_stencil and
    _t_adjoint: the words of the compact whose residues the stencil
    carries (the inverses u^-1 of the first family, then beta_K), then the
    inverted suffixes s^-1, then the suffixes s, as one plain list.
    Returns the read and the number of compact words; _t_adjoint passes
    the suffixes of _t_stencil, so both read the same record, and both
    take the inverses from the same _inverses records."""
    compact = _inverses(tower, tuple(_t_firsts(tower, K)))
    compact = compact + [beta_compact_word(K)]
    inverses = _inverses(tower, tuple(suffixes))
    return (_normalize_words(tower, K, compact + inverses + list(suffixes)),
            len(compact))


@memo
def _t_stencil(tower, K):
    """Suffix words and compact residues of the two-sum expansion of T[1, v]:
    the N_{n_K}/N_{n_K+2} sum of [u alpha^-1, j sigma(u)^-1 v] and the
    N_{n_K+1}/N_{n_K+2} sum of [beta_K u alpha^-1, j sigma(beta_K) v].
    Returns the list of suffixes and the read-only (suffixes, 9) array of
    their residue rows, those of the inverses u^-1, then beta_K's (row m - 1
    of the compact words) for the second family, from T's one stencil read
    (_t_read, _compact_residues)."""
    n_K, _, _ = iwahori_constants(tower, K)
    al = (atom_alpha(-1),)
    bw = beta_compact_word(K)
    firsts = _t_firsts(tower, K)
    suffixes = [u + al for u in firsts] + [
        bw + (ub,) + al for ub in layer_transversal(tower, n_K + 1)]
    read, m = _t_read(tower, K, suffixes)
    compact = _compact_residues(read, slice(0, m))
    residues = compact[np.minimum(np.arange(len(suffixes)), m - 1)]
    residues.flags.writeable = False
    return suffixes, residues


def _ell_rows(weight, rows):
    """sigma(g)^T ell for every residue row g of an (n, 9) array, where
    j = v0 ell^T (Weight.j_factors), as a read-only (n, dim) array.  Entry
    k is ell . sigma(g) e_k: one Weight.apply per distinct g moves the
    identity rows, and one gfmat.matvec dots them with ell."""
    ids, first = gfmat.row_ids(rows)
    eye, at = gfmat.eye(weight.dim), np.zeros(weight.dim, dtype=np.intp)
    _, ell = weight.j_factors()
    out = np.array([
        gfmat.matvec(weight.tower, weight.apply(g[None], at, eye), ell)
        for g in rows[first]], dtype=np.uint16)[ids]
    out.flags.writeable = False
    return out


@memo
def _t_stencil_rows(weight):
    """The table L of op_T, one row L_s = sigma(g_s)^T ell per stencil
    suffix s with residue g_s (_t_stencil)."""
    return _ell_rows(weight, _t_stencil(weight.tower, weight.K)[1])


def op_T(weight, f):
    """The spherical operator through its coset expansion, materialized:
    the product of the tag representatives of f (heads) and the stencil
    suffixes s (tails), the word rep(tag) s carrying j sigma(g_s) f(tag) =
    (L_s . f(tag)) v0 (_t_stencil_rows), all coefficients one product
    (_apply).  The oracle of op_T_grid."""
    if f.weight is not weight:
        raise NotApplicable("operator weight differs from the function's")
    tw = weight.tower
    K = weight.K
    coeffs = _apply(tw, _t_stencil_rows(weight), f.data)
    return InducedFn._from_words(
        weight,
        [word_from_tag(tw, K, tag) for tag in f.tags],
        _t_stencil(tw, K)[0],
        tw.times(coeffs.T.reshape(-1, 1), weight.j_factors()[0]),
    )


def op_T_sigma(weight, f):
    """The normalized spherical operator: T + 1 on determinant-type weights,
    T on everything else."""
    out = op_T(weight, f)
    if weight.dim == 1 and weight.kind in (TRIVIAL, DET_TWIST):
        return out.add(f)
    return out


# ---------------------------------------------------------------------------
# averaging operators, materialized route


def _average(weight, f, layers, suffixes, opname):
    """The translates of f summed over the suffixes, once f is fixed by the
    atom layer_transversal(k)[1] of each layer (is_pro_iwahori_invariant):
    a necessary condition, not a certificate of the invariance."""
    if f.weight is not weight:
        raise NotApplicable("operator weight differs from the function's")
    tw = weight.tower
    atoms = [layer_transversal(tw, k, prime=prime)[1] for k, prime in layers]
    if not is_pro_iwahori_invariant(f, atoms):
        raise InvarianceViolated(
            "%s needs the unipotent invariance of its input" % opname
        )
    return f.translates(suffixes)


def op_SK(weight, f):
    """Averaging to the upper-invariants: sum over the first upper layer of
    u . beta_K . f.  Requires invariance under the lower layers m_K and
    m_K + 1, checked on one atom of each only (_average)."""
    tw = weight.tower
    _, m_K, _ = iwahori_constants(tw, weight.K)
    layers = [(m_K, True), (m_K + 1, True)]
    return _average(weight, f, layers, _sk_suffixes(tw, weight.K), "op_SK")


def op_Sminus(weight, f):
    """Averaging to the lower-invariants: sum over the first lower layer of
    u' . beta_K . alpha^-1 . f.  Requires invariance under the upper layers
    n_K and n_K + 1, checked on one atom of each only (_average)."""
    tw = weight.tower
    n_K, _, _ = iwahori_constants(tw, weight.K)
    layers = [(n_K, False), (n_K + 1, False)]
    suffixes = _sminus_suffixes(tw, weight.K)
    return _average(weight, f, layers, suffixes, "op_Sminus")


# ---------------------------------------------------------------------------
# grid form of the invariants


class GridElement:
    """Invariant element in canonical-basis coordinates {shift: coefficient}.

    Evaluation reads the coset of the inverted point, x^-1 = rep(tag) k with
    T = tag[0]: F(x) = sigma(red k)^-1 . coeff(T) . grid_value(T), the
    mirrored normal form x = k^-1 alpha^-T u^-1 without forming it; no
    materialization.  values_at, values_at_inverses and eval_at are the
    one-element case of the list-form evaluation of the grid operators
    (_cell_images), with no reduction: many points, one batched coset
    read."""

    __slots__ = ("weight", "coeffs")

    def __init__(self, weight, coeffs):
        self.weight = weight
        self.coeffs = {n: c for n, c in coeffs.items() if c}

    def values_at(self, heads, tails=((),)):
        """Values at the points x t, for x in heads and t in tails (x-major;
        zero off the support), read together; an (points, dim) array."""
        tw = self.weight.tower
        return self.values_at_inverses(
            _inverses(tw, tuple(tails)), [word_inverse(tw, x) for x in heads]
        )

    def values_at_inverses(self, inv_tails, inv_heads):
        """values_at from the inverted words: the values at the points x t,
        x-major, whose inverses are t^-1 in inv_tails and x^-1 in
        inv_heads."""
        return _cell_images(self.weight, [self], inv_tails, inv_heads,
                            lambda by_cell: by_cell)[0]

    def eval_at(self, word):
        """Value at the point of the word (zero off the support), a (dim,)
        array."""
        return self.values_at([tuple(word)])[0]

    def add(self, other):
        if self.weight is not other.weight:
            raise NotApplicable("operands live in different induced modules")
        tw = self.weight.tower
        out = dict(self.coeffs)
        for n, c in other.coeffs.items():
            out[n] = tw.a(out.get(n, 0), c)
        return GridElement(self.weight, out)

    def scale(self, s):
        tw = self.weight.tower
        return GridElement(
            self.weight, {n: tw.m_(s, c) for n, c in self.coeffs.items()}
        )

    def __eq__(self, other):
        if not isinstance(other, GridElement):
            return NotImplemented
        return self.weight is other.weight and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.weight.K, frozenset(self.coeffs.items())))

    def __repr__(self):
        return "GridElement(%s, %r)" % (self.weight.label, self.coeffs)

    def to_induced(self):
        out = InducedFn.zero(self.weight)
        for n, c in sorted(self.coeffs.items()):
            out = out.add(f_basis(self.weight, n).scale(c))
        return out

    @classmethod
    def from_induced(cls, f):
        """Exact conversion; CrossCheckFailed unless f is exactly a
        combination of the canonical basis functions (full support grids,
        canonical values up to one scalar per shift)."""
        weight = f.weight
        tw = weight.tower
        # with return_inverse, np.unique does not import numpy.ma
        cells, cell_of = np.unique(
            np.array([tag[0] for tag in f.tags], dtype=np.intp),
            return_inverse=True)
        coeffs = {}
        for i, t in enumerate(cells.tolist()):
            rows = f.data[cell_of == i]
            coeffs[t] = c = _match_grid_coefficient(weight, t, rows[0])
            if len(rows) != grid_count(tw, weight.K, t):
                raise CrossCheckFailed(
                    "shift %d support is not the full grid" % t
                )
            if (rows != tw.times(c, grid_value(weight, t))).any():
                raise CrossCheckFailed(
                    "shift %d values are not constant on the grid" % t
                )
        return cls(weight, coeffs)


def f_grid(weight, n):
    """The canonical invariant function of shift cell n in grid form, its
    invariance certified on the value (_grid_value)."""
    _depth_guard(n)
    grid_value(weight, n)
    return GridElement(weight, {n: 1})


def _match_grid_coefficient(weight, n, val):
    """The scalar c with val = c * grid_value(n); CrossCheckFailed if the
    value is off the canonical line."""
    tw = weight.tower
    w = grid_value(weight, n)
    p = int(np.flatnonzero(w)[0])
    c = tw.m_(int(val[p]), tw.i_(int(w[p])))
    if not np.array_equal(val, tw.times(c, w)):
        raise CrossCheckFailed(
            "value at the shift-%d cell point is off the canonical line" % n
        )
    return c


def _cell_images(weight, elems, inv_tails, inv_heads, image):
    """The images of the grid elements elems of one weight under a map
    image that is linear in their values at the points x t (x-major),
    whose inverses are t^-1 in inv_tails and x^-1 in inv_heads; a list of
    arrays, one per element.

    The inverses t^-1 x^-1 of all points are read by one _normalize_words
    call, as the product of inv_tails (its heads) and inv_heads (its
    tails), whatever the elements.  With (x t)^-1 = rep(tag) k and
    gamma = red(k), f_n takes the value sigma(gamma^-1) grid_value(n) at
    x t if the tag lies in cell n, and zero otherwise.  The canonical
    values of the points whose cell is in the support of some element are
    transported by one _transport_ids call, and split by cell into the
    (cells, points, dim) array by_cell of the values of each f_n, the
    cells of the supports in increasing order.  image(by_cell) reduces
    each cell to the image of f_n, a (cells, ...) array, and the image of
    an element is sum_n c_n image_n: the work per element is on the
    images, not on the points."""
    tw = weight.tower
    read = _normalize_words(tw, weight.K, inv_tails, inv_heads)
    cells = sorted(set().union(*(elem.coeffs for elem in elems)))
    pos = dict(zip(cells, range(len(cells))))
    at = _positions(pos, read.tag_shifts.tolist())[read.tag_ids]
    hit = np.flatnonzero(at >= 0)
    by_cell = np.zeros((len(cells), len(read), weight.dim), dtype=np.uint16)
    if len(hit):
        canon = np.array([grid_value(weight, n) for n in cells],
                         dtype=np.uint16)
        by_cell[at[hit], hit] = _transport_ids(
            weight, read.res_ids[hit], read.residues, canon[at[hit]],
            inverse=True,
        )
    images = image(by_cell)
    out = []
    for elem in elems:
        acc = np.zeros(images.shape[1:], dtype=np.uint16)
        for n, c in elem.coeffs.items():
            acc = tw.plus_times(acc, c, images[pos[n]])
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# averaging operators, grid route


def _suffixes_certified(read, part, cell, count, opname):
    """Certify that the words of the slice part of a product read land in
    count pairwise distinct cosets of the cell: so they are a transversal
    of that many cosets, and none is dropped or repeated.  CrossCheckFailed
    otherwise."""
    tag_ids = read.tag_ids[part]
    cells = read.tag_shifts[_distinct(tag_ids)]
    if (len(tag_ids) != count or len(cells) != count
            or (cells != cell).any()):
        raise CrossCheckFailed(
            "the %s suffixes are not a transversal of %d cosets of cell %d"
            % (opname, count, cell))


def _sk_read(tower, K, words):
    """The one product read of the words u beta_K of _sk_suffixes with the
    tails () and alpha: its first len(words) words lie in the compact and
    give the residues of the d[0] sum of constants(), and the words
    u beta_K alpha after them certify the suffixes."""
    return _normalize_words(tower, K, words, [(), (atom_alpha(1),)])


@memo
def _sk_suffixes(tower, K):
    """The words u beta_K, u in the first upper layer: the prefixes of
    op_SK and the point tails of op_SK_grid, both read as products.
    Certified once per compact: the words u beta_K alpha land in
    layer_size(n_K) distinct cosets of cell -1 (_sk_read)."""
    n_K, _, _ = iwahori_constants(tower, K)
    bw = beta_compact_word(K)
    words = [(u,) + bw for u in layer_transversal(tower, n_K)]
    _suffixes_certified(_sk_read(tower, K, words), slice(len(words), None),
                        -1, layer_size(tower, n_K), "S_K")
    return words


@memo
def _sminus_suffixes(tower, K):
    """The words u' beta_K alpha^-1, u' in the first lower layer, for both
    routes of S_- as _sk_suffixes is for S_K.  Certified once per compact,
    by one _normalize_words read: they land in distinct cosets that fill
    cell 1, grid_count(1) of them."""
    _, m_K, _ = iwahori_constants(tower, K)
    tail = beta_compact_word(K) + (atom_alpha(-1),)
    words = [(u,) + tail for u in layer_transversal(tower, m_K, prime=True)]
    _suffixes_certified(_normalize_words(tower, K, words), slice(None), 1,
                        grid_count(tower, K, 1), "S_-")
    return words


@memo
def _delta_words(tower, K):
    """Right-coset transversal of the basic double cell over the compact:
    the unit group times alpha covers it with one coset per shallow lower
    class, because conjugating lower atoms toward the cell shifts them out
    of the compact exactly at the first layer (all deeper layers, the upper
    side, and the torus are absorbed)."""
    _, m_K, _ = iwahori_constants(tower, K)
    return [(u,) for u in layer_transversal(tower, m_K, prime=True)]


def _sk_window(shifts):
    """Support window of the upper averaging: the input support times the
    compact stays inside the same double cells, whose invariant cells carry
    labels +-n."""
    out = set()
    for n in shifts:
        out.add(n)
        out.add(-n)
    return sorted(out)


def _cells_of(shifts):
    """The cells +-l over the labels l of the double cells of tags in the
    cells shifts (an array): a double cell of label l meets the invariant
    grid only in the two cells +-l."""
    return sorted({s * t for t in shifts.tolist() for s in (1, -1)})


def _sminus_window(tower, K, shifts):
    """Certified support window of the lower averaging.  The output support
    lies in the product of each input cell closure with the basic double
    cell; splitting the latter over the delta transversal, each piece
    K alpha^-n delta alpha K is a single double cell, whose label is read
    exactly by one _normalize_words call (_cells_of)."""
    post = (atom_alpha(1),)
    words = [
        (atom_alpha(-n),) + d + post
        for n in shifts
        for d in _delta_words(tower, K)
    ]
    return _cells_of(_normalize_words(tower, K, words).tag_shifts)


def _one_weight(elems):
    """The weight of a list of grid elements; NotApplicable if the list is
    empty or mixes induced modules, which never share a call."""
    if not elems:
        raise NotApplicable("no grid element to apply the operator to")
    weight = elems[0].weight
    if any(elem.weight is not weight for elem in elems):
        raise NotApplicable("operands live in different induced modules")
    return weight


def _read_grids(weight, elems, windows, points, evaluate):
    """Reconstruct the images of an operator on the grid forms elems, each
    from its values at the cell points alpha^-j of its certified window.

    Faithful because an image is invariant and an invariant function
    supported on the window cells vanishing at every cell point is
    identically zero.  The input is invariant, its values certified by
    _grid_value, and each operator is G-equivariant, averaged over a
    certified transversal (_suffixes_certified, and T's stencil in
    _t_adjoint).

    All elements are evaluated at the same points, a list of j that covers
    every window: evaluate(elems, heads) gives the images of all the
    elements at the heads alpha^-j, one (points, dim) array each, from one
    product read and one transport (_cell_images).  Each element keeps the
    coefficients at the points of its own window; a nonzero value at a
    point outside it raises CrossCheckFailed."""
    heads = [(atom_alpha(-j),) for j in points]
    out = []
    for elem, window, values in zip(elems, windows, evaluate(elems, heads)):
        coeffs = {}
        for j, val in zip(points, values):
            if not val.any():
                continue
            if j not in window:
                raise CrossCheckFailed(
                    "the image is nonzero at the shift-%d cell point, "
                    "outside its certified window" % j)
            coeffs[j] = _match_grid_coefficient(weight, j, val)
        out.append(GridElement(weight, coeffs))
    return out


def _op_grids(weight, elems, suffixes, windows):
    """An averaging operator on the grid forms, read back by _read_grids at
    the union of their windows: the values at the |points| |suffixes|
    points x t are one _cell_images call for all the elements, and the
    image of each f_n at x is the sum of its values over the suffixes t,
    one gfmat.sum_rows for all the cells."""
    tw = weight.tower

    def evaluate(elems, heads):
        def image(by_cell):
            # (suffix, cell, point, dim): the sum over the suffixes
            return gfmat.sum_rows(tw, by_cell.reshape(
                len(by_cell), len(heads), len(suffixes), weight.dim
            ).transpose(2, 0, 1, 3))

        return _cell_images(weight, elems, _inverses(tw, tuple(suffixes)),
                            [word_inverse(tw, x) for x in heads], image)

    points = sorted(set().union(*windows))
    return _read_grids(weight, elems, windows, points, evaluate)


def op_SK_grids(elems):
    """Upper averaging on a list of grid elements of one weight, read at
    the union of their windows."""
    weight = _one_weight(elems)
    windows = [_sk_window(sorted(elem.coeffs)) for elem in elems]
    return _op_grids(weight, elems, _sk_suffixes(weight.tower, weight.K),
                     windows)


def op_Sminus_grids(elems):
    """Lower averaging on a list of grid elements of one weight, read at
    the union of their windows."""
    weight = _one_weight(elems)
    tw, K = weight.tower, weight.K
    windows = [_sminus_window(tw, K, sorted(elem.coeffs)) for elem in elems]
    return _op_grids(weight, elems, _sminus_suffixes(tw, K), windows)


def op_SK_grid(elem):
    """Upper averaging on the grid form: op_SK_grids of the list of one
    element."""
    return op_SK_grids([elem])[0]


def op_Sminus_grid(elem):
    """Lower averaging on the grid form: op_Sminus_grids of the list of one
    element."""
    return op_Sminus_grids([elem])[0]


# ---------------------------------------------------------------------------
# the spherical operator, grid route


@memo
def _t_adjoint(tower, K):
    """The stencil of T read from the other side: (T F)(x) is the sum over
    the suffixes s of sigma(r_s) j sigma(g_s') F(s^-1 x), where s' is the
    suffix with s'K = s^-1 K, g_s' its stencil residue, and r_s = red(s s').

    T[1, v] is x -> phi(x) v with phi(k x k') = sigma(k) phi(x) sigma(k')
    and phi(s'^-1) = j sigma(g_s'), since [s', w] takes the value w at s'^-1;
    by equivariance (T F)(x) = sum_s phi(s) F(s^-1 x), s running over the
    cosets of the double coset.  With s^-1 = rep k1 and s' = rep k2,
    s = k1^-1 k2 s'^-1, so phi(s) = sigma(gamma1^-1 gamma2) j sigma(g_s').
    Every suffix is u alpha^-1 with u in the compact, so every s^-1 K is
    the same coset alpha K and s' is one suffix for all s.

    The words s^-1 and s are read with the residues of _t_stencil, as one
    product read (_t_read).  The stencil is certified exactly: its cosets
    must be distinct, lie in the cells +-1 and number grid_count(1) +
    grid_count(-1).  As every suffix lies in the double coset and the
    double coset lies in the cells +-1, the stencil is then the whole
    double coset.  Every s^-1 must land in a stencil coset.
    CrossCheckFailed otherwise.  Returns (partner, r), read-only: the index
    in _t_stencil of each s', and the (suffixes, 9) rows r_s = gamma1^-1
    gamma2, one array product (inverse_rows, _entry_products).  At q = 3
    and 5 every s' is one suffix, and the r_s take q^3 + 1 values at K0 and
    q + 1 at K1."""
    suffixes, _ = _t_stencil(tower, K)
    n = len(suffixes)
    read, m = _t_read(tower, K, suffixes)
    every = read.tag_tuple()
    tags = [every[t] for t in read.tag_ids[m:].tolist()]
    by_tag = dict(zip(tags[n:], range(n)))
    cells = grid_count(tower, K, 1) + grid_count(tower, K, -1)
    if (len(by_tag) != n or n != cells
            or any(abs(tag[0]) != 1 for tag in by_tag)):
        raise CrossCheckFailed("the stencil is not the double coset of T")
    partner = _positions(by_tag, tags[:n])
    if (partner < 0).any():
        raise CrossCheckFailed("the inverted stencil leaves the stencil")
    gammas = read.residues[read.res_ids[m:]]
    r = _entry_products(tower, inverse_rows(tower, gammas[:n]).T,
                        gammas[n:][partner].T, range(9)).T
    partner.flags.writeable = r.flags.writeable = False
    return partner, r


def _t_reach(shifts):
    """R = 1 + max |n| over the shifts (1 for none): the image of T on the
    cells n, |n| <= R - 1, lies in the cells -R..R."""
    return 1 + max(map(abs, shifts), default=0)


def _t_rows(tower, K, reach):
    """The product read of the heads alpha^j, j = -reach..reach in that
    order, and T's stencil suffixes s.  The words alpha^n s give the window
    of T on cell n, |n| < reach (_t_window), and the words alpha^j s are the
    inverses of the points s^-1 alpha^-j at which op_T_grids reads its
    input."""
    heads = [(atom_alpha(j),) for j in range(-reach, reach + 1)]
    return _normalize_words(tower, K, heads, _t_stencil(tower, K)[0])


def _t_window(tower, K, shifts, reach=None):
    """Certified support window of T.  The image of a function on cell n
    lies in the double cells K rep(tag) s K = K alpha^n s K over the stencil
    suffixes s (the layer atoms of rep(tag) lie in the compact).  Their
    labels are read off the rows alpha^n of _t_rows(tower, K, R), with
    R = _t_reach(shifts) unless reach is given (_cells_of): op_T_grids
    passes the R of all its elements, so that its windows and its values
    come from one read."""
    reach = _t_reach(shifts) if reach is None else reach
    read = _t_rows(tower, K, reach)
    rows = read.tag_ids.reshape(-1, 2 * reach + 1)
    used = _distinct(rows[:, [n + reach for n in shifts]].ravel())
    return _cells_of(read.tag_shifts[used])


@memo
def _t_tables(weight):
    """The two tables of op_T_grid, one row per adjoint suffix s
    (_t_adjoint), as read-only (suffixes, dim) arrays: L_s = sigma(g_s')^T
    ell and R_s = sigma(r_s) v0, where j = v0 ell^T (Weight.j_factors).
    Then sigma(r_s) j sigma(g_s') F = (L_s . F) R_s, so
        (T F)(x) = sum_s (L_s . F(s^-1 x)) R_s.
    L is _ell_rows of the g_s' alone (one distinct g_s' at q = 3 and 5, of
    q^3 + 1 stencil residues at K0), R one transport of v0 by the distinct
    r_s (gfmat.row_ids)."""
    tw, K = weight.tower, weight.K
    partner, r = _t_adjoint(tw, K)
    ids, first = gfmat.row_ids(r)
    v0_rows = _transport_ids(weight, ids, r[first], np.broadcast_to(
        weight.j_factors()[0], (len(r), weight.dim)))
    v0_rows.flags.writeable = False
    return _ell_rows(weight, _t_stencil(tw, K)[1][partner]), v0_rows


def op_T_grids(elems):
    """The spherical operator on a list of grid elements of one weight,
    read back by _read_grids on their certified windows (_t_window).

    With R = _t_reach over all their shifts, the windows and the values
    are one product read (_t_rows): the values f_n(s^-1 x) at the points
    x = alpha^-j, j = -R..R, and the adjoint suffixes s (_t_adjoint) come
    from one _cell_images call for all the elements, the product of the
    inverted points and the suffixes s, as a (cell, suffix, point, dim)
    array.  A window beyond -R..R would widen R and read the points again.
    With the tables of the weight (_t_tables), the coefficients
    c[n, s, x] = L_s . f_n(s^-1 x) are one product and one sum over dim
    (gfmat.sum_rows), and the images (T f_n)(x) = sum_s c[n, s, x] R_s of
    all the cells one gfmat.matmul; the values of a call are transported
    once, by _cell_images."""
    weight = _one_weight(elems)
    tw, K = weight.tower, weight.K
    suffixes, _ = _t_stencil(tw, K)
    ell_rows, v0_rows = _t_tables(weight)
    reach = _t_reach([n for elem in elems for n in elem.coeffs])
    windows = [_t_window(tw, K, sorted(elem.coeffs), reach) for elem in elems]
    reach = max([reach] + [abs(j) for window in windows for j in window])

    def evaluate(elems, heads):
        def image(by_cell):
            k, n = len(by_cell), len(heads)
            values = by_cell.reshape(k, len(suffixes), n, weight.dim)
            c = gfmat.sum_rows(tw, tw.times(ell_rows.T[:, None, :, None],
                                            values.transpose(3, 0, 1, 2)))
            rows = c.transpose(0, 2, 1).reshape(k * n, len(suffixes))
            return gfmat.matmul(tw, rows, v0_rows).reshape(k, n, weight.dim)

        return _cell_images(weight, elems,
                            [word_inverse(tw, x) for x in heads], suffixes,
                            image)

    return _read_grids(weight, elems, windows, range(-reach, reach + 1),
                       evaluate)


def op_T_grid(elem):
    """The spherical operator on the grid form: op_T_grids of the list of
    one element."""
    return op_T_grids([elem])[0]


# ---------------------------------------------------------------------------
# translation recursion between neighbouring grids


def translation_prefixes(tower, K, n_from, direction):
    """Transversal words effecting one grid step away from zero:
    f_{n_from + direction} = sum over these prefixes of prefix . f_{n_from}.

    Shifting by alpha^{+-1} pushes the occupied layers two deeper; the
    re-exposed shallow layers are recovered by their transversal, and the
    product transversal of a two-step filtration quotient is the product of
    the layer transversals.  The prefixes of the step 0 -> 1 end in beta_K,
    which lies in the compact and carries the value v0 of f_0 to that of
    f_1 (grid_value): p beta_K . [1, v0] = [p, sigma(beta_K) v0]."""
    n_K, m_K, _ = iwahori_constants(tower, K)
    if direction == 1:
        if n_from < 0:
            raise NotApplicable("positive steps start at nonnegative shifts")
        shift = (atom_alpha(1),)
        if n_from == 0:
            layers = [(m_K, True)]
            shift += beta_compact_word(K)
        else:
            layers = [(m_K, True), (m_K + 1, True)]
    elif direction == -1:
        if n_from > 0:
            raise NotApplicable("negative steps start at nonpositive shifts")
        shift = (atom_alpha(-1),)
        layers = [(n_K, False), (n_K + 1, False)]
    else:
        raise NotApplicable("direction must be +-1")
    transversals = [
        layer_transversal(tower, k, prime=prime) for k, prime in layers
    ]
    return [tuple(combo) + shift for combo in itertools.product(*transversals)]


def translation_recursion_check(
    weight,
    n_from,
    direction,
    tag_cap=DEFAULT_TAG_CAP,
    sample=64,
    seed=2026,
):
    """Certify f_{n_from+direction} = sum_prefix prefix . f_{n_from}.

    Exhaustive whenever the target grid is materializable: the products
    prefix + rep(tag), over the prefixes and the tags of cell n_from, are
    read as one product, and (i) every product lies in cell target, (ii)
    they land in cnt_target distinct cosets, as many as there are products,
    so they fill the target grid once each, and (iii) every distinct
    residue of the read carries the canonical value w_from of cell n_from
    to the value w of cell target.  Given (i) and (ii), (iii) is the
    equality of the two sides as functions: the left side's value on each
    target coset is sigma(residue) w_from.  Beyond the cap the identity is
    certified by the transversal-product decomposition: (i) the coset
    counts match exactly, (ii) the diagonal-shift conjugation carries every
    source-layer atom exactly onto the same-coordinate atom two layers
    deeper, so each prefix+representative word IS the canonical
    representative word of a distinct target tag (a coordinate bijection),
    and (iii) sampled prefix*representative products normalize onto the
    target grid with the canonical value.  Returns an evidence dict."""
    tw = weight.tower
    K = weight.K
    target = n_from + direction
    _depth_guard(target)
    prefixes = translation_prefixes(tw, K, n_from, direction)
    cnt_from = grid_count(tw, K, n_from)
    cnt_target = grid_count(tw, K, target)
    if len(prefixes) * cnt_from != cnt_target:
        raise CrossCheckFailed("transversal size does not match the grids")
    evidence = {
        "from": n_from,
        "target": target,
        "prefixes": len(prefixes),
        "target_cosets": cnt_target,
    }
    w = grid_value(weight, target)
    w_from = grid_value(weight, n_from)
    if cnt_target <= tag_cap:
        reps = [word_from_tag(tw, K, tag) for tag in grid_tags(tw, K, n_from)]
        read = _normalize_words(tw, K, prefixes, reps)
        step = "translation recursion %d -> %d" % (n_from, target)
        if (read.tag_shifts != target).any():
            raise CrossCheckFailed("%s: a product escapes the target cell"
                                   % step)
        if len(read.tag_shifts) != cnt_target:
            raise CrossCheckFailed(
                "%s: the products land in %d cosets, not the %d of the "
                "target grid" % (step, len(read.tag_shifts), cnt_target))
        r = len(read.residues)
        moved = _transport_ids(weight, np.arange(r), read.residues,
                               np.broadcast_to(w_from, (r, weight.dim)))
        if (moved != w).any():
            raise CrossCheckFailed(
                "%s: a residue moves the canonical value off the target's"
                % step)
        evidence["mode"] = "exhaustive"
        return evidence
    # certificate mode
    if (_normalize_words(tw, K, prefixes).tag_shifts != direction).any():
        raise CrossCheckFailed("prefix escapes the first shift cell")
    # conjugation-shift identity: alpha^d a(k, c) alpha^-d == a(k+2, c)
    # exactly, for every coordinate of every source layer.  Granting this,
    # prefix + representative(src tag) rewrites verbatim into the canonical
    # representative word of the target tag whose coordinates are (prefix
    # coords, src coords shifted two layers): the product map is a bijection
    # because the coordinate map is.
    conj, jnoc = (atom_alpha(direction),), (atom_alpha(-direction),)
    for k, prime in grid_layer_span(tw, K, n_from):
        for coords in layer_coords(tw, k):
            a = layer_atom(tw, k, coords, prime=prime)
            b = layer_atom(tw, k + 2, coords, prime=prime)
            if not word_matrix(tw, conj + (a,) + jnoc) == word_matrix(
                tw, (b,)
            ):
                raise CrossCheckFailed(
                    "conjugation does not shift layer %d onto layer %d"
                    % (k, k + 2)
                )
    rng = random.Random(seed + 1000 * n_from + direction)
    span = grid_layer_span(tw, K, n_from)
    products = []
    for _ in range(sample):
        coords = tuple(
            (k, *rng.choice(layer_coords(tw, k))) for k, _ in span
        )
        src_tag = tag_from_coords(tw, K, n_from, coords)
        prefix = rng.choice(prefixes)
        products.append(prefix + word_from_tag(tw, K, src_tag))
    read = _normalize_words(tw, K, products)
    if (read.tag_shifts != target).any():
        raise CrossCheckFailed("sampled product escapes the target cell")
    moved = _transport_ids(weight, read.res_ids, read.residues,
                           np.broadcast_to(w_from, (len(products), weight.dim)))
    if (moved != w).any():
        raise CrossCheckFailed(
            "sampled product transports off the canonical value"
        )
    evidence["mode"] = "certificate"
    evidence["sampled"] = sample
    evidence["distinct_hits"] = len(read.tag_shifts)
    return evidence


def equivariance_spot_check(weight):
    """op_T commutes with left translation: checked exactly on small
    functions against a deterministic sample of translations."""
    tw = weight.tower
    K = weight.K
    words = [
        (atom_alpha(1),),
        (atom_alpha(-1),),
        beta_compact_word(K),
        translation_prefixes(tw, K, 1, 1)[1],
        translation_prefixes(tw, K, -1, -1)[1],
    ]
    fns = [f_basis(weight, 0), f_basis(weight, 1)]
    for w in words:
        for f in fns:
            lhs = op_T(weight, f.g_act(w))
            rhs = op_T(weight, f).g_act(w)
            if lhs != rhs:
                raise CrossCheckFailed(
                    "translation equivariance of T failed at a sample word"
                )
    return True


# ---------------------------------------------------------------------------
# structure constants


class HeckeConstants:
    """All structure constants of one weight: the two-sum eigenvalue lam on
    the zero cell, the deep-cell eigenvalue c, the lower-averaging constant
    c_minus, and the upper-averaging constants d[n] for n >= 0."""

    __slots__ = ("weight", "lam", "c", "c_minus", "d")

    def __init__(self, weight, lam, c, c_minus, d):
        self.weight = weight
        self.lam = lam
        self.c = c
        self.c_minus = c_minus
        self.d = d

    def __repr__(self):
        return "HeckeConstants(%s, lam=%d, c=%d, c_minus=%d, d=%r)" % (
            self.weight.label,
            self.lam,
            self.c,
            self.c_minus,
            self.d,
        )


def _h_pair(tower, ti):
    """Residue pair (a, c) of the diagonal torus element attached to a
    nonzero parameter: (t, -conj(t)/t)."""
    return (ti, tower.n(tower.m_(tower.c(ti), tower.i_(ti))))


def _l_sum(tower, K, chi, exponent):
    """Sum of chi over the torus parts of the nonidentity classes of the
    layer type with q^exponent classes (3: even type, 1: odd type)."""
    coords = layer_coords(tower, 0 if exponent == 3 else 1)
    acc = 0
    for xi, ti in coords:
        if xi == 0 and ti == 0:
            continue
        if ti == 0:
            raise CrossCheckFailed("nonidentity class with trivial torus part")
        a, c = _h_pair(tower, ti)
        acc = tower.a(acc, chi.value(a, c))
    return acc


def constants(weight, check=True):
    """Structure constants, every one cross-checked two ways:

    lam and c are read off T f_0 and T f_+-1, one op_T_grids call
    (certified windows and stencil), and re-derived from the invariant
    functional (lam) and the closed-form case split (c);
    c_minus and d[n] are brute-force character sums over the layer classes,
    compared against the grid-form averaging operators (S_- on f_1, and
    S_K on f_0..f_-CONSTANTS_N_TOP as one op_SK_grids call); d[0] is
    additionally evaluated as the direct sum of sigma(u beta_K) v0 over the
    first upper layer, its residues read from the product read that
    certifies the S_K suffixes (_sk_read, _compact_residues).  d is given for
    n <= CONSTANTS_N_TOP.  Neither op_T nor f_basis is called, and no
    matrix of a word is formed."""
    tw = weight.tower
    K = weight.K
    chi = weight.chi_of()
    _, _, t_K = iwahori_constants(tw, K)

    g0, g1, gm1 = op_T_grids([f_grid(weight, n) for n in (0, 1, -1)])
    if g0.coeffs.get(-1) != 1 or not set(g0.coeffs) <= {-1, 1}:
        raise CrossCheckFailed("T on the zero cell is not f_-1 + lam f_1")
    lam = g0.coeffs.get(1, 0)

    if g1.coeffs.get(2) != 1 or not set(g1.coeffs) <= {1, 2}:
        raise CrossCheckFailed("T on cell 1 is not c f_1 + f_2")
    c = g1.coeffs.get(1, 0)

    if gm1.coeffs.get(-2) != 1 or not set(gm1.coeffs) <= {-1, -2}:
        raise CrossCheckFailed("T on cell -1 is not c f_-1 + f_-2")
    if gm1.coeffs.get(-1, 0) != c:
        raise CrossCheckFailed("deep-cell eigenvalues disagree between signs")

    c_minus = _l_sum(tw, K, chi, 4 - t_K)
    d_deep = _l_sum(tw, K, chi, t_K)
    # For one-dimensional weights the deep-cell eigenvalue is invariant
    # under determinant twists (the diagonal shift matrix has determinant
    # one), so it equals the lower-averaging constant corrected by the
    # value of the character at the involution class:
    #   c = chi(beta_K) * c_minus.
    # Both factors flip sign together under an odd determinant twist.
    if weight.dim == 1:
        chib = int(weight.matrix(gamma_beta(tw, K))[0, 0])
        c_closed = tw.m_(chib, c_minus)
    else:
        c_closed = 0
    if c != c_closed:
        raise CrossCheckFailed("deep-cell eigenvalue differs from closed form")

    # lam against the invariant functional: j sigma(beta_K) v0 = lam v0,
    # that is ell . sigma(beta_K) v0 = lam
    v0, ell = weight.j_factors()
    moved = gfmat.matvec(tw, weight.matrix(gamma_beta(tw, K)), v0)
    if int(gfmat.sum_rows(tw, tw.times(ell, moved))) != lam:
        raise CrossCheckFailed("lam differs from the invariant functional")

    # d[0]: closed form, direct matrix sum, and grid operator
    if weight.kind == STEINBERG:
        frak_t = int(tw.trace_zero[1])
        d0 = int(tw.neg[chi.value(*_h_pair(tw, frak_t))])
    else:
        d0 = 0
    words = _sk_suffixes(tw, K)
    terms = _compact_residues(_sk_read(tw, K, words), slice(0, len(words)))
    acc = gfmat.sum_rows(tw, _transport_ids(
        weight, np.arange(len(terms)), terms,
        np.broadcast_to(v0, (len(terms), weight.dim))))
    if not np.array_equal(acc, tw.times(d0, v0)):
        raise CrossCheckFailed("d[0] direct sum differs from the closed form")

    d = {0: d0}
    for n in range(1, CONSTANTS_N_TOP + 1):
        d[n] = d_deep

    if check:
        sm = op_Sminus_grid(f_grid(weight, 1))
        expect = {1: c_minus} if c_minus else {}
        if sm.coeffs != expect:
            raise CrossCheckFailed(
                "grid lower averaging disagrees with c_minus"
            )
        sks = op_SK_grids([f_grid(weight, -n)
                           for n in range(CONSTANTS_N_TOP + 1)])
        for n, sk in enumerate(sks):
            expect = {-n: d[n]} if d[n] else {}
            if sk.coeffs != expect:
                raise CrossCheckFailed(
                    "grid upper averaging disagrees with d[%d]" % n
                )
    return HeckeConstants(weight, lam, c, c_minus, d)


# ---------------------------------------------------------------------------
# generated compact-translate span


def _tag_orbit(tower, K, lifts, tags):
    """Position of each tag of the orbit of tags under the lift words, in
    order of discovery; each round reads the lifts times the representatives
    of the tags found by the last one as one product (_normalize_words).
    Raises ClosureBudgetExceeded once the orbit passes DEFAULT_TAG_CAP."""
    index = {tag: i for i, tag in enumerate(tags)}
    new = list(tags)
    while new:
        reps = [word_from_tag(tower, K, tag) for tag in new]
        new = []
        for tag in _normalize_words(tower, K, lifts, reps).tag_tuple():
            if tag not in index:
                index[tag] = len(index)
                new.append(tag)
        if len(index) > DEFAULT_TAG_CAP:
            raise ClosureBudgetExceeded(
                "translate orbit exceeded the tag cap %d" % DEFAULT_TAG_CAP
            )
    return index


def _permutations(tower, K, index, words):
    """Each word g as a permutation of the tag index, read by one product
    call: g rep(tag_i) = rep(tag_to[i]) k_i, as the positions to, the ids
    of the residues red(k_i) and the read's residue list.  Raises
    CrossCheckFailed unless every word permutes the index."""
    reps = [word_from_tag(tower, K, tag) for tag in index]
    read = _normalize_words(tower, K, words, reps)
    pos = _positions(index, read.tag_tuple())
    out = []
    for h in range(len(words)):
        to = pos[read.tag_ids[h :: len(words)]]
        if not np.array_equal(np.sort(to), np.arange(len(index))):
            raise CrossCheckFailed("a translate does not permute the tag index")
        out.append((to, read.res_ids[h :: len(words)], read.residues))
    return out


def _translate(weight, perm, block):
    """The translates of the rows of block (functions on the tag index, an
    (m, tags * dim) array) by a word permuting it (_permutations): the value
    v at tag i moves to tag to[i] as sigma(red k_i) v, in one transport."""
    to, ids, residues = perm
    m, n, d = len(block), len(to), weight.dim
    moved = _transport_ids(
        weight, np.tile(ids, m), residues, block.reshape(m * n, d)
    )
    out = np.zeros((m, n, d), dtype=np.uint16)
    out[:, to] = moved.reshape(m, n, d)
    return out.reshape(m, n * d)


class SpanModule:
    """The span of the compact translates of an induced function, with the
    residue-group action as a Weight.

    Functions are read as vectors on the fixed tag index of the span (the
    value at tag i in entries i dim to (i + 1) dim).  The span is held by
    its rref basis, so the coordinates of a member v are v at the pivots,
    certified by v reducing to zero.  The action is well defined on the
    residue group because the reduction kernel, normal in the compact,
    fixes the seed and hence every translate."""

    def __init__(self, induced, index, basis, weight):
        self._induced = induced
        self._index = index
        self._basis = basis
        self.weight = weight
        self.dim = basis.dim

    def _coords(self, fn):
        if fn.weight is not self._induced:
            raise NotApplicable("function lives in a different induced module")
        v = _on_index(self._index, fn)
        return None if v is None else self._basis.coords(v)

    def coords_of(self, fn):
        c = self._coords(fn)
        if c is None:
            raise CrossCheckFailed("function lies outside the spanned module")
        return c

    def contains(self, fn):
        return self._coords(fn) is not None


def _on_index(index, fn):
    """The values of fn as one vector on the tag index, or None if fn has a
    tag outside it."""
    at = _positions(index, fn.tags)
    if (at < 0).any():
        return None
    v = np.zeros((len(index), fn.weight.dim), dtype=np.uint16)
    v[at] = fn.data
    return v.reshape(-1)


def spin_K(f):
    """The span of the compact translates of f, with its residue action.

    The seed must be fixed by the kernel of the reduction to the residue
    group, as every f_n is (it is pro-unipotent invariant).  Then the compact
    translates of f are the closure of f under the lifts of gamma_generators
    (gamma_lift_word), which generate the compact modulo that kernel.  The
    tag index is the orbit of the support of f under the lifts (_tag_orbit);
    each lift is certified to permute it, and the closure is weights.closure
    over the lifts' translates.  The residue action of gamma lifts gamma,
    translates the basis rows at once, certifies that the images stay in the
    span (they reduce to zero) and reads their coordinates at the pivots."""
    if f.is_zero():
        raise NotApplicable("cannot spin the zero function")
    weight = f.weight
    tw = weight.tower
    K = weight.K
    lifts = [gamma_lift_word(tw, K, g) for g in gamma_generators(tw, K)]
    index = _tag_orbit(tw, K, lifts, f.tags)
    actions = [
        functools.partial(_translate, weight, perm)
        for perm in _permutations(tw, K, index, lifts)
    ]
    basis = closure(tw, len(index) * weight.dim, [_on_index(index, f)], actions)
    rows = basis.matrix()

    def builder(gamma):
        word = gamma_lift_word(tw, K, gamma)
        (perm,) = _permutations(tw, K, index, [word])
        coords = basis.coords(_translate(weight, perm, rows))
        if coords is None:
            raise CrossCheckFailed("residue action escapes the spanned module")
        return coords.T

    wt = BuiltWeight(tw, K, "spanned", basis.dim, builder,
                     label="span_of_" + weight.label)
    return SpanModule(weight, index, basis, wt)
