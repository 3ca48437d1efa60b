"""Compactly induced modules and their spherical operator calculus.

A function induced from a weight of a maximal compact is stored on canonical
coset tags: the module element sum_i [g_i, v_i] keeps, for every occupied
coset g K, the tag of the canonical representative together with the value
transported to it ([g k, v] = [g, sigma(k) v]).  Left translation, the
spherical operator T (by its explicit two-sum coset expansion), and the two
partial averaging operators S_K and S_- act by concatenating generator words
and re-normalizing; every landing coset membership is certified by the
residue reduction.  The words of one operation are normalized together
(InducedFn.from_raw): those missing from coset_normalize's memo table are
read by words.nf_uak_batch, a whole cell at a time, and stored in that
table; a word outside the batch's form, and a single-word read (a point
evaluation, a support window), goes through the scalar coset_normalize.

The canonical invariant functions f_n (supported on the n-th shift cell,
pro-unipotent-invariant, one per shift) come in two forms: a materialized
InducedFn over the full coordinate grid of the cell, and a coordinate form
(GridElement) that evaluates points lazily through the mirrored normal form.
The grid form makes the averaging operators affordable at every shift: an
invariant function supported on finitely many certified cells and vanishing
at each cell point alpha^{-j} is identically zero, so reading the values at
those points reconstructs the coordinates faithfully.

Deep shifts are reached by the translation recursion
    f_{n+1} = sum_{w} w . (alpha . f_n)
with w running over the shallow layer transversal being re-exposed by the
shift; combined with the (machine-checked) translation equivariance of T,
this certifies the operator identities far beyond the range where the raw
two-sum expansion is computable.
"""

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
from .fields import memo, memo_store
from .laurent import Series
from .unitary_group import (
    atom_alpha,
    atom_d,
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
    Weight,
    gamma_beta,
    gamma_lift_word,
    reduce_word,
    torus_generator_atoms,
)
from .words import (
    grid_layer_span,
    nf_kau,
    nf_uak,
    nf_uak_batch,
    tag_of_nf,
    word_from_tag,
)

DEFAULT_N_MAX = 5
DEFAULT_TAG_CAP = 30000
SPIN_BUDGET = 128
CONSTANTS_N_TOP = 3


# ---------------------------------------------------------------------------
# value tuples


def _vzero(dim):
    return (0,) * dim


def _vadd(tw, a, b):
    add = tw.add
    return tuple(int(add[x, y]) for x, y in zip(a, b))


def _vneg(tw, a):
    neg = tw.neg
    return tuple(int(neg[x]) for x in a)


def _vscale(tw, s, a):
    if s == 1:
        return tuple(a)
    mul = tw.mul
    return tuple(int(mul[s, x]) for x in a)


def _vmat(tw, M, v):
    if len(v) == 1:
        return (int(tw.mul[int(M[0, 0]), v[0]]),)
    return tuple(int(x) for x in gfmat.matvec(tw, M, np.asarray(v, dtype=np.uint16)))


# ---------------------------------------------------------------------------
# coset normalization


@memo
def coset_normalize(tower, K, word):
    """Canonical tag of the coset word*K plus the compact transport residue.

    The normal form reads word = rep(tag) * k off the matrix of the word,
    with rep(tag) = word_from_tag(tag) and k certified in the compact;
    returns (tag, red(k)), so the generator [word, v] normalizes to
    [rep(tag), sigma(red k) v]."""
    nf = nf_uak(tower, K, word)
    return (tag_of_nf(tower, K, nf), reduce_to_gamma(tower, K, nf.k))


# coset_normalize's own memo table, bound at import so that the batched
# reads below store into it even where the name coset_normalize is rebound
# (the benchmark's tracer wraps it).
_coset_table = coset_normalize.table

# Fewer misses than this are read one word at a time, which is faster there.
# Measured on recursion and op_T words with warm layer atoms (2-CPU host,
# CPython 3.11): at q = 3, 24 words took 3.0-4.2 ms one by one against
# 3.4-4.9 ms batched, and 32 words 4.0-5.5 ms against 3.9-5.5 ms; at q = 5
# the batch is as fast from 16 words.
_BATCH_MIN = 32
# Misses per nf_uak_batch call, which bounds its arrays whatever the cell
# size.  On the 19,683 words of the recursion step 2 -> 3 at q = 3, chunks of
# 4096 took 0.32 s with a traced peak 1.9 MB above the stored results;
# chunks of 512 took 0.87 s, and one chunk of 32768 took 0.32 s and 7.6 MB.
_BATCH_CHUNK = 4096


def _normalize_words(tower, K, words):
    """coset_normalize of every word, in order.

    Hits come from coset_normalize's memo table.  At _BATCH_MIN misses or
    more, the misses are read by nf_uak_batch in chunks of _BATCH_CHUNK and
    its results stored in that same table; a word the batch does not carry
    goes to the scalar coset_normalize, as do all misses of a smaller
    call."""
    table = _coset_table(tower)
    out = [table.get((K, w)) for w in words]
    todo = [i for i, r in enumerate(out) if r is None]
    if len(todo) < _BATCH_MIN:
        for i in todo:
            out[i] = coset_normalize(tower, K, words[i])
        return out
    for start in range(0, len(todo), _BATCH_CHUNK):
        chunk = todo[start : start + _BATCH_CHUNK]
        read = nf_uak_batch(tower, K, [words[i] for i in chunk])
        for i, r in zip(chunk, read):
            if r is None:
                r = coset_normalize(tower, K, words[i])
            else:
                memo_store(table, (K, words[i]), r)
            out[i] = r
    return out


# ---------------------------------------------------------------------------
# induced functions


class InducedFn:
    """Finitely supported equivariant function in normalized form.

    data maps coset tags to nonzero value tuples; the element is
    sum over tags of [rep(tag), value].  Instances are treated as
    immutable: all operations return new objects."""

    __slots__ = ("weight", "data")

    def __init__(self, weight, data):
        self.weight = weight
        self.data = data

    @classmethod
    def zero(cls, weight):
        return cls(weight, {})

    @classmethod
    def from_raw(cls, weight, pairs):
        """Normalize raw generators [word, value] and merge per coset.

        pairs is read once, and all its words are normalized by one
        _normalize_words call, so the words missing from coset_normalize's
        memo table are read together by words.nf_uak_batch."""
        tw = weight.tower
        K = weight.K
        pairs = list(pairs)
        normal = _normalize_words(tw, K, [word for word, _ in pairs])
        data = {}
        for (_, vec), (tag, gamma) in zip(pairs, normal):
            v = _vmat(tw, weight.matrix(gamma), vec)
            cur = data.get(tag)
            if cur is not None:
                v = _vadd(tw, cur, v)
            if any(v):
                data[tag] = v
            elif cur is not None:
                del data[tag]
        return cls(weight, data)

    @classmethod
    def generator(cls, weight, word, vec):
        return cls.from_raw(weight, [(tuple(word), tuple(vec))])

    # -- linear structure ----------------------------------------------------

    def _require_same_module(self, other):
        if self.weight is not other.weight:
            raise NotApplicable("operands live in different induced modules")

    def add(self, other):
        self._require_same_module(other)
        tw = self.weight.tower
        data = dict(self.data)
        for tag, v in other.data.items():
            cur = data.get(tag)
            if cur is None:
                data[tag] = v
            else:
                s = _vadd(tw, cur, v)
                if any(s):
                    data[tag] = s
                else:
                    del data[tag]
        return InducedFn(self.weight, data)

    def neg(self):
        tw = self.weight.tower
        return InducedFn(
            self.weight, {tag: _vneg(tw, v) for tag, v in self.data.items()}
        )

    def sub(self, other):
        return self.add(other.neg())

    def scale(self, s):
        if s == 0:
            return InducedFn.zero(self.weight)
        tw = self.weight.tower
        return InducedFn(
            self.weight, {tag: _vscale(tw, s, v) for tag, v in self.data.items()}
        )

    def g_act(self, word):
        """Left translation by the element of the word: g.[x, v] = [g x, v]."""
        tw = self.weight.tower
        K = self.weight.K
        word = tuple(word)
        return InducedFn.from_raw(
            self.weight,
            (
                (word + word_from_tag(tw, K, tag), v)
                for tag, v in self.data.items()
            ),
        )

    def is_zero(self):
        return not self.data

    def __eq__(self, other):
        if not isinstance(other, InducedFn):
            return NotImplemented
        return self.weight is other.weight and self.data == other.data

    def __hash__(self):
        return hash((self.weight.K, frozenset(self.data.items())))

    # -- inspection ------------------------------------------------------------

    def shifts(self):
        """Sorted list of occupied shift cells."""
        return sorted({t for t, _ in self.data})

    def eval_at(self, word):
        """Value at the point of the word (zero off the support)."""
        tw = self.weight.tower
        K = self.weight.K
        tag, gamma = coset_normalize(tw, K, word_inverse(tw, tuple(word)))
        v = self.data.get(tag)
        if v is None:
            return _vzero(self.weight.dim)
        return _vmat(tw, self.weight.matrix(gamma.inverse()), v)

    def __repr__(self):
        return "InducedFn(%s, tags=%d, shifts=%s)" % (
            self.weight.label,
            len(self.data),
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
    """All canonical tags of shift cell n, in deterministic order."""
    span = grid_layer_span(tower, K, n)
    if not span:
        yield (0, ())
        return
    lists = [
        [(k, xi, ti) for (xi, ti) in layer_coords(tower, k)] for k, _ in span
    ]
    for combo in itertools.product(*lists):
        yield (n, combo)


def grid_value(weight, n):
    """The canonical value at the cell point: v0 for n <= 0, the involution
    translate of v0 for n >= 1."""
    return _grid_value(weight, n >= 1)


@memo
def _grid_value(weight, positive):
    v0 = tuple(int(x) for x in weight.v0())
    if not positive:
        return v0
    tw = weight.tower
    return _vmat(tw, weight.matrix(gamma_beta(tw, weight.K)), v0)


def _depth_guard(tower, n, n_max):
    if abs(n) > n_max:
        raise PrecisionBudgetExceeded(
            "shift %d exceeds the configured budget n_max=%d" % (n, n_max)
        )
    window = tower.default_window
    if 2 * abs(n) + 4 > window:
        raise PrecisionBudgetExceeded(
            "shift %d needs precision %d > certified window %d"
            % (n, 2 * abs(n) + 4, window)
        )


def f_basis(weight, n, n_max=DEFAULT_N_MAX, tag_cap=DEFAULT_TAG_CAP):
    """The canonical invariant function of shift cell n, materialized.

    Every coordinate combination of the cell grid is one coset tag; all tags
    carry the same canonical value, so the function is assembled without any
    normalization work.  The depth and cap checks run on every call; the
    post-conditions (support exactness by construction, sampled
    pro-unipotent invariance) on first build."""
    tw = weight.tower
    _depth_guard(tw, n, n_max)
    cnt = grid_count(tw, weight.K, n)
    if cnt > tag_cap:
        raise ClosureBudgetExceeded(
            "shift %d grid has %d cosets, above the materialization cap %d; "
            "use the grid form" % (n, cnt, tag_cap)
        )
    return _f_basis(weight, n)


@memo
def _f_basis(weight, n):
    w = grid_value(weight, n)
    tags = grid_tags(weight.tower, weight.K, n)
    f = InducedFn(weight, dict.fromkeys(tags, w))
    if not is_pro_iwahori_invariant(f):
        raise InvarianceViolated(
            "canonical basis function of shift %d failed the sampled "
            "invariance check" % n
        )
    return f


# ---------------------------------------------------------------------------
# sampled pro-unipotent invariance


@memo
def pro_iwahori_sample(tower, K):
    """Deterministic sample of the pro-unipotent radical: one nontrivial atom
    in each shallow layer on both sides, plus two depth-one torus units."""
    n_K, m_K, _ = iwahori_constants(tower, K)
    atoms = [
        layer_transversal(tower, n_K)[1],
        layer_transversal(tower, n_K + 1)[1],
        layer_transversal(tower, m_K, prime=True)[1],
        layer_transversal(tower, m_K + 1, prime=True)[1],
    ]
    one_t = Series.from_coeffs(tower, 0, (1, 1))
    atoms.append(atom_d(tower, one_t, Series.const(tower, 1), one_t.conj().inverse()))
    tz = int(tower.trace_zero[1])
    num = Series.from_coeffs(tower, 0, (1, tz))
    den = Series.from_coeffs(tower, 0, (1, int(tower.neg[tz])))
    atoms.append(
        atom_d(tower, Series.const(tower, 1), num * den.inverse(), Series.const(tower, 1))
    )
    return atoms


def _invariance_points(f):
    """Evaluation points hitting the support of f, deterministically chosen."""
    tw = f.weight.tower
    K = f.weight.K
    by_shift = {}
    for tag in sorted(f.data):
        by_shift.setdefault(tag[0], []).append(tag)
    points = []
    bw = beta_compact_word(K)
    for t, tags in by_shift.items():
        picks = [tags[0]]
        if len(tags) > 1:
            picks.append(tags[len(tags) // 2])
        for tag in picks:
            x = word_inverse(tw, word_from_tag(tw, K, tag))
            points.append(x)
        points.append(bw + points[-1])
    return points


def is_pro_iwahori_invariant(f, atoms=None, points=None):
    """Sampled pointwise check that right pro-unipotent translation fixes f:
    f(x a) = f(x) over the sample atoms and support-hitting points."""
    tw = f.weight.tower
    K = f.weight.K
    if atoms is None:
        atoms = pro_iwahori_sample(tw, K)
    if points is None:
        points = _invariance_points(f)
    for x in points:
        base = f.eval_at(x)
        for a in atoms:
            if f.eval_at(x + (a,)) != base:
                return False
    return True


# ---------------------------------------------------------------------------
# the spherical operator (explicit coset expansion)


@memo
def _t_stencil(tower, K):
    """Suffix words and compact residues of the two-sum expansion of T[1, v]:
    the N_{n_K}/N_{n_K+2} sum of [u alpha^-1, j sigma(u)^-1 v] and the
    N_{n_K+1}/N_{n_K+2} sum of [beta_K u alpha^-1, j sigma(beta_K) v]."""
    n_K, _, _ = iwahori_constants(tower, K)
    al = (atom_alpha(-1),)
    items = []
    for ua in layer_transversal(tower, n_K):
        for ub in layer_transversal(tower, n_K + 1):
            w = (ua, ub)
            items.append((w + al, reduce_word(tower, K, word_inverse(tower, w))))
    bw = beta_compact_word(K)
    gb = reduce_word(tower, K, bw)
    for ub in layer_transversal(tower, n_K + 1):
        items.append((bw + (ub,) + al, gb))
    return items


@memo
def _t_matrices(weight):
    tw = weight.tower
    j = weight.j_matrix()
    return [
        (suffix, gfmat.matmul(tw, j, weight.matrix(g)))
        for suffix, g in _t_stencil(tw, weight.K)
    ]


def op_T(weight, f):
    """The spherical operator through its coset expansion, applied termwise
    to the normalized generators of f by left translation."""
    if f.weight is not weight:
        raise NotApplicable("operator weight differs from the function's")
    tw = weight.tower
    K = weight.K
    pairs = []
    for tag, v in f.data.items():
        base = word_from_tag(tw, K, tag)
        for suffix, M in _t_matrices(weight):
            pairs.append((base + suffix, _vmat(tw, M, v)))
    return InducedFn.from_raw(weight, pairs)


def op_T_sigma(weight, f):
    """The normalized spherical operator: T + 1 on determinant-type weights,
    T on everything else."""
    out = op_T(weight, f)
    if weight.dim == 1 and weight.kind in (TRIVIAL, DET_TWIST):
        return out.add(f)
    return out


# ---------------------------------------------------------------------------
# averaging operators, materialized route


def _check_precondition(f, layers, opname):
    tw = f.weight.tower
    K = f.weight.K
    atoms = [layer_transversal(tw, k, prime=prime)[1] for k, prime in layers]
    if not is_pro_iwahori_invariant(f, atoms=atoms):
        raise InvarianceViolated(
            "%s needs the sampled unipotent invariance of its input" % opname
        )


def op_SK(weight, f, check=True):
    """Averaging to the upper-invariants: sum over the first upper layer of
    u . beta_K . f.  Requires (sampled) lower-unipotent invariance."""
    if f.weight is not weight:
        raise NotApplicable("operator weight differs from the function's")
    tw = weight.tower
    K = weight.K
    n_K, m_K, _ = iwahori_constants(tw, K)
    if check:
        _check_precondition(f, [(m_K, True), (m_K + 1, True)], "op_SK")
    bw = beta_compact_word(K)
    pairs = []
    for u in layer_transversal(tw, n_K):
        prefix = (u,) + bw
        for tag, v in f.data.items():
            pairs.append((prefix + word_from_tag(tw, K, tag), v))
    return InducedFn.from_raw(weight, pairs)


def op_Sminus(weight, f):
    """Averaging to the lower-invariants: sum over the first lower layer of
    u' . beta_K . alpha^-1 . f.  Requires (sampled) upper-unipotent
    invariance."""
    if f.weight is not weight:
        raise NotApplicable("operator weight differs from the function's")
    tw = weight.tower
    K = weight.K
    n_K, m_K, _ = iwahori_constants(tw, K)
    _check_precondition(f, [(n_K, False), (n_K + 1, False)], "op_Sminus")
    bw = beta_compact_word(K)
    tail = bw + (atom_alpha(-1),)
    pairs = []
    for u in layer_transversal(tw, m_K, prime=True):
        prefix = (u,) + tail
        for tag, v in f.data.items():
            pairs.append((prefix + word_from_tag(tw, K, tag), v))
    return InducedFn.from_raw(weight, pairs)


# ---------------------------------------------------------------------------
# grid form of the invariants


class GridElement:
    """Invariant element in canonical-basis coordinates {shift: coefficient}.

    Evaluation goes through the mirrored normal form x = k alpha^T u:
    F(x) = sigma(red k) . coeff(-T) . grid_value(-T); no materialization."""

    __slots__ = ("weight", "coeffs")

    def __init__(self, weight, coeffs):
        self.weight = weight
        self.coeffs = {n: c for n, c in coeffs.items() if c}

    def eval_at(self, word):
        tw = self.weight.tower
        K = self.weight.K
        k_mat, t, _u = nf_kau(tw, K, tuple(word))
        c = self.coeffs.get(-t)
        if not c:
            return _vzero(self.weight.dim)
        gamma = reduce_to_gamma(tw, K, k_mat)
        base = _vmat(tw, self.weight.matrix(gamma), grid_value(self.weight, -t))
        return _vscale(tw, c, base)

    def add(self, other):
        if self.weight is not other.weight:
            raise NotApplicable("operands live in different induced modules")
        tw = self.weight.tower
        out = dict(self.coeffs)
        for n, c in other.coeffs.items():
            out[n] = int(tw.add[out.get(n, 0), c])
        return GridElement(self.weight, out)

    def scale(self, s):
        tw = self.weight.tower
        return GridElement(
            self.weight, {n: int(tw.mul[s, c]) for n, c in self.coeffs.items()}
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
        K = weight.K
        counts = {}
        coeffs = {}
        for tag, v in f.data.items():
            t = tag[0]
            counts[t] = counts.get(t, 0) + 1
            if t not in coeffs:
                coeffs[t] = _match_grid_coefficient(weight, t, v)
        for t, c in coeffs.items():
            if counts[t] != grid_count(tw, K, t):
                raise CrossCheckFailed(
                    "shift %d support is not the full grid" % t
                )
            w = _vscale(tw, c, grid_value(weight, t))
            for tag, v in f.data.items():
                if tag[0] == t and v != w:
                    raise CrossCheckFailed(
                        "shift %d values are not constant on the grid" % t
                    )
        return cls(weight, coeffs)


def f_grid(weight, n, n_max=DEFAULT_N_MAX):
    """The canonical invariant function of shift cell n in grid form."""
    _depth_guard(weight.tower, n, n_max)
    return GridElement(weight, {n: 1})


def _match_grid_coefficient(weight, n, val):
    """The scalar c with val = c * grid_value(n); CrossCheckFailed if the
    value is off the canonical line."""
    tw = weight.tower
    w = grid_value(weight, n)
    p = next(i for i, x in enumerate(w) if x)
    c = int(tw.mul[val[p], tw.i_(w[p])])
    if tuple(val) != _vscale(tw, c, w):
        raise CrossCheckFailed(
            "value at the shift-%d cell point is off the canonical line" % n
        )
    return c


# ---------------------------------------------------------------------------
# averaging operators, grid route


@memo
def _sk_suffixes(tower, K):
    n_K, _, _ = iwahori_constants(tower, K)
    bw = beta_compact_word(K)
    return [(u,) + bw for u in layer_transversal(tower, n_K)]


@memo
def _sminus_suffixes(tower, K):
    _, m_K, _ = iwahori_constants(tower, K)
    tail = beta_compact_word(K) + (atom_alpha(-1),)
    return [(u,) + tail for u in layer_transversal(tower, m_K, prime=True)]


@memo
def _delta_words(tower, K):
    """Right-coset transversal of the basic double cell over the compact:
    the unit group times alpha covers it with one coset per shallow lower
    class, because conjugating lower atoms toward the cell shifts them out
    of the compact exactly at the first layer (all deeper layers, the upper
    side, and the torus are absorbed)."""
    _, m_K, _ = iwahori_constants(tower, K)
    return [(u,) for u in layer_transversal(tower, m_K, prime=True)]


def _avg_eval(elem, word, suffixes):
    tw = elem.weight.tower
    acc = _vzero(elem.weight.dim)
    for s in suffixes:
        acc = _vadd(tw, acc, elem.eval_at(word + s))
    return acc


def _sk_window(tower, K, shifts):
    """Support window of the upper averaging: the input support times the
    compact stays inside the same double cells, whose invariant cells carry
    labels +-n."""
    out = set()
    for n in shifts:
        out.add(n)
        out.add(-n)
    return sorted(out)


def _sminus_window(tower, K, shifts):
    """Certified support window of the lower averaging.  The output support
    lies in the product of each input cell closure with the basic double
    cell; splitting the latter over the delta transversal, each piece
    K alpha^-n delta alpha K is a single double cell whose label is computed
    exactly, and a double cell of label l meets the invariant grid only in
    the two cells +-l."""
    out = set()
    post = (atom_alpha(1),)
    for n in shifts:
        pre = (atom_alpha(-n),)
        for d in _delta_words(tower, K):
            t = nf_uak(tower, K, pre + d + post).t
            out.add(t)
            out.add(-t)
    return sorted(out)


def _op_grid(elem, suffixes, window, opname):
    """Reconstruct the image of an averaging operator from its values at the
    cell points alpha^-j of the certified window.

    Faithful because the image is invariant (averages over coset transversals
    of the compact preserve invariance; spot-checked below) and an invariant
    function supported on the window cells vanishing at every cell point is
    identically zero."""
    weight = elem.weight
    tw = weight.tower
    K = weight.K
    coeffs = {}
    for j in window:
        val = _avg_eval(elem, (atom_alpha(-j),), suffixes)
        if any(val):
            coeffs[j] = _match_grid_coefficient(weight, j, val)
    atoms = pro_iwahori_sample(tw, K)
    bw = beta_compact_word(K)
    for j in window[:3]:
        for x in ((atom_alpha(-j),), bw + (atom_alpha(-j),)):
            base = _avg_eval(elem, x, suffixes)
            for a in atoms[:4]:
                if _avg_eval(elem, x + (a,), suffixes) != base:
                    raise InvarianceViolated(
                        "%s image failed the sampled invariance check" % opname
                    )
    return GridElement(weight, coeffs)


def op_SK_grid(elem):
    """Upper averaging on the grid form."""
    tw = elem.weight.tower
    K = elem.weight.K
    window = _sk_window(tw, K, sorted(elem.coeffs))
    return _op_grid(elem, _sk_suffixes(tw, K), window, "op_SK")


def op_Sminus_grid(elem):
    """Lower averaging on the grid form."""
    tw = elem.weight.tower
    K = elem.weight.K
    window = _sminus_window(tw, K, sorted(elem.coeffs))
    return _op_grid(elem, _sminus_suffixes(tw, K), window, "op_Sminus")


# ---------------------------------------------------------------------------
# translation recursion between neighbouring grids


def translation_prefixes(tower, K, n_from, direction):
    """Transversal words effecting one grid step away from zero:
    f_{n_from + direction} = sum over these prefixes of prefix . f_{n_from}.

    Shifting by alpha^{+-1} pushes the occupied layers two deeper; the
    re-exposed shallow layers are recovered by their transversal, and the
    product transversal of a two-step filtration quotient is the product of
    the layer transversals."""
    n_K, m_K, _ = iwahori_constants(tower, K)
    if direction == 1:
        if n_from < 0:
            raise NotApplicable("positive steps start at nonnegative shifts")
        shift = (atom_alpha(1),)
        if n_from == 0:
            layers = [(m_K, True)]
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

    Exhaustive (full normalized equality of InducedFn) whenever the target
    grid is materializable.  Beyond the cap the identity is certified by the
    transversal-product decomposition: (i) the coset counts match exactly,
    (ii) the diagonal-shift conjugation carries every source-layer atom
    exactly onto the same-coordinate atom two layers deeper, so each
    prefix+representative word IS the canonical representative word of a
    distinct target tag (a coordinate bijection), and (iii) sampled
    prefix*representative products normalize onto the target grid with the
    canonical value.  Returns an evidence dict."""
    tw = weight.tower
    K = weight.K
    target = n_from + direction
    _depth_guard(tw, target, DEFAULT_N_MAX)
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
    if cnt_target <= tag_cap:
        f_from = f_basis(weight, n_from, tag_cap=tag_cap)
        pairs = []
        for prefix in prefixes:
            for tag, v in f_from.data.items():
                pairs.append((prefix + word_from_tag(tw, K, tag), v))
        lhs = InducedFn.from_raw(weight, pairs)
        if lhs != f_basis(weight, target, tag_cap=tag_cap):
            raise CrossCheckFailed(
                "translation recursion %d -> %d failed exhaustively"
                % (n_from, target)
            )
        evidence["mode"] = "exhaustive"
        return evidence
    # certificate mode
    for tag, _ in _normalize_words(tw, K, prefixes):
        if tag[0] != direction:
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
    w = grid_value(weight, target)
    w_from = grid_value(weight, n_from)
    rng = random.Random(seed + 1000 * n_from + direction)
    span = grid_layer_span(tw, K, n_from)
    products = []
    for _ in range(sample):
        coords = tuple(
            (k, *rng.choice(layer_coords(tw, k))) for k, _ in span
        )
        src_tag = (n_from, coords)
        prefix = rng.choice(prefixes)
        products.append(prefix + word_from_tag(tw, K, src_tag))
    hit = set()
    for tag, gamma in _normalize_words(tw, K, products):
        if tag[0] != target:
            raise CrossCheckFailed("sampled product escapes the target cell")
        if _vmat(tw, weight.matrix(gamma), w_from) != w:
            raise CrossCheckFailed(
                "sampled product transports off the canonical value"
            )
        hit.add(tag)
    evidence["mode"] = "certificate"
    evidence["sampled"] = sample
    evidence["distinct_hits"] = len(hit)
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
    return (ti, int(tower.neg[tower.mul[tower.frob[ti], tower.i_(ti)]]))


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
        acc = int(tower.add[acc, chi.value(a, c)])
    return acc


def constants(weight, check=True):
    """Structure constants, every one cross-checked two ways:

    lam and c are read off the exact two-sum expansions of T on the cells
    0, +-1 and re-derived from the invariant functional (lam) and the
    closed-form case split (c); c_minus and d[n] are brute-force character
    sums over the layer classes, compared against the grid-form averaging
    operators; d[0] is additionally evaluated as the direct matrix sum over
    the first upper layer.  d is given for n <= CONSTANTS_N_TOP."""
    tw = weight.tower
    K = weight.K
    chi = weight.chi_of()
    n_K, _, t_K = iwahori_constants(tw, K)

    g0 = GridElement.from_induced(op_T(weight, f_basis(weight, 0)))
    if g0.coeffs.get(-1) != 1 or not set(g0.coeffs) <= {-1, 1}:
        raise CrossCheckFailed("T on the zero cell is not f_-1 + lam f_1")
    lam = g0.coeffs.get(1, 0)

    g1 = GridElement.from_induced(op_T(weight, f_basis(weight, 1)))
    if g1.coeffs.get(2) != 1 or not set(g1.coeffs) <= {1, 2}:
        raise CrossCheckFailed("T on cell 1 is not c f_1 + f_2")
    c = g1.coeffs.get(1, 0)

    gm1 = GridElement.from_induced(op_T(weight, f_basis(weight, -1)))
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
        c_closed = int(tw.mul[chib, c_minus])
    else:
        c_closed = 0
    if c != c_closed:
        raise CrossCheckFailed("deep-cell eigenvalue differs from closed form")

    # lam against the invariant functional: j sigma(beta_K) v0 = lam v0
    v0 = tuple(int(x) for x in weight.v0())
    jb = gfmat.matmul(
        tw, weight.j_matrix(), weight.matrix(gamma_beta(tw, K))
    )
    if _vmat(tw, jb, v0) != _vscale(tw, lam, v0):
        raise CrossCheckFailed("lam differs from the invariant functional")

    # d[0]: closed form, direct matrix sum, and grid operator
    if weight.kind == STEINBERG:
        frak_t = int(tw.trace_zero[1])
        d0 = int(tw.neg[chi.value(*_h_pair(tw, frak_t))])
    else:
        d0 = 0
    bw = beta_compact_word(K)
    acc = _vzero(weight.dim)
    for u in layer_transversal(tw, n_K):
        g = reduce_word(tw, K, (u,) + bw)
        acc = _vadd(tw, acc, _vmat(tw, weight.matrix(g), v0))
    if acc != _vscale(tw, d0, v0):
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
        for n in range(0, CONSTANTS_N_TOP + 1):
            sk = op_SK_grid(f_grid(weight, -n))
            expect = {-n: d[n]} if d[n] else {}
            if sk.coeffs != expect:
                raise CrossCheckFailed(
                    "grid upper averaging disagrees with d[%d]" % n
                )
    return HeckeConstants(weight, lam, c, c_minus, d)


# ---------------------------------------------------------------------------
# generated compact-translate span


@memo
def _k_generator_words(tower, K):
    """Words generating the residue group: all nontrivial atoms of the first
    upper and lower layers, torus generators, and the involution."""
    n_K, m_K, _ = iwahori_constants(tower, K)
    words = [(a,) for a in layer_transversal(tower, n_K)[1:]]
    words += [(a,) for a in layer_transversal(tower, m_K - 1, prime=True)[1:]]
    words += [(a,) for a in torus_generator_atoms(tower)]
    words.append(beta_compact_word(K))
    return words


class _FnSpan:
    """Incremental independence tracker for induced functions, with
    combination tracking so membership coordinates come for free."""

    def __init__(self, tw, dim, budget):
        self.tw = tw
        self.dim = dim
        self.budget = budget
        self.slots = {}
        self.datas = []
        self._basis = None

    def _register(self, data):
        fresh = False
        for tag in data:
            if tag not in self.slots:
                self.slots[tag] = len(self.slots)
                fresh = True
        return fresh

    def _vec(self, data, marker=None):
        width = len(self.slots) * self.dim
        v = np.zeros(width + self.budget, dtype=np.uint16)
        for tag, val in data.items():
            base = self.slots[tag] * self.dim
            v[base : base + self.dim] = val
        if marker is not None:
            v[width + marker] = 1
        return v

    def _rebuild(self):
        width = len(self.slots) * self.dim
        self._basis = gfmat.Basis(self.tw, width + self.budget)
        for i, d in enumerate(self.datas):
            self._basis.add(self._vec(d, marker=i))

    def try_add(self, fn):
        if self._register(fn.data) or self._basis is None:
            self._rebuild()
        vec = self._vec(fn.data, marker=len(self.datas))
        width = len(self.slots) * self.dim
        r = self._basis.reduce(vec)
        if not r[:width].any():
            return False
        self._basis.add(r)
        self.datas.append(fn.data)
        return True

    def coords(self, fn):
        """Coefficients expressing fn over the accepted members, or None."""
        for tag in fn.data:
            if tag not in self.slots:
                return None
        if self._basis is None:
            return None
        width = len(self.slots) * self.dim
        r = self._basis.reduce(self._vec(fn.data))
        if r[:width].any():
            return None
        neg = self.tw.neg
        return np.array(
            [int(neg[r[width + i]]) for i in range(len(self.datas))],
            dtype=np.uint16,
        )


class SpanModule:
    """The compact-translate closure of an induced function, carrying the
    residue-group action as a Weight.

    Well-defined on the residue group: the reduction kernel is normal in the
    compact and fixes the seed (it sits inside the pro-unipotent radical),
    hence fixes every translate."""

    def __init__(self, source, basis_fns, words, weight, span):
        self.source = source
        self.basis_fns = basis_fns
        self.words = words
        self.weight = weight
        self._span = span

    @property
    def dim(self):
        return len(self.basis_fns)

    def coords_of(self, fn):
        c = self._span.coords(fn)
        if c is None:
            raise CrossCheckFailed("function lies outside the spanned module")
        return c

    def contains(self, fn):
        return self._span.coords(fn) is not None

    def element(self, coords):
        """The induced function with the given span coordinates."""
        out = InducedFn.zero(self.source.weight)
        for c, b in zip(coords, self.basis_fns):
            if c:
                out = out.add(b.scale(int(c)))
        return out


def spin_K(f):
    """Close the compact translates of f under the generator words; returns
    the SpanModule with its residue action."""
    if f.is_zero():
        raise NotApplicable("cannot spin the zero function")
    weight = f.weight
    tw = weight.tower
    K = weight.K
    gens = _k_generator_words(tw, K)
    span = _FnSpan(tw, weight.dim, SPIN_BUDGET + 1)
    span.try_add(f)
    basis_fns = [f]
    words = [()]
    head = 0
    while head < len(basis_fns):
        g = basis_fns[head]
        path = words[head]
        head += 1
        for w in gens:
            h = g.g_act(w)
            if span.try_add(h):
                basis_fns.append(h)
                words.append(w + path)
                if len(basis_fns) > SPIN_BUDGET:
                    raise ClosureBudgetExceeded(
                        "translate closure exceeded the budget %d"
                        % SPIN_BUDGET
                    )

    def builder(gamma):
        word = gamma_lift_word(tw, K, gamma)
        cols = []
        for b in basis_fns:
            c = span.coords(b.g_act(word))
            if c is None:
                raise CrossCheckFailed(
                    "residue action escapes the spanned module"
                )
            cols.append(c)
        return np.stack(cols, axis=1)

    wt = Weight(
        tw,
        K,
        "spanned",
        len(basis_fns),
        builder,
        label="span_of_" + weight.label,
    )
    return SpanModule(f, basis_fns, words, wt, span)
