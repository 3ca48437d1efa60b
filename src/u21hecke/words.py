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
window.  The mirrored shape k * shift^T * u (used when evaluating functions)
comes from the inverted word.  The coset tag is (T, layer coordinates), and
word_from_tag builds its canonical representative u * shift^T.
"""

from ._kernel import INF
from .errors import CrossCheckFailed, InsufficientPrecision
from .laurent import Series
from .mat3 import Mat3, unitary_inverse
from .unitary_group import (
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
    asked for rather than kept, since the normal-form cache holds one
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


def nf_uak(tower, K, word):
    """Normal form word = u * shift^T * k, read off g = word_matrix(word).

    With v_i the certified row minima of g against the lattice of K, the
    shift is T = -v_0 if v_0 < min(v_2, 0), else T = v_2 if v_2 < 0, else 0.
    For T >= 1 the pivot is the first column j (order 0, 2, 1) attaining v_0
    and its row-0 leading coefficient c; layer l of the tag has x = g[1][j]
    at degree l/2 + d over c and depth g[2][j] at degree l + d over c, with
    d = -T - e_j.  For T <= -1 the pivot attains v_2 in row 2, d = T + e_2 -
    e_j, x = conj(-g[1][j] / c) and the depth is read from row 0.  Each
    layer atom is removed on the left before the next layer is read (x is 0
    on odd layers); the remainder, shifted by alpha^-T, is k."""
    cache = getattr(tower, "_nf_cache", None)
    if cache is None:
        cache = tower._nf_cache = {}
    key = (K, tuple(word))
    hit = cache.get(key)
    if hit is not None:
        return hit
    tw, lat = tower, _LATTICE[K]
    e = word_matrix(tw, tuple(word)).e
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
    nf = NormalForm(tw, K, t, k, coords)
    cache[key] = nf
    return nf


def nf_kau(tower, K, word):
    """Mirrored normal form word = k * shift^T * u.

    Returns (k matrix, T, u atoms); computed from the normal form of the
    inverted word by inverting it."""
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
