"""Modules of the residue quotients of the maximal compacts.

The two compacts reduce to finite groups over the residue extension: U(3)
for the standard lattice, U(1,1) x U(1) for the shifted one.  Both are 3x3
residue matrices (unitary_group.GammaElem, the shifted quotient embedded
block diagonally), so the Borel, its torus pair and the coset labels are
read the same way at both compacts.

This module builds the weight catalog over the coefficient field: the
one-dimensional determinant twists, principal series induced from the
Borel, the large quotient of the trivial principal series, and -- for the
shifted compact at a regular character -- the two layers of the length-two
principal series.  It also provides the linear-algebra services the induced
module calculus needs: unipotent invariants and coinvariants, the rank-one
idempotent collapsing onto the invariant line (kept as its two factors),
the one closure loop (closure, run by spin and induction.spin_K), socle
chains, fingerprints, and explicit intertwiners.  Every row space is a gfmat.Basis
filled by block extends: one per subspace or quotient a weight is built
on, and one per closure round, which stacks the images of the whole
frontier under every action.

Every solve runs on generators, never on a whole subgroup: the unipotent
invariants, the lower coinvariants, the torus character and the Borel
eigenlines on the certified generating sublists of the unipotent groups and
the two torus generators; spin, induction.spin_K (through gamma_lift_word),
hom spaces and equivariance on gamma_generators.  A condition stable under
products (fixing a vector, spanning a submodule, intertwining) holds on a
finite group once it holds on a generating set.  The whole subgroups
(gamma_upper, gamma_lower, gamma_torus) stay as inventories, as the source
the generators are picked from, and as the tests' oracles.  They are read
as arrays, with no series: the unipotent groups from the layer residues of
unitary_group.layer_residues, the torus from its residue pairs (a, c) as
diag(a, c, conj(a)^-1).  gamma_beta and gamma_lift_word read the residue of
a word by a product read (words._residues_in_compact); the Mat3 matrices of
series serve only the scalar oracle, the certificate check and the tracer.

Vectors are numpy index arrays over the coefficient field.  A weight acts
on many rows at once, given as residue rows (Weight.apply): a principal
series by a gather and a scale over its Borel cosets (classify_rows, the
array form of classify_coset), the layers and quotients through their base.
A principal series acting by one residue on a block of rows (act_rows)
reads that residue's gather and scale from a table per weight, so it
classifies each residue once.  Weight.matrix, the action on the identity
rows, is cached per element for the solves that need a whole matrix, and
the torus generators' action on the unipotent invariants once per weight
for the Borel eigenlines of every character.
"""

import functools

import numpy as np

from . import gfmat
from ._kernel import INF
from .errors import (
    ClosureBudgetExceeded,
    CrossCheckFailed,
    DegenerateWeight,
    InconclusiveLattice,
    MembershipViolated,
    NotApplicable,
    RelationViolated,
)
from .fields import Character, char_s, characters_of_torus, is_regular, memo
from .unitary_group import (
    INVERSE_ENTRIES,
    K1,
    GammaElem,
    beta_compact_word,
    check_residue_unitarity,
    iwahori_constants,
    layer_residues,
    layer_transversal,
    require_compact,
)
from .words import _residues_in_compact

# Not used here: the benchmark's tracer (perfbench/tracer.py) wraps both.
from .unitary_group import reduce_to_gamma, word_matrix  # noqa: F401

TRIVIAL = "trivial"
DET_TWIST = "det_twist"
PRINCIPAL_SERIES = "principal_series"
STEINBERG = "steinberg"
PS_SUB_QUOTIENT = "ps_sub_quotient"
SPIN_BUDGET = 4096
# Entries of the dense system hom_space builds, len(gens) (dd ds)^2 for
# weights of dims dd and ds: the largest pair in use, steinberg with itself
# at q = 3 (dim 27, 6 generators at K0), has about 3.2 million, and the
# same pair at q = 5 (dim 125) about 1.5 billion, 2.9 GB of uint16.
HOM_ENTRIES = 2**24


# ---------------------------------------------------------------------------
# reduced-group element inventories


@memo
def gamma_beta(tower, K):
    """Image of the distinguished form involution in the residue quotient,
    read by one product read (words._residues_in_compact)."""
    return _residues_in_compact(tower, K, [beta_compact_word(K)])[0]


def _layer_elements(tower, K, k, prime=False):
    """The residues of the atoms of layer_transversal(k, prime), read as one
    array (layer_residues); MembershipViolated when some atom leaves K."""
    rows = layer_residues(tower, K, k, prime)
    if rows is None:
        raise MembershipViolated("layer %d is not in the compact %s" % (k, K))
    return [GammaElem(tower, K, r) for r in rows.tolist()]


@memo
def gamma_upper(tower, K):
    """The full reduced upper-unipotent subgroup (one element per coset of
    the first filtration layer inside the compact; deeper layers reduce to
    the identity)."""
    n_K, _, _ = iwahori_constants(tower, K)
    return _layer_elements(tower, K, n_K)


@memo
def gamma_lower(tower, K):
    """The full reduced lower-unipotent subgroup."""
    _, m_K, _ = iwahori_constants(tower, K)
    return _layer_elements(tower, K, m_K - 1, prime=True)


def torus_atom(tower, a_idx, c_idx):
    """Unit diagonal atom diag(a, c, conj(a)^-1) of exact constants;
    RelationViolated, as atom_d, unless a != 0 and c has norm one."""
    a, c = int(a_idx), int(c_idx)
    if a == 0 or tower.m_(c, tower.c(c)) != 1:
        raise RelationViolated("diagonal entries violate unitarity")
    return ("d",) + tuple((0, INF, (x,)) for x in (a, c, tower.c(tower.i_(a))))


def _torus_elements(tower, K, a, c):
    """The residues diag(a, c, conj(a)^-1) of the unit diagonal atoms
    (torus_atom) of the residue pairs (a[r], c[r]), at either compact (the
    diagonal sits at degree 0 in both patterns), checked unitary."""
    m = np.zeros((9, len(a)), dtype=np.uint16)
    m[0], m[4], m[8] = a, c, tower.frob[tower.inv[a]]
    check_residue_unitarity(tower, m)
    return [GammaElem(tower, K, r) for r in m.T.tolist()]


@memo
def gamma_torus(tower, K):
    """The reduced torus: (q^2 - 1)(q + 1) elements, the first coordinate a
    over the units in index order, then c over the norm-one circle."""
    circle = np.array(tower.norm_one, dtype=np.uint16)
    units = np.arange(1, tower.Q, dtype=np.uint16)
    return _torus_elements(tower, K, np.repeat(units, len(circle)),
                           np.tile(circle, len(units)))


def torus_generator_pairs(tower):
    """Residue pairs (a, c) of the two torus generators: a generator of the
    residue extension's units (first coordinate) and one of the norm-one
    circle (second coordinate)."""
    return ((int(tower.exp[1]), 1), (1, tower.norm_one[1]))


@memo
def gamma_torus_generators(tower, K):
    """The two reduced torus generators, which generate gamma_torus."""
    a, c = np.array(torus_generator_pairs(tower), dtype=np.uint16).T
    return _torus_elements(tower, K, a, c)


def generating_sublist(elems):
    """A generating sublist of a finite group given as a list of elements,
    chosen by one greedy pass: an element joins unless it is the identity or
    already lies in the right-multiplication closure of the earlier picks.

    Raises CrossCheckFailed unless the closure of the picks is exactly the
    key set of the list, so generation is certified, not assumed."""
    keys = {g.key() for g in elems}
    ident = GammaElem.identity(elems[0].tower, elems[0].kind)
    closure = {ident.key(): ident}
    gens = []
    for g in elems:
        if g.key() in closure:
            continue
        gens.append(g)
        # right products suffice: in a finite group every inverse is a
        # positive power, so this closure is the generated subgroup
        queue = list(closure.values())
        while queue:
            x = queue.pop()
            for s in gens:
                y = x * s
                if y.key() not in closure:
                    closure[y.key()] = y
                    queue.append(y)
    if closure.keys() != keys:
        raise CrossCheckFailed("generator closure differs from the group")
    return gens


@memo
def gamma_upper_generators(tower, K):
    """A certified generating sublist of gamma_upper (generating_sublist)."""
    return generating_sublist(gamma_upper(tower, K))


@memo
def gamma_lower_generators(tower, K):
    """A certified generating sublist of gamma_lower (generating_sublist)."""
    return generating_sublist(gamma_lower(tower, K))


@memo
def gamma_generators(tower, K):
    """A deterministic generating set of the reduced group: the two torus
    generators and the upper unipotent generators, which generate the Borel,
    and the form involution.  Exact because the Borel and the involution
    generate the reduced group (the Borel cosets are B and B*beta*u, by
    borel_coset_reps)."""
    gens = gamma_torus_generators(tower, K) + gamma_upper_generators(tower, K)
    gens.append(gamma_beta(tower, K))
    return gens


# ---------------------------------------------------------------------------
# Borel cosets of the reduced group


def _coset_label(tower, K, gamma):
    """Canonical label of the Borel coset B*gamma: the bottom residue row,
    scaled so its first nonzero entry is one (left multiplication by the
    Borel rescales that row by an arbitrary unit).  At K1 the row is
    (c, 0, d), the bottom row of the embedded U(1,1) block."""
    row = gamma.m[6:]
    for v in row:
        if v:
            inv = tower.i_(v)
            return tuple(tower.m_(inv, r) for r in row)
    raise CrossCheckFailed("reduced element has a zero bottom row")


@memo
def borel_coset_reps(tower, K):
    """Coset representatives for Borel\\Gamma: the identity plus the form
    involution times each upper unipotent.  1 + q^t_K cosets."""
    reps = [GammaElem.identity(tower, K)]
    b = gamma_beta(tower, K)
    for u in gamma_upper(tower, K):
        reps.append(b * u)
    label_map = {}
    for i, r in enumerate(reps):
        lab = _coset_label(tower, K, r)
        if lab in label_map:
            raise CrossCheckFailed("coset representatives collide")
        label_map[lab] = i
    return reps, label_map


def classify_coset(tower, K, gamma):
    """(index, b) with gamma = b * reps[index] and b in the Borel."""
    reps, label_map = borel_coset_reps(tower, K)
    idx = label_map.get(_coset_label(tower, K, gamma))
    if idx is None:
        raise CrossCheckFailed("unclassifiable Borel coset")
    b = gamma * reps[idx].inverse()
    if not b.in_borel():
        raise CrossCheckFailed("coset classification produced a non-Borel part")
    return idx, b


def inverse_rows(tower, rows):
    """The inverses of residue elements given as an (..., 9) array of rows
    (GammaElem.m), by one gather (GammaElem.inverse)."""
    return tower.frob[np.asarray(rows)[..., INVERSE_ENTRIES]]


def _entry_products(tower, a, b, entries):
    """Entries 3i + j of the products a * b of residue elements given entry
    first, as (9, ...) index arrays broadcast over the other axes: the sums
    over l of a[3i + l] b[3l + j], as one (len(entries), ...) array.  The
    three terms of every entry are formed by one product and summed by
    two sums."""
    i, j = np.divmod(np.asarray(entries), 3)
    rows = a.reshape((3, 3) + a.shape[1:])[i]
    cols = b.reshape((3, 3) + b.shape[1:])[:, j]
    terms = tower.times(rows, np.moveaxis(cols, 0, 1))
    return tower.plus(tower.plus(terms[:, 0], terms[:, 1]), terms[:, 2])


@memo
def _coset_table(tower, K):
    """The coset representatives and their inverses as (9, d) uint16 arrays,
    entry first, and the integer codes of their labels (sorted) with the
    index of each label's representative: the tables of classify_rows."""
    reps, label_map = borel_coset_reps(tower, K)
    rows = np.array([r.m for r in reps], dtype=np.uint16)
    codes = _label_codes(tower, np.array(list(label_map)).T)
    order = np.argsort(codes)
    at = np.array(list(label_map.values()), dtype=np.intp)
    inv = inverse_rows(tower, rows)
    return rows.T, inv.T, codes[order], at[order]


def _label_codes(tower, labels):
    """One int64 (x Q + y) Q + z per label (x, y, z) of a (3, ...) array."""
    x, y, z = labels.astype(np.int64)
    return (x * tower.Q + y) * tower.Q + z


def classify_rows(tower, K, rows):
    """classify_coset of reps[i] * gamma for every coset representative i
    and every row gamma of an (n, 9) array of residue rows: (k, a, c), (n, d)
    arrays with reps[i] * gamma = b * reps[k] and (a, c) the torus pair of
    b.

    All products reps[i] * gamma are formed at once through the tower's
    array methods (_entry_products); the bottom row of each is scaled to a
    leading one (_coset_label) and looked up by its integer code in the d
    sorted codes of the labels.  The Borel parts are one more product, with
    the inverse representatives, of which only the torus pair and the three
    entries below the diagonal are formed; these are certified to vanish.
    CrossCheckFailed as classify_coset."""
    tw = tower
    reps, inv_reps, codes, at = _coset_table(tw, K)
    g = np.asarray(rows, dtype=np.uint16).T[:, :, None]
    x = _entry_products(tw, reps[:, None, :], g, range(9))
    bottom = x[6:]
    lead = np.where(bottom[0] != 0, bottom[0],
                    np.where(bottom[1] != 0, bottom[1], bottom[2]))
    if not lead.all():
        raise CrossCheckFailed("reduced element has a zero bottom row")
    code = _label_codes(tw, tw.times(tw.inv[lead], bottom))
    pos = np.minimum(np.searchsorted(codes, code), len(codes) - 1)
    if (codes[pos] != code).any():
        raise CrossCheckFailed("unclassifiable Borel coset")
    k = at[pos]
    b = _entry_products(tw, x, inv_reps[:, k], (0, 4, 3, 6, 7))
    if b[2:].any():
        raise CrossCheckFailed(
            "coset classification produced a non-Borel part")
    return k, b[0], b[1]


# ---------------------------------------------------------------------------
# the weight class


class Weight:
    """A finite-dimensional module of a reduced compact.

    The action is one function of many rows, action(rows, ids, vecs): for
    an (r, 9) array of residue rows (GammaElem.m), an index array ids into
    it and an (n, dim) array vecs, the (n, dim) array of the
    sigma(rows[ids[i]]) vecs[i], without changing its arguments (apply).
    matrix(gamma) is the action on the identity rows, read-only, in a
    fields.memo table keyed by the GammaElem.  Vectors are 1-d numpy index
    arrays; matrices act on the left (new = M @ v over the coefficient
    field)."""

    def __init__(self, tower, K, kind, dim, action, chi=None, part=None,
                 power=None, label=None):
        self.tower = tower
        self.K = K
        self.kind = kind
        self.dim = dim
        self.chi = chi
        self.part = part
        self.power = power
        self.label = label or kind
        self._action = action
        self._memo = {}

    def __repr__(self):
        return "Weight(%s, %s, dim=%d)" % (self.label, self.K, self.dim)

    def apply(self, rows, ids, vecs):
        """sigma(rows[ids[i]]) vecs[i] for every row i of vecs (the action)."""
        return self._action(rows, ids, vecs)

    def act_rows(self, gamma, block):
        """sigma(gamma) applied to every row of the (m, dim) array block."""
        return self.apply(np.array([gamma.m], dtype=np.uint16),
                          np.zeros(len(block), dtype=np.intp), block)

    def _build(self, gamma):
        # column j is sigma(gamma) e_j
        return self.act_rows(gamma, gfmat.eye(self.dim)).T

    @memo
    def matrix(self, gamma):
        m = np.ascontiguousarray(self._build(gamma), dtype=np.uint16)
        if m.shape != (self.dim, self.dim):
            raise CrossCheckFailed("weight matrix has the wrong shape")
        m.setflags(write=False)
        return m

    def act(self, gamma, vec):
        return self.act_rows(gamma, np.asarray(vec, dtype=np.uint16)[None])[0]

    def trace(self, gamma):
        tw = self.tower
        m = self.matrix(gamma)
        acc = 0
        for i in range(self.dim):
            acc = tw.a(acc, int(m[i, i]))
        return acc

    # -- unipotent invariants / coinvariants --------------------------------

    @memo
    def u_invariants(self):
        """Rref basis (rows) of the upper-unipotent invariant subspace,
        solved on gamma_upper_generators: the invariants of a group are the
        joint kernel of sigma(s) - 1 over a generating set."""
        tw = self.tower
        ident = gfmat.eye(self.dim)
        ns = gfmat.nullspace(tw, np.concatenate([
            gfmat.sub(tw, self.matrix(s), ident)
            for s in gamma_upper_generators(tw, self.K)
        ]))
        return gfmat.row_space(tw, ns) if ns.shape[0] else ns

    @memo
    def lower_coinvariant_span(self):
        """Rref basis of the span of (sigma(u') - 1)V over lower unipotents
        (the kernel of the coinvariant projection), solved on
        gamma_lower_generators: (gs - 1)v = (g - 1)(sv) + (s - 1)v, and
        every element is a positive word in the generators of a finite
        group, so the generators' images span the whole of it."""
        tw = self.tower
        ident = gfmat.eye(self.dim)
        basis = gfmat.Basis(tw, self.dim)
        basis.extend(np.concatenate([
            gfmat.sub(tw, self.matrix(s), ident).T
            for s in gamma_lower_generators(tw, self.K)
        ]))
        return basis

    def v0(self):
        """The canonical invariant vector; requires a one-dimensional
        invariant space."""
        inv = self.u_invariants()
        if inv.shape[0] != 1:
            raise DegenerateWeight(
                "invariant space has dimension %d" % inv.shape[0]
            )
        return inv[0].copy()

    @memo
    def _torus_on_invariants(self):
        """(t, M_t) for each torus generator t, where M_t is the matrix of
        t restricted to the rows of u_invariants (the images of the rows,
        read at their pivots, transposed), certified to keep that space:
        the part of borel_eigenvectors that no character changes."""
        tw = self.tower
        inv = self.u_invariants()
        checker = gfmat.Basis(tw, self.dim)
        checker.extend(inv)
        piv = checker.pivots()
        out = []
        for t in gamma_torus_generators(tw, self.K):
            images = self.act_rows(t, inv)
            if checker.reduce(images).any():
                raise CrossCheckFailed(
                    "torus does not preserve the invariant space"
                )
            out.append((t, images[:, piv].T))
        return out

    @memo
    def j_factors(self):
        """The read-only factors (v0, ell) of the rank-one idempotent
        j = v0 ell^T: the inverse of the composite of the invariant-line
        inclusion with the lower-coinvariant projection, viewed as an
        endomorphism killing the augmentation span, so ell(v) = (v mod the
        span)[c] / (v0 mod the span)[c].  Certified by ell . v0 == 1, which
        is j j = j and j v0 = v0 for j = v0 ell^T (CrossCheckFailed)."""
        tw = self.tower
        v0 = self.v0()
        span = self.lower_coinvariant_span()
        if span.dim != self.dim - 1:
            raise DegenerateWeight(
                "coinvariant space has dimension %d" % (self.dim - span.dim)
            )
        resid = span.reduce(v0)
        nz = np.nonzero(resid)[0]
        if nz.size == 0:
            raise DegenerateWeight("invariant line dies in the coinvariants")
        c = int(nz[0])
        scale = tw.i_(int(resid[c]))
        ell = tw.times(scale, span.reduce(gfmat.eye(self.dim))[:, c])
        if int(gfmat.sum_rows(tw, tw.times(ell, v0))) != 1:
            raise CrossCheckFailed("collapse functional is not 1 on the seed")
        v0.flags.writeable = ell.flags.writeable = False
        return v0, ell

    @memo
    def j_matrix(self):
        """The rank-one idempotent j = v0 ell^T as a (dim, dim) matrix, the
        outer product of j_factors."""
        v0, ell = self.j_factors()
        return self.tower.times(v0[:, None], ell[None, :])

    @memo
    def chi_of(self):
        """Torus character on the invariant line, read on the generators."""
        tw = self.tower
        v0 = self.v0()
        p = int(np.nonzero(v0)[0][0])
        scale = tw.i_(int(v0[p]))
        vals = {}
        for t in gamma_torus_generators(tw, self.K):
            y = self.act(t, v0)
            c = tw.m_(int(y[p]), scale)
            if not np.array_equal(y, tw.times(c, v0)):
                raise DegenerateWeight("invariant line is not torus-stable")
            vals[t.torus_pair()] = c
        for chi in characters_of_torus(tw):
            if all(chi.value(*pair) == v for pair, v in vals.items()):
                return chi
        raise CrossCheckFailed("no torus character matches the line")

    def fingerprint(self):
        """(dimension, character exponents or None, trace list) on the fixed
        deterministic element list."""
        try:
            chi = self.chi_of()
            chi_key = (chi.i, chi.j)
        except (DegenerateWeight, CrossCheckFailed):
            chi_key = None
        traces = tuple(
            self.trace(g) for g in fingerprint_elements(self.tower, self.K)
        )
        return (self.dim, chi_key, traces)


class BuiltWeight(Weight):
    """A weight given by a builder gamma -> matrix instead of an action (the
    spanned weight of induction.spin_K): matrix(gamma) is the builder's
    matrix, and the action applies the matrix of each residue in use to its
    rows by one product."""

    def __init__(self, tower, K, kind, dim, builder, label=None):
        super().__init__(tower, K, kind, dim, self._by_matrices, label=label)
        self._build = builder

    def _by_matrices(self, rows, ids, vecs):
        out = np.empty((len(vecs), self.dim), dtype=np.uint16)
        # the ids are small: np.unique without return_* would import numpy.ma
        for r in np.flatnonzero(np.bincount(ids)).tolist():
            at = np.flatnonzero(ids == r)
            m = self.matrix(GammaElem(self.tower, self.K, rows[r].tolist()))
            out[at] = gfmat.matmul(self.tower, np.asarray(vecs)[at], m.T)
        return out


def weight_s(weight):
    """The conjugate weight: the catalog partner whose invariant line
    carries the conjugate torus character.

    Inside the residue group the form involution is an inner element, so
    literally precomposing the action by its conjugation returns a weight
    isomorphic to the input; the meaningful involution on the catalog is
    char_s on the invariant-line character.  One-dimensional weights and the
    large quotient are fixed (their characters are conjugation-stable); a
    principal series goes to the principal series of the conjugate
    character; the two layers of a regular length-two series swap."""
    tw, K = weight.tower, weight.K
    kind = weight.kind
    if kind in (TRIVIAL, STEINBERG, DET_TWIST):
        return weight
    if kind == PRINCIPAL_SERIES:
        return make_weight(tw, K, kind, chi=char_s(weight.chi))
    if kind == PS_SUB_QUOTIENT:
        other = "sub" if weight.part == "quotient" else "quotient"
        return make_weight(tw, K, kind, chi=weight.chi, part=other)
    raise NotApplicable("no conjugate partner for weight %r" % weight.label)


# ---------------------------------------------------------------------------
# concrete weights


def _trivial_action(rows, ids, vecs):
    return np.array(vecs, dtype=np.uint16)


def _dets(tower, rows):
    """det of each residue row of an (n, 9) array (GammaElem.det), by the
    cofactor expansion along the first row: the three minors by one product
    for each of their two terms, then the three cofactor terms by one
    product."""
    a = np.asarray(rows).T
    neg = tower.neg
    minors = tower.plus(tower.times(a[[4, 3, 3]], a[[8, 8, 7]]),
                        neg[tower.times(a[[5, 5, 4]], a[[7, 6, 6]])])
    t = tower.times(a[:3], minors)
    return tower.plus(tower.plus(t[0], neg[t[1]]), t[2])


def _det_twist_action(tower, k):
    """gamma acts by det(gamma)^k."""

    def act(rows, ids, vecs):
        det = _dets(tower, rows)
        if not det.all():
            raise CrossCheckFailed("power of the zero index")
        scale = tower.exp[(tower.log[det] * k) % (tower.Q - 1)]
        return tower.times(scale[ids][:, None], vecs)

    return act


class _PrincipalSeries(Weight):
    """A principal series (make_weight), acting on many residue rows by
    _ps_action.  act_rows, one residue on a block of rows, reads that
    residue's gather and scale from a memo table instead (_gather), so
    spin and borel_eigenvectors, which act by the same few generators again
    and again, classify each residue once per weight."""

    @memo
    def _gather(self, gamma):
        """The columns k and the scales chi(b) of reps[i] gamma = b reps[k]
        over the coset representatives i (classify_rows), read-only."""
        k, a, c = classify_rows(self.tower, self.K,
                                np.array([gamma.m], dtype=np.uint16))
        at, scale = k[0], self.chi.values(a, c)[0]
        at.flags.writeable = scale.flags.writeable = False
        return at, scale

    def act_rows(self, gamma, block):
        """sigma(gamma) on every row of block: one gather and one scale."""
        at, scale = self._gather(gamma)
        return self.tower.times(scale, np.asarray(block)[:, at])


def _ps_action(tower, K, chi):
    """The principal series of chi on the Borel cosets: with reps[i] gamma =
    b reps[k] (classify_rows), sigma(gamma) e_k = chi(b) e_i, so the value
    at i is v[k] scaled by chi(b) -- a gather and a scale per row."""

    def act(rows, ids, vecs):
        k, a, c = classify_rows(tower, K, rows)
        at = k[ids]
        return tower.times(chi.values(a, c)[ids],
                           np.take_along_axis(np.asarray(vecs), at, axis=1))

    return act


class _SubSpec:
    """Action of a weight restricted to a stable row-space basis."""

    def __init__(self, base, basis_rows):
        self.base = base
        self.basis = gfmat.Basis(base.tower, base.dim)
        self.basis.extend(basis_rows)
        self.mat = self.basis.matrix()
        self.pivots = self.basis.pivots()

    def action(self, rows, ids, vecs):
        """Lift the coordinates to the base, act there, certify that the
        images stay in the subspace and read them at the rref pivots."""
        tw = self.base.tower
        images = self.base.apply(rows, ids, gfmat.matmul(tw, vecs, self.mat))
        if self.basis.reduce(images).any():
            raise CrossCheckFailed("vector escapes the subspace")
        return images[:, self.pivots]


class _QuotientSpec:
    """Action of a weight on the quotient by a stable row space."""

    def __init__(self, base, sub_rows):
        self.base = base
        self.sub = gfmat.Basis(base.tower, base.dim)
        self.sub.extend(sub_rows)
        piv = set(self.sub.pivots())
        self.free = [i for i in range(base.dim) if i not in piv]

    def action(self, rows, ids, vecs):
        """Lift the coordinates onto the free (non-pivot) positions, act on
        the base, reduce modulo the subspace and read the free positions."""
        lifted = np.zeros((len(vecs), self.base.dim), dtype=np.uint16)
        lifted[:, self.free] = vecs
        images = self.base.apply(rows, ids, lifted)
        return self.sub.reduce(images)[:, self.free]


def _regular_ps_layers(tower, chi):
    """For the shifted compact at a regular character: the stable subspace
    of the principal series spun from the conjugate-character eigenvector."""
    base = make_weight(tower, K1, PRINCIPAL_SERIES, chi=chi)
    eig = borel_eigenvectors(base, char_s(chi))
    if eig.shape[0] != 1:
        raise DegenerateWeight(
            "expected a single conjugate-character eigenline, found %d"
            % eig.shape[0]
        )
    sub = spin(base, [eig[0]])
    if not (0 < sub.shape[0] < base.dim):
        raise CrossCheckFailed("spun layer is not a proper nonzero subspace")
    return base, sub


def make_weight(tower, K, kind, chi=None, part=None, power=None):
    """Build a catalog weight.

    kinds: trivial; det_twist (power 1..q); principal_series (chi);
    steinberg (large quotient of the trivial principal series);
    ps_sub_quotient (shifted compact, prime residue field, regular chi;
    part in {'sub', 'quotient'})."""
    tw = tower
    require_compact(K)
    if kind == TRIVIAL:
        return Weight(tw, K, kind, 1, _trivial_action)
    if kind == DET_TWIST:
        k = power if power is not None else 1
        k = int(k) % (tw.q + 1)
        if k == 0:
            return Weight(tw, K, TRIVIAL, 1, _trivial_action)
        chi_k = Character(tw, -k * (tw.q - 1), k)
        return Weight(
            tw, K, kind, 1, _det_twist_action(tw, k),
            chi=chi_k, power=k, label="det_twist^%d" % k,
        )
    if kind == PRINCIPAL_SERIES:
        if chi is None:
            raise NotApplicable("principal series needs a character")
        reps, _ = borel_coset_reps(tw, K)
        return _PrincipalSeries(
            tw, K, kind, len(reps), _ps_action(tw, K, chi),
            chi=chi, label="ps(%d,%d)" % (chi.i, chi.j),
        )
    if kind == STEINBERG:
        base = make_weight(tw, K, PRINCIPAL_SERIES, chi=Character(tw, 0, 0))
        ones = np.ones(base.dim, dtype=np.uint16)
        spec = _QuotientSpec(base, [ones])
        return Weight(tw, K, kind, base.dim - 1, spec.action)
    if kind == PS_SUB_QUOTIENT:
        if K != K1:
            raise NotApplicable(
                "length-two principal series only for the shifted compact"
            )
        if tower.f != 1:
            raise NotApplicable(
                "length-two principal series needs a prime residue field"
            )
        if chi is None or not is_regular(chi):
            raise NotApplicable("length-two construction needs a regular character")
        if part not in ("sub", "quotient"):
            raise NotApplicable("part must be 'sub' or 'quotient'")
        base, sub = _regular_ps_layers(tw, chi)
        if part == "sub":
            spec = _SubSpec(base, sub)
            return Weight(
                tw, K, kind, sub.shape[0], spec.action,
                chi=chi, part=part, label="ps_sub(%d,%d)" % (chi.i, chi.j),
            )
        spec = _QuotientSpec(base, sub)
        return Weight(
            tw, K, kind, base.dim - sub.shape[0], spec.action,
            chi=chi, part=part, label="ps_quot(%d,%d)" % (chi.i, chi.j),
        )
    raise NotApplicable("unknown weight kind %r" % (kind,))


# ---------------------------------------------------------------------------
# spin, eigenvectors, socle chain


def closure(tower, width, seeds, actions):
    """Rref gfmat.Basis of the least space of width-vectors holding the
    seeds and stable under each action, which maps an (m, width) block of
    rows to their images.  The seeds are inserted first; then each round
    applies every action to the frontier (the rows the last insertion
    added) and inserts all their images, stacked, by one Basis.extend.
    Raises ClosureBudgetExceeded once the basis passes SPIN_BUDGET."""
    basis = gfmat.Basis(tower, width)
    block = basis.extend(seeds)
    while len(block):
        if basis.dim > SPIN_BUDGET:
            raise ClosureBudgetExceeded("closure passed SPIN_BUDGET")
        block = basis.extend(np.concatenate([act(block) for act in actions]))
    return basis


def spin(weight, seeds):
    """Rref basis of the submodule generated by the seed vectors: their
    closure under gamma_generators, each applied to a whole block by the
    weight's action."""
    tw = weight.tower
    actions = [
        functools.partial(weight.act_rows, g)
        for g in gamma_generators(tw, weight.K)
    ]
    return closure(tw, weight.dim, seeds, actions).matrix()


def borel_eigenvectors(weight, chi):
    """Rref basis of {v : u v = v, t v = chi(t) v}, over the upper unipotent
    u and the two torus generators t: the null space of the restrictions
    of t - chi(t) to the invariants (Weight._torus_on_invariants)."""
    tw = weight.tower
    inv = weight.u_invariants()
    r = inv.shape[0]
    if r == 0:
        return inv
    blocks = [
        gfmat.sub(tw, mres, tw.times(chi.value(*t.torus_pair()),
                                     gfmat.eye(r)))
        for t, mres in weight._torus_on_invariants()
    ]
    ns = gfmat.nullspace(tw, np.concatenate(blocks, axis=0))
    if ns.shape[0] == 0:
        return np.zeros((0, weight.dim), dtype=np.uint16)
    return gfmat.row_space(tw, gfmat.matmul(tw, ns, inv))


def _lines_of(tw, rows):
    """One vector per line of a space of dimension <= 2."""
    r = rows.shape[0]
    if r == 0:
        return []
    if r == 1:
        return [rows[0]]
    if r == 2:
        out = [rows[1]]
        for lam in range(tw.Q):
            out.append(tw.plus_times(rows[0], lam, rows[1]))
        return out
    raise InconclusiveLattice(
        "eigenspace of dimension %d: line enumeration refused" % r
    )


def socle_chain(weight):
    """Spin every Borel eigenline and every unipotent-invariant line;
    collect the distinct submodules; return them sorted by dimension if they
    form a chain, else raise InconclusiveLattice."""
    tw = weight.tower
    seeds = list(_lines_of(tw, weight.u_invariants()))
    for chi in characters_of_torus(tw):
        for row in _lines_of(tw, borel_eigenvectors(weight, chi)):
            seeds.append(row)
    modules = {}
    for s in seeds:
        b = spin(weight, [s])
        modules[(b.shape[0], b.tobytes())] = b
    chain = sorted(modules.values(), key=lambda b: b.shape[0])
    dims = [b.shape[0] for b in chain]
    if len(set(dims)) != len(dims):
        raise InconclusiveLattice("incomparable submodules of equal dimension")
    for low, high in zip(chain, chain[1:]):
        basis = gfmat.Basis(tw, weight.dim)
        basis.extend(high)
        if basis.reduce(low).any():
            raise InconclusiveLattice("submodules do not nest")
    return chain


def sub_weight(base, rows, label=None):
    """The weight carried by a stable row space of a base weight."""
    spec = _SubSpec(base, rows)
    return Weight(
        base.tower, base.K, "sub_of_" + base.kind, spec.mat.shape[0],
        spec.action, label=label or ("sub_of_" + base.label),
    )


def quotient_weight(base, rows, label=None):
    """The weight carried by the quotient of a base weight by a stable row
    space."""
    spec = _QuotientSpec(base, rows)
    return Weight(
        base.tower, base.K, "quotient_of_" + base.kind,
        base.dim - spec.sub.dim, spec.action,
        label=label or ("quotient_of_" + base.label),
    )


@memo
def _upper_words(tower, K):
    """One-atom word of each reduced upper unipotent, by element key."""
    n_K, _, _ = iwahori_constants(tower, K)
    return {
        g.key(): (a,)
        for g, a in zip(_layer_elements(tower, K, n_K),
                        layer_transversal(tower, n_K))
    }


def gamma_lift_word(tower, K, gamma):
    """A compact word reducing to the given residue element.

    Decomposes gamma as torus * upper * coset-rep and assembles the word
    from unit-diagonal, first-layer, and involution atoms.  The round trip
    through the residue map is certified by one product read of the word
    (words._residues_in_compact), so a wrong lift cannot escape."""
    idx, b = classify_coset(tower, K, gamma)
    a_idx, c_idx = b.torus_pair()
    t_word = (torus_atom(tower, a_idx, c_idx),)
    u_g = _torus_elements(tower, K, [a_idx], [c_idx])[0].inverse() * b
    if not u_g.in_unipotent():
        raise CrossCheckFailed("Borel part did not split as torus * unipotent")
    u_word = _upper_words(tower, K).get(u_g.key())
    if u_word is None:
        raise CrossCheckFailed("unipotent part missing from the layer table")
    if idx == 0:
        rep_word = ()
    else:
        n_K, _, _ = iwahori_constants(tower, K)
        rep_word = beta_compact_word(K) + (
            layer_transversal(tower, n_K)[idx - 1],
        )
    word = t_word + u_word + rep_word
    if _residues_in_compact(tower, K, [word]) != [gamma]:
        raise CrossCheckFailed("lifted word does not reduce to the element")
    return word


# ---------------------------------------------------------------------------
# fingerprints, hom spaces, reciprocity intertwiners


@memo
def fingerprint_elements(tower, K):
    """Fixed deterministic element list used for trace fingerprints."""
    tw = tower
    t1, t2 = gamma_torus_generators(tw, K)
    u1 = gamma_upper(tw, K)[1]
    l1 = gamma_lower(tw, K)[1]
    b = gamma_beta(tw, K)
    ident = GammaElem.identity(tw, K)
    return [ident, t1, t2, t1 * t2, u1, l1, b, u1 * b, t1 * u1]


def hom_space(wsrc, wdst, gens=None):
    """Rref basis of Hom(wsrc, wdst): matrices M with dst(g) M = M src(g).

    Returned as rows of length dim_dst * dim_src (row-major M).  The system
    is dense, len(gens) (dd ds)^2 entries, so NotApplicable above
    HOM_ENTRIES, before anything is built."""
    tw = wsrc.tower
    if gens is None:
        gens = gamma_generators(tw, wsrc.K)
    dd, ds = wdst.dim, wsrc.dim
    if len(gens) * (dd * ds) ** 2 > HOM_ENTRIES:
        raise NotApplicable(
            "hom_space of dims %d and %d needs %d entries, above "
            "HOM_ENTRIES=%d" % (dd, ds, len(gens) * (dd * ds) ** 2,
                                HOM_ENTRIES))
    # row (i, j) of the equation dst(g) M - M src(g) = 0 on the entries
    # M[k, l] at k ds + l is kron(dst(g), 1) - kron(1, src(g)^T); np.kron
    # multiplies table indices as integers, which is exact here because one
    # factor of every product is the identity's 0 or 1, the indices of the
    # field's zero and one
    ident_d, ident_s = gfmat.eye(dd), gfmat.eye(ds)
    rows = [
        gfmat.sub(tw, np.kron(wdst.matrix(g), ident_s),
                  np.kron(ident_d, wsrc.matrix(g).T))
        for g in gens
    ]
    return gfmat.nullspace(tw, np.concatenate(rows))


def reciprocity_map_from_ps(weight, chi, w0):
    """The explicit intertwiner from the principal series of chi into the
    weight, attached to a Borel eigenvector w0 of character chi:
    the coset-rep basis vector e_i maps to sigma(x_i)^-1 w0.

    Returns the (dim_weight x dim_ps) matrix; the caller checks rank and
    equivariance."""
    tw = weight.tower
    reps, _ = borel_coset_reps(tw, weight.K)
    cols = [weight.act(x.inverse(), w0) for x in reps]
    return np.stack(cols, axis=1)


def check_equivariant(wsrc, wdst, mat, gens=None):
    """Does mat intertwine wsrc into wdst on the generating set?"""
    tw = wsrc.tower
    if gens is None:
        gens = gamma_generators(tw, wsrc.K)
    for g in gens:
        lhs = gfmat.matmul(tw, wdst.matrix(g), mat)
        rhs = gfmat.matmul(tw, mat, wsrc.matrix(g))
        if not np.array_equal(lhs, rhs):
            return False
    return True
