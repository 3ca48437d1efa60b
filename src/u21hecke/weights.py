"""Modules of the residue quotients of the maximal compacts.

The two compacts reduce to finite groups over the residue extension (a
three-variable unitary group for the standard lattice, the product of a
two-variable unitary group with the norm-one circle for the shifted one).
This module builds the weight catalog over the coefficient field: the
one-dimensional determinant twists, principal series induced from the
Borel, the large quotient of the trivial principal series, and -- for the
shifted compact at a regular character -- the two layers of the length-two
principal series.  It also provides the linear-algebra services the induced
module calculus needs: unipotent invariants and coinvariants, the rank-one
idempotent collapsing onto the invariant line, generator closures (spin),
socle chains, fingerprints, and explicit intertwiners.

Vectors are numpy index arrays over the coefficient field; a weight acts
through cached matrices, one per reduced-group element.
"""

import numpy as np

from . import gfmat
from .errors import (
    CrossCheckFailed,
    DegenerateWeight,
    InconclusiveLattice,
    NotApplicable,
)
from .fields import Character, char_s, characters_of_torus, is_regular
from .laurent import Series
from .unitary_group import (
    K0,
    K1,
    GammaElem,
    atom_d,
    atom_matrix,
    beta_compact_word,
    iwahori_constants,
    layer_transversal,
    reduce_to_gamma,
    torus_unit_atoms,
    word_matrix,
)

TRIVIAL = "trivial"
DET_TWIST = "det_twist"
PRINCIPAL_SERIES = "principal_series"
STEINBERG = "steinberg"
PS_SUB_QUOTIENT = "ps_sub_quotient"


# ---------------------------------------------------------------------------
# reduced-group element inventories


def _wcache(tower):
    cache = getattr(tower, "_weights_cache", None)
    if cache is None:
        cache = tower._weights_cache = {}
    return cache


def reduce_word(tower, K, word):
    return reduce_to_gamma(tower, K, word_matrix(tower, word))


def reduce_atom(tower, K, atom):
    return reduce_to_gamma(tower, K, atom_matrix(tower, atom))


def gamma_beta(tower, K):
    """Image of the distinguished form involution in the residue quotient."""
    cache = _wcache(tower)
    key = ("beta", K)
    if key not in cache:
        cache[key] = reduce_word(tower, K, beta_compact_word(K))
    return cache[key]


def gamma_upper(tower, K):
    """The full reduced upper-unipotent subgroup (one element per coset of
    the first filtration layer inside the compact; deeper layers reduce to
    the identity)."""
    cache = _wcache(tower)
    key = ("upper", K)
    if key not in cache:
        n_K, _, _ = iwahori_constants(tower, K)
        cache[key] = [
            reduce_atom(tower, K, a) for a in layer_transversal(tower, n_K)
        ]
    return cache[key]


def gamma_lower(tower, K):
    """The full reduced lower-unipotent subgroup."""
    cache = _wcache(tower)
    key = ("lower", K)
    if key not in cache:
        _, m_K, _ = iwahori_constants(tower, K)
        cache[key] = [
            reduce_atom(tower, K, a)
            for a in layer_transversal(tower, m_K - 1, prime=True)
        ]
    return cache[key]


def torus_atom(tower, a_idx, c_idx):
    """Unit diagonal atom with residue pair (a, c)."""
    return atom_d(
        tower,
        Series.const(tower, a_idx),
        Series.const(tower, c_idx),
        Series.const(tower, tower.c(tower.i_(a_idx))),
    )


def gamma_torus(tower, K):
    """The reduced torus: (q^2 - 1)(q + 1) elements, deterministic order."""
    cache = _wcache(tower)
    key = ("torus", K)
    if key not in cache:
        cache[key] = [
            reduce_atom(tower, K, a) for a in torus_unit_atoms(tower)
        ]
    return cache[key]


def gamma_generators(tower, K):
    """A deterministic generating set of the reduced group: the two torus
    generators, the whole upper unipotent group, and the form involution
    (which conjugates upper to lower)."""
    cache = _wcache(tower)
    key = ("gens", K)
    if key not in cache:
        tw = tower
        a_gen = int(tw.exp[1])
        c_gen = tw.norm_one[1]
        gens = [
            reduce_atom(tw, K, torus_atom(tw, a_gen, 1)),
            reduce_atom(tw, K, torus_atom(tw, 1, c_gen)),
        ]
        gens.extend(gamma_upper(tw, K))
        gens.append(gamma_beta(tw, K))
        cache[key] = gens
    return cache[key]


# ---------------------------------------------------------------------------
# Borel cosets of the reduced group


def _coset_label(tower, K, gamma):
    """Canonical label of the Borel coset B*gamma: the bottom residue row of
    the relevant block, scaled so its first nonzero entry is one (left
    multiplication by the Borel rescales that row by an arbitrary unit)."""
    if K == K0:
        row = (gamma.m[6], gamma.m[7], gamma.m[8])
    else:
        row = (gamma.m[2], gamma.m[3])
    for v in row:
        if v:
            inv = tower.i_(v)
            return tuple(tower.m_(inv, r) for r in row)
    raise CrossCheckFailed("reduced element has a zero bottom row")


def borel_coset_reps(tower, K):
    """Coset representatives for Borel\\Gamma: the identity plus the form
    involution times each upper unipotent.  1 + q^t_K cosets."""
    cache = _wcache(tower)
    key = ("reps", K)
    if key not in cache:
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
        cache[key] = (reps, label_map)
    return cache[key]


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


# ---------------------------------------------------------------------------
# the weight class


def _pow_idx(tower, x_idx, k):
    """x^k for a unit index."""
    if x_idx == 0:
        raise CrossCheckFailed("power of the zero index")
    return int(tower.exp[(int(tower.log[x_idx]) * int(k)) % (tower.Q - 1)])


class Weight:
    """A finite-dimensional module of a reduced compact.

    The action is provided as a builder gamma -> matrix and memoized by the
    element key.  Vectors are 1-d numpy index arrays; matrices act on the
    left (new = M @ v over the coefficient field)."""

    def __init__(self, tower, K, kind, dim, builder, chi=None, part=None,
                 power=None, label=None):
        self.tower = tower
        self.K = K
        self.kind = kind
        self.dim = dim
        self.chi = chi
        self.part = part
        self.power = power
        self.label = label or kind
        self._builder = builder
        self._mats = {}

    def __repr__(self):
        return "Weight(%s, %s, dim=%d)" % (self.label, self.K, self.dim)

    def matrix(self, gamma):
        key = gamma.key()
        m = self._mats.get(key)
        if m is None:
            m = np.ascontiguousarray(self._builder(gamma), dtype=np.uint16)
            if m.shape != (self.dim, self.dim):
                raise CrossCheckFailed("weight matrix has the wrong shape")
            m.setflags(write=False)
            self._mats[key] = m
        return m

    def act(self, gamma, vec):
        return gfmat.matvec(self.tower, self.matrix(gamma), vec)

    def trace(self, gamma):
        tw = self.tower
        m = self.matrix(gamma)
        acc = 0
        for i in range(self.dim):
            acc = tw.a(acc, int(m[i, i]))
        return acc

    # -- unipotent invariants / coinvariants --------------------------------

    def u_invariants(self):
        """Rref basis (rows) of the upper-unipotent invariant subspace."""
        if not hasattr(self, "_uinv"):
            tw = self.tower
            blocks = []
            ident = gfmat.eye(self.dim)
            for u in gamma_upper(tw, self.K):
                blocks.append(gfmat.sub(tw, self.matrix(u), ident))
            stacked = np.concatenate(blocks, axis=0)
            ns = gfmat.nullspace(tw, stacked)
            self._uinv = gfmat.row_space(tw, ns) if ns.shape[0] else ns
        return self._uinv

    def lower_coinvariant_span(self):
        """Rref basis of the span of (sigma(u') - 1)V over lower unipotents
        (the kernel of the coinvariant projection)."""
        if not hasattr(self, "_cospan"):
            tw = self.tower
            basis = gfmat.Basis(tw, self.dim)
            ident = gfmat.eye(self.dim)
            for u in gamma_lower(tw, self.K):
                d = gfmat.sub(tw, self.matrix(u), ident)
                for col in range(self.dim):
                    basis.add(d[:, col])
            self._cospan = basis
        return self._cospan

    def v0(self):
        """The canonical invariant vector; requires a one-dimensional
        invariant space."""
        inv = self.u_invariants()
        if inv.shape[0] != 1:
            raise DegenerateWeight(
                "invariant space has dimension %d" % inv.shape[0]
            )
        return inv[0].copy()

    def j_matrix(self):
        """The rank-one idempotent: inverse of the composite of the
        invariant-line inclusion with the lower-coinvariant projection,
        viewed as an endomorphism killing the augmentation span."""
        if not hasattr(self, "_jmat"):
            tw = self.tower
            v0 = self.v0()
            span = self.lower_coinvariant_span()
            if span.dim != self.dim - 1:
                raise DegenerateWeight(
                    "coinvariant space has dimension %d"
                    % (self.dim - span.dim)
                )
            resid = span.reduce(v0)
            nz = np.nonzero(resid)[0]
            if nz.size == 0:
                raise DegenerateWeight(
                    "invariant line dies in the coinvariants"
                )
            c = int(nz[0])
            # functional ell(v) = (v reduced mod span)[c] / (resid)[c];
            # j = v0 * ell picks ell via the residual of each basis vector.
            scale = tw.i_(int(resid[c]))
            cols = []
            for i in range(self.dim):
                e = np.zeros(self.dim, dtype=np.uint16)
                e[i] = 1
                r = span.reduce(e)
                cols.append(tw.m_(scale, int(r[c])))
            ell = np.array(cols, dtype=np.uint16)
            j = tw.mul[v0[:, None], ell[None, :]]
            jj = gfmat.matmul(tw, j, j)
            if not np.array_equal(jj, j):
                raise CrossCheckFailed("collapse endomorphism is not idempotent")
            if not np.array_equal(gfmat.matvec(tw, j, v0), v0):
                raise CrossCheckFailed("collapse endomorphism moves the seed")
            self._jmat = j
        return self._jmat

    def chi_of(self):
        """Character of the torus on the invariant line."""
        if not hasattr(self, "_chi_of"):
            tw = self.tower
            v0 = self.v0()
            p = int(np.nonzero(v0)[0][0])
            scale = tw.i_(int(v0[p]))
            vals = {}
            for t in gamma_torus(tw, self.K):
                y = self.act(t, v0)
                c = tw.m_(int(y[p]), scale)
                if not np.array_equal(y, tw.mul[c, v0]):
                    raise DegenerateWeight("invariant line is not torus-stable")
                vals[t.torus_pair()] = c
            for chi in characters_of_torus(tw):
                if all(chi.value(*pair) == v for pair, v in vals.items()):
                    self._chi_of = chi
                    break
            else:
                raise CrossCheckFailed("no torus character matches the line")
        return self._chi_of

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


def _trivial_builder(tower):
    one = np.array([[1]], dtype=np.uint16)

    def builder(gamma):
        return one

    return builder


def _det_twist_builder(tower, k):
    def builder(gamma):
        d = gamma.det()
        return np.array([[_pow_idx(tower, d, k)]], dtype=np.uint16)

    return builder


def _ps_builder(tower, K, chi):
    reps, _ = borel_coset_reps(tower, K)
    d = len(reps)

    def builder(gamma):
        m = np.zeros((d, d), dtype=np.uint16)
        for i, x in enumerate(reps):
            k, b = classify_coset(tower, K, x * gamma)
            m[i, k] = chi.value(*b.torus_pair())
        return m

    return builder


class _SubSpec:
    """Action of a weight restricted to a stable row-space basis."""

    def __init__(self, base, basis_rows):
        self.base = base
        tw = base.tower
        self.basis = gfmat.Basis(tw, base.dim)
        for row in basis_rows:
            self.basis.add(row)
        self.mat = self.basis.matrix()
        self.pivots = self.basis.pivots()

    def coords(self, v):
        tw = self.base.tower
        resid = self.basis.reduce(v)
        if resid.any():
            raise CrossCheckFailed("vector escapes the subspace")
        # rref rows: coordinates are read at the pivot positions
        return np.array([v[p] for p in self.pivots], dtype=np.uint16)

    def builder(self):
        tw = self.base.tower

        def build(gamma):
            m = self.base.matrix(gamma)
            cols = []
            for row in self.mat:
                y = gfmat.matvec(tw, m, row)
                cols.append(self.coords(y))
            return np.stack(cols, axis=1)

        return build


class _QuotientSpec:
    """Action of a weight on the quotient by a stable row space."""

    def __init__(self, base, sub_rows):
        self.base = base
        tw = base.tower
        self.sub = gfmat.Basis(tw, base.dim)
        for row in sub_rows:
            self.sub.add(row)
        piv = set(self.sub.pivots())
        self.free = [i for i in range(base.dim) if i not in piv]

    def project(self, v):
        resid = self.sub.reduce(v)
        return resid[self.free]

    def lift(self, coords):
        z = np.zeros(self.base.dim, dtype=np.uint16)
        z[self.free] = coords
        return z

    def builder(self):
        tw = self.base.tower

        def build(gamma):
            m = self.base.matrix(gamma)
            cols = []
            for f in self.free:
                e = np.zeros(self.base.dim, dtype=np.uint16)
                e[f] = 1
                cols.append(self.project(gfmat.matvec(tw, m, e)))
            return np.stack(cols, axis=1)

        return build


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
    if K not in (K0, K1):
        raise NotApplicable("unknown compact %r" % (K,))
    if kind == TRIVIAL:
        return Weight(tw, K, kind, 1, _trivial_builder(tw))
    if kind == DET_TWIST:
        k = power if power is not None else 1
        k = int(k) % (tw.q + 1)
        if k == 0:
            return Weight(tw, K, TRIVIAL, 1, _trivial_builder(tw))
        chi_k = Character(tw, -k * (tw.q - 1), k)
        return Weight(
            tw, K, kind, 1, _det_twist_builder(tw, k),
            chi=chi_k, power=k, label="det_twist^%d" % k,
        )
    if kind == PRINCIPAL_SERIES:
        if chi is None:
            raise NotApplicable("principal series needs a character")
        reps, _ = borel_coset_reps(tw, K)
        return Weight(
            tw, K, kind, len(reps), _ps_builder(tw, K, chi),
            chi=chi, label="ps(%d,%d)" % (chi.i, chi.j),
        )
    if kind == STEINBERG:
        base = make_weight(tw, K, PRINCIPAL_SERIES, chi=Character(tw, 0, 0))
        ones = np.ones(base.dim, dtype=np.uint16)
        spec = _QuotientSpec(base, [ones])
        return Weight(tw, K, kind, base.dim - 1, spec.builder())
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
                tw, K, kind, sub.shape[0], spec.builder(),
                chi=chi, part=part, label="ps_sub(%d,%d)" % (chi.i, chi.j),
            )
        spec = _QuotientSpec(base, sub)
        return Weight(
            tw, K, kind, base.dim - sub.shape[0], spec.builder(),
            chi=chi, part=part, label="ps_quot(%d,%d)" % (chi.i, chi.j),
        )
    raise NotApplicable("unknown weight kind %r" % (kind,))


# ---------------------------------------------------------------------------
# spin, eigenvectors, socle chain


def spin(weight, seeds, budget=4096):
    """Rref basis of the submodule generated by the seed vectors: closure
    under the deterministic generating set."""
    tw = weight.tower
    basis = gfmat.Basis(tw, weight.dim)
    queue = []
    for s in seeds:
        if basis.add(s) is not None:
            queue.append(np.array(s, dtype=np.uint16))
    gens = gamma_generators(tw, weight.K)
    while queue:
        v = queue.pop()
        for g in gens:
            y = weight.act(g, v)
            if basis.add(y) is not None:
                queue.append(y)
                if basis.dim > budget:
                    raise CrossCheckFailed("spin exceeded its budget")
    return basis.matrix()


def borel_eigenvectors(weight, chi):
    """Rref basis of {v : u v = v for upper unipotent u, t v = chi(t) v}."""
    tw = weight.tower
    inv = weight.u_invariants()
    r = inv.shape[0]
    if r == 0:
        return inv
    piv = [int(np.nonzero(b)[0][0]) for b in inv]
    checker = gfmat.Basis(tw, weight.dim)
    for row in inv:
        checker.add(row)
    blocks = []
    for t in gamma_torus(tw, weight.K):
        m = weight.matrix(t)
        # restriction of m to the invariant space, minus chi(t)
        val = chi.value(*t.torus_pair())
        cols = []
        for row in inv:
            y = gfmat.matvec(tw, m, row)
            if checker.reduce(y).any():
                raise CrossCheckFailed(
                    "torus does not preserve the invariant space"
                )
            cols.append(np.array([y[p] for p in piv], dtype=np.uint16))
        mres = np.stack(cols, axis=1)
        blocks.append(gfmat.sub(tw, mres, gfmat.smul(tw, val, gfmat.eye(r))))
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
            out.append(gfmat.add(tw, rows[0], gfmat.smul(tw, lam, rows[1])))
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
        for row in low:
            if not gfmat.in_row_space(tw, high, row):
                raise InconclusiveLattice("submodules do not nest")
    return chain


def sub_weight(base, rows, label=None):
    """The weight carried by a stable row space of a base weight."""
    spec = _SubSpec(base, rows)
    return Weight(
        base.tower, base.K, "sub_of_" + base.kind, spec.mat.shape[0],
        spec.builder(), label=label or ("sub_of_" + base.label),
    )


def quotient_weight(base, rows, label=None):
    """The weight carried by the quotient of a base weight by a stable row
    space."""
    spec = _QuotientSpec(base, rows)
    return Weight(
        base.tower, base.K, "quotient_of_" + base.kind,
        base.dim - spec.sub.dim, spec.builder(),
        label=label or ("quotient_of_" + base.label),
    )


def gamma_lift_word(tower, K, gamma):
    """A compact word reducing to the given residue element.

    Decomposes gamma as torus * upper * coset-rep and assembles the word
    from unit-diagonal, first-layer, and involution atoms.  The round trip
    through the residue map is asserted, so a wrong lift cannot escape."""
    cache = _wcache(tower)
    key = ("upper_word", K)
    if key not in cache:
        n_K, _, _ = iwahori_constants(tower, K)
        table = {}
        for a in layer_transversal(tower, n_K):
            table[reduce_atom(tower, K, a).key()] = (a,)
        cache[key] = table
    upper_words = cache[key]

    idx, b = classify_coset(tower, K, gamma)
    a_idx, c_idx = b.torus_pair()
    t_word = (torus_atom(tower, a_idx, c_idx),)
    u_g = reduce_word(tower, K, t_word).inverse() * b
    if not u_g.in_unipotent():
        raise CrossCheckFailed("Borel part did not split as torus * unipotent")
    u_word = upper_words.get(u_g.key())
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
    if reduce_word(tower, K, word).key() != gamma.key():
        raise CrossCheckFailed("lifted word does not reduce to the element")
    return word


# ---------------------------------------------------------------------------
# fingerprints, hom spaces, reciprocity intertwiners


def fingerprint_elements(tower, K):
    """Fixed deterministic element list used for trace fingerprints."""
    cache = _wcache(tower)
    key = ("fp", K)
    if key not in cache:
        tw = tower
        a_gen = int(tw.exp[1])
        c_gen = tw.norm_one[1]
        t1 = reduce_atom(tw, K, torus_atom(tw, a_gen, 1))
        t2 = reduce_atom(tw, K, torus_atom(tw, 1, c_gen))
        u1 = gamma_upper(tw, K)[1]
        l1 = gamma_lower(tw, K)[1]
        b = gamma_beta(tw, K)
        ident = GammaElem.identity(tw, K)
        cache[key] = [ident, t1, t2, t1 * t2, u1, l1, b, u1 * b, t1 * u1]
    return cache[key]


def hom_space(wsrc, wdst, gens=None):
    """Rref basis of Hom(wsrc, wdst): matrices M with dst(g) M = M src(g).

    Returned as rows of length dim_dst * dim_src (row-major M).  Intended
    for small dimensions."""
    tw = wsrc.tower
    if gens is None:
        gens = gamma_generators(tw, wsrc.K)
    dd, ds = wdst.dim, wsrc.dim
    n = dd * ds
    rows = []
    for g in gens:
        a = wdst.matrix(g)
        b = wsrc.matrix(g)
        for i in range(dd):
            for j in range(ds):
                row = np.zeros(n, dtype=np.uint16)
                for k in range(dd):
                    row[k * ds + j] = tw.a(int(row[k * ds + j]), int(a[i, k]))
                for k in range(ds):
                    row[i * ds + k] = tw.a(
                        int(row[i * ds + k]), tw.n(int(b[k, j]))
                    )
                rows.append(row)
    ns = gfmat.nullspace(tw, np.stack(rows))
    return ns


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
