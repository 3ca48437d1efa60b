"""Deterministic rewriting of generator words into compact-factored form.

Every group element handled by the verification code is a short word in the
atoms of unitary_group.  This module rewrites such a word into the shape

    u * shift^T * k,        u in the pro-unipotent radical of the compact,
                            T an integer, k in the compact,

by a fuelled rewriting loop whose only moves are machine-verified identities:
same-kind merges, diagonal splitting, absorption of certified atoms at either
end, and the closed-form factorization of a shallow unipotent through the
form involution.  The final factorization is certified by reassembling the
product and comparing with the input matrix.

The mirrored shape k * shift^T * u (used when evaluating functions) is
obtained by rewriting the inverted word.  On top of the normal form sit the
coset tags: finitely many filtration-layer coordinates that classify the
left coset of the element modulo the compact.
"""

from .errors import CrossCheckFailed, NormalFormFailure
from .laurent import Series
from .mat3 import Mat3
from .unitary_group import (
    K0,
    atom_alpha,
    atom_beta,
    atom_conj_alpha,
    atom_conj_beta,
    atom_conj_diag,
    atom_identity,
    atom_inv,
    atom_is_identity,
    atom_np,
    atom_times,
    beta_times_n,
    exchange,
    exchange2,
    iwahori_constants,
    layer_atom,
    merge_atoms,
    np_factorization,
    word_inverse,
    word_matrix,
)

DEFAULT_FUEL = 400
SORT_FUEL = 2000


class NormalForm:
    """Certified factorization word = u * shift^T * k."""

    __slots__ = ("tower", "K", "u", "t", "k")

    def __init__(self, tower, K, u, t, k):
        self.tower = tower
        self.K = K
        self.u = tuple(u)
        self.t = t
        self.k = k

    def __repr__(self):
        return "NormalForm(t=%d, |u|=%d)" % (self.t, len(self.u))


def _val_bounds(trip):
    """(certified lower bound on val, exact val or None)."""
    val, prec, co = trip
    if co:
        return val, val
    return prec, None


def _atom_in_pro_unipotent(tower, K, atom, consts):
    """True / False / None(indeterminate): atom in the pro-unipotent radical."""
    n_K, m_K, _ = consts
    kind = atom[0]
    if kind == "n":
        lb, ex = _val_bounds(atom[2])
        if lb >= n_K:
            return True
        return False if ex is not None else None
    if kind == "np":
        lb, ex = _val_bounds(atom[2])
        if lb >= m_K:
            return True
        return False if ex is not None else None
    if kind == "d":
        for trip in atom[1:]:
            val, prec, co = trip
            if not co:
                return None
            if val > 0:
                return False
            if val < 0:
                return False
            if co[0] != 1:
                return False
            # val == 0, residue 1; tail is automatically pro-p.
        return True
    if kind == "a":
        return atom[1] == 0
    return False


def _atom_in_compact(tower, K, atom, consts):
    """True / False / None(indeterminate): atom in the compact."""
    n_K, m_K, _ = consts
    kind = atom[0]
    if kind == "n":
        ylb, yex = _val_bounds(atom[2])
        xlb, _ = _val_bounds(atom[1])
        need_x = -((-n_K) // 2)  # ceil(n_K / 2)
        if ylb >= n_K and xlb >= need_x:
            return True
        if yex is not None and yex < n_K:
            return False
        if _val_bounds(atom[1])[1] is not None and xlb < need_x:
            return False
        return None
    if kind == "np":
        k0 = m_K - 1
        ylb, yex = _val_bounds(atom[2])
        xlb, _ = _val_bounds(atom[1])
        need_x = -((-k0) // 2)
        if ylb >= k0 and xlb >= need_x:
            return True
        if yex is not None and yex < k0:
            return False
        if _val_bounds(atom[1])[1] is not None and xlb < need_x:
            return False
        return None
    if kind == "d":
        for trip in atom[1:]:
            val, prec, co = trip
            if not co:
                return None
            if val != 0:
                return False
        return True
    if kind == "a":
        return atom[1] == 0
    if kind == "b":
        return K == K0
    return False


def _expand_shallow(tower, atom):
    """Rewrite a shallow unipotent atom through the form involution.

    For an upper atom returns [b, n, d, np]; for a lower atom returns
    [n, d, np, b].  Requires the depth coordinate to be invertible."""
    x = Series(tower, atom[1])
    y = Series(tower, atom[2])
    if not y.coeffs:
        raise NormalFormFailure("blocking atom has no certified leading depth")
    if atom[0] == "n":
        n1, h1, np1 = beta_times_n(tower, x, y)
        return [atom_beta(), n1, h1, np1]
    n1, h1, np1 = np_factorization(tower, x, y)
    return [n1, h1, np1, atom_beta()]


def _cleanup(tower, w):
    """Drop identities, merge adjacent same-kind atoms, split non-unit
    diagonals into a shift power times a unit diagonal.  One full pass;
    returns True if anything changed."""
    changed = False
    i = 0
    while i < len(w):
        if atom_is_identity(w[i]):
            del w[i]
            changed = True
            continue
        if w[i][0] == "d":
            val, prec, co = w[i][1]
            if co and val != 0:
                d = w[i]
                unit = tuple(
                    Series(tower, trip).shift(s).trip
                    for trip, s in zip(d[1:], (-val, 0, val))
                )
                w[i : i + 1] = [atom_alpha(-val), ("d",) + unit]
                changed = True
                continue
        if i + 1 < len(w):
            m = merge_atoms(tower, w[i], w[i + 1])
            if m is not None:
                w[i : i + 2] = [] if atom_is_identity(m) else [m]
                changed = True
                continue
        i += 1
    return changed


def nf_uak(tower, K, word):
    """Normal form u * shift^T * k of a generator word."""
    cache = getattr(tower, "_nf_cache", None)
    if cache is None:
        cache = tower._nf_cache = {}
    # The window fixes the precision of every inverse taken below.
    key = (K, tower.default_window, tuple(word))
    hit = cache.get(key)
    if hit is not None:
        return hit
    consts = iwahori_constants(tower, K)
    w = [a for a in word if not atom_is_identity(a)]
    u_list = []
    T = 0
    k_e = Mat3.identity(tower).e  # entries of k, built by row operations
    steps = 0
    while True:
        steps += 1
        if steps > DEFAULT_FUEL:
            raise NormalFormFailure(
                "rewriting fuel exhausted after %d steps" % DEFAULT_FUEL
            )
        if _cleanup(tower, w):
            continue
        # absorb certified pro-unipotent atoms on the left
        if w and _atom_in_pro_unipotent(tower, K, w[0], consts) is True:
            u_list.append(w.pop(0))
            continue
        # absorb on the right
        if w:
            c = w[-1]
            if c[0] == "a":
                T += c[1]
                w.pop()
                continue
            if c[0] == "b":
                k_e = atom_times(tower, c, k_e)
                if K == K0:
                    T = -T
                else:
                    T = -T - 1
                    k_e = atom_times(tower, atom_alpha(1), k_e)
                w.pop()
                continue
            eff = atom_conj_alpha(tower, c, -T)
            ok = _atom_in_compact(tower, K, eff, consts)
            if ok is True:
                k_e = atom_times(tower, eff, k_e)
                w.pop()
                continue
            if c[0] not in ("n", "np"):
                raise NormalFormFailure(
                    "unabsorbable atom of kind %r" % (c[0],)
                )
            # the rightmost unipotent is blocked: slide any non-unipotent
            # left neighbour past it by conjugation, and only factor it
            # through the form involution as a last resort
            if len(w) >= 2:
                a = w[-2]
                if a[0] == "b":
                    w[-2:] = [atom_conj_beta(tower, c), a]
                    continue
                if a[0] == "d":
                    w[-2:] = [atom_conj_diag(tower, a, c), a]
                    continue
                if a[0] == "a":
                    w[-2:] = [atom_conj_alpha(tower, c, a[1]), a]
                    continue
            w[-1:] = _expand_shallow(tower, c)
            continue
        break
    nf = NormalForm(tower, K, u_list, T, Mat3(tower, k_e))
    lhs = word_matrix(tower, tuple(word))
    rhs = word_matrix(tower, nf.u + (atom_alpha(nf.t),)) * nf.k
    same = (lhs - rhs).decide_zero(1)
    if same is False:
        raise CrossCheckFailed("normal form failed to reassemble")
    cache[key] = nf
    return nf


def nf_kau(tower, K, word):
    """Mirrored normal form word = k * shift^T * u.

    Returns (k matrix, T, u atoms); computed by rewriting the inverted word
    and inverting the result."""
    from .mat3 import unitary_inverse

    nf = nf_uak(tower, K, word_inverse(tower, tuple(word)))
    k_inv = unitary_inverse(nf.k)
    u_inv = word_inverse(tower, nf.u)
    return (k_inv, -nf.t, u_inv)


# ---------------------------------------------------------------------------
# sorting a pro-unipotent word into lower * diagonal * upper


def sort_unipotent_mix(tower, atoms, lower_first=True):
    """Sort a product of unipotent/diagonal atoms into a triple product.

    With lower_first the target shape is np * d * n, otherwise n * d * np.
    All atoms must lie in the pro-unipotent radical (corrections in the
    exchange identities are then invertible).  Returns the three atoms in
    target order, identity atoms standing in for missing factors."""
    rank = {"np": 0, "d": 1, "n": 2} if lower_first else {"n": 0, "d": 1, "np": 2}
    items = [a for a in atoms if not atom_is_identity(a)]
    steps = 0
    changed = True
    while changed:
        changed = False
        i = 0
        while i + 1 <= len(items) - 1:
            steps += 1
            if steps > SORT_FUEL:
                raise NormalFormFailure("sorting fuel exhausted")
            a, b = items[i], items[i + 1]
            if a[0] == b[0]:
                m = merge_atoms(tower, a, b)
                items[i : i + 2] = [] if atom_is_identity(m) else [m]
                changed = True
                continue
            ra, rb = rank.get(a[0]), rank.get(b[0])
            if ra is None or rb is None:
                raise NormalFormFailure(
                    "cannot sort atom of kind %r" % (a[0] if ra is None else b[0],)
                )
            if ra <= rb:
                i += 1
                continue
            if a[0] == "n" and b[0] == "np":
                np1, d1, n1 = exchange2(tower, a, b, verify=False)
                repl = (np1, d1, n1)
            elif a[0] == "np" and b[0] == "n":
                repl = exchange(tower, a, b, verify=False)
            elif b[0] == "d":
                repl = (b, atom_conj_diag(tower, atom_inv(tower, b), a))
            elif a[0] == "d":
                repl = (atom_conj_diag(tower, a, b), a)
            else:
                raise NormalFormFailure("unexpected pair in sorter")
            items[i : i + 2] = [x for x in repl if not atom_is_identity(x)]
            changed = True
    out = {"np": None, "d": None, "n": None}
    for a in items:
        if out[a[0]] is not None:
            raise NormalFormFailure("sorter left duplicate kinds")
        out[a[0]] = a
    from .unitary_group import atom_n

    np_a = out["np"] or atom_np(tower, 0, 0)
    d_a = out["d"] or atom_identity(tower)
    n_a = out["n"] or atom_n(tower, 0, 0)
    triple = (np_a, d_a, n_a) if lower_first else (n_a, d_a, np_a)
    lhs = word_matrix(tower, tuple(atoms))
    rhs = word_matrix(tower, triple)
    if (lhs - rhs).decide_zero(1) is False:
        raise CrossCheckFailed("unipotent sort failed to reassemble")
    return triple


# ---------------------------------------------------------------------------
# coset tags


def _peel_layers(tower, atom, k_from, k_to):
    """Write a filtration element as a product of layer representatives.

    Returns (coords, remainder-atom): coords is a tuple of
    (layer, x-coefficient, depth-coefficient) for layers k_from..k_to-1, and
    the remainder lies in the filtration group at depth k_to (certified)."""
    prime = atom[0] == "np"
    cur = atom
    coords = []
    for k in range(k_from, k_to):
        x = Series(tower, cur[1])
        y = Series(tower, cur[2])
        if k % 2 == 0:
            xi = x.coeff_at(k // 2)
            ti = y.coeff_at(k)
        else:
            xi = 0
            ti = y.coeff_at(k)
        coords.append((k, xi, ti))
        if xi or ti:
            rep = layer_atom(tower, k, (xi, ti), prime=prime)
            cur = merge_atoms(tower, atom_inv(tower, rep), cur)
    lb, _ = _val_bounds(cur[2])
    if lb < k_to:
        raise CrossCheckFailed("layer peel left a shallow remainder")
    return tuple(coords), cur


def tag_of_nf(tower, K, nf):
    """Canonical coset tag of a normal form: the shift exponent together
    with the filtration coordinates that the stabilizer does not absorb.

    For a positive shift the stabilizer contains the full upper side, so
    the invariant is the leading factor of the lower-first sort; for a
    negative shift it is the leading factor of the upper-first sort."""
    n_K, m_K, _ = iwahori_constants(tower, K)
    t = nf.t
    if t == 0:
        return (0, ())
    if t >= 1:
        np_a, _, _ = sort_unipotent_mix(tower, nf.u, lower_first=True)
        coords, _ = _peel_layers(tower, np_a, m_K, m_K + 2 * t - 1)
    else:
        n_a, _, _ = sort_unipotent_mix(tower, nf.u, lower_first=False)
        coords, _ = _peel_layers(tower, n_a, n_K, n_K + 2 * (-t))
    return (t, coords)


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
