"""The scalar per-atom route into the residue groups, kept as the test
oracle of the array reads (unitary_group.layer_residues, the torus read of
weights.gamma_torus): every atom becomes a Mat3 of series (atom_matrix),
tested for membership entry by entry (in_compact) and reduced by
reduce_to_gamma."""

from u21hecke.errors import MembershipViolated
from u21hecke.laurent import Series
from u21hecke.unitary_group import (
    atom_d,
    atom_matrix,
    in_compact,
    layer_transversal,
    reduce_to_gamma,
)

SCAN_LAYERS = range(5, -5, -1)


def reduce_atom(tower, K, atom):
    return reduce_to_gamma(tower, K, atom_matrix(tower, atom))


def in_iwahori_unipotent(tower, K, g):
    """Membership in the pro-unipotent radical: in K with unipotent image."""
    if not in_compact(tower, K, g):
        return False
    return reduce_to_gamma(tower, K, g).in_unipotent()


def layer_inside(tower, K, k, prime, pro_unipotent):
    """Does every atom of layer_transversal(k, prime) lie in K (in its
    pro-unipotent radical with pro_unipotent)?  An atom whose reduction
    raises MembershipViolated counts as outside."""
    for atom in layer_transversal(tower, k, prime):
        g = atom_matrix(tower, atom)
        try:
            ok = (
                in_iwahori_unipotent(tower, K, g)
                if pro_unipotent
                else in_compact(tower, K, g)
            )
        except MembershipViolated:
            ok = False
        if not ok:
            return False
    return True


def iwahori_constants(tower, K):
    """The scan of unitary_group.iwahori_constants, atom by atom over the
    layers 5 down to -4."""

    def scan(prime, pro_unipotent):
        best = None
        for k in SCAN_LAYERS:
            if not layer_inside(tower, K, k, prime, pro_unipotent):
                break
            best = k
        if best is None:
            raise MembershipViolated("no unipotent layer inside %s" % K)
        return best

    n_K = scan(False, False)
    return (n_K, scan(True, True), 3 if n_K % 2 == 0 else 1)


def torus_unit_atoms(tower):
    """Transversal of the unit torus modulo its pro-p part: one diagonal
    atom diag(a, c, conj(a)^-1) per residue pair (a, c) with a invertible
    and c of norm one, a outer and c inner."""
    out = []
    for a in range(1, tower.Q):
        ainv_bar = tower.c(tower.i_(a))
        for c in tower.norm_one:
            out.append(
                atom_d(
                    tower,
                    Series.const(tower, a),
                    Series.const(tower, c),
                    Series.const(tower, ainv_bar),
                )
            )
    return out


def gamma_torus(tower, K):
    """The reduced torus, one reduce_atom per unit atom."""
    return [reduce_atom(tower, K, a) for a in torus_unit_atoms(tower)]
