"""A deterministic sample of the pro-unipotent radical, for tests that
translate by its atoms: the layer atoms the coset batch carries and two
torus units whose entries are series, which it does not."""

from u21hecke.fields import memo
from u21hecke.laurent import Series
from u21hecke.unitary_group import atom_d, iwahori_constants, layer_transversal


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
