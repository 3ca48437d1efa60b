"""A deterministic sample of the pro-unipotent radical, for tests that
translate by its atoms: the layer atoms the coset batch carries and two
torus units whose entries are series, which it does not.  The product read
refuses a word with a torus unit, so the units translate through the scalar
coset_normalize (scalar_translate)."""

import numpy as np

from u21hecke import gfmat
from u21hecke import induction as I
from u21hecke.fields import memo
from u21hecke.laurent import Series
from u21hecke.unitary_group import atom_d, iwahori_constants, layer_transversal
from u21hecke.words import word_from_tag


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


def layer_sample(tower, K):
    """The atoms of pro_iwahori_sample that the coset batch carries: its
    four layer atoms."""
    return pro_iwahori_sample(tower, K)[:4]


def scalar_translate(f, word):
    """The left translate word . f, each tag read by the scalar
    coset_normalize: the oracle of InducedFn.g_act, and the one read of a
    word the product read refuses."""
    w, tw = f.weight, f.weight.tower
    tags, rows = [], []
    for tag, v in zip(f.tags, f.data):
        new, gamma = I.coset_normalize(
            tw, w.K, tuple(word) + word_from_tag(tw, w.K, tag))
        tags.append(new)
        rows.append(gfmat.matvec(tw, w.matrix(gamma), v))
    data = np.array(rows, dtype=np.uint16).reshape(len(rows), w.dim)
    return I.InducedFn(w, tags, data)


def sample_invariant(f):
    """Whether every atom of pro_iwahori_sample fixes f: the layer atoms by
    induction.is_pro_iwahori_invariant, the torus units by
    scalar_translate."""
    sample = pro_iwahori_sample(f.weight.tower, f.weight.K)
    return I.is_pro_iwahori_invariant(f, sample[:4]) and all(
        scalar_translate(f, (a,)) == f for a in sample[4:])
