"""The array reads of the residue groups (unitary_group.layer_residues, the
layer and torus inventories of weights) against the scalar per-atom route
of tests/scalar.py, and the weight set-up that runs on them without a
series matrix."""

import sys

import numpy as np
import pytest

from u21hecke import unitary_group as U
from u21hecke import weights as W
from u21hecke.errors import MembershipViolated
from u21hecke.fields import Tower
from u21hecke.unitary_group import K0, K1

import scalar

BOTH = (K0, K1)
TOWERS = {"q3": (3, 1), "q5": (5, 1), "q7": (7, 1), "q9": (3, 2)}


def scalar_layer(tower, K, k, prime):
    """The layer's residue rows by reduce_atom, atom by atom, or None when
    an atom is outside K (in_compact); reduce_to_gamma raises
    MembershipViolated on an atom in K whose residue is not unitary."""
    rows = []
    for atom in U.layer_transversal(tower, k, prime):
        g = U.atom_matrix(tower, atom)
        if not U.in_compact(tower, K, g):
            return None
        rows.append(U.reduce_to_gamma(tower, K, g).m)
    return rows


def test_residue_places():
    """The residue map reads all nine entries at degree 0 at K0, and at K1
    the diagonal at degree 0, (0, 2) at -1 and (2, 0) at +1: U(1,1) x U(1)
    embedded as in GammaElem."""
    assert U.RESIDUE_PLACES[K0] == tuple((e, 0) for e in range(9))
    assert U.RESIDUE_PLACES[K1] == ((0, 0), (2, -1), (4, 0), (6, 1), (8, 0))


@pytest.mark.parametrize("q", list(TOWERS))
def test_layer_residues_match_scalar_reduction(q):
    """For every layer k in -4..5, both sides and both compacts, the array
    read gives the reduce_atom rows of the layer's atoms, in order, and
    None exactly where the scalar route finds an atom outside K.  The
    scalar route raises MembershipViolated on no atom in K, so neither
    does the array read."""
    tw = Tower(*TOWERS[q])
    for K in BOTH:
        for prime in (False, True):
            for k in scalar.SCAN_LAYERS:
                want = scalar_layer(tw, K, k, prime)
                got = U.layer_residues(tw, K, k, prime)
                if want is None:
                    assert got is None, (K, prime, k)
                    continue
                assert got.dtype == np.uint16 and not got.flags.writeable
                assert got.tolist() == [list(m) for m in want], (K, prime, k)


@pytest.mark.parametrize("q", ["q3", "q5", "q7"])
def test_iwahori_constants_match_scalar_scan(q):
    tw = Tower(*TOWERS[q])
    for K in BOTH:
        assert U.iwahori_constants(tw, K) == scalar.iwahori_constants(tw, K)


def test_doctored_residue_fails_unitarity():
    """One residue coordinate changed in a layer read fails the unitarity
    check: the upper unipotent of y0 at K1 (an odd layer, y0 of trace
    zero) with y0 + 1 in its place, and the first upper layer at K0 with
    one x coordinate changed."""
    tw = Tower(3, 1)
    for K, entry in ((K1, 2), (K0, 1)):
        n_K, _, _ = U.iwahori_constants(tw, K)
        m = U.layer_residues(tw, K, n_K).T.copy()
        U.check_residue_unitarity(tw, m)
        r = int(np.flatnonzero(m[entry])[0])
        m[entry, r] = tw.a(int(m[entry, r]), 1)
        with pytest.raises(MembershipViolated):
            U.check_residue_unitarity(tw, m)


@pytest.mark.parametrize("q", ["q3", "q5"])
def test_gamma_torus_matches_scalar_route(q):
    """The torus read off its residue pairs equals reduce_atom of the unit
    diagonal atoms, element for element, and the two generators equal the
    reductions of their atoms."""
    tw = Tower(*TOWERS[q])
    for K in BOTH:
        assert W.gamma_torus(tw, K) == scalar.gamma_torus(tw, K)
        assert W.gamma_torus_generators(tw, K) == [
            scalar.reduce_atom(tw, K, W.torus_atom(tw, a, c))
            for a, c in W.torus_generator_pairs(tw)
        ]


def test_weight_setup_builds_no_atom_matrix(monkeypatch):
    """The set-up of a q = 5 pass on a fresh tower -- iwahori_constants at
    both compacts, then trivial, steinberg and det1 at each with v0 --
    calls atom_matrix from no module of the package."""
    calls = []
    real = U.atom_matrix

    def counted(tower, atom):
        calls.append(atom)
        return real(tower, atom)

    for name, mod in list(sys.modules.items()):
        if name.startswith("u21hecke") and "atom_matrix" in vars(mod):
            monkeypatch.setattr(mod, "atom_matrix", counted)
    tw = Tower(5, 1)
    tw.default_window = 24
    for K in BOTH:
        U.iwahori_constants(tw, K)
    for K in BOTH:
        for kind, power in ((W.TRIVIAL, None), (W.STEINBERG, None),
                            (W.DET_TWIST, 1)):
            W.make_weight(tw, K, kind, power=power).v0()
    assert calls == []
