"""Weight catalog of the reduced compacts: frozen dimensions, characters,
collapse idempotents, spin/socle machinery, intertwiners."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from u21hecke import gfmat
from u21hecke import weights as W
from u21hecke.errors import (
    CrossCheckFailed,
    DegenerateWeight,
    InconclusiveLattice,
    NotApplicable,
)
from u21hecke.fields import (
    Character,
    Tower,
    char_s,
    characters_of_torus,
    is_regular,
)
from u21hecke.unitary_group import (
    K0,
    K1,
    GammaElem,
    in_compact,
    reduce_to_gamma,
    word_matrix,
)

BOTH = (K0, K1)


def regular_chis(tower):
    return [c for c in characters_of_torus(tower) if is_regular(c)]


def sample_elements(tower, K):
    """The two torus generators, the whole upper unipotent group and the
    form involution: a wider element sample than gamma_generators."""
    return (
        W.gamma_torus_generators(tower, K)
        + W.gamma_upper(tower, K)
        + [W.gamma_beta(tower, K)]
    )


def test_inventories(tower):
    for K, q_t in ((K0, 27), (K1, 3)):
        assert len(W.gamma_upper(tower, K)) == q_t
        assert len(W.gamma_lower(tower, K)) == q_t
        assert len(W.gamma_torus(tower, K)) == 32
        b = W.gamma_beta(tower, K)
        assert (b * b).key() == GammaElem.identity(tower, K).key()
        reps, label_map = W.borel_coset_reps(tower, K)
        assert len(reps) == 1 + q_t
        assert len(label_map) == len(reps)


def test_coset_classification(tower):
    for K in BOTH:
        reps, _ = W.borel_coset_reps(tower, K)
        for g in sample_elements(tower, K):
            for x in reps:
                y = x * g
                idx, b = W.classify_coset(tower, K, y)
                assert b.in_borel()
                assert (b * reps[idx]).key() == y.key()


def _classify_rows_matches_scalar(tw, K, elems, columns=None):
    """classify_rows of the elements against classify_coset of reps[i] g
    for each element g and each representative index i of columns (all by
    default)."""
    reps, _ = W.borel_coset_reps(tw, K)
    rows = np.array([g.m for g in elems], dtype=np.uint16)
    k, a, c = W.classify_rows(tw, K, rows)
    assert k.shape == a.shape == c.shape == (len(elems), len(reps))
    for n, g in enumerate(elems):
        for i in range(len(reps)) if columns is None else columns:
            idx, b = W.classify_coset(tw, K, reps[i] * g)
            assert (k[n, i], a[n, i], c[n, i]) == (idx,) + b.torus_pair()


def test_classify_rows_on_the_whole_group(tower):
    """At q = 3 the array classification agrees with classify_coset on every
    element of the reduced group (torus x upper unipotent x coset
    representative, each element once) at both compacts, and on every
    coset representative times the first hundred of them."""
    for K, order in ((K0, 24192), (K1, 384)):
        reps, _ = W.borel_coset_reps(tower, K)
        group = [
            t * u * x
            for t in W.gamma_torus(tower, K)
            for u in W.gamma_upper(tower, K)
            for x in reps
        ]
        assert len({g.key() for g in group}) == order
        _classify_rows_matches_scalar(tower, K, group, columns=[0])
        _classify_rows_matches_scalar(tower, K, group[:100])


@pytest.mark.parametrize("p, f", [(5, 1), (7, 1), (3, 2)])
def test_classify_rows_on_generator_products(p, f, tower5, tower7):
    """At q = 5, 7 and 9 the array classification agrees with
    classify_coset on gamma_generators and their pairwise products, at both
    compacts and on every coset representative."""
    tw = {(5, 1): tower5, (7, 1): tower7}.get((p, f)) or Tower(p, f)
    for K in BOTH:
        gens = W.gamma_generators(tw, K)
        _classify_rows_matches_scalar(
            tw, K, gens + [a * b for a in gens for b in gens]
        )


def _lifts_match_scalar(tw, K, elems):
    """For each element, gamma_lift_word's matrix (Mat3 of series, the
    scalar oracle) lies in K and reduces to the element."""
    for g in elems:
        m = word_matrix(tw, W.gamma_lift_word(tw, K, g))
        assert in_compact(tw, K, m)
        assert reduce_to_gamma(tw, K, m) == g


def test_lift_words_match_scalar_oracle(tower, tower5):
    """gamma_lift_word, whose round trip is certified by a product read,
    agrees with the scalar reduction of the lift's matrix: on all 384
    elements of the q = 3 K1 residue group (the closure of
    gamma_generators), and on a seeded sample of 40 products of one to four
    generators at q = 3 K0 and at q = 5 on both compacts."""
    gens = W.gamma_generators(tower, K1)
    group = frontier = {GammaElem.identity(tower, K1)}
    while frontier:
        frontier = {x * s for x in frontier for s in gens} - group
        group = group | frontier
    assert len(group) == 384
    _lifts_match_scalar(tower, K1, group)
    rng = random.Random(11)
    for tw, K in ((tower, K0), (tower5, K0), (tower5, K1)):
        gens = W.gamma_generators(tw, K)
        sample = []
        for _ in range(40):
            g = GammaElem.identity(tw, K)
            for s in rng.choices(gens, k=rng.randint(1, 4)):
                g = g * s
            sample.append(g)
        _lifts_match_scalar(tw, K, sample)


def test_classify_rows_rejects_a_non_element(tower):
    """A row that is no reduced element fails the certified Borel part or
    the label lookup, as the scalar classification does."""
    for K in BOTH:
        bad = np.array([[1, 1, 0, 0, 1, 0, 1, 0, 1]], dtype=np.uint16)
        with pytest.raises(CrossCheckFailed):
            W.classify_coset(tower, K, GammaElem(tower, K, bad[0].tolist()))
        with pytest.raises(CrossCheckFailed):
            W.classify_rows(tower, K, bad)


def test_ps_dimensions(tower):
    chi0 = Character(tower, 0, 0)
    for K, d in ((K0, 28), (K1, 4)):
        ps = W.make_weight(tower, K, W.PRINCIPAL_SERIES, chi=chi0)
        assert ps.dim == d
        st_w = W.make_weight(tower, K, W.STEINBERG)
        assert st_w.dim == d - 1


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_action_is_homomorphism(tower, data):
    K = data.draw(st.sampled_from(BOTH))
    chi = data.draw(st.sampled_from([(0, 0), (1, 0), (3, 2), (6, 1)]))
    ps = W.make_weight(
        tower, K, W.PRINCIPAL_SERIES, chi=Character(tower, *chi)
    )
    gens = sample_elements(tower, K)
    idx = data.draw(st.lists(st.integers(0, len(gens) - 1), min_size=2, max_size=4))
    prod = gens[idx[0]]
    for i in idx[1:]:
        prod = prod * gens[i]
    lhs = ps.matrix(prod)
    rhs = ps.matrix(gens[idx[0]])
    for i in idx[1:]:
        rhs = gfmat.matmul(tower, rhs, ps.matrix(gens[i]))
    assert np.array_equal(lhs, rhs)


def test_u_invariant_dimensions(tower):
    for K in BOTH:
        assert W.make_weight(tower, K, W.TRIVIAL).u_invariants().shape[0] == 1
        assert (
            W.make_weight(tower, K, W.DET_TWIST, power=1)
            .u_invariants().shape[0] == 1
        )
        assert W.make_weight(tower, K, W.STEINBERG).u_invariants().shape[0] == 1
        ps0 = W.make_weight(
            tower, K, W.PRINCIPAL_SERIES, chi=Character(tower, 0, 0)
        )
        assert ps0.u_invariants().shape[0] == 2
    chi = regular_chis(tower)[0]
    ps = W.make_weight(tower, K1, W.PRINCIPAL_SERIES, chi=chi)
    assert ps.u_invariants().shape[0] == 2


def test_chi_of_frozen(tower):
    for K in BOTH:
        st_w = W.make_weight(tower, K, W.STEINBERG)
        assert st_w.chi_of() == Character(tower, 0, 0)
        for k, expo in ((1, (6, 1)), (2, (4, 2)), (3, (2, 3))):
            dt = W.make_weight(tower, K, W.DET_TWIST, power=k)
            got = dt.chi_of()
            assert (got.i, got.j) == expo
            assert got.det_twist_power() == k
    chi = regular_chis(tower)[0]
    sub = W.make_weight(tower, K1, W.PS_SUB_QUOTIENT, chi=chi, part="sub")
    quo = W.make_weight(tower, K1, W.PS_SUB_QUOTIENT, chi=chi, part="quotient")
    assert sub.dim == 2 and quo.dim == 2
    assert sub.chi_of() == char_s(chi)
    assert quo.chi_of() == chi


def _torus_sweep_eigenvectors(wgt):
    """borel_eigenvectors of every torus character, keyed by its exponents,
    by the per-element sweep over the whole reduced torus: each element's
    action restricted to the unipotent invariants is built once."""
    tw = wgt.tower
    inv = wgt.u_invariants()
    r = inv.shape[0]
    piv = [int(np.nonzero(b)[0][0]) for b in inv]
    checker = gfmat.Basis(tw, wgt.dim)
    for row in inv:
        checker.add(row)
    torus = W.gamma_torus(tw, wgt.K)
    restricted = []
    for t in torus:
        images = gfmat.matmul(tw, inv, wgt.matrix(t).T)
        assert not checker.reduce(images).any()
        restricted.append(images[:, piv].T)
    stacked = np.concatenate(restricted)
    out = {}
    for chi in characters_of_torus(tw):
        diag = np.zeros((len(torus), r, r), dtype=np.uint16)
        diag[:, np.arange(r), np.arange(r)] = np.array(
            [chi.value(*t.torus_pair()) for t in torus], dtype=np.uint16
        )[:, None]
        ns = gfmat.nullspace(
            tw, gfmat.sub(tw, stacked, diag.reshape(len(torus) * r, r))
        )
        out[(chi.i, chi.j)] = (
            gfmat.row_space(tw, gfmat.matmul(tw, ns, inv)) if len(ns)
            else np.zeros((0, wgt.dim), dtype=np.uint16)
        )
    return out


@pytest.mark.parametrize("q", [3, 5])
def test_torus_solved_on_generators_matches_sweep(q, tower, tower5):
    """chi_of and borel_eigenvectors, which solve the torus conditions on the
    two generators, agree with the per-element sweep over gamma_torus on the
    catalog weights and one regular sub/quotient pair.  The sweep's chi_of
    is the one character whose value is the line's eigenvalue at every
    torus element, so chi_of agrees with it exactly when it satisfies all
    those equations."""
    tw = {3: tower, 5: tower5}[q]
    chi_r = regular_chis(tw)[0]
    weights = [
        W.make_weight(tw, K1, W.PS_SUB_QUOTIENT, chi=chi_r, part=part)
        for part in ("sub", "quotient")
    ]
    for K in BOTH:
        weights.append(W.make_weight(tw, K, W.TRIVIAL))
        weights.append(W.make_weight(tw, K, W.STEINBERG))
        weights += [
            W.make_weight(tw, K, W.DET_TWIST, power=k) for k in (1, 2, 3)
        ]
    for wgt in weights:
        chi, v0 = wgt.chi_of(), wgt.v0()
        for t in W.gamma_torus(tw, wgt.K):
            c = chi.value(*t.torus_pair())
            assert np.array_equal(wgt.act(t, v0), tw.mul[c, v0]), wgt.label
        sweep = _torus_sweep_eigenvectors(wgt)
        for psi in characters_of_torus(tw):
            got = W.borel_eigenvectors(wgt, psi)
            assert np.array_equal(got, sweep[(psi.i, psi.j)]), wgt.label


def _closure(gens):
    """Keys of the right-multiplication closure of gens, from the identity."""
    ident = GammaElem.identity(gens[0].tower, gens[0].kind)
    seen = {ident.key()}
    frontier = [ident]
    while frontier:
        x = frontier.pop()
        for s in gens:
            y = x * s
            if y.key() not in seen:
                seen.add(y.key())
                frontier.append(y)
    return seen


@pytest.mark.parametrize("q, f", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_unipotent_generators_generate(q, f, tower, tower5, tower7):
    """The greedy generating sublists of the unipotent groups generate them,
    never pick the identity, and keep frozen counts: 3 at K0 and 1 at K1
    for a prime residue field, 6 and 2 at q = 9."""
    towers = {(3, 1): tower, (5, 1): tower5, (7, 1): tower7}
    tw = towers.get((q, f)) or Tower(q, f)
    counts = {K0: 3 * f, K1: f}
    for K in BOTH:
        for group, gens in (
            (W.gamma_upper(tw, K), W.gamma_upper_generators(tw, K)),
            (W.gamma_lower(tw, K), W.gamma_lower_generators(tw, K)),
        ):
            keys = {g.key() for g in group}
            picked = {g.key() for g in gens}
            assert len(gens) == counts[K]
            assert picked <= keys
            assert GammaElem.identity(tw, K).key() not in picked
            assert _closure(gens) == keys


def test_generating_sublist_rejects_a_non_group(tower):
    """A list that is not closed (gamma_upper without one element) fails the
    closure certificate."""
    for K in BOTH:
        group = W.gamma_upper(tower, K)
        ident = GammaElem.identity(tower, K).key()
        drop = next(i for i, g in enumerate(group) if g.key() != ident)
        with pytest.raises(CrossCheckFailed):
            W.generating_sublist(group[:drop] + group[drop + 1:])


def _unipotent_sweep(wgt):
    """u_invariants and the lower_coinvariant_span basis by the per-element
    sweep over the whole unipotent groups, each element's block folded into
    the running row space."""
    tw = wgt.tower
    ident = gfmat.eye(wgt.dim)
    fixed = coinv = gfmat.zeros((0, wgt.dim))
    for u in W.gamma_upper(tw, wgt.K):
        block = gfmat.sub(tw, wgt.matrix(u), ident)
        fixed = gfmat.row_space(tw, np.concatenate([fixed, block]))
    for u in W.gamma_lower(tw, wgt.K):
        block = gfmat.sub(tw, wgt.matrix(u), ident).T
        coinv = gfmat.row_space(tw, np.concatenate([coinv, block]))
    ns = gfmat.nullspace(tw, fixed)
    return (gfmat.row_space(tw, ns) if len(ns) else ns), coinv


@pytest.mark.parametrize("q", [3, 5])
def test_unipotent_solved_on_generators_matches_sweep(q, tower, tower5):
    """u_invariants and lower_coinvariant_span, which solve on the unipotent
    generators, equal the per-element sweep over gamma_upper and gamma_lower
    on the catalog weights at both compacts, the trivial principal series
    (two-dimensional invariants) and one regular sub/quotient pair."""
    tw = {3: tower, 5: tower5}[q]
    chi_r = regular_chis(tw)[0]
    weights = [
        W.make_weight(tw, K1, W.PS_SUB_QUOTIENT, chi=chi_r, part=part)
        for part in ("sub", "quotient")
    ]
    for K in BOTH:
        weights.append(W.make_weight(tw, K, W.TRIVIAL))
        weights.append(W.make_weight(tw, K, W.STEINBERG))
        weights += [
            W.make_weight(tw, K, W.DET_TWIST, power=k) for k in (1, 2, 3)
        ]
        weights.append(W.make_weight(
            tw, K, W.PRINCIPAL_SERIES, chi=Character(tw, 0, 0)
        ))
    for wgt in weights:
        inv, coinv = _unipotent_sweep(wgt)
        assert np.array_equal(wgt.u_invariants(), inv), wgt.label
        got = wgt.lower_coinvariant_span().matrix()
        assert np.array_equal(got, coinv), wgt.label
        if wgt.kind == W.PRINCIPAL_SERIES:
            assert inv.shape[0] == 2


def test_j_map(tower):
    for K in BOTH:
        triv = W.make_weight(tower, K, W.TRIVIAL)
        assert triv.j_matrix().tolist() == [[1]]
        st_w = W.make_weight(tower, K, W.STEINBERG)
        j = st_w.j_matrix()
        assert gfmat.rank(tower, j) == 1
        assert np.array_equal(gfmat.matmul(tower, j, j), j)
        v0 = st_w.v0()
        assert np.array_equal(gfmat.matvec(tower, j, v0), v0)
        ps0 = W.make_weight(
            tower, K, W.PRINCIPAL_SERIES, chi=Character(tower, 0, 0)
        )
        with pytest.raises(DegenerateWeight):
            ps0.j_matrix()


def _check_steinberg_lines(tw):
    """The invariant-line, character and collapse checks above, on the two
    Steinberg weights (dimensions q^3 and q)."""
    q = tw.q
    for K, d in ((K0, q ** 3), (K1, q)):
        st_w = W.make_weight(tw, K, W.STEINBERG)
        assert st_w.dim == d
        assert st_w.u_invariants().shape[0] == 1
        assert st_w.chi_of() == Character(tw, 0, 0)
        j = st_w.j_matrix()
        assert gfmat.rank(tw, j) == 1
        assert np.array_equal(gfmat.matmul(tw, j, j), j)
        v0 = st_w.v0()
        assert np.array_equal(gfmat.matvec(tw, j, v0), v0)


def test_q5_steinberg_lines(tower5):
    """The q = 5 mirror of the Steinberg line checks (dimensions 125, 5)."""
    _check_steinberg_lines(tower5)


def test_q7_steinberg_lines(tower7):
    """The q = 7 mirror of the Steinberg line checks (dimensions 343, 7)."""
    _check_steinberg_lines(tower7)


def test_weight_s_identity(tower):
    chi = regular_chis(tower)[0]
    catalog = []
    for K in BOTH:
        catalog.append(W.make_weight(tower, K, W.TRIVIAL))
        catalog.append(W.make_weight(tower, K, W.DET_TWIST, power=2))
        catalog.append(W.make_weight(tower, K, W.STEINBERG))
    catalog.append(W.make_weight(tower, K1, W.PS_SUB_QUOTIENT, chi=chi, part="sub"))
    catalog.append(
        W.make_weight(tower, K1, W.PS_SUB_QUOTIENT, chi=chi, part="quotient")
    )
    for wgt in catalog:
        assert W.weight_s(wgt).chi_of() == char_s(wgt.chi_of())
    # the involution swaps the two layers of the length-two series
    quo = catalog[-1]
    assert W.weight_s(quo).part == "sub"
    assert W.weight_s(W.weight_s(quo)).part == "quotient"
    # cross-check: the conjugate partner is where the conjugate series puts it
    sub = catalog[-2]
    quo_s = W.make_weight(
        tower, K1, W.PS_SUB_QUOTIENT, chi=char_s(chi), part="quotient"
    )
    assert W.hom_space(sub, quo_s).shape[0] == 1


def test_spin(tower):
    for K in BOTH:
        ps0 = W.make_weight(
            tower, K, W.PRINCIPAL_SERIES, chi=Character(tower, 0, 0)
        )
        ones = np.ones(ps0.dim, dtype=np.uint16)
        assert W.spin(ps0, [ones]).shape[0] == 1
        assert W.spin(ps0, list(gfmat.eye(ps0.dim))).shape[0] == ps0.dim
    chi = regular_chis(tower)[0]
    ps = W.make_weight(tower, K1, W.PRINCIPAL_SERIES, chi=chi)
    eig = W.borel_eigenvectors(ps, char_s(chi))
    assert eig.shape[0] == 1
    assert W.spin(ps, [eig[0]]).shape[0] == 2


def test_closure_extends_once_per_round(tower, monkeypatch):
    """closure inserts a round's images under every action by one stacked
    Basis.extend: after the seeds' call, each call gets the images of the
    whole last frontier under all of gamma_generators, and only the last
    call adds nothing."""
    chi = regular_chis(tower)[0]
    ps = W.make_weight(tower, K1, W.PRINCIPAL_SERIES, chi=chi)
    gens = W.gamma_generators(tower, K1)
    seed = gfmat.eye(ps.dim)[0]
    calls = []
    extend = gfmat.Basis.extend

    def spy(self, block):
        new = extend(self, block)
        calls.append((len(block), len(new)))
        return new

    monkeypatch.setattr(gfmat.Basis, "extend", spy)
    span = W.spin(ps, [seed])
    monkeypatch.undo()
    assert len(calls) >= 3
    assert calls[0] == (1, 1)
    for (_, added), (rows, _) in zip(calls, calls[1:]):
        assert added > 0 and rows == len(gens) * added
    assert calls[-1][1] == 0
    assert sum(added for _, added in calls) == span.shape[0]
    assert np.array_equal(span, _spin_one_vector_at_a_time(ps, [seed]))


def _spin_one_vector_at_a_time(weight, seeds):
    """Rref basis of the submodule generated by the seeds, closed by a queue
    that applies each generator's matrix to one vector at a time."""
    tw = weight.tower
    basis = gfmat.Basis(tw, weight.dim)
    queue = [np.array(s, dtype=np.uint16) for s in seeds
             if basis.add(s) is not None]
    gens = W.gamma_generators(tw, weight.K)
    while queue:
        v = queue.pop()
        for g in gens:
            y = weight.act(g, v)
            if basis.add(y) is not None:
                queue.append(y)
    return basis.matrix()


@pytest.mark.parametrize("q, K", [(3, K0), (3, K1), (5, K1)])
def test_block_spin_matches_one_vector_loop(q, K, tower, tower5):
    """W.spin, which acts on whole frontier blocks, returns the same rref
    basis as a one-vector queue on every seed socle_chain spins (the lines
    of the unipotent invariants and of every Borel eigenspace) of the
    principal series of chi(1, 0)."""
    tw = {3: tower, 5: tower5}[q]
    ps = W.make_weight(tw, K, W.PRINCIPAL_SERIES, chi=Character(tw, 1, 0))
    seeds = list(W._lines_of(tw, ps.u_invariants()))
    for chi in characters_of_torus(tw):
        seeds += W._lines_of(tw, W.borel_eigenvectors(ps, chi))
    for s in seeds:
        assert np.array_equal(
            W.spin(ps, [s]), _spin_one_vector_at_a_time(ps, [s])
        )


def test_socle_chains(tower):
    for K in BOTH:
        assert [b.shape[0] for b in W.socle_chain(
            W.make_weight(tower, K, W.TRIVIAL)
        )] == [1]
        st_w = W.make_weight(tower, K, W.STEINBERG)
        assert [b.shape[0] for b in W.socle_chain(st_w)] == [st_w.dim]
    for chi in regular_chis(tower)[:4]:
        ps = W.make_weight(tower, K1, W.PRINCIPAL_SERIES, chi=chi)
        chain = W.socle_chain(ps)
        assert [b.shape[0] for b in chain] == [2, 4]
        sub_c = W.sub_weight(ps, chain[0])
        cat = W.make_weight(tower, K1, W.PS_SUB_QUOTIENT, chi=chi, part="sub")
        assert sub_c.fingerprint() == cat.fingerprint()
        quo_c = W.quotient_weight(ps, chain[0])
        catq = W.make_weight(
            tower, K1, W.PS_SUB_QUOTIENT, chi=chi, part="quotient"
        )
        assert quo_c.fingerprint() == catq.fingerprint()
        # non-split: no section of the quotient back into the series
        assert W.hom_space(catq, ps).shape[0] == 0


def test_chain_classifies_each_residue_once(monkeypatch, tower):
    """One q = 3 K1 socle_chain of a regular principal series classifies
    each residue once: every classify_rows call takes one residue row, and
    no row comes twice (act_rows reads a memo table per weight; the same
    chain made 209 one-row calls before it)."""
    calls = []

    def spy(tw, K, rows, _orig=W.classify_rows):
        calls.append(tuple(map(tuple, np.asarray(rows).tolist())))
        return _orig(tw, K, rows)

    monkeypatch.setattr(W, "classify_rows", spy)
    ps = W.make_weight(tower, K1, W.PRINCIPAL_SERIES,
                       chi=regular_chis(tower)[0])
    assert [b.shape[0] for b in W.socle_chain(ps)] == [2, 4]
    assert calls and all(len(rows) == 1 for rows in calls)
    assert len(set(calls)) == len(calls)


def test_trivial_ps_splits(tower):
    """In defining characteristic the trivial-character series is split
    (the large quotient is also a submodule): the lattice is not a chain
    and the implementation must say so rather than guess."""
    for K in BOTH:
        ps0 = W.make_weight(
            tower, K, W.PRINCIPAL_SERIES, chi=Character(tower, 0, 0)
        )
        with pytest.raises(InconclusiveLattice):
            W.socle_chain(ps0)
        ones = np.ones(ps0.dim, dtype=np.uint16)
        complement = None
        for line in W._lines_of(tower, ps0.u_invariants()):
            sp = W.spin(ps0, [line])
            span = gfmat.Basis(tower, ps0.dim)
            span.extend(sp)
            if 0 < sp.shape[0] < ps0.dim and not span.contains(ones):
                complement = sp
        assert complement is not None
        assert complement.shape[0] == ps0.dim - 1


def test_not_applicable_guards(tower):
    chi = regular_chis(tower)[0]
    with pytest.raises(NotApplicable):
        W.make_weight(tower, K0, W.PS_SUB_QUOTIENT, chi=chi, part="sub")
    nonreg = Character(tower, 0, 1)
    assert not is_regular(nonreg)
    with pytest.raises(NotApplicable):
        W.make_weight(tower, K1, W.PS_SUB_QUOTIENT, chi=nonreg, part="sub")
    with pytest.raises(NotApplicable):
        W.make_weight(tower, K1, W.PS_SUB_QUOTIENT, chi=chi, part="middle")


def test_fingerprints_distinguish_layers(tower):
    chi = regular_chis(tower)[0]
    sub = W.make_weight(tower, K1, W.PS_SUB_QUOTIENT, chi=chi, part="sub")
    quo = W.make_weight(tower, K1, W.PS_SUB_QUOTIENT, chi=chi, part="quotient")
    assert sub.fingerprint() != quo.fingerprint()


def test_reciprocity_intertwiner(tower):
    # shifted compact: series of the conjugate character onto the socle
    chi = regular_chis(tower)[0]
    sub = W.make_weight(tower, K1, W.PS_SUB_QUOTIENT, chi=chi, part="sub")
    eig = W.borel_eigenvectors(sub, char_s(chi))
    assert eig.shape[0] == 1
    ps_s = W.make_weight(tower, K1, W.PRINCIPAL_SERIES, chi=char_s(chi))
    mat = W.reciprocity_map_from_ps(sub, char_s(chi), eig[0])
    assert mat.shape == (2, 4)
    assert gfmat.rank(tower, mat) == 2
    assert W.check_equivariant(ps_s, sub, mat)
    # standard compact: trivial series onto the large quotient
    st_w = W.make_weight(tower, K0, W.STEINBERG)
    ps0 = W.make_weight(
        tower, K0, W.PRINCIPAL_SERIES, chi=Character(tower, 0, 0)
    )
    mat = W.reciprocity_map_from_ps(st_w, Character(tower, 0, 0), st_w.v0())
    assert gfmat.rank(tower, mat) == st_w.dim
    assert W.check_equivariant(ps0, st_w, mat)


def test_frobenius_reciprocity_dimensions(tower):
    """dim Hom(series of chi, W) equals the dimension of the chi-eigenspace
    of the Borel on W, for every small W at the shifted compact."""
    chi_r = regular_chis(tower)[0]
    targets = [
        W.make_weight(tower, K1, W.TRIVIAL),
        W.make_weight(tower, K1, W.STEINBERG),
        W.make_weight(tower, K1, W.PS_SUB_QUOTIENT, chi=chi_r, part="sub"),
        W.make_weight(tower, K1, W.PS_SUB_QUOTIENT, chi=chi_r, part="quotient"),
    ]
    for chi in (Character(tower, 0, 0), chi_r, char_s(chi_r)):
        ps = W.make_weight(tower, K1, W.PRINCIPAL_SERIES, chi=chi)
        for wgt in targets:
            direct = W.hom_space(ps, wgt).shape[0]
            eig = W.borel_eigenvectors(wgt, chi).shape[0]
            assert direct == eig


def _hom_rows_by_entries(wsrc, wdst, g):
    """The rows of dst(g) M - M src(g) = 0 on the row-major entries of M,
    one scalar field operation at a time."""
    tw = wsrc.tower
    dd, ds = wdst.dim, wsrc.dim
    a, b = wdst.matrix(g), wsrc.matrix(g)
    rows = np.zeros((dd * ds, dd * ds), dtype=np.uint16)
    for i in range(dd):
        for j in range(ds):
            for k in range(dd):
                at = i * ds + j, k * ds + j
                rows[at] = tw.a(int(rows[at]), int(a[i, k]))
            for k in range(ds):
                at = i * ds + j, i * ds + k
                rows[at] = tw.a(int(rows[at]), tw.n(int(b[k, j])))
    return rows


def test_hom_space_refuses_a_system_above_its_bound(monkeypatch, tower5):
    """hom_space of the q = 5 K0 steinberg weight with itself, a dense
    system of 6 * 125^4 entries (2.9 GB), raises NotApplicable before any
    matrix of a weight is formed."""
    st = W.make_weight(tower5, K0, W.STEINBERG)
    assert len(W.gamma_generators(tower5, K0)) * st.dim**4 > W.HOM_ENTRIES

    def refuse(self, gamma):
        raise AssertionError("hom_space formed a matrix")

    monkeypatch.setattr(W.Weight, "matrix", refuse)
    with pytest.raises(NotApplicable):
        W.hom_space(st, st)


def test_hom_space_matches_entry_loop(tower):
    """hom_space, built by Kronecker products of the weight matrices, is the
    null space of the same system built entry by entry."""
    chi = regular_chis(tower)[0]
    by_compact = {
        K0: [W.make_weight(tower, K0, kind) for kind in (W.TRIVIAL, W.STEINBERG)],
        K1: [W.make_weight(tower, K1, W.STEINBERG)] + [
            W.make_weight(tower, K1, W.PS_SUB_QUOTIENT, chi=c, part=part)
            for c in (chi, char_s(chi)) for part in ("sub", "quotient")
        ],
    }
    for K, wgts in by_compact.items():
        gens = W.gamma_generators(tower, K)
        for wsrc in wgts:
            for wdst in wgts:
                system = np.concatenate(
                    [_hom_rows_by_entries(wsrc, wdst, g) for g in gens])
                assert np.array_equal(W.hom_space(wsrc, wdst),
                                      gfmat.nullspace(tower, system))
