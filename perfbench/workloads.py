"""The benchmark's workloads: what each builds in set-up and which checks it
runs, each check paired with its known answer from known.py.

Every workload runs on its own Tower(p, f) with the tier-1 precision window,
so nothing is shared with another run. The window is a workload property:
it fixes the length of every certified series.

* battery_q3: constants(check=True) over the 10 catalog weights at q = 3,
  in seed-permuted order. Materialized op_T on the cells 0 and +-1 for every
  weight; weights at the same compact share their cosets, so the coset cache
  is reused.
* recursion_q3: translation_recursion_check at q = 3, exhaustive up to the
  19683-coset grid at K0 trivial, plus two certificates at K1 steinberg whose
  sample comes from the seed. Every target coset is new, so each
  normalization is a cold coset_normalize.
* grid_q5: the grid averaging identities at q = 5 for six weights, in
  seed-permuted order. Points are evaluated through nf_kau over 125-atom
  transversals; coset_normalize is barely used. Set-up carries the v0 of the
  125-dimensional K0 steinberg weight.
* tiny_q3: two small recursion steps, used only by the harness self-check.
"""

import functools
import random

from u21hecke import induction as I
from u21hecke import weights as W
from u21hecke.unitary_group import K0, K1

import known

WINDOW = 24  # the tier-1 precision window


class Workload:
    """p, f: the residue field q = p^f.  weights: (compact, label) pairs
    built in set-up.  prep: the Weight methods the checks need, also run in
    set-up.  checks(catalog, seed): list of (label, thunk, expected)."""

    def __init__(self, p, f, weights, prep, checks):
        self.p = p
        self.f = f
        self.weights = weights
        self.prep = prep
        self.checks = checks


def make_weight(tower, K, label):
    if label == "trivial":
        return W.make_weight(tower, K, W.TRIVIAL)
    if label == "steinberg":
        return W.make_weight(tower, K, W.STEINBERG)
    return W.make_weight(tower, K, W.DET_TWIST, power=int(label[len("det"):]))


def _shuffled(catalog, seed):
    keys = list(catalog)
    random.Random(seed).shuffle(keys)
    return keys


# ---------------------------------------------------------------------------
# battery_q3


def _constants(weight):
    hc = I.constants(weight, check=True)
    return (hc.lam, hc.c, hc.c_minus, hc.d)


def _battery_checks(catalog, seed):
    return [
        ("constants %s %s" % key, functools.partial(_constants, catalog[key]),
         known.constants(key[1]))
        for key in _shuffled(catalog, seed)
    ]


# ---------------------------------------------------------------------------
# recursion_q3 and tiny_q3


def _recursion(weight, n_from, direction, **kwargs):
    ev = I.translation_recursion_check(weight, n_from, direction, **kwargs)
    out = {k: ev[k] for k in ("from", "target", "prefixes", "target_cosets",
                              "mode")}
    if ev["mode"] == "certificate":
        out["sampled"] = ev["sampled"]
        out["most_distinct"] = 2 * ev["distinct_hits"] > ev["sampled"]
    return out


EXHAUSTIVE_STEPS = ((0, 1), (1, 1), (2, 1), (0, -1), (-1, -1))
CERTIFICATE_STEPS = ((2, 1), (-2, -1))
CERTIFICATE_TAG_CAP = 5000
CERTIFICATE_SAMPLE = 64


def _recursion_checks(catalog, seed, steps=EXHAUSTIVE_STEPS, certify=True):
    w = catalog[(K0, "trivial")]
    out = [
        ("recursion K0 trivial %d->%d" % (n, n + d),
         functools.partial(_recursion, w, n, d), known.recursion(K0, n, d))
        for n, d in steps
    ]
    if certify:
        ws = catalog[(K1, "steinberg")]
        for n, d in CERTIFICATE_STEPS:
            out.append((
                "certificate K1 steinberg %d->%d" % (n, n + d),
                functools.partial(
                    _recursion, ws, n, d, tag_cap=CERTIFICATE_TAG_CAP,
                    sample=CERTIFICATE_SAMPLE, seed=seed,
                ),
                known.recursion(K1, n, d, sample=CERTIFICATE_SAMPLE),
            ))
    return out


def _tiny_checks(catalog, seed):
    return _recursion_checks(catalog, seed, steps=((0, 1), (1, 1)),
                             certify=False)


# ---------------------------------------------------------------------------
# grid_q5


def _sk(weight, n):
    return I.op_SK_grid(I.f_grid(weight, n)).coeffs


def _sminus(weight, n):
    return I.op_Sminus_grid(I.f_grid(weight, -n)).coeffs


def _grid_checks(catalog, seed):
    out = []
    for key in _shuffled(catalog, seed):
        w = catalog[key]
        for n in (1, 2, 3):
            out.append(("S_K %s %s f_%d" % (key + (n,)),
                        functools.partial(_sk, w, n), known.sk_image(n)))
        for n in (0, 1, 2):
            out.append(("S_- %s %s f_%d" % (key + (-n,)),
                        functools.partial(_sminus, w, n),
                        known.sminus_image(n)))
    return out


CATALOG = ("trivial", "steinberg", "det1", "det2", "det3")

WORKLOADS = {
    "battery_q3": Workload(
        3, 1, [(K, label) for K in (K0, K1) for label in CATALOG],
        ("v0", "j_matrix", "chi_of"), _battery_checks,
    ),
    "recursion_q3": Workload(
        3, 1, [(K0, "trivial"), (K1, "steinberg")], ("v0",),
        _recursion_checks,
    ),
    "grid_q5": Workload(
        5, 1,
        [(K, label) for K in (K0, K1) for label in CATALOG[:3]],
        ("v0",), _grid_checks,
    ),
    "tiny_q3": Workload(3, 1, [(K0, "trivial")], ("v0",), _tiny_checks),
}
