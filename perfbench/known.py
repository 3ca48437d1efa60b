"""Known answers for the benchmark's checks.

Every expected value is copied from the frozen tables and closed forms of the
test suite, never computed by the code under test:

* FROZEN_CONSTANTS and FROZEN_COUNTS are the tables of the same names in
  tests/test_induction.py (q = 3).
* The grid averaging closed forms S_K f_n = f_-n (n >= 1) and
  S_- f_-n = f_(n+1) (n >= 0) are those of test_deep_s_identities_grid.
* The certificate bound "more than half of the samples land on distinct
  target tags" is the bound of test_translation_recursion_certificates.
"""

# label: (lam, c, c_minus, d0, d_deep), identical at both compacts
FROZEN_CONSTANTS = {
    "trivial": (1, 2, 2, 0, 2),
    "steinberg": (0, 0, 2, 2, 2),
    "det1": (2, 2, 1, 0, 1),
    "det2": (1, 2, 2, 0, 2),
    "det3": (2, 2, 1, 0, 1),
}

# (compact, shift) -> number of cosets in the shift cell at q = 3
FROZEN_COUNTS = {
    ("K0", 0): 1, ("K0", 1): 3, ("K0", 2): 243, ("K0", 3): 19683,
    ("K1", 0): 1, ("K1", 1): 27, ("K1", 2): 2187, ("K1", 3): 177147,
    ("K0", -1): 81, ("K0", -2): 6561, ("K0", -3): 531441,
    ("K1", -1): 81, ("K1", -2): 6561, ("K1", -3): 531441,
}


def constants(label, n_top=3):
    """Expected (lam, c, c_minus, d) of constants(weight, n_top)."""
    lam, c, c_minus, d0, d_deep = FROZEN_CONSTANTS[label]
    d = {0: d0}
    for n in range(1, n_top + 1):
        d[n] = d_deep
    return (lam, c, c_minus, d)


def recursion(K, n_from, direction, sample=None):
    """Expected summary of translation_recursion_check: exhaustive when
    sample is None, certificate mode with `sample` samples otherwise."""
    target = n_from + direction
    cnt_from = FROZEN_COUNTS[(K, n_from)]
    cnt_target = FROZEN_COUNTS[(K, target)]
    out = {
        "from": n_from,
        "target": target,
        "prefixes": cnt_target // cnt_from,
        "target_cosets": cnt_target,
    }
    if sample is None:
        out["mode"] = "exhaustive"
    else:
        out.update(mode="certificate", sampled=sample, most_distinct=True)
    return out


def sk_image(n):
    """Expected coefficients of op_SK_grid(f_grid(w, n)) for n >= 1."""
    return {-n: 1}


def sminus_image(n):
    """Expected coefficients of op_Sminus_grid(f_grid(w, -n)) for n >= 0."""
    return {n + 1: 1}
