"""The array results of the coset reads expanded into one (tag, residue)
pair per word, the form the scalar coset_normalize returns, so that tests
can compare them row for row: each residue row is wrapped as the
GammaElem of the oracle."""

from u21hecke.unitary_group import GammaElem


def expand(tower, K, read):
    """The (tag, residue) of every word of a ProductRead of the compact K,
    in word order."""
    tags = read.tag_tuple()
    return [
        (tags[t], GammaElem(tower, K, read.residues[r].tolist()))
        for t, r in zip(read.tag_ids.tolist(), read.res_ids.tolist())
    ]


def expand_batch(tower, K, out):
    """The (tag, residue) of every pair of an nf_uak_batch result, None for
    a word the batch does not carry."""
    shifts, indices, res_ids, residues = out
    rows = residues.tolist()
    return [
        None if i < 0 else ((t, i), GammaElem(tower, K, rows[r]))
        for t, i, r in zip(shifts.tolist(), indices.tolist(),
                           res_ids.tolist())
    ]
