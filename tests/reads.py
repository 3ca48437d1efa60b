"""The array results of the coset reads expanded into one (tag, residue)
pair per word, the form the scalar coset_normalize returns, so that tests
can compare them row for row."""

from u21hecke.unitary_group import GammaElem


def expand(read):
    """The (tag, residue) of every word of a ProductRead, in word order."""
    return [
        (read.tags[t], read.residues[r])
        for t, r in zip(read.tag_ids.tolist(), read.res_ids.tolist())
    ]


def expand_batch(tower, K, out):
    """The (tag, residue) of every pair of an nf_uak_batch result, None for
    a word the batch does not carry."""
    ids, tags, residues = out
    return [
        None if i < 0 else (tags[i], GammaElem(tower, K, row))
        for i, row in zip(ids.tolist(), residues.tolist())
    ]
