"""Outside-in tracing of u21hecke for the benchmark's traced runs.

Nothing in the package is edited: each traced function is replaced, for the
life of the process, by a wrapper installed under the name the caller looks
it up by (a module global such as induction.coset_normalize, or a class
attribute such as Mat3.__mul__).  Wrappers record one of three things:

* a span (name, start, end, parent) kept in flat in-memory arrays and
  written out once, at the end of the run;
* a call count, for the kernel functions that run millions of times and
  would cost too much as spans;
* a count plus accumulated busy time (Mat3.__mul__).

A cache hit is a call that returns an object already returned before: the
caches hand back the stored object, while a miss builds a new one.  The
wrapper keeps every returned object alive so that an id is never reused.

Span names are "<module>.<function>"; where one function is looked up from
several modules, the lookup site follows an "@" so that per-site time (the
reassembly checks in words) stays separable.
"""

import gzip
import json
import time
from array import array

import numpy as np

from u21hecke import _kernel, gfmat, induction, unitary_group, weights, words
from u21hecke.mat3 import Mat3

NO_PARENT = -1


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ix = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [NO_PARENT]
        self.counters = {}
        self.busy = {}
        self._seen = {}
        self._hits = {}
        self._undo = []

    # ---- recording --------------------------------------------------------

    def _nid(self, name):
        nid = self._name_ix.get(name)
        if nid is None:
            nid = self._name_ix[name] = len(self.names)
            self.names.append(name)
        return nid

    def region(self, name):
        """Context manager recording one span from the benchmark's code."""
        return _Region(self, self._nid(name))

    def _open(self, nid):
        sid = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(sid)
        self.span_start.append(time.perf_counter())
        return sid

    def _close(self, sid):
        self.span_end[sid] = time.perf_counter()
        self._stack.pop()

    def _spanned(self, name, fn, on_result=None):
        nid = self._nid(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, out)
            return out

        return wrapper

    def _counter(self, name):
        cell = self.counters.setdefault(name, [0])

        def tick(n=1):
            cell[0] += n

        return tick

    def _counted(self, name, fn):
        cell = self.counters.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timed(self, name, fn):
        cell = self.counters.setdefault(name, [0])
        busy = self.busy.setdefault(name, [0.0])
        clock = time.perf_counter

        def wrapper(*args):
            cell[0] += 1
            t0 = clock()
            out = fn(*args)
            busy[0] += clock() - t0
            return out

        return wrapper

    def _hit_tracker(self, name):
        seen = self._seen.setdefault(name, {})
        hits = self._hits.setdefault(name, [0])

        def on_result(args, out):
            key = id(out)
            if key in seen:
                hits[0] += 1
            else:
                seen[key] = out

        return on_result

    # ---- installation -----------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        """Wrap every traced name; uninstall() restores them."""
        nf_hit = self._hit_tracker("words.nf_uak")
        cn_hit = self._hit_tracker("induction.coset_normalize")
        atoms = self._counter("unitary_group.word_matrix.atoms")

        def count_atoms(args, out):
            atoms(len(args[1]))

        spans = [
            (induction, "coset_normalize", "induction.coset_normalize",
             cn_hit),
            (induction, "nf_uak", "words.nf_uak@induction", nf_hit),
            (words, "nf_uak", "words.nf_uak@words", nf_hit),
            (induction, "nf_kau", "words.nf_kau", None),
            (induction, "tag_of_nf", "words.tag_of_nf", None),
            (words, "tag_of_nf", "words.tag_of_nf", None),
            (words, "sort_unipotent_mix", "words.sort_unipotent_mix", None),
            (induction, "reduce_to_gamma",
             "unitary_group.reduce_to_gamma@induction", None),
            (weights, "reduce_to_gamma",
             "unitary_group.reduce_to_gamma@weights", None),
            (unitary_group, "reduce_to_gamma",
             "unitary_group.reduce_to_gamma@unitary_group", None),
            (induction, "op_T", "induction.op_T", None),
            (induction, "f_basis", "induction.f_basis", None),
            (induction, "is_pro_iwahori_invariant",
             "induction.is_pro_iwahori_invariant", None),
            (induction, "op_SK_grid", "induction.op_SK_grid", None),
            (induction, "op_Sminus_grid", "induction.op_Sminus_grid", None),
            (gfmat, "rref", "gfmat.rref", None),
        ]
        for mod in (words, induction, weights):
            site = mod.__name__.rsplit(".", 1)[-1]
            spans.append((mod, "word_matrix",
                          "unitary_group.word_matrix@" + site, count_atoms))
        for owner, attr, name, on_result in spans:
            self._patch(owner, attr, self._spanned(
                name, owner.__dict__[attr], on_result))

        self._patch(induction.InducedFn, "from_raw", self._from_raw())
        self._patch(weights.Weight, "matrix", self._spanned(
            "weights.Weight.matrix", weights.Weight.matrix,
            self._hit_tracker("weights.Weight.matrix")))
        for owner, attr, name in (
            (words, "exchange", "unitary_group.exchange@words"),
            (unitary_group, "exchange",
             "unitary_group.exchange@unitary_group"),
            (gfmat, "matvec", "gfmat.matvec"),
            (gfmat.Basis, "add", "gfmat.Basis.add"),
        ):
            self._patch(owner, attr, self._counted(name, owner.__dict__[attr]))
        ctx = _kernel.backend.TableCtx
        for attr in ("ser_mul", "ser_inv", "mat3_mul"):
            self._patch(ctx, attr, self._counted(
                "kernel." + attr, ctx.__dict__[attr]))
        self._patch(Mat3, "__mul__", self._timed("mat3.mul", Mat3.__mul__))

    def _from_raw(self):
        fn = induction.InducedFn.__dict__["from_raw"].__func__
        gens = self._counter("induction.from_raw.generators")
        tags = self._counter("induction.from_raw.tags_out")

        def counted_pairs(pairs):
            for pair in pairs:
                gens()
                yield pair

        def from_raw(cls, weight, pairs):
            out = fn(cls, weight, counted_pairs(pairs))
            tags(len(out.data))
            return out

        return classmethod(self._spanned("induction.from_raw", from_raw))

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # ---- results ----------------------------------------------------------

    def span_table(self):
        """(name ids, parents, durations, has-same-name-ancestor) arrays."""
        name = np.frombuffer(self.span_name, dtype=np.int32).copy()
        parent = np.frombuffer(self.span_parent, dtype=np.int32).copy()
        dur = (np.frombuffer(self.span_end, dtype=np.float64)
               - np.frombuffer(self.span_start, dtype=np.float64))
        base = np.array([self._base_id(n) for n in range(len(self.names))],
                        dtype=np.int32)
        bname = base[name] if len(name) else name
        nested = np.zeros(len(name), dtype=bool)
        anc = parent.copy()
        while True:
            live = anc >= 0
            if not live.any():
                break
            nested |= live & (bname[np.where(live, anc, 0)] == bname)
            anc = np.where(live, parent[np.where(live, anc, 0)], NO_PARENT)
        return name, parent, dur, nested

    def _base_id(self, nid):
        return self._nid(self.names[nid].split("@", 1)[0])

    def summary(self):
        """Per span name: calls, busy_s (outermost spans of that name) and
        self_s (duration minus the direct children's), with every
        "@site" variant also folded into its base name."""
        name, parent, dur, nested = self.span_table()
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        selft = dur - child
        out = {}
        for nid, full in enumerate(list(self.names)):
            sel = name == nid
            if not sel.any():
                continue
            stats = (int(sel.sum()), float(dur[sel & ~nested].sum()),
                     float(selft[sel].sum()))
            keys = {full, full.split("@", 1)[0]}
            for key in keys:
                acc = out.setdefault(key, [0, 0.0, 0.0])
                for i, v in enumerate(stats):
                    acc[i] += v
        return {k: {"calls": v[0], "busy_s": v[1], "self_s": v[2]}
                for k, v in out.items()}

    def top_level_s(self, prefix):
        """Total duration of the top-level spans whose name has prefix."""
        name, parent, dur, _ = self.span_table()
        wanted = [i for i, n in enumerate(self.names) if n.startswith(prefix)]
        return float(dur[(parent == NO_PARENT) & np.isin(name, wanted)].sum())

    def hits(self, name):
        return self._hits[name][0]

    def count(self, name):
        return self.counters.get(name, [0])[0]

    def write_spans(self, path, t0):
        """Write every span as "id parent name start_s end_s" (seconds from
        t0, name as an index), gzip-compressed, after a header line holding
        the JSON list of names."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("# %s\n" % json.dumps(self.names))
            for sid in range(len(self.span_name)):
                fh.write("%d %d %d %.9f %.9f\n" % (
                    sid, self.span_parent[sid], self.span_name[sid],
                    self.span_start[sid] - t0, self.span_end[sid] - t0))


class _Region:
    __slots__ = ("tracer", "nid", "sid")

    def __init__(self, tracer, nid):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.sid = self.tracer._open(self.nid)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.sid)
        return False


def layer_metrics(tracer):
    """The per-layer metrics of the benchmark, by name: (value, unit)."""
    s = tracer.summary()

    def get(name, field):
        return s.get(name, {}).get(field, 0 if field == "calls" else 0.0)

    def ratio(hits, calls):
        return hits / calls if calls else 0.0

    m = {
        "fields.Tower.build_s": (get("fields.Tower", "busy_s"), "s"),
        "weights.prep_s": (get("weights.prep", "busy_s"), "s"),
        "kernel.ser_mul.calls": (tracer.count("kernel.ser_mul"), "count"),
        "kernel.ser_inv.calls": (tracer.count("kernel.ser_inv"), "count"),
        "kernel.mat3_mul.calls": (tracer.count("kernel.mat3_mul"), "count"),
        "mat3.mul.busy_s": (tracer.busy["mat3.mul"][0], "s"),
        "unitary_group.word_matrix.calls": (
            get("unitary_group.word_matrix", "calls"), "count"),
        "unitary_group.word_matrix.atoms": (
            tracer.count("unitary_group.word_matrix.atoms"), "count"),
        "unitary_group.word_matrix.busy_s": (
            get("unitary_group.word_matrix", "busy_s"), "s"),
        "unitary_group.reduce_to_gamma.calls": (
            get("unitary_group.reduce_to_gamma", "calls"), "count"),
        "unitary_group.exchange.calls": (
            tracer.count("unitary_group.exchange@words")
            + tracer.count("unitary_group.exchange@unitary_group"), "count"),
        "words.nf_uak.calls": (get("words.nf_uak", "calls"), "count"),
        "words.nf_uak.hit_ratio": (
            ratio(tracer.hits("words.nf_uak"), get("words.nf_uak", "calls")),
            "ratio"),
        "words.nf_uak.self_s": (get("words.nf_uak", "self_s"), "s"),
        "words.verify_s": (get("unitary_group.word_matrix@words", "busy_s"),
                           "s"),
        "words.tag_of_nf.self_s": (get("words.tag_of_nf", "self_s"), "s"),
        "words.sort_unipotent_mix.self_s": (
            get("words.sort_unipotent_mix", "self_s"), "s"),
        "words.nf_kau.calls": (get("words.nf_kau", "calls"), "count"),
        "words.nf_kau.busy_s": (get("words.nf_kau", "busy_s"), "s"),
        "induction.coset_normalize.calls": (
            get("induction.coset_normalize", "calls"), "count"),
        "induction.coset_normalize.hit_ratio": (
            ratio(tracer.hits("induction.coset_normalize"),
                  get("induction.coset_normalize", "calls")), "ratio"),
        "induction.coset_normalize.self_s": (
            get("induction.coset_normalize", "self_s"), "s"),
        "induction.coset_normalize.busy_s": (
            get("induction.coset_normalize", "busy_s"), "s"),
        "induction.from_raw.generators": (
            tracer.count("induction.from_raw.generators"), "count"),
        "induction.from_raw.tags_out": (
            tracer.count("induction.from_raw.tags_out"), "count"),
        "gfmat.rref.calls": (get("gfmat.rref", "calls"), "count"),
        "gfmat.rref.busy_s": (get("gfmat.rref", "busy_s"), "s"),
        "gfmat.Basis.add.calls": (tracer.count("gfmat.Basis.add"), "count"),
        "gfmat.matvec.calls": (tracer.count("gfmat.matvec"), "count"),
        "weights.Weight.matrix.calls": (
            get("weights.Weight.matrix", "calls"), "count"),
        "weights.Weight.matrix.hit_ratio": (
            ratio(tracer.hits("weights.Weight.matrix"),
                  get("weights.Weight.matrix", "calls")), "ratio"),
    }
    for op in ("op_T", "f_basis", "is_pro_iwahori_invariant", "op_SK_grid",
               "op_Sminus_grid"):
        name = "induction." + op
        m[name + ".busy_s"] = (get(name, "busy_s"), "s")
    return m
