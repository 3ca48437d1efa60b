"""Packaging metadata: every declared console script resolves, every name
the benchmark's tracer wraps exists, the package keeps its derived tables
only in owned memo tables, no module imports a name it never uses, no
production solve sweeps a whole reduced subgroup, the materialized T
stays an oracle, the residue groups are read without the scalar per-atom
route, both spins run the one closure loop, the batched coset
read has one production route and the scalar read no caller, weights act
through their array action, a product read does not import numpy.ma, and
every array lookup in the field tables goes through the tower's array
methods."""

import ast
import importlib
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
PACKAGE = PYPROJECT.parent / "src" / "u21hecke"
TESTS = PYPROJECT.parent / "tests"


def test_console_scripts_resolve():
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), name


def test_benchmark_tracer_targets_resolve():
    """Every name the benchmark's traced runs wrap still exists: installing
    the tracer looks each one up and fails on a missing name."""
    perfbench = str(PYPROJECT.parent / "perfbench")
    sys.path.insert(0, perfbench)
    try:
        import tracer
    finally:
        sys.path.remove(perfbench)
    trace = tracer.Tracer()
    try:
        trace.install()
    finally:
        trace.uninstall()


NO_MASKED_ARRAYS = """
import sys
import numpy as np
from u21hecke import gfmat, induction as I, weights as W
from u21hecke.fields import Tower
tw = Tower(3, 1)
words = [I.word_from_tag(tw, "K0", t) for t in I.grid_tags(tw, "K0", 2)][:64]
read = I._normalize_words(tw, "K0", words)
rows = np.array([g.m for g in read.residues], dtype=np.uint16)
w = W.make_weight(tw, "K0", W.STEINBERG)
w.apply(rows, read.res_ids, np.ones((len(read), w.dim), dtype=np.uint16))
b = W.BuiltWeight(tw, "K0", "spanned", 2, lambda gamma: gfmat.eye(2))
b.apply(rows, read.res_ids, np.ones((len(read), 2), dtype=np.uint16))
for K in ("K0", "K1"):
    I.constants(W.make_weight(tw, K, W.STEINBERG), check=True)
I.GridElement.from_induced(I.f_basis(w, -1).add(I.f_basis(w, 1)))
print("numpy.ma" in sys.modules)
"""


def test_product_read_imports_no_masked_arrays():
    """A q = 3 product read (batched), Weight.apply through an action and
    through a builder, constants() on steinberg at both compacts and
    GridElement.from_induced on the cells -1 and 1 leave numpy.ma
    unimported: np.unique without return_index or return_inverse imports
    it on its first call, inside the first timed check of a benchmark
    pass."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", NO_MASKED_ARRAYS], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False"]


def _dict_valued(node):
    if isinstance(node, (ast.Dict, ast.DictComp)):
        return True
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("dict", "OrderedDict", "defaultdict"))


def test_no_hand_rolled_caches():
    """No getattr/hasattr on a private attribute name (a lazily created
    cache) and no module-level cache dict: derived tables go through
    fields.memo, owned by a Tower or a Weight."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in ("getattr", "hasattr")
                    and len(node.args) >= 2
                    and isinstance(node.args[1], ast.Constant)
                    and str(node.args[1].value).startswith("_")):
                found.append("%s:%d %s" % (path.name, node.lineno,
                                           node.func.id))
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign):
                targets, value = [node.target], node.value
            else:
                continue
            for t in targets:
                if (isinstance(t, ast.Name) and "CACHE" in t.id
                        and value is not None and _dict_valued(value)):
                    found.append("%s:%d %s" % (path.name, node.lineno, t.id))
    assert found == []


def test_no_unused_imports():
    """Every name imported in the package or the tests is used in its
    module; an import marked "# noqa: F401" (a re-export, such as the names
    the benchmark's tracer wraps) is exempt."""
    found = []
    for path in sorted([*PACKAGE.glob("*.py"), *TESTS.glob("*.py")]):
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text, str(path))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or "# noqa: F401" in lines[node.end_lineno - 1]):
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    found.append("%s:%d %s" % (path.name, node.lineno, name))
    assert found == []


# The whole reduced subgroups, and the only functions that may use them: the
# generator pickers, the Borel coset representatives (one per upper
# unipotent) and the fingerprint element list.
SUBGROUP_SWEEPS = {"gamma_upper", "gamma_lower", "gamma_torus"}
SWEEP_USERS = {
    "gamma_upper_generators",
    "gamma_lower_generators",
    "gamma_torus_generators",
    "borel_coset_reps",
    "fingerprint_elements",
}


def _uses_outside(names, owners):
    """Every use of a name of names in the package outside the functions of
    owners (the innermost enclosing def counts), as "file:line name in
    function"."""
    found = []

    def visit(node, owner, path):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute) else None)
        if name in names and owner not in owners:
            found.append("%s:%d %s in %s" % (path.name, node.lineno, name,
                                             owner))
        for child in ast.iter_child_nodes(node):
            visit(child, owner, path)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), None, path)
    return found


def test_no_whole_subgroup_sweeps():
    """In the package, gamma_upper, gamma_lower and gamma_torus are named
    only inside the functions of SWEEP_USERS: every solve runs on
    generators."""
    assert _uses_outside(SUBGROUP_SWEEPS, SWEEP_USERS) == []


def test_materialized_T_is_an_oracle():
    """In the package, the materialized op_T is called only by op_T_sigma
    and equivariance_spot_check; the structure constants read T from
    op_T_grid."""
    assert _uses_outside({"op_T"}, {"op_T_sigma", "equivariance_spot_check"}) == []


def test_one_closure_loop():
    """weights.SPIN_BUDGET is defined once (at module level) and read only
    inside the shared closure loop, and spin_K closes under
    gamma_generators, not under layer transversals of its own."""
    budget = _uses_outside({"SPIN_BUDGET"}, {"closure"})
    assert [re.sub(r":\d+", "", u) for u in budget] == [
        "weights.py SPIN_BUDGET in None"
    ]
    uses = _uses_outside({"gamma_generators", "layer_transversal"}, set())
    assert any(u.endswith("gamma_generators in spin_K") for u in uses)
    assert not any(u.endswith("layer_transversal in spin_K") for u in uses)


def test_one_route_into_the_batch():
    """In the package, nf_uak_batch is named only inside _product_read, the
    memoized product read: every batched coset read is one record of the
    product table."""
    assert _uses_outside({"nf_uak_batch"}, {"_product_read"}) == []


def test_no_caller_of_the_scalar_read():
    """In the package, coset_normalize is named nowhere (outside its own
    definition): the scalar coset read has no production caller, and a
    word the batch does not carry is refused by the product read."""
    assert _uses_outside({"coset_normalize"}, set()) == []


def test_invariance_is_certified_not_sampled():
    """In the package, is_pro_iwahori_invariant is named only inside
    _average, the input check of the materialized averages, and no
    sampling helper of invariance (pro_iwahori_sample, _invariance_points)
    is named or defined anywhere."""
    assert _uses_outside({"is_pro_iwahori_invariant"}, {"_average"}) == []
    sampled = ("pro_iwahori_sample", "_invariance_points")
    assert [path.name for path in sorted(PACKAGE.glob("*.py"))
            if any(name in path.read_text() for name in sampled)] == []


def test_no_scalar_route_into_the_residue_groups():
    """reduce_atom and in_iwahori_unipotent, the scalar per-atom route into
    the residue groups, are named nowhere in the package: the layers and
    the torus are read as arrays (unitary_group.layer_residues), and the
    scalar route lives on in tests/scalar.py as their oracle."""
    scalar = ("reduce_atom", "in_iwahori_unipotent")
    assert [path.name for path in sorted(PACKAGE.glob("*.py"))
            if any(name in path.read_text() for name in scalar)] == []


def test_weights_act_through_arrays():
    """In the package, the scalar classify_coset is named only in
    gamma_lift_word, so no weight builds sigma(gamma) one coset at a time
    (they classify through weights.classify_rows), and _transport_ids never
    calls Weight.matrix: it passes a read's residues to the weight's
    action."""
    assert _uses_outside({"classify_coset"}, {"gamma_lift_word"}) == []
    uses = _uses_outside({"matrix", "apply"}, set())
    assert not any(u.endswith("matrix in _transport_ids") for u in uses)
    assert any(u.endswith("apply in _transport_ids") for u in uses)


def _field_table(node):
    """Is node a field table add or mul: an attribute of that name (tw.add)
    or a local name for one (add = tw.add)?"""
    name = (node.attr if isinstance(node, ast.Attribute)
            else node.id if isinstance(node, ast.Name) else None)
    return name in ("add", "mul")


def test_field_arrays_through_the_tower():
    """Outside fields.py no add or mul table of a tower is subscripted with
    a tuple (tw.add[A, B]) or flattened (tw.mul.ravel().take): every array
    sum and product is one flat take through Tower.plus, times or
    plus_times, and every scalar one goes through Tower.a or Tower.m_."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "fields.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Subscript) and _field_table(node.value)
                    and isinstance(node.slice, ast.Tuple)):
                found.append("%s:%d subscript" % (path.name, node.lineno))
            if (isinstance(node, ast.Attribute) and node.attr == "ravel"
                    and _field_table(node.value)):
                found.append("%s:%d ravel" % (path.name, node.lineno))
    assert found == []
