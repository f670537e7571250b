"""The layout of the package, read from its source with ast.

Invariants are explicit checks that raise, never assert statements.  Only
the command line and the package root import verify, so the reference
deciders in primitivity (is_primitive, whitehead_minimize and the orbit
oracle) cannot read the shortcuts of its sweeps.  verify in turn reaches
only the letter-level routines beneath the public entries that check
every word, and it imports nothing from automorphisms.
"""

import ast
from pathlib import Path

import freegroups


def imported_modules(tree):
    """The package modules a module imports, by bare name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                names.add(node.module.split(".")[0])
            elif node.level == 1 or node.module == "freegroups":
                names.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("freegroups."):
                names.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("freegroups."):
                    names.add(alias.name.split(".")[1])
    return names


def test_package_has_no_assert_statements():
    # invariants must hold under python -O, which strips assert statements
    package = Path(freegroups.__file__).parent
    modules = sorted(package.rglob("*.py"))
    assert package / "primitivity.py" in modules
    found = [
        f"{path.relative_to(package)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_only_the_entry_points_import_verify():
    importers = {
        path.name
        for path in Path(freegroups.__file__).parent.glob("*.py")
        if "verify" in imported_modules(ast.parse(path.read_text()))
    }
    assert importers == {"cli.py", "__init__.py"}


def names_used(tree):
    """Every name a module imports, reads or reaches as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name for alias in node.names)
            names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_sweeps_reach_only_the_letter_routines():
    # verify builds its words from letters it knows are valid, so it calls
    # the letter-level routines; the public entries that check each word
    # again must not come back into its per-pair and per-translate loops
    tree = ast.parse((Path(freegroups.__file__).parent / "verify.py").read_text())
    used = names_used(tree)
    assert {"_basis_pair_letters", "_fold_letters", "_separability", "_minimize_letters"} <= used
    assert used & {"is_basis_pair_f2", "build_whitehead_graph", "WhiteheadGraph"} == set()


def test_verify_imports_nothing_from_automorphisms():
    # the sweeps name a symmetry class by the gap key of a core, and must
    # not drift back to filing every image under the signed permutations
    tree = ast.parse((Path(freegroups.__file__).parent / "verify.py").read_text())
    assert "automorphisms" not in imported_modules(tree)
    assert names_used(tree) & {"enumerate_kind1", "_apply_k1_letters", "apply_aut"} == set()
    assert "_gap_key" in names_used(tree)


def functions(module):
    """The top-level functions of a package module by name, as ast nodes."""
    tree = ast.parse((Path(freegroups.__file__).parent / f"{module}.py").read_text())
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_the_lemma_checkers_never_call_is_primitive():
    # is_primitive answers cores without a cut vertex by Whitehead's
    # cut-vertex lemma; prop24 and npbig check that lemma, so they and the
    # verdicts they read (the classifier, fincov's ladder) call the descent
    # alone, or the checks would be circular
    sweeps = functions("verify")
    for name in ("_prop24", "_npbig", "_symmetry_classifier", "_not_primitive", "_fincov"):
        assert "is_primitive" not in names_used(sweeps[name]), name
    assert "_minimize_letters" in names_used(sweeps["_npbig"])


def test_the_descent_never_reads_the_lemma():
    # the descent and the traces keep no shortcut: is_primitive alone
    # tests separability before it descends
    routines = functions("primitivity")
    for name in ("_find_move", "_minimize_letters", "whitehead_minimize"):
        used = names_used(routines[name])
        assert used & {"_separability", "is_primitive"} == set(), name
    assert "_separability" in names_used(routines["is_primitive"])


def test_names_used_sees_imports_and_attributes():
    tree = ast.parse("from .primitivity import is_basis_pair_f2 as f\nwhitehead_graph.WhiteheadGraph")
    assert {"is_basis_pair_f2", "f", "WhiteheadGraph"} <= names_used(tree)


def test_imported_modules_sees_every_import_form():
    forms = [
        "from .verify import run_claims",
        "from . import verify",
        "from freegroups import verify",
        "from freegroups.verify import run_claims",
        "import freegroups.verify",
    ]
    for form in forms:
        assert "verify" in imported_modules(ast.parse(form)), form
    assert "verify" not in imported_modules(ast.parse("from .words import Word"))
