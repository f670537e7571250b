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
from freegroups.verify import VerificationReport


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


def test_verify_lists_no_relabeling_of_a_class():
    # a failing prop24 class is named by its core, so verify never walks
    # the n!/(n-m)! relabelings of a class, which do not end at a high rank
    tree = ast.parse((Path(freegroups.__file__).parent / "verify.py").read_text())
    assert names_used(tree) & {"permutations", "_class_necklaces"} == set()


def functions(module):
    """The top-level functions of a package module by name, as ast nodes."""
    tree = ast.parse((Path(freegroups.__file__).parent / f"{module}.py").read_text())
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_the_class_walk_files_no_verdicts():
    # every class verdict comes by one route: prop24, density and
    # nielsen-xcheck read the class walk, which tells classes apart by gap
    # keys, and verify defines no classifier beside it
    tree = ast.parse((Path(freegroups.__file__).parent / "verify.py").read_text())
    defined = [node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    assert "_core_classes" in defined
    assert [name for name in defined if "classif" in name] == []
    assert "_symmetry_classifier" not in names_used(tree)
    sweeps = functions("verify")
    for name in ("_prop24", "primitive_density", "_nielsen_xcheck"):
        used = names_used(sweeps[name])
        assert "_core_classes" in used, name
        # the walk's verdicts are the only ones these sweeps read
        assert used & {"_minimize_letters", "is_primitive"} == set(), name
    assert "_gap_key" in names_used(sweeps["_core_classes"])


def test_the_gap_key_lives_in_words():
    # a gap key is a fact about cyclic words: words defines it once, and
    # the walk and the orbit oracle both read it from there
    owners = {
        path.name
        for path in Path(freegroups.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == "_gap_key"
    }
    assert owners == {"words.py"}


def test_the_orbit_oracle_settles_no_class_by_descent():
    # the oracle closes classes under Whitehead moves alone, so it checks
    # the descent, the lemma and the class walk from outside
    routines = functions("primitivity")
    machinery = {
        "_minimize_letters",
        "_find_move",
        "_max_flow",
        "_separability",
        "is_primitive",
        "whitehead_minimize",
        "_core_classes",
    }
    for name in ("primitive_orbit_oracle", "_primitive_classes"):
        assert names_used(routines[name]) & machinery == set(), name
    assert "_primitive_classes" in names_used(routines["primitive_orbit_oracle"])
    tree = ast.parse((Path(freegroups.__file__).parent / "primitivity.py").read_text())
    assert "verify" not in imported_modules(tree)
    # kind 1 moves stay inside a class, so the closure applies none
    assert names_used(tree) & {"enumerate_kind1", "_apply_k1_letters"} == set()


def test_the_lemma_checkers_never_call_is_primitive():
    # is_primitive answers cores without a cut vertex by Whitehead's
    # cut-vertex lemma; prop24 and npbig check that lemma, so they and the
    # verdicts they read (the class walk, nielsen-xcheck's table of its
    # verdicts, fincov's ladder)
    # call the descent alone, or the checks would be circular
    sweeps = functions("verify")
    for name in (
        "_prop24",
        "_core_classes",
        "_npbig",
        "_nielsen_xcheck",
        "_not_primitive",
        "_fincov",
    ):
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


def bool_tests(tree):
    """The isinstance calls of a module whose class argument names bool."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and len(node.args) == 2
        and "bool" in names_used(node.args[1])
    ]


def test_the_integer_rule_lives_in_words():
    # "an int that is not a bool" is written once, as words._is_int, and
    # its message once, as words._check_int; every other module calls them
    for form in ("isinstance(x, bool)", "not isinstance(x, (int, bool))"):
        assert bool_tests(ast.parse(form)) == [1], form
    trees = {
        path.name: ast.parse(path.read_text())
        for path in Path(freegroups.__file__).parent.glob("*.py")
    }
    assert {name for name, tree in trees.items() if bool_tests(tree)} == {"words.py"}
    for rule in ("_is_int", "_check_int"):
        owners = {
            name
            for name, tree in trees.items()
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == rule
        }
        assert owners == {"words.py"}, rule


def test_the_rose_test_lives_in_stallings():
    # the sweep reads the folded tables through stallings._is_rose, the
    # test generates_whole_group makes, and never reads them itself
    used = names_used(functions("verify")["_nielsen_xcheck"])
    assert "_is_rose" in used
    assert used & {"find", "count"} == set()
    assert "_is_rose" in functions("stallings")
    tree = ast.parse((Path(freegroups.__file__).parent / "stallings.py").read_text())
    (graph,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "SubgroupGraph"]
    (method,) = [n for n in graph.body if getattr(n, "name", None) == "generates_whole_group"]
    assert "_is_rose" in names_used(method)


def test_the_block_table_reads_the_whitehead_edges():
    # a block's path edges are its cyclic edges minus the wrap-around one
    assert "whitehead_edges" in names_used(functions("verify")["_block_table"])


def test_the_covering_family_is_a_plain_table():
    # wij_family returns a fresh dict, so verify keeps no family record,
    # no guarded dict, and select_wij reads the word alone
    tree = ast.parse((Path(freegroups.__file__).parent / "verify.py").read_text())
    bases = {
        node.name: set().union(*map(names_used, node.bases))
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }
    assert [name for name, used in bases.items() if "dict" in used] == []
    records = [name for name, used in bases.items() if used & {"_Record", "_FrozenRecord"}]
    assert records == ["VerificationReport"]
    select = functions("verify")["select_wij"].args
    assert [arg.arg for arg in select.posonlyargs + select.args + select.kwonlyargs] == ["a"]
    assert select.vararg is None and select.kwarg is None


def test_a_report_derives_its_status():
    # the pass rule is written once, as verify._status: a report stores no
    # status beside its counterexamples, and no helper fills one in
    sweeps = functions("verify")
    assert "make_report" not in sweeps
    assert "status" not in VerificationReport.__slots__
    assert "_status" in names_used(sweeps["_section3"])


def test_the_generation_test_has_one_route():
    # the sweeps fold letter tuples and read the rose off the tables
    tree = ast.parse((Path(freegroups.__file__).parent / "verify.py").read_text())
    assert "generates_whole_group" not in names_used(tree)
    sweeps = functions("verify")
    for name in ("_claim_one", "_lemma38", "_nielsen_xcheck"):
        assert {"_is_rose", "_fold_letters"} <= names_used(sweeps[name]), name


def test_the_commutator_letters_live_in_words():
    # a^-1 b^-1 a b is built by words._commutator_letters alone
    for module, name in (("words", "commutator"), ("primitivity", "_basis_pair_letters")):
        used = names_used(functions(module)[name])
        assert "_commutator_letters" in used, name
        assert "reversed" not in used, name

def test_the_whitehead_graph_has_one_builder():
    # the cyclic matrix and the graph view both build through edge_matrix,
    # so a faster kernel cannot come from a second builder beside it
    routines = functions("whitehead_graph")
    assert {"edge_matrix", "whitehead_edges"} <= names_used(routines["_cyclic_matrix"])
    tree = ast.parse((Path(freegroups.__file__).parent / "whitehead_graph.py").read_text())
    (graph,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "WhiteheadGraph"]
    (method,) = [n for n in graph.body if getattr(n, "name", None) == "_set"]
    assert "edge_matrix" in names_used(method)


def test_the_kernel_loops_call_no_builtin_min():
    # the low-link DFS and the capped max-flow compare with <, since a
    # builtin call per edge costs more than the comparison on their paths
    for module, name in (("whitehead_graph", "_separation"), ("primitivity", "_max_flow")):
        assert "min" not in names_used(functions(module)[name]), name


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
