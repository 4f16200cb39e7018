"""Guards on the source of ``hdgwg`` itself."""

import ast
import importlib.util
import inspect
import sys
from pathlib import Path

import hdgwg

SOURCE = Path(hdgwg.__file__).parent


def _einsum_calls(tree):
    """Line numbers of the calls to ``einsum`` in a module, except those in
    the body of the contraction helper ``contract``."""
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "contract":
            inside.update(id(n) for n in ast.walk(node))
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in inside:
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(
                func, "id", None)
            if name == "einsum":
                lines.append(node.lineno)
    return lines


def test_every_einsum_goes_through_the_contraction_helper():
    # a bare einsum runs as one nested loop over all indices; the helper
    # orders the contraction so that pairwise products run as BLAS
    modules = sorted(SOURCE.glob("*.py"))
    assert len(modules) > 1
    offenders = {}
    helpers = 0
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        helpers += sum(isinstance(n, ast.FunctionDef) and n.name == "contract"
                       for n in ast.walk(tree))
        lines = _einsum_calls(tree)
        if lines:
            offenders[path.name] = lines
    assert helpers == 1
    assert offenders == {}


NORM_NAMES = ("hdg_div", "hdg_grad", "wg_grad", "wg_div",
              "norm_kind_for_case")


def test_norm_pairs_are_named_in_one_module():
    # the four norm pairs are defined once, in hdgwg.norms: no other module
    # may name a pair or ask which pair a case has
    texts = {path.name: path.read_text() for path in SOURCE.glob("*.py")}
    norms = texts.pop("norms.py")
    assert all(name in norms for name in NORM_NAMES)
    offenders = {(module, name) for module, text in texts.items()
                 for name in NORM_NAMES if name in text}
    assert offenders == set()


STABILIZATION_NAMES = ("stabilization", "stabilization_factor",
                       "stabilization_law")


def test_stabilization_is_read_in_one_module():
    # each method's bilinear form is written once, in hdgwg.assembly: no
    # other module may read the tau/eta weights f(rho) g(h_K), or either
    # factor, to write a form again
    readers = set()
    for path in SOURCE.glob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        if any(isinstance(node, ast.Attribute)
               and node.attr in STABILIZATION_NAMES
               for node in ast.walk(tree)):
            readers.add(path.name)
    assert readers == {"assembly.py"}


def _callers(name):
    """The modules of ``hdgwg`` that call ``name``, as a function or an
    attribute, and the syntax trees of all modules."""
    callers, trees = set(), {}
    for path in SOURCE.glob("*.py"):
        tree = trees[path.name] = ast.parse(path.read_text(),
                                            filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.attr if isinstance(func, ast.Attribute) else (
                    getattr(func, "id", None))
                if called == name:
                    callers.add(path.name)
    return callers, trees


def test_dof_maps_are_built_in_one_module():
    # the DOF layout of all six methods is decided in hdgwg.spaces: no
    # other module may construct a DofMap or define a DOF-map class
    builders, trees = _callers("DofMap")
    classes = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name.endswith(
                    "DofMap"):
                classes.add((module, node.name))
    assert builders == {"spaces.py"}
    assert classes == {("spaces.py", "DofMap")}


def test_element_tables_are_built_by_the_studies():
    # every kernel takes its tables as an argument, and the front end runs
    # studies only: the studies alone choose a mesh, a space and a rule to
    # tabulate on
    builders, _ = _callers("ElementTables")
    assert builders == {"experiments.py"}


def _call_sites(name):
    """(module, enclosing function) of every call to ``name`` in ``hdgwg``."""
    sites = []

    def visit(module, node, function):
        if isinstance(node, ast.Call):
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else (
                getattr(func, "id", None))
            if called == name:
                sites.append((module, function))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        for child in ast.iter_child_nodes(node):
            visit(module, child, function)

    for path in SOURCE.glob("*.py"):
        visit(path.name, ast.parse(path.read_text(), filename=str(path)), None)
    return sites


def test_every_solve_goes_through_one_call_site():
    # the studies solve all six methods from their element matrices in
    # experiments._solve_case, and the plain LU's one library call is the
    # self-check's cross-check against it: a call elsewhere would be a
    # second pipeline to keep in step with them
    assert _call_sites("solve_element_system") == [
        ("experiments.py", "_solve_case")]
    assert _call_sites("solve_symmetric_indefinite") == [
        ("experiments.py", "run_self_check")]


def test_one_static_condensation():
    # the cells are condensed from element matrices alone; the matrix
    # solver is a plain LU reference, so a second condensation front end,
    # one that reads the cell blocks back from an assembled matrix, would
    # be a second pipeline to keep in step with the first
    assert _call_sites("_condense") == [("linalg.py", "solve_element_system")]
    assert list(inspect.signature(
        hdgwg.solve_symmetric_indefinite).parameters) == ["matrix", "rhs"]


def test_one_builder_of_the_cell_bisection_and_the_reduced_order():
    # the cells are bisected in hdgwg.mesh alone and the reduced DOFs are
    # ordered from it in hdgwg.linalg alone, so there is one order
    # builder: the studies read the bisection only to hand it to the
    # element solve
    builders, trees = set(), {}
    for path in SOURCE.glob("*.py"):
        tree = trees[path.name] = ast.parse(path.read_text(),
                                            filename=str(path))
        builders.update((path.name, node.name) for node in ast.walk(tree)
                        if isinstance(node, ast.FunctionDef)
                        and node.name in ("cell_leaf", "_nested_dissection"))
    assert builders == {("mesh.py", "cell_leaf"),
                        ("linalg.py", "_nested_dissection")}
    assert _call_sites("_nested_dissection") == [("linalg.py", "_condense")]
    readers = {module for module, tree in trees.items()
               for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)
               and node.attr in ("cell_leaf", "LEAF_CELLS")}
    assert readers == {"experiments.py"}


def test_factorizations_and_eigensolves_stay_in_linalg():
    # sparse LU and dense eigensolves run in hdgwg.linalg only, and the
    # inf-sup study asks for beta in one place, so the eigensolve's route
    # and its guess are chosen once
    for name in ("splu", "eigh"):
        assert _callers(name)[0] == {"linalg.py"}
    assert _call_sites("min_generalized_singular_value") == [
        ("experiments.py", "run_infsup_study")]


def test_cli_imports_the_studies_and_the_solver_errors_only():
    # the front end parses arguments, runs studies and writes tables: it
    # builds no mesh, DOF map, tables or system, and needs no array library
    tree = ast.parse((SOURCE / "cli.py").read_text())
    relative, absolute = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            (relative if node.level else absolute).add(node.module)
        elif isinstance(node, ast.Import):
            absolute.update(alias.name for alias in node.names)
    assert relative == {"experiments", "linalg"}
    assert {name.split(".")[0] for name in absolute} & {
        "hdgwg", "numpy", "scipy"} == set()


def test_benchmark_tracer_wraps_existing_callables(monkeypatch):
    # the benchmark's traced mode replaces hdgwg.<module>.<attr> for each
    # entry of its table; a renamed or removed function would break it
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(tracing)
    assert len(tracing._WRAPPED) > 0
    missing = {(module, attr) for module, attr in tracing._WRAPPED
               if not callable(getattr(
                   importlib.import_module("hdgwg." + module), attr, None))}
    assert missing == set()


def test_every_top_level_definition_has_a_caller():
    # code with no caller outside the tests must get one or go: each
    # top-level function and class of hdgwg is named somewhere in hdgwg
    # outside its own definition (an import names nothing)
    definitions, named = [], {}
    for path in SOURCE.glob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            # a top-level statement is known by its module and first line
            where = (path.name, node.lineno)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.append((node.name, where))
            for inner in ast.walk(node):
                name = (inner.id if isinstance(inner, ast.Name) else
                        inner.attr if isinstance(inner, ast.Attribute)
                        else None)
                named.setdefault(name, set()).add(where)
    assert len(definitions) > 1
    orphans = {(where[0], name) for name, where in definitions
               if not named.get(name, set()) - {where}}
    assert orphans == set()
