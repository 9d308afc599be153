"""Module boundaries.  Past enumeration, algebra members are combined only
through their semiring tables (Subsemialgebra.semiring), never through the
entry-matrix kernels of qspec.relations.  The Zariski layer reads the spectra
and index tables it is handed and computes none.  The spectra layer's table
builders take only spectra; the poset names the algebra of a table that
fails.  A spectrum point is the
plain tuple of its values, with no type of its own; a prime point is such a
character into the two-element quantale.  The down-set scan of prime ideals
and the standalone search into that quantale (characters_to_two) are oracles
of a check, not pipeline stages; the entry-matrix validators of one
character or one prime ideal live in the tests.  Past enumeration, an
algebra's members are named by position: a decomposition's idempotents, an
ideal and the member a vanishing set is taken of are member positions, and
only primitive_idempotents maps an idempotent's entry matrix to its
position.  A global section is a
plain tuple of point indices, and the support checks read their projections
from qspec.subalgebra, not from the relation-level support of the tests'
oracles.  The records are namedtuples, so starting the CLI loads neither
dataclasses nor the modules only a few commands need, a run whose argv the
CLI's own parser reads loads no argparse, and no record stores a
field that its owner or a sibling field already holds.  Every top-level
function and class under src/, and every method and property of such a
class, has a caller there, except the names the benchmark tracer times and
``close``; the tests' oracles live in tests/oracles.py.  A caller is read
exactly: a parameter or local variable that shares a definition's name
calls nothing.  The qspec modules import one another without a cycle, at
the top or inside a function.  The CLI has one
report path: main loads the quantale and frames every report, and the
command handlers return only their body and checks.  Only qspec.cli writes
report keys: the poset, the verdict and the spaces it reports are records
of the mathematics, and the CLI builds every report body from them.  The `qspec` script
and `python -m qspec.cli` enter the CLI through one function."""

import ast
import graphlib
import importlib
import inspect
import pkgutil
import subprocess
import symtable
import sys
from pathlib import Path

import pytest

import qspec
from qspec.contextuality import Verdict
from qspec.quantale import AxiomReport, builtin_quantale
from qspec.relations import FiniteSet, carrier, identity_rel
from qspec.spectra import gelfand_spectrum, prime_spectrum
from qspec.subalgebra import AlgebraPoset, Decomposition, diagonal_algebra, enumerate_vn
from qspec.zariski import FiniteTopology, SeparationReport
from test_layer_trace import load_layer_trace

QSPEC_MODULES = sorted(f"qspec.{m.name}" for m in pkgutil.iter_modules(qspec.__path__))


@pytest.mark.parametrize("module", ["qspec.contextuality", "qspec.zariski", "qspec.checks",
                                    "qspec.spectra"])
def test_module_binds_no_entry_kernel(module):
    names = vars(importlib.import_module(module))
    assert [n for n in names if n.startswith("_e_") or n == "_zero_entries"] == []


def test_sections_read_supports_from_the_decomposition():
    assert "support" not in vars(importlib.import_module("qspec.contextuality"))


@pytest.mark.parametrize("module,names", [
    ("qspec.zariski", {"gelfand_spectrum", "prime_spectrum"}),
    *((module, {"PrimeIdeal"}) for module in ["qspec", *QSPEC_MODULES]),
    ("qspec.zariski", {"restriction_table", "kernel_table"}),
    ("qspec.checks", {"functor_law_violation", "support", "subset_idempotent"}),
    *((module, {"characters_to_two", "prime_ideal_scan"})
      for module in ["qspec.contextuality", "qspec.zariski", "qspec.cli"]),
    *((module, {"Section"}) for module in ["qspec", "qspec.contextuality"]),
    *((module, {"Character"}) for module in ["qspec", *QSPEC_MODULES]),
    *((module, {"blocks", "_check_partition", "reassemble", "rel_to_doc", "rel_from_doc",
                "direct_sum", "restrict_component", "is_hom", "all_relations", "support",
                "SupportPair", "subset_idempotent", "is_normal", "maximal_cliques"})
      for module in ["qspec", *QSPEC_MODULES]),
    ("qspec.spectra", {"_check_inclusion", "_named", "_algebra_name"}),
    ("qspec.zariski", {"topology_to_json"}),
])
def test_module_binds_none_of(module, names):
    assert names.isdisjoint(vars(importlib.import_module(module)))


@pytest.mark.parametrize("builder,spectra", [
    ("restriction_table", ("sub_spectrum", "sup_spectrum")),
    ("kernel_table", ("gelfand", "prime")),
    ("indicator_table", ("prime", "gelfand")),
])
def test_the_stage_table_builders_take_only_spectra(builder, spectra):
    # the poset, which owns the algebra indices, names a table that fails
    module = importlib.import_module("qspec.spectra")
    assert tuple(inspect.signature(getattr(module, builder)).parameters) == spectra


# called by the namedtuple machinery (_replace calls _make), not by name
NAMEDTUPLE_PROTOCOL = frozenset({"_make", "_replace", "_asdict"})


def _src_trees():
    """Each src/qspec module but __init__.py, which only re-exports, by its
    stem: its path and its syntax tree."""
    return {path.stem: (path, ast.parse(path.read_text()))
            for path in sorted(Path(qspec.__file__).parent.glob("*.py"))
            if path.name != "__init__.py"}


def _global_reads(table):
    """The names a scope and the scopes inside it read as module globals:
    parameters and local variables are not globals."""
    names = {s.get_name() for s in table.get_symbols() if s.is_global() and s.is_referenced()}
    for child in table.get_children():
        names |= _global_reads(child)
    return names


def uncalled_definitions():
    """module.name of each top-level def or class in src/qspec, and
    module.Class.name of each method or property of such a class, that no
    src code calls.  A top-level definition is called where other code of
    its module reads it as a global name, or where any module imports it by
    name or reads it as an attribute; a method or property, where any module
    reads it as an attribute.  Dunder methods and the namedtuple protocol
    are called without their name, so they are left out."""
    trees = _src_trees()
    imported, attributes = set(), set()
    for _, tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.alias):
                imported.add(node.name)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
    out = []
    for module, (path, tree) in trees.items():
        table = symtable.symtable(path.read_text(), str(path), "exec")
        defs = {(node.name, node.lineno): node for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        # by reader: None for the module's own top-level code
        reads = {None: {s.get_name() for s in table.get_symbols() if s.is_referenced()}}
        for child in table.get_children():
            reader = (child.get_name(), child.get_lineno())
            reads.setdefault(reader if reader in defs else None, set()).update(
                _global_reads(child))
        for key, node in defs.items():
            if not (node.name in imported or node.name in attributes
                    or any(node.name in names for reader, names in reads.items()
                           if reader != key)):
                out.append(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                out.extend(f"{module}.{node.name}.{m.name}" for m in node.body
                           if isinstance(m, ast.FunctionDef) and m.name not in attributes
                           and not (m.name.startswith("__") and m.name.endswith("__"))
                           and m.name not in NAMEDTUPLE_PROTOCOL)
    return sorted(out)


def test_src_keeps_no_code_only_the_tests_call():
    # close is the documented way to close generators without Hom(X, X)
    traced = {f"{module}.{name}" for module, names in load_layer_trace().LAYERS.items()
              for name in names}
    assert [name for name in uncalled_definitions()
            if name not in traced and name != "subalgebra.close"] == []


def qspec_imports():
    """Each src/qspec module but __init__.py mapped to the qspec modules it
    imports, at the top or inside a function: `from qspec import m` imports
    the module m, `from qspec.m import name` imports m."""
    trees = _src_trees()
    graph = {}
    for module, (_, tree) in trees.items():
        out = graph[module] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            out.update(n.split(".")[1] for n in names
                       if n.startswith("qspec.") and n.split(".")[1] in trees)
    return graph


def test_the_qspec_modules_import_no_cycle():
    try:
        graphlib.TopologicalSorter(qspec_imports()).prepare()
    except graphlib.CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")


@pytest.mark.parametrize("name", ["_load_quantale", "_config"])
def test_main_alone_loads_the_quantale_and_frames_the_report(name):
    tree = ast.parse(Path(qspec.__file__).with_name("cli.py").read_text())
    callers = [f.name for f in tree.body if isinstance(f, ast.FunctionDef)
               for node in ast.walk(f) if isinstance(node, ast.Call)
               and isinstance(node.func, ast.Name) and node.func.id == name]
    assert callers == ["main"]


def test_the_script_and_the_module_enter_through_one_function():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    module, _, function = scripts["qspec"].partition(":")
    assert module == "qspec.cli"
    tree = ast.parse(Path(qspec.__file__).with_name("cli.py").read_text())
    (block,) = [node for node in tree.body if isinstance(node, ast.If)
                and ast.unparse(node.test) == "__name__ == '__main__'"]
    # entry ends the process itself once main returns a status
    (statement,) = block.body
    assert ast.unparse(statement) == f"{function}()"


def test_the_cli_starts_without_the_heavy_modules():
    # -S keeps the host's site hooks (.pth files) out of sys.modules
    src = str(Path(qspec.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import qspec.cli; "
            "print(' '.join(sorted(sys.modules)))")
    loaded = subprocess.run([sys.executable, "-S", "-c", code, src], check=True,
                            capture_output=True, text=True).stdout.split()
    assert "qspec.cli" in loaded
    heavy = {"dataclasses", "inspect", "hashlib", "fractions", "decimal", "json",
             "string", "__future__", "random", "contextlib", "argparse", "gettext", "locale"}
    assert heavy.isdisjoint(loaded)


def run_and_list_modules(argv, out):
    """The exit status of one CLI run writing to out, in a fresh interpreter
    under -S, and the modules loaded by its end."""
    src = str(Path(qspec.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from qspec.cli import main; "
            "status = main(sys.argv[3:] + ['--out', sys.argv[2]]); "
            "print(status, ' '.join(sorted(sys.modules)))")
    status, *loaded = subprocess.run([sys.executable, "-S", "-c", code, src, str(out), *argv],
                                     check=True, capture_output=True,
                                     text=True).stdout.split()
    return status, loaded


def test_a_lukasiewicz_run_loads_no_fractions(tmp_path):
    # the chain's labels are reduced with math.gcd, not written by Fraction
    out = tmp_path / "report.txt"
    status, loaded = run_and_list_modules(
        ["check-quantale", "--quantale", "lukasiewicz3"], out)
    assert status == "0" and '"1/2"' in out.read_text()
    assert {"fractions", "decimal"}.isdisjoint(loaded)


def test_a_canonical_argv_runs_without_argparse(tmp_path):
    # argparse reads only the argv the canonical parser refuses
    out = tmp_path / "report.json"
    argv = ["verdict", "--quantale", "boolean2", "--size", "2", "--format", "json"]
    status, loaded = run_and_list_modules(argv, out)
    assert status == "0" and {"argparse", "gettext", "locale"}.isdisjoint(loaded)
    status, loaded = run_and_list_modules([*argv, "--seed=3"], out)
    assert status == "0" and "argparse" in loaded


@pytest.mark.parametrize("command", ["algebras", "spectrum"])
def test_algebra_ids_load_no_openssl(command, tmp_path):
    # the ids hash with CPython's own SHA-256 module, not through hashlib
    out = tmp_path / "report.json"
    status, loaded = run_and_list_modules(
        [command, "--quantale", "boolean2", "--size", "2", "--format", "json"], out)
    assert status == "0" and '"id": "' in out.read_text()
    assert {"hashlib", "_hashlib"}.isdisjoint(loaded)


@pytest.mark.parametrize("spectrum", [
    gelfand_spectrum, lambda a: prime_spectrum(gelfand_spectrum(a))],
    ids=["gelfand_spectrum", "prime_spectrum"])
def test_spectrum_points_are_tuples_of_ints(spectrum):
    for a in enumerate_vn(carrier("X", 2), builtin_quantale("godel_chain", 3)).algebras:
        for point in spectrum(a).points:
            assert type(point) is tuple and {type(v) for v in point} == {int}


def test_decomposition_idempotents_are_members_of_their_algebra():
    # past enumeration an idempotent is named by its member position
    poset = enumerate_vn(carrier("X", 2), builtin_quantale("godel_chain", 3))
    for dec in poset.decompositions:
        mul = dec.algebra.semiring().mul
        assert dec.idempotents
        for p in dec.idempotents:
            assert type(p) is int and 0 <= p < dec.algebra.size and mul[p][p] == p


@pytest.mark.parametrize("module", ["qspec.contextuality", "qspec.checks", "qspec.zariski"])
def test_past_enumeration_members_are_named_by_position(module):
    assert "member_pos" not in inspect.getsource(importlib.import_module(module))


def test_records_store_no_derivable_flag():
    assert AxiomReport._fields == ("violations",)
    # contextual, zdf and notes are read from the sections
    assert {"contextual", "zdf", "notes"}.isdisjoint(Verdict._fields)
    # the inclusion order is the closure of the Hasse edges, derived on demand
    assert "leq_pairs" not in AlgebraPoset._fields
    # a component eA is the value set of e's row of the multiplication table
    assert "components" not in Decomposition._fields
    # a space's points are its indices 0..n-1, one per point closure
    assert "points" not in FiniteTopology._fields
    # every finite space is compact
    assert "compact" not in SeparationReport._fields


@pytest.mark.parametrize("record", [AlgebraPoset, Verdict], ids=lambda r: r.__name__)
def test_records_write_no_report(record):
    # the CLI builds the report bodies of the poset and the verdict
    assert {"to_json", "to_dot", "notes"}.isdisjoint(dir(record))


def test_points_and_relations_carry_no_instance_dict():
    x = carrier("X", 2)
    q = builtin_quantale("godel_chain", 3)
    rho = gelfand_spectrum(diagonal_algebra(x, q)).points[0]
    for record in (rho, identity_rel(q, x)):
        assert not hasattr(record, "__dict__")


def test_records_hash_as_their_field_tuples():
    x = carrier("X", 2)
    q = builtin_quantale("boolean2")
    for record in (identity_rel(q, x), diagonal_algebra(x, q)):
        assert hash(record) == hash(tuple(record))


def test_a_carrier_with_a_repeated_point_is_refused():
    with pytest.raises(ValueError, match="duplicate point ids in 'X'"):
        FiniteSet("X", ("1", "1"))
    with pytest.raises(ValueError, match="duplicate point ids in 'X'"):
        carrier("X", 2)._replace(elements=("1", "1"))
