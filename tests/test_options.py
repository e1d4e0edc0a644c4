"""Every option has a caller, and every field a reader.

A keyword-only parameter of a function that ``tep`` exports is an option:
each value it can take is one more configuration to test and to measure.
The library keeps such an option only when some call inside ``src/tep``
passes it by name; one that only tests set is a constant in disguise.

A field of a dataclass defined in ``src/tep`` is data every instance
carries; one that neither the library nor its tests ever read is carried
for nobody.

The cycle search, Hopcroft-Karp, the outcome backtracking and the
permutation search keep their paths on stacks of their own, so how long a
cycle, an augmenting path or a run of agents with a choice they can follow
does not depend on Python's recursion limit; no function in those modules,
or in ``tep.responsive`` and ``tep.programs``, calls itself.

Every top-level function and method of ``src/tep`` has a caller there,
or a named reason to stay without one (``UNCALLED``): an evaluator that
only tests call lives in ``tests/references.py``.

Five more scans keep the library's layers apart:
- no module calls ``all_allocations``, which visits all n! allocations: the
  library answers with pruned or polynomial searches, and the walk is kept
  for the references in ``tests/`` only;
- no module but ``tep.files`` uses a private name of it, so every text
  format, candidate and exact-cover files included, is read by its public
  parsers;
- no module but ``tep.cycles`` assigns to an attribute ``left``: the tracer
  counts a search's nodes as initial - left, and the event-log tests spy on
  ``Budget.tick``, so a budget charged any other way would escape both;
- no module but ``tep.cli`` imports or calls ``gc``: ``cli.run`` pauses the
  cyclic collector around a request, and that policy lives in one place;
- the library raises no ``TepError`` that ``tep.cli`` has no handler for:
  ``cli.run`` catches ``ParseError`` (exit 2) and ``BudgetExceededError``
  (exit 3), and ``ProofError`` is raised in ``tep.incentives`` alone, whose
  case analyses the CLI reaches only through ``prove``, which catches it.
"""

import ast
import inspect
import re
from collections import Counter
from pathlib import Path

import tep
from test_tracer_seams import load_tracer

SRC = Path(tep.__file__).parent
TESTS = Path(__file__).parent
ROOT = TESTS.parent


def _callee(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _nodes(src: Path, skip: str = ""):
    """(file name, node) for every syntax-tree node of the modules under
    ``src`` except the one named ``skip``."""
    for path in sorted(src.glob("*.py")):
        if path.name != skip:
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                yield path.name, node


def keywords_passed(src: Path = SRC) -> set[tuple[str, str]]:
    """(function name, keyword) for every keyword passed by name in a call
    under ``src``; ``partial(f, kw=...)`` counts as a call of ``f``."""
    passed = set()
    for _, node in _nodes(src):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if _callee(func) == "partial" and node.args:
            func = node.args[0]
        passed.update((_callee(func), kw.arg) for kw in node.keywords if kw.arg)
    return passed


def test_every_exported_keyword_option_is_passed_inside_the_library():
    passed = keywords_passed()
    unused = []
    for name in sorted(dir(tep)):
        func = getattr(tep, name)
        if not inspect.isfunction(func):
            continue
        for param in inspect.signature(func).parameters.values():
            if param.kind is param.KEYWORD_ONLY and (func.__name__, param.name) not in passed:
                unused.append(f"{func.__module__}.{func.__name__}({param.name}=)")
    assert unused == []


def test_the_scan_sees_direct_calls_and_partials(tmp_path):
    (tmp_path / "m.py").write_text(
        "from functools import partial\n"
        "f(x, a=1)\n"
        "mod.g(b=2, **extra)\n"
        "h = partial(mod.k, c=3)\n"
    )
    assert keywords_passed(tmp_path) == {("f", "a"), ("g", "b"), ("k", "c")}


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(_callee(d.func if isinstance(d, ast.Call) else d) == "dataclass"
               for d in node.decorator_list)


def dataclass_fields(src: Path = SRC) -> list[tuple[str, str]]:
    """(class name, field name) for every annotated field of a dataclass
    defined under ``src``."""
    found = []
    for _, node in _nodes(src):
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            found.extend((node.name, stmt.target.id) for stmt in node.body
                         if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name))
    return found


def attributes_read(*dirs: Path) -> set[str]:
    """Every name loaded as an attribute (``x.name``) in the files under ``dirs``."""
    return {node.attr for d in dirs for _, node in _nodes(d)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_dataclass_field_is_read_somewhere():
    """Matched by name only, so a field passes when any attribute of that
    name is read: a floor, not a proof that the field itself is read."""
    read = attributes_read(SRC, TESTS)
    assert [f"{cls}.{name}" for cls, name in dataclass_fields() if name not in read] == []


def test_the_field_scan_sees_decorated_classes_and_loads(tmp_path):
    (tmp_path / "m.py").write_text(
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    read: int\n"
        "    unread: str\n"
        "    def f(self):\n"
        "        self.unread_too = self.read\n"
        "@dataclass\n"
        "class B:\n"
        "    b: int\n"
        "class C:\n"
        "    c: int\n"
    )
    assert dataclass_fields(tmp_path) == [("A", "read"), ("A", "unread"), ("B", "b")]
    assert attributes_read(tmp_path) == {"read"}


def _loaded_names(node: ast.AST) -> list[str]:
    """Every name loaded under ``node``, as a name or as an attribute."""
    return [sub.id if isinstance(sub, ast.Name) else sub.attr for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute)) and isinstance(sub.ctx, ast.Load)]


def uncalled_functions(src: Path = SRC) -> set[str]:
    """Every top-level function, and every method of a top-level class,
    defined under ``src`` whose name no code under ``src`` loads outside its
    own body.  Dunder methods are skipped: Python calls them.  An import is
    not a load, so a function that ``__init__.py`` only re-exports has no
    caller."""
    loads = Counter()
    defs = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        loads.update(_loaded_names(tree))
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef):
                defs.extend((stmt.name + ".", node) for node in stmt.body)
            else:
                defs.append(("", stmt))
    return {prefix + node.name for prefix, node in defs
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))
            and loads[node.name] == _loaded_names(node).count(node.name)}


TRACED = "perfbench/tracer.py wraps it"
WORKLOAD = "perfbench/workloads.py imports it"
DOCUMENTED = "README documents it"
ORACLE = "one of the paper's oracles, exported by tep"

# The functions of src/tep that nothing in src/tep calls, each with the
# reason it stays; test_every_uncalled_function_keeps_its_reason checks them.
UNCALLED = {
    "all_allocations": TRACED,
    "find_top_allocation": TRACED,
    "serialize_allocation": TRACED,
    "canonicalize_endowment": TRACED,
    "make_x3c": WORKLOAD,
    "parse_report": DOCUMENTED,
    "is_rs_ir": ORACLE,
    "is_rs_pareto_optimal": ORACLE,
    "is_rs_core_stable": ORACLE,
    "find_blocking_coalition": ORACLE,
}


def test_every_function_in_the_library_has_a_caller_or_a_reason():
    assert uncalled_functions() == set(UNCALLED)


def test_every_uncalled_function_keeps_its_reason():
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer()
    try:
        tracer_module.install(tracer)
        wrapped = {attr for _, attr, _ in tracer._patches}
    finally:
        tracer.uninstall()
    texts = {WORKLOAD: (ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8"),
             DOCUMENTED: (ROOT / "README.md").read_text(encoding="utf-8")}
    holds = {
        TRACED: wrapped.__contains__,
        WORKLOAD: lambda name: re.search(rf"\b{name}\(", texts[WORKLOAD]) is not None,
        DOCUMENTED: lambda name: f"`tep.cli.{name}`" in texts[DOCUMENTED],
        ORACLE: lambda name: inspect.isfunction(getattr(tep, name, None)),
    }
    assert [name for name, reason in UNCALLED.items() if not holds[reason](name)] == []


def test_the_caller_scan_sees_functions_methods_and_self_calls(tmp_path):
    (tmp_path / "m.py").write_text(
        "from .n import exported\n"
        "def used():\n"
        "    return 1\n"
        "def recursive(k):\n"
        "    return recursive(k - 1)\n"
        "def passed():\n"
        "    pass\n"
        "def unused():\n"
        "    return used() + helper\n"
        "class A:\n"
        "    def __init__(self):\n"
        "        self.m = sorted([], key=passed)\n"
        "    def method(self):\n"
        "        return self.m\n"
        "    def lonely(self):\n"
        "        return self.lonely\n"
        "    @property\n"
        "    def prop(self):\n"
        "        def nested():\n"
        "            return 0\n"
        "        return nested()\n"
    )
    (tmp_path / "n.py").write_text("def exported():\n    pass\nA().method().prop\n")
    assert uncalled_functions(tmp_path) == {"recursive", "unused", "A.lonely", "exported"}


def self_calling_functions(*paths: Path) -> list[str]:
    """Every function, nested ones included, whose body calls a function of
    its own name, directly or through ``yield from``."""
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    isinstance(sub, ast.Call) and _callee(sub.func) == node.name
                    for sub in ast.walk(node)):
                found.append(node.name)
    return found


def test_no_search_recurses():
    # tep.predominant stays out: the scan reads super().__post_init__() as a self-call.
    modules = ("cycles.py", "matching.py", "axioms.py", "responsive.py", "programs.py")
    assert self_calling_functions(*(SRC / name for name in modules)) == []


def test_the_recursion_scan_sees_nested_generators_and_methods(tmp_path):
    (tmp_path / "m.py").write_text(
        "def f(n):\n"
        "    return f(n - 1)\n"
        "def outer():\n"
        "    def walk(k):\n"
        "        yield k\n"
        "        yield from walk(k + 1)\n"
        "    return walk(0)\n"
        "class A:\n"
        "    def m(self):\n"
        "        return self.m()\n"
        "def g():\n"
        "    return f(1)\n"
    )
    assert self_calling_functions(tmp_path / "m.py") == ["f", "walk", "m"]


def all_allocations_calls(src: Path = SRC) -> list[str]:
    """Every call of a function named ``all_allocations``, as file:line."""
    return [f"{name}:{node.lineno}" for name, node in _nodes(src)
            if isinstance(node, ast.Call) and _callee(node.func) == "all_allocations"]


def private_files_uses(src: Path = SRC) -> list[str]:
    """Every ``files._name`` and every ``from .files import _name`` outside
    ``files.py``, as file:line."""
    found = []
    for name, node in _nodes(src, skip="files.py"):
        if isinstance(node, ast.Attribute):
            private = (node.attr.startswith("_") and isinstance(node.value, ast.Name)
                       and node.value.id == "files")
        elif isinstance(node, ast.ImportFrom):
            private = (node.module or "").rpartition(".")[2] == "files" and any(
                alias.name.startswith("_") for alias in node.names)
        else:
            private = False
        if private:
            found.append(f"{name}:{node.lineno}")
    return found


def left_assignments(src: Path = SRC) -> list[str]:
    """Every assignment to an attribute named ``left`` (plain, augmented,
    annotated or unpacked) outside ``cycles.py``, as file:line."""
    return [f"{name}:{node.lineno}" for name, node in _nodes(src, skip="cycles.py")
            if isinstance(node, ast.Attribute) and node.attr == "left"
            and isinstance(node.ctx, ast.Store)]


def gc_uses(src: Path = SRC) -> list[str]:
    """Every ``import gc``, ``from gc import ...`` and ``gc.<name>`` outside
    ``cli.py``, as file:line in line order."""
    found = []
    for name, node in _nodes(src, skip="cli.py"):
        if isinstance(node, ast.Import):
            used = any(alias.name == "gc" for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            used = node.module == "gc"
        elif isinstance(node, ast.Attribute):
            used = isinstance(node.value, ast.Name) and node.value.id == "gc"
        else:
            used = False
        if used:
            found.append((name, node.lineno))
    return [f"{name}:{line}" for name, line in sorted(found)]


def test_the_library_makes_no_n_factorial_walk():
    assert all_allocations_calls() == []


def test_text_formats_are_parsed_only_in_tep_files():
    assert private_files_uses() == []


def test_budgets_are_charged_only_through_budget_tick():
    assert left_assignments() == []


def test_only_the_cli_touches_the_cyclic_collector():
    assert gc_uses() == []


def test_the_layer_scans_see_calls_private_names_and_assignments(tmp_path):
    (tmp_path / "m.py").write_text(
        "from .files import parse_instance\n"
        "from .files import _meaningful_lines\n"
        "from tep.files import serialize_instance, _syntax\n"
        "def all_allocations(n):\n"
        "    return []\n"
        "walk = all_allocations\n"
        "axioms.all_allocations(3)\n"
        "files.parse_x3c(text, 3)\n"
        "files._FORMATS\n"
        "left = budget.left - 1\n"
        "budget.left -= 1\n"
        "budget.left = 0\n"
        "budget.left: int = 0\n"
        "budget.left, x = 0, 1\n"
        "all_allocations(2)\n"
    )
    for other in ("files.py", "cycles.py"):
        (tmp_path / other).write_text("all_allocations(1)\nfiles._x\nbudget.left -= 1\n")
    assert all_allocations_calls(tmp_path) == ["cycles.py:1", "files.py:1", "m.py:7", "m.py:15"]
    assert private_files_uses(tmp_path) == ["cycles.py:2", "m.py:2", "m.py:3", "m.py:9"]
    assert left_assignments(tmp_path) == ["files.py:3", "m.py:11", "m.py:12", "m.py:13",
                                          "m.py:14"]


def test_the_collector_scan_sees_imports_and_calls(tmp_path):
    (tmp_path / "m.py").write_text(
        "import gc\n"
        "import os, gc as collector\n"
        "from gc import disable\n"
        "gc.collect()\n"
        "x = gc.isenabled\n"
        "import gcd\n"
        "from . import gc_stats\n"
        "self.gc.collect\n"
    )
    (tmp_path / "cli.py").write_text("import gc\ngc.disable()\n")
    assert gc_uses(tmp_path) == ["m.py:1", "m.py:2", "m.py:3", "m.py:4", "m.py:5"]


def unhandled_tep_errors(src: Path = SRC) -> list[str]:
    """Every raise under ``src`` of ``TepError`` or of a class defined there
    that derives from it, other than ``ParseError`` and
    ``BudgetExceededError`` anywhere and ``ProofError`` in ``incentives.py``,
    as file:line.  A bare ``raise`` re-raises what a handler caught and is
    not counted."""
    bases = {node.name: {_callee(base) for base in node.bases}
             for _, node in _nodes(src) if isinstance(node, ast.ClassDef)}
    family = {"TepError"}
    while grown := {name for name, parents in bases.items()
                    if parents & family and name not in family}:
        family |= grown
    allowed = {"ParseError", "BudgetExceededError"}
    found = []
    for name, node in _nodes(src):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            raised = _callee(exc)
            if raised in family and raised not in allowed and not (
                    raised == "ProofError" and name == "incentives.py"):
                found.append((name, node.lineno))
    return [f"{name}:{line}" for name, line in sorted(found)]


def test_every_tep_error_the_library_raises_has_a_cli_handler():
    assert unhandled_tep_errors() == []


def test_the_error_scan_sees_new_subclasses_and_misplaced_proof_errors(tmp_path):
    (tmp_path / "errors.py").write_text(
        "class TepError(Exception): pass\n"
        "class ParseError(TepError): pass\n"
        "class BudgetExceededError(TepError): pass\n"
        "class ProofError(TepError): pass\n"
        "class LimitError(BudgetExceededError): pass\n"
    )
    (tmp_path / "m.py").write_text(
        "raise ParseError('syntax', 'x')\n"
        "raise errors.BudgetExceededError('cap') from None\n"
        "raise ProofError('open branch')\n"
        "raise LimitError\n"
        "raise TepError('x')\n"
        "raise ValueError('x')\n"
        "try:\n"
        "    pass\n"
        "except ProofError:\n"
        "    raise\n"
    )
    (tmp_path / "incentives.py").write_text("raise ProofError('open branch')\nraise LimitError()\n")
    assert unhandled_tep_errors(tmp_path) == ["incentives.py:2", "m.py:3", "m.py:4", "m.py:5"]
