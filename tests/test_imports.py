"""The package's own imports: each at a module's top level, and no cycle.

A module that imports a sibling inside a function hides a dependency from
the reader and, usually, an import cycle it works around. Third-party
imports (``llm``'s lazy ``requests`` and ``urllib3``) are not checked.
"""

import ast
import graphlib
from pathlib import Path

import fafsp
import fafsp.rules
import fafsp.sim

SRC = Path(fafsp.__file__).parent
MODULES = {path.stem for path in SRC.glob("*.py")}


def package_imports(source: str) -> list[tuple[str, bool]]:
    """(sibling module imported, whether inside a function) for each of the
    source's imports from the package, relative or absolute; a name imported
    from the package itself counts as an import of ``__init__``."""
    tree = ast.parse(source)
    inner = {id(node) for fn in ast.walk(tree)
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
             for node in ast.walk(fn) if node is not fn}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "fafsp":
                    continue
                parts = parts[1:]
            targets = [parts[0]] if parts and parts[0] else [
                alias.name if alias.name in MODULES else "__init__" for alias in node.names]
        elif isinstance(node, ast.Import):
            targets = [name.split(".")[1] if "." in name else "__init__"
                       for name in (alias.name for alias in node.names)
                       if name.split(".")[0] == "fafsp"]
        else:
            continue
        out += [(target, id(node) in inner) for target in targets]
    return out


def _graph() -> dict[str, list[tuple[str, bool]]]:
    return {path.stem: package_imports(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def test_package_imports_sees_every_form():
    source = ("from . import expr, sim\nfrom .model import Job\nfrom . import Instance\n"
              "import fafsp.llm\nimport numpy\nfrom fafsp.bench import x\n"
              "def f():\n    from .rules import RuleSpec\n    import requests\n"
              "class C:\n    def g(self):\n        import fafsp\n")
    assert sorted(package_imports(source)) == [
        ("__init__", False), ("__init__", True), ("bench", False), ("expr", False),
        ("llm", False), ("model", False), ("rules", True), ("sim", False)]


def test_no_module_imports_the_package_inside_a_function():
    inner = [(module, target) for module, imports in _graph().items()
             for target, in_function in imports if in_function]
    assert inner == []


def test_the_package_import_graph_has_no_cycle():
    graph = {module: {target for target, _ in imports if target != module}
             for module, imports in _graph().items()}
    assert graph["rules"] >= {"sim", "generator"}
    assert "rules" not in graph["sim"]
    graphlib.TopologicalSorter(graph).prepare()     # raises CycleError on a cycle


def test_rule_invalid_is_the_engines_one_class():
    assert fafsp.RuleInvalid is fafsp.rules.RuleInvalid is fafsp.sim.RuleInvalid
    assert fafsp.sim.RuleInvalid.__module__ == "fafsp.sim"
