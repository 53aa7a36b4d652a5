"""Static checks on imports: the declared dependencies, the names that
``perfbench/tracing.py`` wraps, the package's exports, a caller outside
the tests for every function in the package, no per-class JSON writer, and
one refusal rule for the exception classes."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

ROOT = Path(__file__).resolve().parents[1]


def _top_level_imports(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_third_party_imports_match_project_dependencies():
    imported = set()
    for path in (ROOT / "src" / "freesum").glob("*.py"):
        imported |= _top_level_imports(path)
    third_party = imported - set(sys.stdlib_module_names) - {"freesum"}
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.split(r"[\s<>=!~;\[]", dep, maxsplit=1)[0] for dep in project["dependencies"]}
    assert third_party == declared


def test_microstates_reaches_qr_and_eigvalsh_through_np_linalg():
    # perfbench/tracing.py counts QR calls and eigensolves by replacing
    # ``freesum.microstates.np`` with a view whose ``linalg.qr`` and
    # ``linalg.eigvalsh`` are wrapped; a name bound any other way would
    # escape the count
    tree = ast.parse((ROOT / "src" / "freesum" / "microstates.py").read_text())
    numpy_imports = []
    uses = {"qr": 0, "eigvalsh": 0}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            numpy_imports += [(a.name, a.asname) for a in node.names if a.name.startswith("numpy")]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            assert not node.module.startswith("numpy"), f"from {node.module} import ..."
        elif isinstance(node, ast.Name):
            assert node.id not in uses, f"bare name {node.id} on line {node.lineno}"
        elif isinstance(node, ast.Attribute) and node.attr in uses:
            base = node.value
            assert (
                isinstance(base, ast.Attribute)
                and base.attr == "linalg"
                and isinstance(base.value, ast.Name)
                and base.value.id == "np"
            ), f"{node.attr} reached other than as np.linalg.{node.attr} on line {node.lineno}"
            uses[node.attr] += 1
    assert numpy_imports == [("numpy", "np")]
    assert all(uses.values()), uses


def _module_names(tree: ast.Module) -> tuple[list[str] | None, set[str]]:
    """(the module's ``__all__`` or None, every name bound at its top level)."""
    exported, bound = None, set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            bound |= names
            if "__all__" in names:
                exported = [ast.literal_eval(e) for e in node.value.elts]
    return exported, bound


def test_package_exports_match_the_submodules():
    # each submodule's __all__ is the one list of its public names; the
    # package re-exports their union, sorted, and no name has two owners
    import freesum

    owner = {}
    for path in sorted((ROOT / "src" / "freesum").glob("*.py")):
        if path.name == "__init__.py":
            continue
        own, defined = _module_names(ast.parse(path.read_text()))
        for name in own or ():
            assert name in defined, f"{path.name} exports {name!r} but does not define it"
            assert name not in owner, f"{name!r} is exported by {owner[name]} and {path.name}"
            owner[name] = path.name
    assert freesum.__all__ == sorted(freesum.__all__)
    assert freesum.__all__ == sorted(owner)
    assert all(hasattr(freesum, name) for name in freesum.__all__)


def test_public_surface_holds_at_the_standing_gate():
    # the package's public names may shrink but not grow past 58
    import freesum

    assert len(freesum.__all__) <= 58


# the declared oracles: the package keeps them although only tests call them,
# as the references the tests check the commands against
ORACLES = {
    "cauchy_transform",
    "first_integral_fraction_at_extremal_r0",
    "free_cumulant",
    "l1_distance",
    "r_transform",
}


def _references(path: Path) -> set[str]:
    """Names, imported names, attribute reads and string constants, less ``__all__``."""
    tree = ast.parse(path.read_text())
    exported = {
        id(node)
        for stmt in tree.body
        if isinstance(stmt, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)
        for node in ast.walk(stmt.value)
    }
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in exported:
                found.add(node.value)
    return found


def test_every_function_in_src_has_a_caller_outside_the_tests():
    # code whose only callers are tests belongs in tests/helpers.py; a name
    # that perfbench/ imports or wraps counts as called
    package = sorted((ROOT / "src" / "freesum").glob("*.py"))
    called = set().union(
        *map(_references, package + sorted((ROOT / "perfbench").glob("*.py")))
    )
    functions = [
        (path, node)
        for path in package
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    assert ORACLES <= {node.name for _, node in functions}
    uncalled = sorted(
        f"{path.name}:{node.lineno} {node.name}"
        for path, node in functions
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in called | ORACLES
    )
    assert uncalled == []


def test_no_class_in_src_writes_its_own_json():
    # cli._jsonable writes every result dataclass by its fields; a to_json
    # method would be a second rule for one class
    methods = sorted(
        f"{path.name}:{node.lineno} {cls.name}.{node.name}"
        for path in sorted((ROOT / "src" / "freesum").glob("*.py"))
        for cls in ast.walk(ast.parse(path.read_text()))
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "to_json"
    )
    assert methods == []


def test_every_refusal_follows_the_base_class_rule():
    # FreesumError alone takes the diagnostics keywords, so the CLI prints
    # them for every refusal; every other class is raised somewhere, and the
    # base is what the callers catch
    errors_py = ROOT / "src" / "freesum" / "errors.py"
    tree = ast.parse(errors_py.read_text())
    constructors = [
        cls.name
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and node.name == "__init__"
    ]
    assert constructors == ["FreesumError"]
    raised, caught = set(), set()
    for path in sorted((ROOT / "src" / "freesum").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                raised |= {n.id for n in ast.walk(node.exc) if isinstance(n, ast.Name)}
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught |= {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}
    exported, _ = _module_names(tree)
    assert sorted(set(exported) - raised) == ["FreesumError"]
    assert "FreesumError" in caught
