"""Every public library function or class has a reader outside the unit tests.

A module-level name in ``src/stratlearn`` that does not start with an
underscore must be referenced somewhere other than its own definition: in
``src/``, ``scripts/``, ``bench/`` or the acceptance suite.  A name that only
unit tests read is test scaffolding and belongs in ``tests/helpers.py``.
Likewise every keyword-only parameter of a public function must be given a
value by some call in those files; one that only unit tests set is an option
nothing uses.  The same holds for each field of a config dataclass, one whose
fields all have defaults.  Calls are matched by keyword name alone, whatever
the callee.  An exception class must be named by an ``except`` clause in those
files: a fault type that no handler reads tells nothing its base type does not.
"""

import ast
import importlib
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
LIBRARY = sorted((REPO / "src" / "stratlearn").glob("*.py"))
READERS = [
    *LIBRARY,
    *sorted((REPO / "scripts").glob("*.py")),
    *sorted((REPO / "bench").glob("*.py")),
    REPO / "tests" / "test_acceptance.py",
]


def referenced_names(path: Path) -> set[str]:
    """Bare names, attribute names and imported names used in ``path``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def public_definitions(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


def exception_classes() -> list[type]:
    """Each module-level class defined in ``src/stratlearn`` that derives from an exception type."""
    modules = [importlib.import_module("stratlearn" if path.stem == "__init__" else f"stratlearn.{path.stem}")
               for path in LIBRARY]
    return [obj for module in modules for obj in vars(module).values()
            if isinstance(obj, type) and issubclass(obj, BaseException) and obj.__module__ == module.__name__]


def handled_names(path: Path) -> set[str]:
    """Names that an ``except`` clause in ``path`` catches, alone or in a tuple, bare or as an attribute."""
    handled = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            for caught in node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]:
                if isinstance(caught, ast.Name):
                    handled.add(caught.id)
                elif isinstance(caught, ast.Attribute):
                    handled.add(caught.attr)
    return handled


def public_keyword_parameters(path: Path) -> list[tuple[str, str]]:
    """(function, parameter) for each keyword-only parameter of a public module-level function."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        (node.name, arg.arg)
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        for arg in node.args.kwonlyargs
    ]


def config_fields(path: Path) -> list[tuple[str, str]]:
    """(class, field) for each field of a module-level dataclass whose fields all have defaults."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if not any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
            continue
        fields = [f for f in node.body if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]
        if fields and all(f.value is not None for f in fields):
            found += [(node.name, f.target.id) for f in fields]
    return found


def given_keywords(path: Path) -> set[str]:
    """Keyword names passed at calls in ``path``, except ``f(x=x)`` forwarding a parameter ``x`` of the caller."""
    given = set()

    def visit(node, params: frozenset[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = frozenset(a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs))
        elif isinstance(node, ast.Call):
            for kw in node.keywords:
                forwarded = isinstance(kw.value, ast.Name) and kw.value.id == kw.arg and kw.arg in params
                if kw.arg is not None and not forwarded:
                    given.add(kw.arg)
        for child in ast.iter_child_nodes(node):
            visit(child, params)

    visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return given


def test_every_keyword_only_parameter_is_set_outside_unit_tests():
    given = set().union(*(given_keywords(path) for path in READERS))
    unset = [
        f"{function}({name}=)"
        for path in LIBRARY
        for function, name in public_keyword_parameters(path)
        if name not in given
    ]
    assert unset == []


def test_every_config_field_is_set_outside_unit_tests():
    given = set().union(*(given_keywords(path) for path in READERS))
    unset = [
        f"{cls}.{name}"
        for path in LIBRARY
        for cls, name in config_fields(path)
        if name not in given
    ]
    assert unset == []


def test_every_public_name_has_a_reader_outside_unit_tests():
    used = set().union(*(referenced_names(path) for path in READERS))
    unread = [
        f"{path.stem}.{name}" for path in LIBRARY for name in public_definitions(path) if name not in used
    ]
    assert unread == []


def test_every_exception_class_is_caught_outside_unit_tests():
    handled = set().union(*(handled_names(path) for path in READERS))
    uncaught = [f"{cls.__module__}.{cls.__name__}" for cls in exception_classes() if cls.__name__ not in handled]
    assert uncaught == []


def test_the_scan_sees_definitions_and_references():
    # Guards the guard: an empty scan would pass vacuously.
    assert "run_chain" in public_definitions(REPO / "src" / "stratlearn" / "sampler.py")
    assert "ablation_grid" in referenced_names(REPO / "tests" / "test_acceptance.py")
    assert len(READERS) > len(LIBRARY) + 2
    assert ("run", "seed") in public_keyword_parameters(REPO / "src" / "stratlearn" / "engine.py")
    assert "seed" in given_keywords(REPO / "src" / "stratlearn" / "cli.py")
    assert ("SamplerConfig", "seed") in config_fields(REPO / "src" / "stratlearn" / "sampler.py")
    # RunConfig's space_path has no default, so it is not a config dataclass here.
    assert not any(cls == "RunConfig" for cls, _ in config_fields(REPO / "src" / "stratlearn" / "cli.py"))
    # run() forwards its own forest_config, which alone would not count as setting it.
    assert "forest_config" not in given_keywords(REPO / "src" / "stratlearn" / "engine.py")
    # The exception scan finds the one fault class both defined and handled.
    assert "SolverError" in {cls.__name__ for cls in exception_classes()}
    assert "SolverError" in handled_names(REPO / "src" / "stratlearn" / "engine.py")
