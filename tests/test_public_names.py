"""Every public library function or class has a reader outside the unit tests.

A module-level name in ``src/stratlearn`` that does not start with an
underscore must be referenced somewhere other than its own definition: in
``src/``, ``scripts/``, ``bench/`` or the acceptance suite.  A name that only
unit tests read is test scaffolding and belongs in ``tests/helpers.py``.
"""

import ast
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


def test_every_public_name_has_a_reader_outside_unit_tests():
    used = set().union(*(referenced_names(path) for path in READERS))
    unread = [
        f"{path.stem}.{name}" for path in LIBRARY for name in public_definitions(path) if name not in used
    ]
    assert unread == []


def test_the_scan_sees_definitions_and_references():
    # Guards the guard: an empty scan would pass vacuously.
    assert "run_chain" in public_definitions(REPO / "src" / "stratlearn" / "sampler.py")
    assert "ablation_grid" in referenced_names(REPO / "tests" / "test_acceptance.py")
    assert len(READERS) > len(LIBRARY) + 2
