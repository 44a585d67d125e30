"""``engine.run`` holds no copy of the base-rule choice or of epoch admission.

The calculus picks Success, Failure or Next from a solve's verdict and the
index, and ``engine.apply_solve`` is the one function that makes that choice.
So the body of ``run`` may name no ``Verdict`` and may compare no problem
count (``num_problems`` or ``n``) against the index; either would be the
choice growing back.  Likewise ``engine.should_learn`` alone admits an
epoch, so ``run`` may name neither the learning budget nor the epoch's
sample count that its estimate reads.
"""

import ast
from pathlib import Path

ENGINE = Path(__file__).resolve().parents[1] / "src" / "stratlearn" / "engine.py"
PROBLEM_COUNTS = {"num_problems", "n"}
ADMISSION_INPUTS = {"learning_budget", "samples_per_epoch"}


def engine_function(name: str) -> ast.FunctionDef:
    tree = ast.parse(ENGINE.read_text(encoding="utf-8"))
    (function,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == name]
    return function


def named(node: ast.AST) -> set[str]:
    """Bare names and attribute names anywhere under ``node``."""
    found = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            found.add(child.id)
        elif isinstance(child, ast.Attribute):
            found.add(child.attr)
    return found


def verdict_references(function: ast.FunctionDef) -> list[int]:
    """Line numbers in ``function``'s body that name ``Verdict``."""
    return sorted({
        node.lineno
        for statement in function.body
        for node in ast.walk(statement)
        if (isinstance(node, ast.Name) and node.id == "Verdict")
        or (isinstance(node, ast.Attribute) and node.attr == "Verdict")
    })


def index_count_comparisons(function: ast.FunctionDef) -> list[int]:
    """Line numbers of comparisons in ``function``'s body between the index and a problem count."""
    lines = set()
    for statement in function.body:
        for node in ast.walk(statement):
            if isinstance(node, ast.Compare):
                operands = [named(operand) for operand in (node.left, *node.comparators)]
                if any("index" in o for o in operands) and any(o & PROBLEM_COUNTS for o in operands):
                    lines.add(node.lineno)
    return sorted(lines)


def test_run_names_no_verdict():
    assert verdict_references(engine_function("run")) == []


def test_run_compares_no_problem_count_against_the_index():
    assert index_count_comparisons(engine_function("run")) == []


def test_run_names_no_admission_input():
    assert named(engine_function("run")) & ADMISSION_INPUTS == set()


def test_the_scan_sees_the_guard():
    # Guards the guard: both scans must flag apply_solve, which makes the choice.
    guard = engine_function("apply_solve")
    assert verdict_references(guard)
    assert index_count_comparisons(guard)


def test_the_scan_sees_the_admission():
    # Guards the guard: the name scan must see both inputs in should_learn, which admits epochs.
    assert named(engine_function("should_learn")) >= ADMISSION_INPUTS
