"""``engine.run`` holds no copy of the base-rule choice or of epoch admission.

The calculus picks Success, Failure or Next from a solve's verdict and the
index, and ``engine.apply_solve`` is the one function that makes that choice.
So the body of ``run`` may name no ``Verdict`` and may compare no problem
count (``num_problems`` or ``n``) against the index; either would be the
choice growing back.  Likewise ``engine.should_learn`` alone admits an
epoch, so ``run`` may name neither the learning budget nor the epoch's
sample count that its estimate reads.  And a run's ``Trajectory`` is its
only clock, so no function in any module of the package but its methods
compares the clock mode against ``"virtual"`` or ``"wall"``; such a
comparison would be a second clock picking a unit.  Nor does any function in
the package but its methods name the ``time`` module: a reading taken
elsewhere would be a second clock timing a phase, and the compute before it
would be charged to no event.  The trajectory file's format has one home
too: no module but ``trajectory.py`` holds a string constant, an f-string's
parts included, that opens one of its lines (``#meta``, ``#fields``,
``solved<TAB>``) or names its version (``stratlearn-trajectory``); one
elsewhere would be a second writer or reader of the file.
Finally no module in the package calls a ``Generator`` method: NumPy keeps
no stream of a ``Generator`` method stable across releases, so every draw
is decoded from a bit generator's raw output, and a run stays a function
of its seed and its source.  And no function in the package catches every
exception (``except Exception``, ``except BaseException`` or a bare
``except``) but ``cli.ablation_grid``, whose per-cell catch is the CLI's
stated contract: a catch-all would turn a program bug into a quiet result.
"""

import ast
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "stratlearn"
ENGINE = PACKAGE / "engine.py"
PROBLEM_COUNTS = {"num_problems", "n"}
ADMISSION_INPUTS = {"learning_budget", "samples_per_epoch"}
CLOCK_MODES = {"virtual", "wall"}
FORMAT_PREFIXES = ("#meta", "#fields", "solved\t", "stratlearn-trajectory")
GENERATOR_METHODS = {name for name in dir(np.random.Generator) if not name.startswith("_")}


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


def module_functions(tree: ast.Module) -> dict[str, ast.FunctionDef]:
    """Every function in a module by qualified name: module functions and class methods."""
    found = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            found[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef):
                    found[f"{node.name}.{method.name}"] = method
    return found


def package_modules() -> dict[str, ast.Module]:
    """Every module of the package, parsed, by file stem."""
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}


def package_functions() -> dict[str, ast.FunctionDef]:
    """Every function in the package by ``module.qualified_name``."""
    return {f"{stem}.{name}": function
            for stem, tree in package_modules().items() for name, function in module_functions(tree).items()}


def time_module_names(tree: ast.Module) -> set[str]:
    """Names a module binds, anywhere in it, to the ``time`` module or to a name imported from it."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.asname or alias.name for alias in node.names if alias.name == "time"}
        elif isinstance(node, ast.ImportFrom) and node.module == "time":
            names |= {alias.asname or alias.name for alias in node.names}
    return names


def clock_reads() -> dict[str, list[int]]:
    """Line numbers, by ``module.qualified_name``, where a package function names the ``time`` module."""
    found = {}
    for stem, tree in package_modules().items():
        clock = time_module_names(tree)
        for name, function in module_functions(tree).items():
            if lines := sorted({node.lineno for node in ast.walk(function)
                                if isinstance(node, ast.Name) and node.id in clock}):
                found[f"{stem}.{name}"] = lines
    return found


def clock_mode_comparisons(function: ast.FunctionDef) -> list[int]:
    """Line numbers of comparisons in ``function`` with a clock mode's name as an operand, or inside one."""
    return sorted({
        node.lineno
        for node in ast.walk(function)
        if isinstance(node, ast.Compare)
        and any(
            isinstance(constant, ast.Constant) and constant.value in CLOCK_MODES
            for operand in (node.left, *node.comparators)
            for constant in ast.walk(operand)
        )
    })


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


def test_only_the_trajectory_compares_clock_modes():
    compared = {
        name: lines for name, function in package_functions().items()
        if not name.startswith("trajectory.Trajectory.") and (lines := clock_mode_comparisons(function))
    }
    assert compared == {}


def test_the_scan_sees_the_clock():
    # Guards the guard: the trajectory picks each event's unit, so the scan must flag it there.
    functions = package_functions()
    assert clock_mode_comparisons(functions["trajectory.Trajectory.record"])
    assert clock_mode_comparisons(functions["trajectory.Trajectory.__init__"])


def test_only_the_trajectory_reads_the_time_module():
    assert {name: lines for name, lines in clock_reads().items()
            if not name.startswith("trajectory.Trajectory.")} == {}


def test_the_scan_sees_the_clock_read():
    # Guards the guard: the trajectory times each event, so the scan must flag its record method.
    assert "trajectory.Trajectory.record" in clock_reads()


def format_constants(tree: ast.Module) -> dict[str, list[int]]:
    """Line numbers, by prefix, of a module's string constants (f-string parts too) that open a ``FORMAT_PREFIXES``."""
    found: dict[str, list[int]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            for prefix in FORMAT_PREFIXES:
                if node.value.startswith(prefix):
                    found.setdefault(prefix, []).append(node.lineno)
    return found


def test_only_the_trajectory_module_holds_the_file_format():
    assert {stem: found for stem, tree in package_modules().items()
            if stem != "trajectory" and (found := format_constants(tree))} == {}


def test_the_scan_sees_the_file_format():
    # Guards the guard: the writer builds each of those lines from a constant, so the scan must find every prefix.
    assert set(format_constants(package_modules()["trajectory"])) == set(FORMAT_PREFIXES)


def generator_calls(path: Path) -> list[int]:
    """Line numbers in a module of calls to an attribute named like a ``Generator`` method, or of ``default_rng``."""
    return sorted({
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in GENERATOR_METHODS | {"default_rng"}
    })


def test_no_module_calls_a_generator_method():
    assert {path.name: lines for path in sorted(PACKAGE.glob("*.py")) if (lines := generator_calls(path))} == {}


def test_the_scan_sees_a_generator_call():
    # Guards the guard: the benchmark still permutes its options with Generator.permutation.
    assert generator_calls(ROOT / "bench" / "workloads.py")


CATCH_ALLS = {"Exception", "BaseException"}


def catch_alls() -> dict[str, list[int]]:
    """Line numbers, by ``module.qualified_name``, of handlers in package functions that catch every exception."""
    found = {}
    for name, function in package_functions().items():
        if lines := sorted({
            node.lineno for node in ast.walk(function)
            if isinstance(node, ast.ExceptHandler)
            and (node.type is None or named(node.type) & CATCH_ALLS)
        }):
            found[name] = lines
    return found


def test_no_function_but_the_ablation_grid_catches_every_exception():
    assert {name: lines for name, lines in catch_alls().items() if name != "cli.ablation_grid"} == {}


def test_the_scan_sees_a_catch_all():
    # Guards the guard: the ablation grid records each failed cell, so the scan must flag it.
    assert "cli.ablation_grid" in catch_alls()
