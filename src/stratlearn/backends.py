"""Solving backends behind a uniform interface: (index, strategy) -> verdict + metric.

Problem payloads are opaque to the engine; only a backend interprets them.
Two backends ship here, and each one's ``solve`` does all of its work:
``SyntheticBackend`` evaluates a deterministic landscape for experiments and
tests, and ``ExternalBackend`` launches a DIMACS-convention solver process on
a manifest: the tuple of locators ``load_manifest`` reads, problem ``i`` being
``locators[i - 1]``.  Under a budget, only ``SyntheticBackend`` reports a
run whose metric exceeds it as ABORTED, as a solver that honours its budget
flag does; ``ExternalBackend`` reports the solver's own verdict.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
import re
import shlex
import string
import subprocess
from dataclasses import asdict, dataclass, fields
from enum import Enum
from operator import attrgetter
from pathlib import Path

from .space import Strategy, StrategySpace

logger = logging.getLogger(__name__)


class Verdict(Enum):
    SAT = "SAT"
    UNSAT = "UNSAT"
    ABORTED = "ABORTED"


@dataclass(frozen=True)
class SolveOutcome:
    """Backend verdict plus the raw effort metric (conflicts or synthetic units)."""

    verdict: Verdict
    metric: float

    def __post_init__(self) -> None:
        if self.metric < 0 or not math.isfinite(self.metric):
            raise ValueError(f"metric must be finite and nonnegative, got {self.metric!r}")


class SolverError(RuntimeError):
    """Base class for external-adapter failures."""


class SolverLaunchError(SolverError):
    pass


class MetricParseError(SolverError):
    pass


class UnexpectedExitCodeError(SolverError):
    pass


# --------------------------------------------------------------------------
# External subprocess adapter


@dataclass(frozen=True)
class SolverAdapterConfig:
    """How to launch an external solver and read its answer; each field is an adapter-file key.

    ``command`` must reference ``{problem}`` and every space parameter by
    name exactly once.  Exit codes follow the DIMACS solver convention by
    default (10 = SAT, 20 = UNSAT); ``exit_aborted`` covers budget-limited
    runs that finish without an answer.  The three codes must be distinct.
    ``metric_pattern`` is a regex whose first group captures the metric, and
    ``budget_flag`` the arguments, referencing ``{budget}``, that pass a budget.
    """

    command: str
    exit_sat: int = 10
    exit_unsat: int = 20
    exit_aborted: int = 0
    metric_pattern: str = r"^c conflicts:\s*([0-9.]+)"
    budget_flag: str | None = None


def validate_template(config: SolverAdapterConfig, space: StrategySpace) -> tuple[list[str], list[str]]:
    """Split the command and the budget flag into shell words and return both (the flag's
    are empty when it is unset), after checking that the command references {problem} and
    each parameter, and the flag {budget}, exactly once, and that no two exit codes are equal."""
    codes = {name: getattr(config, name) for name in ("exit_sat", "exit_unsat", "exit_aborted")}
    for (a, code), (b, other) in itertools.combinations(codes.items(), 2):
        if code == other:
            raise ValueError(f"{a} and {b} are both {code}; each verdict needs its own exit code")
    try:
        re.compile(config.metric_pattern, re.MULTILINE)
    except re.error as exc:
        raise ValueError(f"metric_pattern {config.metric_pattern!r} is not a valid regex: {exc}") from None
    checks = [("command", config.command, ("problem",) + space.names)]
    if config.budget_flag:
        checks.append(("budget_flag", config.budget_flag, ("budget",)))
    split: dict[str, list[str]] = {}
    for key, template, expected in checks:
        try:
            words = split[key] = shlex.split(template)
        except ValueError as exc:
            raise ValueError(f"{key} {template!r} does not split into shell words: {exc}") from None
        named = [f for word in words for _, f, _, _ in string.Formatter().parse(word) if f]
        unknown = set(named) - set(expected)
        if unknown:
            raise ValueError(f"{key} references unknown fields {sorted(unknown)}")
        for name in expected:
            n = named.count(name)
            if n != 1:
                raise ValueError(f"{key} must reference {{{name}}} exactly once, found {n}")
    return split["command"], split.get("budget_flag", [])


def _parse_metric(config: SolverAdapterConfig, stdout: str) -> float | None:
    match = re.search(config.metric_pattern, stdout, re.MULTILINE)
    if match is None:
        return None
    text = match.group(1) if match.groups() else match.group(0)
    try:
        metric = float(text)
    except (TypeError, ValueError):
        raise MetricParseError(f"metric {text!r} captured by {config.metric_pattern!r} is not a number") from None
    if not 0 <= metric < math.inf:  # NaN fails too
        raise MetricParseError(f"metric {text!r} captured by {config.metric_pattern!r} is not finite and nonnegative")
    return metric


def load_adapter_config(path: str | Path) -> SolverAdapterConfig:
    """Read a key=value adapter file (# comments allowed); each key may be set once."""
    keys = {f.name for f in fields(SolverAdapterConfig)}
    kwargs: dict[str, object] = {}
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8-sig").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in keys:
            raise ValueError(f"{path}:{lineno}: unknown adapter key {key!r}")
        if key in seen:
            raise ValueError(f"{path}:{lineno}: repeated adapter key {key!r} (first set on line {seen[key]})")
        seen[key] = lineno
        if key.startswith("exit_"):
            try:
                value = int(value)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: {key} must be an integer, got {value!r}") from None
        kwargs[key] = value
    if "command" not in kwargs:
        raise ValueError(f"{path}: adapter file must set 'command'")
    return SolverAdapterConfig(**kwargs)  # type: ignore[arg-type]


# --------------------------------------------------------------------------
# Synthetic landscape


@dataclass(frozen=True)
class SyntheticLandscape:
    """Deterministic stand-in for a real problem sequence.

    The effort metric is ``base_metrics[i-1] * (1 + sum of weights of
    mismatched parameters)`` against a hidden ``optimum``.
    """

    optimum: tuple[str, ...]
    weights: tuple[float, ...]
    base_metrics: tuple[float, ...]
    verdicts: tuple[Verdict, ...]

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.optimum):
            raise ValueError("weights and optimum must have equal length")
        if not all(0 <= w < math.inf for w in self.weights):  # NaN fails too
            raise ValueError(f"weights must be finite and nonnegative, got {self.weights!r}")
        if len(self.base_metrics) != len(self.verdicts):
            raise ValueError("base_metrics and verdicts must have equal length")
        if not all(0 < b < math.inf for b in self.base_metrics):
            raise ValueError(f"base_metrics must be finite and positive, got {self.base_metrics!r}")

    @property
    def num_problems(self) -> int:
        return len(self.verdicts)

    def metric(self, index: int, strategy: Strategy) -> float:
        if not 1 <= index <= self.num_problems:  # a negative index must not pick a problem from the end
            raise IndexError(f"index {index} out of range 1..{self.num_problems}")
        if self.weights and len(strategy.assignments) != len(self.weights):
            raise ValueError("strategy length does not match landscape weights")
        penalty = 1.0 + sum(
            w for w, a, o in zip(self.weights, strategy.assignments, self.optimum) if a != o
        )
        return self.base_metrics[index - 1] * penalty


def geometric_schedule(first: float, growth: float, n: int) -> tuple[float, ...]:
    """Per-index base metrics growing geometrically, the typical harness shape."""
    if first <= 0 or growth <= 0 or n < 1:
        raise ValueError("need positive first term, positive growth, n >= 1")
    return tuple(first * growth**i for i in range(n))


def save_landscape(landscape: SyntheticLandscape, path: str | Path) -> None:
    """Write the landscape's fields as JSON lists, each ``Verdict`` as its value."""
    text = json.dumps(asdict(landscape), indent=2, default=attrgetter("value"))
    Path(path).write_text(text + "\n", encoding="utf-8")


def load_landscape(path: str | Path) -> SyntheticLandscape:
    """Read a file written by ``save_landscape``; its keys must be exactly the landscape's fields."""
    data = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    expected = [f.name for f in fields(SyntheticLandscape)]
    if not isinstance(data, dict) or sorted(data) != sorted(expected):
        got = list(data) if isinstance(data, dict) else f"{data!r}, not a JSON object"
        raise ValueError(f"{path}: landscape keys must be {expected}, got {got}")
    verdicts = [v.value for v in Verdict]
    # Per key: what each element must be, the check, and the converter to the field's element type.
    number = "a JSON number", lambda v: type(v) in (int, float), float  # JSON true is a bool, not a number
    elements = {"optimum": ("a JSON string", lambda v: type(v) is str, str), "weights": number,
                "base_metrics": number, "verdicts": (f"one of {verdicts}", verdicts.__contains__, Verdict)}
    converted = {}
    for key in expected:
        if not isinstance(data[key], list):
            raise ValueError(f"{path}: landscape key {key!r} must be a JSON list, got {data[key]!r}")
        kind, legal, convert = elements[key]
        for position, value in enumerate(data[key]):
            if not legal(value):
                raise ValueError(f"{path}: landscape key {key!r} at position {position} must be {kind}, got {value!r}")
        converted[key] = tuple(map(convert, data[key]))
    return SyntheticLandscape(**converted)


# --------------------------------------------------------------------------
# Problem manifests


class ManifestError(ValueError):
    pass


def parse_manifest(text: str) -> tuple[str, ...]:
    """Return the locators of ``index<TAB>locator`` lines whose indices run 1, 2, ... in file order."""
    locators: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        cells = line.split("\t")
        if len(cells) != 2:
            raise ManifestError(f"line {lineno}: expected index<TAB>locator, got {line!r}")
        if cells[0].strip() != str(len(locators) + 1):
            raise ManifestError(f"line {lineno}: expected index {len(locators) + 1}, got {cells[0]!r}")
        locator = cells[1].strip()
        if not locator:
            raise ManifestError(f"line {lineno}: missing locator")
        locators.append(locator)
    return tuple(locators)


def load_manifest(path: str | Path) -> tuple[str, ...]:
    return parse_manifest(Path(path).read_text(encoding="utf-8-sig"))


# --------------------------------------------------------------------------
# Backend objects consumed by the engine


class SyntheticBackend:
    """Backend over a synthetic landscape; every solve is a pure function of its arguments."""

    def __init__(self, landscape: SyntheticLandscape):
        self.landscape = landscape

    @property
    def num_problems(self) -> int:
        return self.landscape.num_problems

    def solve(self, index: int, strategy: Strategy, budget: float | None = None) -> SolveOutcome:
        landscape = self.landscape
        metric = landscape.metric(index, strategy)  # IndexError unless 1 <= index <= num_problems
        verdict = landscape.verdicts[index - 1]
        if budget is not None and metric > budget:
            verdict = Verdict.ABORTED
        return SolveOutcome(verdict, metric)


class ExternalBackend:
    """Backend that launches an external solver process per solve on ``locators[index - 1]``.

    ``validate_template`` checks the adapter config and splits its templates into shell words once, here.
    """

    def __init__(self, config: SolverAdapterConfig, space: StrategySpace, locators: tuple[str, ...]):
        self._command_words, self._budget_words = validate_template(config, space)
        self.config = config
        self.space = space
        self.locators = locators
        self._verdicts = {config.exit_sat: Verdict.SAT, config.exit_unsat: Verdict.UNSAT,
                          config.exit_aborted: Verdict.ABORTED}

    @property
    def num_problems(self) -> int:
        return len(self.locators)

    def solve(self, index: int, strategy: Strategy, budget: float | None = None) -> SolveOutcome:
        """Launch the command on the problem's locator, map its exit code, and parse the metric.

        When ``budget`` is given it is passed through ``budget_flag`` if the
        solver supports one, and an ABORTED run that prints no metric reports
        the budget.  The verdict is the solver's own, even over budget: the
        engine's ``collect_cost`` aborts such a run.
        """
        config = self.config
        if not 1 <= index <= len(self.locators):  # a negative index must not pick a problem from the end
            raise IndexError(f"index {index} out of range 1..{len(self.locators)}")
        self.space.codes(strategy)  # ValueError unless every value of strategy is legal
        mapping = {"problem": self.locators[index - 1], **dict(zip(self.space.names, strategy.assignments))}
        # The templates were split before substituting, so each substituted value is exactly one argument.
        args = [word.format(**mapping) for word in self._command_words]
        if budget is not None and self._budget_words:
            budget_value = int(budget) if float(budget).is_integer() else budget
            args += [word.format(budget=budget_value) for word in self._budget_words]
        logger.debug("launching %s", " ".join(args))
        try:
            proc = subprocess.run(args, capture_output=True, text=True)
        except OSError as exc:
            raise SolverLaunchError(f"failed to launch {args[0]!r}: {exc}") from exc

        verdict = self._verdicts.get(proc.returncode)
        if verdict is None:
            raise UnexpectedExitCodeError(f"unexpected exit code {proc.returncode}")
        metric = _parse_metric(config, proc.stdout)
        if metric is None:
            if verdict is not Verdict.ABORTED or budget is None:
                raise MetricParseError(f"no metric matching {config.metric_pattern!r} in solver output")
            metric = float(budget)
        return SolveOutcome(verdict, metric)
