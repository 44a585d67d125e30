"""Finite solver-parameter spaces and their CSV table format.

A strategy space is the cartesian product of per-parameter value domains;
a strategy assigns one value to every parameter.  Only a solver adapter gives
the string values meaning.  A strategy's ordinal codes are each value's
position in its domain (default 0), and its rank is the mixed-radix number
those codes spell, the last position fastest; chains walk ranks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from itertools import accumulate
from operator import mul
from pathlib import Path

_HEADER = ("name", "default", "alternatives")
# Every character that ends a line for str.splitlines(): no token or #meta cell may hold one.
LINE_BREAKS = frozenset("\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")
_RESERVED = set(",;# \t") | LINE_BREAKS


def _check_token(token: str, what: str) -> None:
    if not token:
        raise ValueError(f"{what} must be a nonempty string")
    bad = _RESERVED.intersection(token)
    if bad:
        raise ValueError(f"{what} {token!r} contains reserved character {sorted(bad)[0]!r}")
    if token.strip() != token:  # parse_space strips each cell, so the token would not read back
        edge = token[0] if token[0].isspace() else token[-1]
        raise ValueError(f"{what} {token!r} starts or ends with whitespace {edge!r}")


@dataclass(frozen=True)
class ParameterDomain:
    """A single tunable parameter: its default value plus the allowed alternatives."""

    name: str
    default_value: str
    alternatives: tuple[str, ...]

    def __post_init__(self) -> None:
        _check_token(self.name, "parameter name")
        _check_token(self.default_value, f"default value of {self.name!r}")
        if not self.alternatives:
            raise ValueError(f"parameter {self.name!r} needs at least one alternative")
        for alt in self.alternatives:
            _check_token(alt, f"alternative value of {self.name!r}")
        values = (self.default_value, *self.alternatives)
        if len(set(values)) != len(values):
            raise ValueError(f"parameter {self.name!r} lists a value twice")

    @cached_property
    def values(self) -> tuple[str, ...]:
        """All values, default first; the position here is the ordinal feature code."""
        return (self.default_value, *self.alternatives)

    @cached_property
    def codes(self) -> dict[str, int]:
        """Value -> ordinal code, the inverse of ``values``."""
        return {value: code for code, value in enumerate(self.values)}

    @property
    def size(self) -> int:
        return 1 + len(self.alternatives)


@dataclass(frozen=True)
class Strategy:
    """One point in a strategy space: a value per parameter, in domain order."""

    assignments: tuple[str, ...]


@dataclass(frozen=True)
class StrategySpace:
    """Ordered collection of parameter domains."""

    domains: tuple[ParameterDomain, ...]

    def __post_init__(self) -> None:
        if not self.domains:
            raise ValueError("a strategy space needs at least one parameter")
        names = [d.name for d in self.domains]
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names in strategy space")

    @property
    def k(self) -> int:
        return len(self.domains)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.domains)

    def codes(self, strategy: Strategy) -> tuple[int, ...]:
        """Ordinal code of each assignment; ValueError unless every value is legal for its domain."""
        if len(strategy.assignments) != self.k:
            raise ValueError(
                f"strategy has {len(strategy.assignments)} assignments, space has {self.k} parameters"
            )
        try:
            return tuple([d.codes[a] for d, a in zip(self.domains, strategy.assignments)])
        except (KeyError, TypeError):
            domain, value = next((d, a) for d, a in zip(self.domains, strategy.assignments) if a not in d.values)
            raise ValueError(f"value {value!r} is not legal for parameter {domain.name!r}") from None

    def strategy(self, codes: tuple[int, ...]) -> Strategy:
        """The strategy whose ordinal codes are ``codes``; the inverse of ``codes``."""
        return Strategy(tuple([d.values[c] for d, c in zip(self.domains, codes)]))

    @cached_property
    def sizes(self) -> tuple[int, ...]:
        """Each domain's value count: the radix of its position in a rank."""
        return tuple(d.size for d in self.domains)

    @cached_property
    def strides(self) -> tuple[int, ...]:
        """Each position's weight in a rank, the product of the sizes after it."""
        return tuple(accumulate(reversed(self.sizes[1:]), mul, initial=1))[::-1]

    def rank(self, codes: tuple[int, ...]) -> int:
        """The mixed-radix rank of the (unchecked) ``codes``: sum of code times stride."""
        return sum(c * s for c, s in zip(codes, self.strides))

    def unrank(self, rank: int) -> tuple[int, ...]:
        """The ordinal codes of ``rank``; the inverse of ``rank``."""
        return tuple([rank // s % n for s, n in zip(self.strides, self.sizes)])

    @cached_property
    def moves(self) -> tuple[tuple[int, int, int], ...]:
        """(stride, size, r) of each neighbour index: its position's stride and size, and its other code's place."""
        return tuple((s, n, r) for s, n in zip(self.strides, self.sizes) for r in range(n - 1))


def parse_space(table_text: str) -> StrategySpace:
    """Parse a ``name,default,alternatives`` table into a StrategySpace.

    Alternatives are ``;``-separated.  Blank lines and lines starting with
    ``#`` are ignored.  Domain order equals row order.
    """
    rows: list[tuple[int, str]] = []
    for lineno, raw in enumerate(table_text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rows.append((lineno, line))
    if not rows:
        raise ValueError("empty table: no header row")
    header_no, header = rows[0]
    if tuple(cell.strip() for cell in header.split(",")) != _HEADER:
        raise ValueError(f"row {header_no}: expected header 'name,default,alternatives', got {header!r}")
    domains: list[ParameterDomain] = []
    seen: dict[str, int] = {}
    for lineno, line in rows[1:]:
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != 3:
            raise ValueError(f"row {lineno}: expected 3 comma-separated cells, got {len(cells)}")
        name, default, alts_cell = cells
        if not alts_cell:
            raise ValueError(f"row {lineno}: empty alternatives cell for {name!r}")
        if name in seen:
            raise ValueError(f"row {lineno}: duplicate parameter name {name!r} (first seen in row {seen[name]})")
        seen[name] = lineno
        try:
            domains.append(ParameterDomain(name, default, tuple(a.strip() for a in alts_cell.split(";"))))
        except ValueError as exc:
            raise ValueError(f"row {lineno}: {exc}") from exc
    if not domains:
        raise ValueError("table has a header but no parameter rows")
    return StrategySpace(tuple(domains))


def serialize_space(space: StrategySpace) -> str:
    """Inverse of parse_space on valid spaces."""
    lines = [",".join(_HEADER)]
    for d in space.domains:
        lines.append(f"{d.name},{d.default_value},{';'.join(d.alternatives)}")
    return "\n".join(lines) + "\n"


def load_space(path: str | Path) -> StrategySpace:
    try:
        return parse_space(Path(path).read_text(encoding="utf-8-sig"))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def builtin_space(name: str) -> StrategySpace:
    """Load a packaged space: ``kissat_large`` (13 options) or ``kissat_small`` (6)."""
    res = resources.files("stratlearn").joinpath("data").joinpath(f"{name}.csv")
    try:
        text = res.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ValueError(f"no builtin space named {name!r}") from None
    return parse_space(text)


def default_strategy(space: StrategySpace) -> Strategy:
    return Strategy(tuple(d.default_value for d in space.domains))


def neighbors(space: StrategySpace, rank: int, j: int) -> int:
    """The rank of Hamming-1 neighbour ``j`` of the (unchecked) ``rank``, for ``0 <= j < len(space.moves)``.

    Neighbours are numbered by position in domain order, then by each
    position's other codes ascending.  Move ``j`` gives its position the
    ``r``-th code other than the old one, ``rank // stride % size``, and shifts
    the rank by the change times the stride.  An index outside the range is not checked.
    """
    stride, size, r = space.moves[j]
    old = rank // stride % size
    return rank + (r + (r >= old) - old) * stride


def encode_features(codes: tuple[int, ...], index: int) -> tuple[int, ...]:
    """The forest's feature row: a strategy's ordinal codes followed by the raw problem index.

    The encoding is injective over (strategy, index).
    """
    return codes + (index,)
