"""Traced runs: spans around the calls into each stratlearn layer, set from outside.

Each target is wrapped where the calling module looks the name up (for
example ``stratlearn.engine.fit_adaptive``, which the engine imported from
the forest module), so no code under ``src/`` changes.  A target that no
longer exists is reported as absent and its metrics read 0.  Spans
(name, start, end, parent span, run) stay in memory until ``dump``.
"""

from __future__ import annotations

import gzip
import importlib
import math
import time
from collections import Counter
from pathlib import Path

# (module, attribute, span name); the span's layer is the part before the dot.
TARGETS = (
    ("stratlearn.engine", "run", "engine.run"),
    ("stratlearn.cli", "run", "engine.run"),
    ("stratlearn.engine", "learning_epoch", "engine.learning_epoch"),
    ("stratlearn.engine", "rule_strategize", "engine.rule_strategize"),
    ("stratlearn.engine", "fit_adaptive", "forest.fit_adaptive"),
    ("stratlearn.engine", "fit_forest", "forest.fit_forest"),
    ("stratlearn.forest", "fit_forest", "forest.fit_forest"),
    ("stratlearn.forest", "r2_score", "forest.r2_score"),
    ("stratlearn.engine", "predict", "forest.predict"),
    ("stratlearn.engine", "run_chain", "sampler.run_chain"),
    ("stratlearn.engine", "collect_cost", "cost.collect_cost"),
    ("stratlearn.engine", "encode_features", "space.encode_features"),
    ("stratlearn.sampler", "neighbors", "space.neighbors"),
    ("stratlearn.cli", "parse_args", "cli.parse_args"),
    ("stratlearn.cli", "execute", "cli.execute"),
    ("stratlearn.cli", "emit_trajectory", "cli.emit_trajectory"),
)

_FITS = frozenset({"forest.fit_adaptive", "forest.fit_forest"})


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Tracer:
    """Installs the wrappers around one run at a time and keeps every span."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.runs: list[dict] = []  # per traced run: wall time and counts
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._counts: Counter = Counter()

    def wrap_callable(self, fn, name: str, observe=None):
        """``fn`` recording a span per call; ``observe(args, result)`` sees each return."""
        spans, stack, counts = self.spans, self._stack, self._counts

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts["raised:" + name] += 1
                raise
            finally:
                spans[sid] = (name, start, time.perf_counter(), parent, len(self.runs))
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _observe_fit(self, args, forest) -> None:
        # The outermost fit returns last, so its forest is the one the run keeps.
        self._counts["points"] = len(args[0])
        self._counts["depth"] = forest.trained_depth
        self._counts["train_r2"] = forest.training_score

    def _observe_collect(self, args, record) -> None:
        self._counts["aborted"] += record.aborted

    def _observe_emit(self, args, summary) -> None:
        self._counts["trajectory_bytes"] = Path(args[1]).stat().st_size

    def _chain(self, run_chain):
        counts = self._counts

        def chain(space, cost_fn, *rest, **kwargs):
            def counted(strategy):
                counts["evaluations"] += 1
                return cost_fn(strategy)

            records = run_chain(space, counted, *rest, **kwargs)
            counts["steps"] += len(records)
            counts["accepted"] += sum(r.accepted for r in records)
            return records

        return chain

    def install(self) -> None:
        """Wrap every target for the next run."""
        self._counts.clear()
        observers = {
            "forest.fit_adaptive": self._observe_fit,
            "forest.fit_forest": self._observe_fit,
            "cost.collect_cost": self._observe_collect,
            "cli.emit_trajectory": self._observe_emit,
        }
        for module_name, attr, name in TARGETS:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.add(f"{module_name}.{attr}")
                continue
            fn = self._chain(original) if name == "sampler.run_chain" else original
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap_callable(fn, name, observers.get(name)))

    def uninstall(self, wall_s: float) -> None:
        """Restore the originals and close the run, which took ``wall_s``."""
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        self.runs.append({"wall_s": wall_s, **self._counts})

    def _timed(self, run: int | None = None):
        """(name, duration, self time, parent name) of each span, of one run or all."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s is not None and run in (None, s[4])]
        children: Counter = Counter()
        for _, (_, start, end, parent, _) in spans:
            children[parent] += end - start
        names = {i: s[0] for i, s in spans}
        return [
            (name, end - start, end - start - children[i], names.get(parent, ""))
            for i, (name, start, end, parent, _) in spans
        ]

    def run_metrics(self, run: int) -> dict[str, float]:
        """Per-layer metrics of one traced run."""
        total: Counter = Counter()
        calls: Counter = Counter()
        own: Counter = Counter()
        fit_s = 0.0
        for name, duration, self_s, parent in self._timed(run):
            total[name] += duration
            calls[name] += 1
            own[name] += self_s
            if name in _FITS and parent not in _FITS:
                fit_s += duration
        counts = self.runs[run]
        steps = counts.get("steps", 0)
        collects = calls["cost.collect_cost"]
        solves = calls["backends.solve"]
        return {
            "forest.fit_s": fit_s,
            "forest.fits_per_epoch": _ratio(calls["forest.fit_forest"], calls["forest.fit_adaptive"]),
            "forest.r2_s": total["forest.r2_score"],
            "forest.dataset_points": counts.get("points", 0),
            "forest.trained_depth": counts.get("depth", 0),
            "forest.train_r2": counts.get("train_r2", 0.0),
            "forest.predict_calls": calls["forest.predict"],
            "forest.predict_s": total["forest.predict"],
            "engine.strategize_calls": calls["engine.rule_strategize"],
            "engine.strategize_s": total["engine.rule_strategize"],
            "engine.epochs": calls["engine.learning_epoch"],
            "engine.epoch_s": total["engine.learning_epoch"],
            "engine.self_s": own["engine.run"],
            "sampler.self_s": own["sampler.run_chain"],
            "sampler.steps": steps,
            "sampler.accept_ratio": _ratio(counts.get("accepted", 0), steps),
            "sampler.memo_hit_ratio": 1.0 - _ratio(counts.get("evaluations", 0), steps) if steps else 0.0,
            "space.neighbors_calls": calls["space.neighbors"],
            "space.neighbors_s": total["space.neighbors"],
            "space.encode_calls": calls["space.encode_features"],
            "space.encode_s": total["space.encode_features"],
            "backends.solve_calls": solves,
            "backends.solve_s": total["backends.solve"],
            "backends.solve_ms_per_call": 1e3 * _ratio(total["backends.solve"], solves),
            "backends.errors": counts.get("raised:backends.solve", 0),
            "cost.collect_calls": collects,
            "cost.abort_ratio": _ratio(counts.get("aborted", 0), collects),
            "cli.load_s": own["cli.execute"],
            "cli.emit_s": total["cli.emit_trajectory"],
            "cli.trajectory_bytes": counts.get("trajectory_bytes", 0),
            "trace.run_s": counts["wall_s"],
        }

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Busy and self seconds per layer, averaged over the traced runs."""
        busy: Counter = Counter()
        own: Counter = Counter()
        for name, duration, self_s, parent in self._timed():
            layer = name.split(".")[0]
            own[layer] += self_s
            if parent.split(".")[0] != layer:
                busy[layer] += duration
        n = max(len(self.runs), 1)
        return {layer: {"busy_s": busy[layer] / n, "self_s": own[layer] / n} for layer in sorted(busy)}

    def metrics(self) -> dict[str, float]:
        """Each per-layer metric averaged over the traced runs."""
        per_run = [self.run_metrics(r) for r in range(len(self.runs))]
        return {key: math.fsum(m[key] for m in per_run) / len(per_run) for key in per_run[0]}

    def dump(self, path: Path) -> None:
        """Write every span as gzip'd tab-separated text."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("span\tname\tstart\tend\tparent\trun\n")
            for i, s in enumerate(self.spans):
                if s is not None:
                    out.write(f"{i}\t{s[0]}\t{s[1]!r}\t{s[2]!r}\t{s[3]}\t{s[4]}\n")
