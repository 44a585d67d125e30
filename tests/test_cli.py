"""Argument parsing, trajectory emission, and ablation grids."""

import dataclasses
import hashlib
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from helpers import (
    ABLATION_SPACE_TEXT,
    CONV_OPTIMUM,
    OTHER_LINE_BREAKS,
    STUB,
    ablation_landscape,
    backend_for,
    codepoint,
    convergence_landscape,
)
from stratlearn import cli
from stratlearn.backends import SyntheticBackend, save_landscape
from stratlearn.cli import (
    GridResult,
    RunConfig,
    ablation_grid,
    execute,
    main,
    parse_args,
)
from stratlearn.engine import EpochPolicy, Outcome, run, summarize
from stratlearn.space import Strategy, builtin_space, default_strategy, serialize_space
from stratlearn.trajectory import Trajectory, emit_trajectory


PROBLEM_SOURCE = "a run reads its problems from --landscape alone, or from --manifest with --adapter"


def base_argv(tmp_path):
    return ["--space", str(tmp_path / "space.csv"), "--landscape", str(tmp_path / "land.json")]


@pytest.fixture
def landscape_files(tmp_path):
    space_path = tmp_path / "space.csv"
    space_path.write_text(serialize_space(builtin_space("kissat_small")), encoding="utf-8")
    land_path = tmp_path / "land.json"
    save_landscape(convergence_landscape(6), land_path)
    return str(space_path), str(land_path)


class TestParseArgs:
    def test_defaults_match_documented_tuple(self, tmp_path):
        config = parse_args(base_argv(tmp_path))
        assert (
            config.learning_budget,
            config.samples_per_epoch,
            config.strategize_samples,
            config.trees,
            config.init_depth,
            config.seed,
        ) == (0.0, 100, 500, 50, None, 0)
        library = RunConfig(space_path="s.csv", landscape_path="l.json", time_limit=1000.0)
        assert library.learning_budget == 0.0  # unlike the CLI's --budget-frac, no share of the limit

    def test_no_learn_forces_zero_budget(self, tmp_path):
        for flags in (["--budget-seconds", "50"], ["--budget-frac", "0.9"],
                      ["--budget-seconds", "50", "--budget-frac", "1"]):
            config = parse_args(base_argv(tmp_path) + ["--no-learn", "--time-limit", "1000", *flags])
            assert config.learning_budget == 0.0, flags

    def test_fraction_out_of_range_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            parse_args(base_argv(tmp_path) + ["--budget-frac", "1.5"])
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            parse_args(base_argv(tmp_path) + ["--frobnicate"])

    def test_manifest_requires_adapter(self, capsys):
        self.assert_usage_error(["--space", "s.csv", "--manifest", "m.tsv"], capsys)

    def test_adapter_requires_manifest(self, capsys):
        # Without a manifest the adapter file would never be read.
        self.assert_usage_error(["--space", "s.csv", "--landscape", "l.json", "--adapter", "a.cfg"], capsys)

    def test_manifest_and_landscape_exclusive(self, capsys):
        self.assert_usage_error(["--space", "s.csv", "--manifest", "m.tsv", "--landscape", "l.json"], capsys)

    def test_a_problem_source_is_required(self, capsys):
        self.assert_usage_error(["--space", "s.csv"], capsys)
        self.assert_usage_error(["ablate", "--space", "s.csv", "--budgets", "0", "--depths", "1"], capsys)

    @staticmethod
    def assert_usage_error(argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: stratlearn")
        assert err.endswith(f": error: {PROBLEM_SOURCE}\n")

    @pytest.mark.parametrize("sources", [
        {}, {"manifest_path": "m.tsv", "adapter_path": "a.cfg", "landscape_path": "l.json"},
        {"landscape_path": "l.json", "adapter_path": "a.cfg"}, {"manifest_path": "m.tsv"},
    ], ids=["none", "both", "adapter_with_landscape", "manifest_without_adapter"])
    def test_run_config_refuses_a_bad_problem_source(self, sources):
        # Unchecked, a run without a source fails late in execute, and a second source or an unread adapter is
        # silently dropped.
        with pytest.raises(ValueError, match=f"^{re.escape(PROBLEM_SOURCE)}$"):
            RunConfig(space_path="s.csv", **sources)

    def test_round_trip_examples(self):
        examples = [
            (["--space", "s.csv", "--landscape", "l.json"],
             RunConfig(space_path="s.csv", landscape_path="l.json")),
            (["--space", "s.csv", "--landscape", "l.json", "--budget-frac", "0.3",
              "--samples-per-epoch", "10", "--strategize-samples", "20", "--trees", "5",
              "--seed", "3", "--time-limit", "100", "--virtual-clock", "--out", "t.tsv"],
             RunConfig(space_path="s.csv", landscape_path="l.json", learning_budget=0.3 * 100.0,
                       samples_per_epoch=10, strategize_samples=20, trees=5, seed=3,
                       time_limit=100.0, virtual_clock=True, out="t.tsv")),
            (["--space", "s.csv", "--manifest", "m.tsv", "--adapter", "a.cfg",
              "--budget-seconds", "500", "--init-depth", "2"],
             RunConfig(space_path="s.csv", manifest_path="m.tsv", adapter_path="a.cfg",
                       learning_budget=500.0, init_depth=2)),
            (["--space", "s.csv", "--manifest", "m.tsv", "--adapter", "a.cfg",
              "--budget-seconds", "500", "--fixed-depth", "4"],
             RunConfig(space_path="s.csv", manifest_path="m.tsv", adapter_path="a.cfg",
                       learning_budget=500.0, fixed_depth=4)),
            (["--space", "s.csv", "--landscape", "l.json", "--no-learn"],
             RunConfig(space_path="s.csv", landscape_path="l.json", learning_budget=0.0)),
        ]
        for argv, config in examples:
            assert parse_args(argv) == config

    def test_init_depth_and_fixed_depth_exclusive(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            parse_args(base_argv(tmp_path) + ["--fixed-depth", "1", "--init-depth", "4"])
        assert exit_info.value.code == 2
        assert "not allowed with argument --fixed-depth" in capsys.readouterr().err

    def test_budget_resolution_order(self, tmp_path, caplog):
        # --no-learn, then --budget-seconds, then --budget-frac (default 0.15) times --time-limit, then 0.
        table = [
            (["--no-learn", "--budget-seconds", "50", "--time-limit", "1000"], 0.0, False),
            (["--budget-seconds", "42", "--time-limit", "1000"], 42.0, False),
            (["--time-limit", "1000"], 150.0, False),
            (["--budget-frac", "0.3", "--time-limit", "100"], 0.3 * 100, False),
            ([], 0.0, True),
            (["--budget-frac", "0"], 0.0, False),
        ]
        disabled = "no time limit and no absolute budget given; learning is disabled"
        for flags, budget, warned in table:
            caplog.clear()
            assert parse_args(base_argv(tmp_path) + flags).learning_budget == budget, flags
            assert caplog.messages == ([disabled] if warned else []), flags


class TestEmitTrajectory:
    def test_empty_trajectory(self, tmp_path):
        path = tmp_path / "empty.tsv"
        trajectory = Trajectory()
        summary = summarize(trajectory, Outcome.TIME_LIMIT)
        emit_trajectory(trajectory, path, summary=summary, meta={"seed": "0"})
        assert summary.largest_solved_index is None
        assert summary.epochs == 0
        # Every time is a float, the empty sum of solve times too, so a reader needs no int case.
        assert type(summary.solving_time) is float
        text = path.read_text(encoding="utf-8")
        assert "largest_solved_index=-" in text and "\tsolving_time=0.0\t" in text.splitlines()[-1]
        assert text.startswith("#stratlearn-trajectory v1\n#meta\tseed=0\n")

    def test_cumulative_times_are_prefix_sums(self, tmp_path):
        trajectory = Trajectory()
        strategy = Strategy(("1",))
        for index, metric in ((1, 5.0), (2, 7.5), (3, 2.5)):
            trajectory.record("solve", index, strategy, verdict="UNSAT",
                              raw_metric=metric, charge=metric)
        path = tmp_path / "t.tsv"
        summary = summarize(trajectory, Outcome.FAILURE)
        emit_trajectory(trajectory, path, summary=summary, meta={"seed": "0"})
        assert summary.solved_times == ((1, 5.0), (2, 12.5), (3, 15.0))
        lines = path.read_text(encoding="utf-8").splitlines()
        solves = [l for l in lines if l.startswith("solve\t")]
        assert solves[1].endswith("7.5\t12.5")

    def test_replay_writes_identical_bytes(self, landscape_files, tmp_path):
        space_path, land_path = landscape_files
        config = RunConfig(space_path=space_path, landscape_path=land_path,
                           learning_budget=20000.0, samples_per_epoch=20,
                           strategize_samples=30, trees=5, seed=5, virtual_clock=True,
                           out=str(tmp_path / "a.tsv"))
        execute(config)
        execute(dataclasses.replace(config, out=str(tmp_path / "b.tsv")))
        assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()


    @pytest.mark.parametrize("char", ["\t", "\n", *OTHER_LINE_BREAKS],
                             ids=["tab", "newline", *map(codepoint, OTHER_LINE_BREAKS)])
    def test_meta_that_would_break_its_line_is_refused_before_the_first_solve(self, char, tmp_path, monkeypatch):
        # A tab would split a cell with no '=' off the #meta line, and a line break would end that line.
        for meta in ({"space": f"sp{char}ace.csv"}, {f"sp{char}ace": "space.csv"}):
            with pytest.raises(ValueError, match="^meta 'sp"):
                emit_trajectory(Trajectory(), tmp_path / "t.tsv", summary=summarize(Trajectory(), Outcome.FAILURE),
                                meta=meta)
        assert not (tmp_path / "t.tsv").exists()
        folder = tmp_path / f"sp{char}ace"
        folder.mkdir()
        space_path = folder / "space.csv"
        space_path.write_text(serialize_space(builtin_space("kissat_small")), encoding="utf-8")
        land_path = tmp_path / "land.json"
        save_landscape(convergence_landscape(6), land_path)

        def no_run(*args, **kwargs):
            raise AssertionError("the run started before its #meta line was checked")

        monkeypatch.setattr(cli, "run", no_run)
        config = RunConfig(space_path=str(space_path), landscape_path=str(land_path), out=str(tmp_path / "t.tsv"))
        message = f"meta 'space'={str(space_path)!r} holds a tab or a line break"
        with pytest.raises(ValueError, match=re.escape(message)):
            execute(config)


class TestRecordFormats:
    """The bytes of every record format, pinned by sha256.

    A learning run writes the trajectory file (events, ``solved`` lines and
    the summary record) and prints the summary line; a time-limited run
    prints a second one.  The paths are relative because ``#meta`` records
    the space path.  A change meant to move a format updates its digest and
    says why.
    """

    TRAJECTORY = "4c73a5745538cc5ad0b851bfb0b20b34cbee006ce56a3812c0e89bd7d7b8d26e"
    STDOUT = "b108346f303c1396f75ebfa8780d1d145c3d33204c64bb3686e4accf9cf79779"
    LANDSCAPE = "a6e9ab3499068cd17c4aa8c7c64127af21fce0500d4308031899ad5caa06f7cc"

    def test_every_record_format_is_pinned(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("space.csv").write_text(serialize_space(builtin_space("kissat_small")), encoding="utf-8")
        save_landscape(convergence_landscape(12), "land.json")
        run_flags = ["--space", "space.csv", "--landscape", "land.json", "--seed", "3", "--virtual-clock"]
        assert main(run_flags + ["--budget-seconds", "20000", "--out", "run.tsv"]) == 0
        assert main(run_flags + ["--time-limit", "5"]) == 0
        digests = [hashlib.sha256(data).hexdigest() for data in (
            Path("run.tsv").read_bytes(), capsys.readouterr().out.encode(), Path("land.json").read_bytes(),
        )]
        assert digests == [self.TRAJECTORY, self.STDOUT, self.LANDSCAPE]


class TestExecute:
    def test_no_learn_run_is_pure_base_calculus(self, landscape_files):
        space_path, land_path = landscape_files
        config = RunConfig(space_path=space_path, landscape_path=land_path, virtual_clock=True)
        assert config.learning_budget == 0.0
        result, summary = execute(config)
        assert summary.epochs == 0
        assert all(e.phase == "solve" for e in result.trajectory)
        assert summary.outcome == "FAILURE"

    def test_a_run_without_learning_reports_and_writes_its_learning_time_as_a_float(self, landscape_files, tmp_path):
        # Every time in the record is a float written by repr, the learning time of a run that never learns too.
        space_path, land_path = landscape_files
        out = tmp_path / "run.tsv"
        _, summary = execute(parse_args(["--space", space_path, "--landscape", land_path, "--no-learn",
                                         "--virtual-clock", "--out", str(out)]))
        assert summary.epochs == 0 and type(summary.learning_time) is float
        assert "\tlearning_time=0.0\t" in out.read_text(encoding="utf-8").splitlines()[-1]

    def test_execute_writes_through_the_cli_name_the_summary_it_returns(self, landscape_files, tmp_path, monkeypatch):
        # A wrapper set on cli.emit_trajectory sees each write, the path second, and the summary execute returns.
        space_path, land_path = landscape_files
        writes = []

        def record(*args, **kwargs):
            writes.append((args, kwargs))
            return emit_trajectory(*args, **kwargs)

        monkeypatch.setattr(cli, "emit_trajectory", record)
        out = tmp_path / "run.tsv"
        _, summary = execute(parse_args(["--space", space_path, "--landscape", land_path, "--no-learn",
                                         "--virtual-clock", "--out", str(out)]))
        [(args, kwargs)] = writes
        assert args[1] == str(out) and kwargs["summary"] is summary and out.exists()

    def test_main_prints_summary(self, landscape_files, capsys):
        space_path, land_path = landscape_files
        code = main(["--space", space_path, "--landscape", land_path,
                     "--no-learn", "--virtual-clock"])
        assert code == 0
        out = capsys.readouterr().out
        assert "outcome=FAILURE" in out and "epochs=0" in out

    @pytest.mark.parametrize("misfit, message", [
        (lambda optimum: ("z",) + optimum[1:], "value 'z' is not legal for parameter"),
        (lambda optimum: optimum[:-1], "strategy has 5 assignments, space has 6 parameters"),
    ], ids=["value-outside-domain", "too-few-values"])
    def test_landscape_that_does_not_fit_the_space_is_rejected(self, landscape_files, misfit, message):
        space_path, land_path = landscape_files
        landscape = convergence_landscape(6)
        optimum = misfit(landscape.optimum)
        save_landscape(
            dataclasses.replace(landscape, optimum=optimum, weights=landscape.weights[:len(optimum)]), land_path
        )
        config = RunConfig(space_path=space_path, landscape_path=land_path, virtual_clock=True)
        with pytest.raises(ValueError, match=re.escape(f"{land_path}: optimum does not fit the space: {message}")):
            execute(config)

    @pytest.mark.parametrize("command", [[], ["ablate", "--budgets", "0,800", "--depths", "1"]], ids=["run", "ablate"])
    def test_out_in_a_missing_directory_is_refused_before_the_first_solve(self, landscape_files, tmp_path,
                                                                          monkeypatch, command):
        # Unchecked, the whole run or grid is solved and then lost when its file cannot be written.
        space_path, land_path = landscape_files
        solves = []
        monkeypatch.setattr(SyntheticBackend, "solve", lambda self, *args, **kwargs: solves.append(args))
        missing, directory = tmp_path / "missing" / "out.tsv", tmp_path
        argv = [*command, "--space", space_path, "--landscape", land_path, "--virtual-clock", "--out"]
        for out, message in [(missing, f"--out {missing}: directory {missing.parent} does not exist"),
                             (directory, f"--out {directory}: is a directory")]:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                main([*argv, str(out)])
        assert solves == []

    @pytest.mark.parametrize("name, text, message", [
        ("space.csv", "name,default,alternatives\nchrono,1\n", "row 2: expected 3 comma-separated cells, got 2"),
        ("manifest.tsv", "1\tp.cnf\n3\tq.cnf\n", "line 2: expected index 2, got '3'"),
    ], ids=["space", "manifest"])
    def test_a_bad_input_file_is_refused_naming_it(self, tmp_path, name, text, message):
        argv = []
        for flag, file, good in [("--space", "space.csv", "name,default,alternatives\nchrono,1,0\n"),
                                 ("--manifest", "manifest.tsv", "1\tp.cnf\n"),
                                 ("--adapter", "adapter.cfg", "command = solver {problem} --chrono {chrono}\n")]:
            (tmp_path / file).write_text(text if file == name else good, encoding="utf-8")
            argv += [flag, str(tmp_path / file)]
        with pytest.raises(ValueError, match=f"^{re.escape(f'{tmp_path / name}: {message}')}$"):
            main(argv)


class TestManifestRun:
    def test_external_solver_end_to_end(self, tmp_path):
        space_path = tmp_path / "space.csv"
        space_path.write_text("name,default,alternatives\nchrono,1,0\nstable,1,0\n",
                              encoding="utf-8")
        for i, (verdict, conflicts) in enumerate([("UNSAT", 50), ("UNSAT", 60), ("SAT", 70)], start=1):
            (tmp_path / f"p{i}.problem").write_text(
                f"verdict={verdict}\nconflicts={conflicts}\n", encoding="utf-8")
        manifest_path = tmp_path / "manifest.tsv"
        manifest_path.write_text(
            "".join(f"{i}\t{tmp_path}/p{i}.problem\n" for i in (1, 2, 3)),
            encoding="utf-8")
        adapter_path = tmp_path / "adapter.cfg"
        adapter_path.write_text(
            f"command = {sys.executable} {STUB} {{problem}} --opt-chrono {{chrono}} --opt-stable {{stable}}\n"
            "metric_pattern = ^c conflicts:\\s*(\\d+)\n"
            "budget_flag = --conflicts {budget}\n",
            encoding="utf-8")
        config = RunConfig(
            space_path=str(space_path), manifest_path=str(manifest_path),
            adapter_path=str(adapter_path), learning_budget=1e6,
            samples_per_epoch=4, strategize_samples=5, trees=3,
            virtual_clock=True, out=str(tmp_path / "run.tsv"),
        )
        result, summary = execute(config)
        assert summary.outcome == "SUCCESS"
        assert summary.largest_solved_index == 3
        assert summary.epochs == 2  # one after each UNSAT answer


class TestWallClock:
    def test_wall_mode_smoke(self):
        result = run(
            backend_for(["UNSAT", "SAT"]),
            EpochPolicy(samples_per_epoch=1, learning_budget=0.0, strategize_samples=1),
            space=builtin_space("kissat_small"), seed=0, clock="wall",
        )
        assert result.outcome is Outcome.SUCCESS
        assert all(e.virtual_time >= 0 for e in result.trajectory)

    def test_cli_default_clock_partitions_the_run(self, landscape_files, tmp_path, capsys):
        # No --virtual-clock: the CLI's default, real perf_counter seconds.
        space_path, land_path = landscape_files
        out = tmp_path / "run.tsv"
        before = time.perf_counter()
        assert main(["--space", space_path, "--landscape", land_path, "--budget-seconds", "10",
                     "--samples-per-epoch", "4", "--strategize-samples", "10", "--trees", "3",
                     "--out", str(out)]) == 0
        span = time.perf_counter() - before
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "#stratlearn-trajectory v1" and "clock=wall" in lines[1]
        names = lines[2].split("\t")[1:]
        events = [dict(zip(names, line.split("\t"), strict=True)) for line in lines[3:]
                  if not line.startswith(("solved\t", "summary\t"))]
        summary = dict(cell.split("=", 1) for cell in lines[-1].split("\t")[1:])
        assert {e["phase"] for e in events} == {"solve", "collect", "train", "strategize"}
        cumulative = float(summary["cumulative_time"])
        assert cumulative == sum(float(e["virtual_time"]) for e in events) == float(events[-1]["cumulative_time"])
        assert 0 < cumulative <= span


@pytest.fixture
def ablation_files(tmp_path):
    space_path = tmp_path / "abl_space.csv"
    space_path.write_text(ABLATION_SPACE_TEXT, encoding="utf-8")
    land_path = tmp_path / "abl_land.json"
    save_landscape(ablation_landscape(8), land_path)
    return str(space_path), str(land_path)


class TestAblationGrid:
    def test_single_cell_equals_single_run(self, ablation_files):
        space_path, land_path = ablation_files
        config = RunConfig(space_path=space_path, landscape_path=land_path,
                           samples_per_epoch=20, strategize_samples=20, trees=5,
                           time_limit=3000.0, virtual_clock=True, seed=1)
        grid = ablation_grid(config, budgets=[800.0], depths=[2])
        single = dataclasses.replace(config, learning_budget=800.0, fixed_depth=2)
        _, summary = execute(single)
        assert grid.largest_solved[0][0] == summary.largest_solved_index

    def test_zero_budget_row_equals_baseline(self, ablation_files):
        space_path, land_path = ablation_files
        config = RunConfig(space_path=space_path, landscape_path=land_path,
                           samples_per_epoch=20, strategize_samples=20, trees=5,
                           time_limit=3000.0, virtual_clock=True, seed=2)
        grid = ablation_grid(config, budgets=[0.0], depths=[1, 4])
        _, baseline = execute(dataclasses.replace(config, learning_budget=0.0))
        assert grid.largest_solved[0] == [baseline.largest_solved_index] * 2

    def test_budgets_that_are_not_positive_disable_learning(self, monkeypatch):
        cells = []

        def record(config):
            cells.append(config)
            return None, SimpleNamespace(largest_solved_index=1)

        monkeypatch.setattr(cli, "execute", record)
        config = RunConfig(space_path="s.csv", landscape_path="l.json", time_limit=3000.0)
        ablation_grid(config, budgets=[float("nan"), -5.0, 0.0, 800.0], depths=[1])
        assert [c.learning_budget for c in cells] == [0.0, 0.0, 0.0, 800.0]

    def test_cell_errors_do_not_abort_grid(self, ablation_files, tmp_path):
        space_path, _ = ablation_files
        config = RunConfig(space_path=space_path, landscape_path=str(tmp_path / "missing.json"),
                           virtual_clock=True)
        grid = ablation_grid(config, budgets=[0.0, 10.0], depths=[1])
        assert grid.largest_solved == [[None], [None]]
        assert len(grid.errors) == 2

    def test_grid_file_shape(self, ablation_files, tmp_path):
        space_path, land_path = ablation_files
        config = RunConfig(space_path=space_path, landscape_path=land_path,
                           samples_per_epoch=20, strategize_samples=20, trees=5,
                           time_limit=3000.0, virtual_clock=True,
                           out=str(tmp_path / "grid.tsv"))
        grid = ablation_grid(config, budgets=[0.0, 800.0], depths=[1, 2])
        lines = (tmp_path / "grid.tsv").read_text(encoding="utf-8").splitlines()
        assert lines[1].split("\t") == ["budget\\depth", "1", "2"]
        assert len([l for l in lines if not l.startswith("#")]) == 3
        assert isinstance(grid, GridResult)


class TestAblateCommand:
    def run_cli(self, *args):
        repo = Path(__file__).resolve().parents[1]
        return subprocess.run(
            [sys.executable, "-m", "stratlearn.cli", *args],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(repo / "src")},
        )

    def test_prints_matrix_and_writes_grid(self, ablation_files, tmp_path):
        space_path, land_path = ablation_files
        grid_path = tmp_path / "grid.tsv"
        proc = self.run_cli(
            "ablate", "--space", space_path, "--landscape", land_path, "--time-limit", "3000",
            "--virtual-clock", "--samples-per-epoch", "5", "--strategize-samples", "5",
            "--trees", "2", "--budgets", "0,800", "--depths", "1,2", "--out", str(grid_path),
        )
        assert proc.returncode == 0, proc.stderr
        matrix = proc.stdout.splitlines()
        assert matrix[0].split("\t") == ["budget\\depth", "1", "2"]
        assert [row.split("\t")[0] for row in matrix[1:]] == ["0", "800"]
        grid_lines = grid_path.read_text(encoding="utf-8").splitlines()
        assert grid_lines[0] == "#stratlearn-grid v1"
        assert grid_lines[1:] == matrix

    def test_missing_budgets_is_a_usage_error(self, ablation_files):
        space_path, land_path = ablation_files
        proc = self.run_cli("ablate", "--space", space_path, "--landscape", land_path, "--depths", "1")
        assert proc.returncode == 2
        assert proc.stderr.startswith("usage: stratlearn ablate")
        assert "--budgets" in proc.stderr

    @pytest.mark.parametrize(
        "flag", [["--no-learn"], ["--budget-seconds", "50"], ["--budget-frac", "0.9"],
                 ["--fixed-depth", "4"], ["--init-depth", "3"]],
        ids=lambda flag: flag[0],
    )
    def test_flags_every_cell_overrides_are_rejected(self, flag, capsys):
        # The grid sets each cell's budget and fixed depth, so these would be ignored.
        argv = ["ablate", "--space", "s.csv", "--landscape", "l.json", "--budgets", "0,800", "--depths", "1"]
        with pytest.raises(SystemExit) as exit_info:
            main(argv + flag)
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    @pytest.mark.parametrize("depths", ["-1", "0", "1,0"])
    def test_depths_must_be_positive_integers(self, depths, capsys):
        # Like --fixed-depth: depth 0 would fit single-leaf trees, and a negative depth fails every cell.
        argv = ["ablate", "--space", "s.csv", "--landscape", "l.json", "--budgets", "0,800", "--depths", depths]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "is not a positive integer" in capsys.readouterr().err

    def test_grid_flags_rejected_on_a_plain_run(self, ablation_files):
        space_path, land_path = ablation_files
        proc = self.run_cli("--space", space_path, "--landscape", land_path, "--budgets", "0,800")
        assert proc.returncode == 2
        assert "unrecognized arguments: --budgets" in proc.stderr

    def test_failed_cells_write_error_lines(self, tmp_path, capsys):
        # exit=3 is no verdict's exit code, so every cell's first solve fails.
        space_path = tmp_path / "space.csv"
        space_path.write_text("name,default,alternatives\nchrono,1,0\n", encoding="utf-8")
        (tmp_path / "p1.problem").write_text("verdict=UNSAT\nconflicts=5\nexit=3\n", encoding="utf-8")
        manifest_path = tmp_path / "manifest.tsv"
        manifest_path.write_text(f"1\t{tmp_path}/p1.problem\n", encoding="utf-8")
        adapter_path = tmp_path / "adapter.cfg"
        adapter_path.write_text(f"command = {sys.executable} {STUB} {{problem}} --chrono {{chrono}}\n",
                                encoding="utf-8")
        grid_path = tmp_path / "grid.tsv"
        assert main([
            "ablate", "--space", str(space_path), "--manifest", str(manifest_path), "--adapter", str(adapter_path),
            "--virtual-clock", "--budgets", "0,800", "--depths", "1,2", "--out", str(grid_path),
        ]) == 0
        assert capsys.readouterr().out.splitlines() == ["budget\\depth\t1\t2", "0\t-\t-", "800\t-\t-"]
        assert grid_path.read_text(encoding="utf-8").splitlines() == [
            "#stratlearn-grid v1", "budget\\depth\t1\t2", "0\t-\t-", "800\t-\t-",
            *(f"#error\tbudget={budget}\tdepth={depth}\tunexpected exit code 3"
              for budget in (0, 800) for depth in (1, 2)),
        ]


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(language, heading):
    """The first ``language`` code block of README.md after ``heading``."""
    text = README.read_text(encoding="utf-8")
    return re.search(rf"```{language}\n(.*?)```", text[text.index(heading):], re.S).group(1)


@pytest.fixture(scope="module")
def library_example():
    """The names README's ``python`` block defines, run once: it solves the landscape twice."""
    library = {}
    exec(readme_block("python", "## Library use"), library)
    return library


class TestReadmeExamples:
    def test_library_example_learns_what_its_prose_states(self, library_example):
        assert library_example["landscape"] == convergence_landscape(12)
        learned, baseline = library_example["learned"], library_example["baseline"]
        text = README.read_text(encoding="utf-8")
        prose = " ".join(text[text.index("## Library use"):].split())
        assert learned.state.epochs == 3 and "trains 3 epochs" in prose
        assert learned.state.strategy.assignments == CONV_OPTIMUM
        assert baseline.state.strategy == default_strategy(library_example["space"])
        for result in (learned, baseline):
            summary = summarize(result.trajectory, result.outcome)
            assert summary.largest_solved_index == 12 and "all 12 problems" in prose
            assert f"`{';'.join(result.state.strategy.assignments)}`" in prose
            assert f"solves take about {round(summary.solving_time):,}" in prose

    def test_cli_examples_learn_on_the_library_example_landscape(self, library_example, tmp_path, monkeypatch,
                                                                 capsys):
        monkeypatch.chdir(tmp_path)
        Path("space.csv").write_text(serialize_space(library_example["space"]), encoding="utf-8")
        save_landscape(library_example["landscape"], "landscape.json")
        commands, comment = {}, None
        for line in readme_block("sh", "## CLI").replace("\\\n", " ").splitlines():
            if line.startswith("# "):
                comment = line[2:]
            elif line.startswith("stratlearn "):
                commands[comment] = shlex.split(line)[1:]
        assert main(commands["synthetic landscape run"]) == 0
        lines = Path("run.tsv").read_text(encoding="utf-8").splitlines()
        assert [line.split("\t")[0] for line in lines].count("train") == 1
        assert "\tlargest_solved_index=12\t" in lines[-1]
        assert main(commands["baseline without learning"]) == 0
        assert " largest_solved_index=11 " in capsys.readouterr().out  # the learning run printed 12
        assert main(commands["ablation: sweep learning budget against fixed tree depth"]) == 0
        cells = [row.split("\t")[1:] for row in Path("grid.tsv").read_text(encoding="utf-8").splitlines()[2:]]
        assert cells == [["11", "11", "11"], ["12", "11", "11"], ["10", "11", "11"]]  # as the README says
