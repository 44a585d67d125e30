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
    ablation_landscape,
    convergence_landscape,
)
from stratlearn import cli
from stratlearn.backends import save_landscape
from stratlearn.cli import (
    GridResult,
    RunConfig,
    ablation_grid,
    emit_trajectory,
    execute,
    main,
    parse_args,
    resolve_budget,
)
from stratlearn.engine import Outcome, Trajectory
from stratlearn.space import Strategy, builtin_space, serialize_space


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
            config.budget_fraction,
            config.samples_per_epoch,
            config.strategize_samples,
            config.trees,
            config.init_depth,
            config.seed,
        ) == (0.15, 100, 500, 50, None, 0)

    def test_no_learn_forces_zero_budget(self, tmp_path):
        config = parse_args(base_argv(tmp_path) + ["--no-learn", "--time-limit", "1000",
                                                    "--budget-seconds", "50"])
        assert config.budget_fraction == 0.15
        assert resolve_budget(config) == 0.0

    def test_fraction_out_of_range_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            parse_args(base_argv(tmp_path) + ["--budget-frac", "1.5"])
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            parse_args(base_argv(tmp_path) + ["--frobnicate"])

    def test_manifest_requires_adapter(self, tmp_path):
        with pytest.raises(SystemExit):
            parse_args(["--space", "s.csv", "--manifest", "m.tsv"])

    def test_adapter_requires_manifest(self, capsys):
        # Without a manifest the adapter file would never be read.
        with pytest.raises(SystemExit) as exit_info:
            parse_args(["--space", "s.csv", "--landscape", "l.json", "--adapter", "a.cfg"])
        assert exit_info.value.code == 2
        assert "--adapter is read only with --manifest" in capsys.readouterr().err

    def test_manifest_and_landscape_exclusive(self, tmp_path):
        with pytest.raises(SystemExit):
            parse_args(["--space", "s.csv", "--manifest", "m.tsv", "--landscape", "l.json"])

    def test_round_trip_examples(self):
        examples = [
            (["--space", "s.csv", "--landscape", "l.json"],
             RunConfig(space_path="s.csv", landscape_path="l.json")),
            (["--space", "s.csv", "--landscape", "l.json", "--budget-frac", "0.3",
              "--samples-per-epoch", "10", "--strategize-samples", "20", "--trees", "5",
              "--seed", "3", "--time-limit", "100", "--virtual-clock", "--out", "t.tsv"],
             RunConfig(space_path="s.csv", landscape_path="l.json", budget_fraction=0.3,
                       samples_per_epoch=10, strategize_samples=20, trees=5, seed=3,
                       time_limit=100.0, virtual_clock=True, out="t.tsv")),
            (["--space", "s.csv", "--manifest", "m.tsv", "--adapter", "a.cfg",
              "--budget-seconds", "500", "--init-depth", "2"],
             RunConfig(space_path="s.csv", manifest_path="m.tsv", adapter_path="a.cfg",
                       budget_seconds=500.0, init_depth=2)),
            (["--space", "s.csv", "--manifest", "m.tsv", "--adapter", "a.cfg",
              "--budget-seconds", "500", "--fixed-depth", "4"],
             RunConfig(space_path="s.csv", manifest_path="m.tsv", adapter_path="a.cfg",
                       budget_seconds=500.0, fixed_depth=4)),
            (["--space", "s.csv", "--landscape", "l.json", "--no-learn"],
             RunConfig(space_path="s.csv", landscape_path="l.json", no_learn=True)),
        ]
        for argv, config in examples:
            assert parse_args(argv) == config
        assert resolve_budget(examples[-1][1]) == 0.0

    def test_init_depth_and_fixed_depth_exclusive(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            parse_args(base_argv(tmp_path) + ["--fixed-depth", "1", "--init-depth", "4"])
        assert exit_info.value.code == 2
        assert "not allowed with argument --fixed-depth" in capsys.readouterr().err

    def test_budget_resolution_order(self):
        by_seconds = RunConfig(space_path="s", landscape_path="l",
                               budget_seconds=42.0, time_limit=1000.0)
        assert resolve_budget(by_seconds) == 42.0
        by_fraction = RunConfig(space_path="s", landscape_path="l", time_limit=1000.0)
        assert resolve_budget(by_fraction) == 150.0
        unresolved = RunConfig(space_path="s", landscape_path="l")
        assert resolve_budget(unresolved) == 0.0


class TestEmitTrajectory:
    def test_empty_trajectory(self, tmp_path):
        path = tmp_path / "empty.tsv"
        summary = emit_trajectory(Trajectory(), path, outcome=Outcome.TIME_LIMIT)
        assert summary.largest_solved_index is None
        assert summary.epochs == 0
        text = path.read_text(encoding="utf-8")
        assert "largest_solved_index=-" in text
        assert text.startswith("#stratlearn-trajectory v1")

    def test_cumulative_times_are_prefix_sums(self, tmp_path):
        trajectory = Trajectory()
        strategy = Strategy(("1",))
        for index, metric in ((1, 5.0), (2, 7.5), (3, 2.5)):
            trajectory.record("solve", index, strategy, verdict="UNSAT",
                              raw_metric=metric, charge=metric)
        path = tmp_path / "t.tsv"
        summary = emit_trajectory(trajectory, path, outcome=Outcome.FAILURE)
        assert summary.solved_times == ((1, 5.0), (2, 12.5), (3, 15.0))
        lines = path.read_text(encoding="utf-8").splitlines()
        solves = [l for l in lines if l.startswith("solve\t")]
        assert solves[1].endswith("7.5\t12.5")

    def test_replay_writes_identical_bytes(self, landscape_files, tmp_path):
        space_path, land_path = landscape_files
        config = RunConfig(space_path=space_path, landscape_path=land_path,
                           budget_seconds=20000.0, samples_per_epoch=20,
                           strategize_samples=30, trees=5, seed=5, virtual_clock=True,
                           out=str(tmp_path / "a.tsv"))
        execute(config)
        execute(dataclasses.replace(config, out=str(tmp_path / "b.tsv")))
        assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()


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
        config = RunConfig(space_path=space_path, landscape_path=land_path,
                           no_learn=True, budget_fraction=0.0, virtual_clock=True)
        result, summary = execute(config)
        assert summary.epochs == 0
        assert all(e.phase == "solve" for e in result.trajectory)
        assert summary.outcome == "FAILURE"

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


class TestManifestRun:
    def test_external_solver_end_to_end(self, tmp_path):
        stub = Path(__file__).resolve().parents[1] / "scripts" / "stub_solver.py"
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
            f"command = {sys.executable} {stub} {{problem}} --opt-chrono {{chrono}} --opt-stable {{stable}}\n"
            "metric_pattern = ^c conflicts:\\s*(\\d+)\n"
            "budget_flag = --conflicts {budget}\n",
            encoding="utf-8")
        config = RunConfig(
            space_path=str(space_path), manifest_path=str(manifest_path),
            adapter_path=str(adapter_path), budget_seconds=1e6,
            samples_per_epoch=4, strategize_samples=5, trees=3,
            virtual_clock=True, out=str(tmp_path / "run.tsv"),
        )
        result, summary = execute(config)
        assert summary.outcome == "SUCCESS"
        assert summary.largest_solved_index == 3
        assert summary.epochs == 2  # one after each UNSAT answer


class TestWallClock:
    def test_wall_mode_smoke(self):
        from helpers import backend_for
        from stratlearn.engine import EpochPolicy, run
        from stratlearn.space import builtin_space

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
        single = dataclasses.replace(config, budget_seconds=800.0, fixed_depth=2)
        _, summary = execute(single)
        assert grid.largest_solved[0][0] == summary.largest_solved_index

    def test_zero_budget_row_equals_baseline(self, ablation_files):
        space_path, land_path = ablation_files
        config = RunConfig(space_path=space_path, landscape_path=land_path,
                           samples_per_epoch=20, strategize_samples=20, trees=5,
                           time_limit=3000.0, virtual_clock=True, seed=2)
        grid = ablation_grid(config, budgets=[0.0], depths=[1, 4])
        _, baseline = execute(dataclasses.replace(config, no_learn=True, budget_fraction=0.0))
        assert grid.largest_solved[0] == [baseline.largest_solved_index] * 2

    def test_budgets_that_are_not_positive_disable_learning(self, monkeypatch):
        cells = []

        def record(config):
            cells.append(config)
            return None, SimpleNamespace(largest_solved_index=1)

        monkeypatch.setattr(cli, "execute", record)
        config = RunConfig(space_path="s.csv", landscape_path="l.json", time_limit=3000.0)
        ablation_grid(config, budgets=[float("nan"), -5.0, 0.0, 800.0], depths=[1])
        assert [(c.no_learn, c.budget_seconds) for c in cells] == [
            (True, None), (True, None), (True, None), (False, 800.0)
        ]
        assert [resolve_budget(c) for c in cells] == [0.0, 0.0, 0.0, 800.0]

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
        stub = Path(__file__).resolve().parents[1] / "scripts" / "stub_solver.py"
        space_path = tmp_path / "space.csv"
        space_path.write_text("name,default,alternatives\nchrono,1,0\n", encoding="utf-8")
        (tmp_path / "p1.problem").write_text("verdict=UNSAT\nconflicts=5\nexit=3\n", encoding="utf-8")
        manifest_path = tmp_path / "manifest.tsv"
        manifest_path.write_text(f"1\t{tmp_path}/p1.problem\n", encoding="utf-8")
        adapter_path = tmp_path / "adapter.cfg"
        adapter_path.write_text(f"command = {sys.executable} {stub} {{problem}} --chrono {{chrono}}\n",
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


def readme_block(language, heading):
    """The first ``language`` code block of README.md after ``heading``."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return re.search(rf"```{language}\n(.*?)```", text[text.index(heading):], re.S).group(1)


class TestReadmeExamples:
    def test_cli_examples_learn_on_the_library_example_landscape(self, tmp_path, monkeypatch):
        library = {}
        exec(readme_block("python", "## Library use"), library)
        monkeypatch.chdir(tmp_path)
        Path("space.csv").write_text(serialize_space(library["space"]), encoding="utf-8")
        save_landscape(library["landscape"], "landscape.json")
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
        assert main(commands["ablation: sweep learning budget against fixed tree depth"]) == 0
        cells = [row.split("\t")[1:] for row in Path("grid.tsv").read_text(encoding="utf-8").splitlines()[2:]]
        assert cells == [["11", "11", "11"], ["12", "11", "11"], ["10", "11", "11"]]  # as the README says
