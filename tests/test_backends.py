"""Synthetic landscape, external subprocess adapter, and manifest handling."""

import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import backend_for, one_problem_backend
from stratlearn.backends import (
    ExternalBackend,
    ManifestError,
    MetricParseError,
    SolverAdapterConfig,
    SolverLaunchError,
    SolveOutcome,
    SyntheticBackend,
    SyntheticLandscape,
    UnexpectedExitCodeError,
    Verdict,
    geometric_schedule,
    load_adapter_config,
    load_landscape,
    load_manifest,
    parse_manifest,
    save_landscape,
    validate_template,
)
from stratlearn.space import Strategy, builtin_space, load_space, parse_space, serialize_space

STUB = Path(__file__).resolve().parents[1] / "scripts" / "stub_solver.py"


def make_landscape(**overrides):
    fields = dict(
        optimum=("0", "0"),
        weights=(0.5, 1.0),
        base_metrics=(100.0, 200.0, 400.0),
        verdicts=(Verdict.UNSAT, Verdict.UNSAT, Verdict.SAT),
    )
    fields.update(overrides)
    return SyntheticLandscape(**fields)


class TestSynthetic:
    def test_optimum_pays_base_metric(self):
        outcome = SyntheticBackend(make_landscape()).solve(1, Strategy(("0", "0")))
        assert outcome.metric == 100.0
        assert outcome.verdict is Verdict.UNSAT

    def test_one_mismatch_multiplies(self):
        outcome = SyntheticBackend(make_landscape()).solve(1, Strategy(("1", "0")))
        assert outcome.metric == 150.0

    def test_budget_exceeded_reports_aborted_with_metric(self):
        outcome = SyntheticBackend(make_landscape()).solve(1, Strategy(("1", "0")), budget=120.0)
        assert outcome.verdict is Verdict.ABORTED
        assert outcome.metric == 150.0

    def test_pure_function_of_inputs(self):
        backend = SyntheticBackend(make_landscape())
        a = backend.solve(2, Strategy(("1", "1")), budget=None)
        b = backend.solve(2, Strategy(("1", "1")), budget=None)
        assert a == b

    def test_index_out_of_range(self):
        with pytest.raises(IndexError, match="out of range"):
            SyntheticBackend(make_landscape()).solve(4, Strategy(("0", "0")))

    @pytest.mark.parametrize("index", [0, -1, 4])
    def test_metric_refuses_indices_outside_the_problems(self, index):
        # Read from the end, 0 and -1 would price problems 3 and 2.
        with pytest.raises(IndexError, match=rf"^index {index} out of range 1\.\.3$"):
            make_landscape().metric(index, Strategy(("0", "0")))

    def test_verdict_schedule_respected(self):
        assert SyntheticBackend(make_landscape()).solve(3, Strategy(("0", "0"))).verdict is Verdict.SAT

    @pytest.mark.parametrize(
        "overrides,message",
        [
            (dict(weights=(0.5, float("nan"))), "weights must be finite and nonnegative"),
            (dict(weights=(float("inf"), 1.0)), "weights must be finite and nonnegative"),
            (dict(weights=(-0.5, 1.0)), "weights must be finite and nonnegative"),
            (dict(base_metrics=(100.0, float("inf"), 400.0)), "base_metrics must be finite and positive"),
            (dict(base_metrics=(float("nan"), 200.0, 400.0)), "base_metrics must be finite and positive"),
            (dict(base_metrics=(0.0, 200.0, 400.0)), "base_metrics must be finite and positive"),
        ],
        ids=["nan_weight", "inf_weight", "negative_weight", "inf_base", "nan_base", "zero_base"],
    )
    def test_bad_numbers_rejected_naming_the_field(self, overrides, message):
        # NaN and Infinity are valid JSON to ``json.loads``, so a --landscape file can hold them.
        with pytest.raises(ValueError, match=message):
            make_landscape(**overrides)

    def test_json_round_trip(self, tmp_path):
        land = make_landscape()
        path = tmp_path / "land.json"
        save_landscape(land, path)
        assert load_landscape(path) == land
        # Any other key fails loudly: a file written for a drifting landscape must not simulate another one.
        # So does any JSON value but an object, even a list of the key names.
        text = path.read_text(encoding="utf-8")
        for name, edited in [("stale", text.replace('"optimum"', '"drift": [], "optimum"')),
                             ("partial", text.replace('"verdicts"', '"verdict"')),
                             ("number", "5"), ("null", "null"), ("names", json.dumps(list(json.loads(text))))]:
            bad = tmp_path / f"{name}.json"
            bad.write_text(edited, encoding="utf-8")
            with pytest.raises(ValueError, match=f"{name}.json: landscape keys must be .*, got"):
                load_landscape(bad)

    @pytest.mark.parametrize("key, value", [("optimum", "10"), ("weights", "12"), ("verdicts", "UN")],
                             ids=["optimum", "weights", "verdicts"])
    def test_string_field_rejected_naming_file_and_key(self, tmp_path, key, value):
        # A JSON string is iterable, so it would load character by character.
        path = tmp_path / "land.json"
        save_landscape(make_landscape(), path)
        data = json.loads(path.read_text(encoding="utf-8"))
        data[key] = value
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ValueError, match=f"land.json: landscape key '{key}' must be a JSON list"):
            load_landscape(path)

    @pytest.mark.parametrize(
        "key, values, kind",
        [
            ("weights", [0.5, None], "a JSON number"),
            ("weights", [0.5, True], "a JSON number"),
            ("weights", [0.5, "2.5"], "a JSON number"),
            ("optimum", ["0", None], "a JSON string"),
            ("verdicts", ["UNSAT", "X", "SAT"], r"one of \['SAT', 'UNSAT', 'ABORTED'\]"),
        ],
        ids=["weights_null", "weights_true", "weights_string", "optimum_null", "verdicts_unknown"],
    )
    def test_bad_element_rejected_naming_file_key_and_position(self, tmp_path, key, values, kind):
        # No element is coerced: a JSON true is not a number, and neither is the string "2.5".
        path = tmp_path / "land.json"
        save_landscape(make_landscape(), path)
        data = json.loads(path.read_text(encoding="utf-8"))
        data[key] = values
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ValueError, match=f"land.json: landscape key '{key}' at position 1 must be {kind}, got "):
            load_landscape(path)

    def test_geometric_schedule(self):
        assert geometric_schedule(2.0, 3.0, 3) == (2.0, 6.0, 18.0)

    def test_stub_backend_ignores_strategy(self):
        backend = backend_for(["UNSAT", "SAT"], metrics=[7.0, 9.0])
        assert backend.num_problems == 2
        outcome = backend.solve(2, Strategy(("anything",)))
        assert outcome.verdict is Verdict.SAT and outcome.metric == 9.0


@pytest.fixture
def one_param_space():
    return parse_space("name,default,alternatives\nchrono,1,0\n")


def write_problem(tmp_path, name, **fields):
    path = tmp_path / name
    path.write_text("".join(f"{k}={v}\n" for k, v in fields.items()), encoding="utf-8")
    return path


def adapter_for(problem_free_args: str = "") -> SolverAdapterConfig:
    return SolverAdapterConfig(
        command=f"{sys.executable} {STUB} {{problem}} --chrono {{chrono}}" + problem_free_args,
        metric_pattern=r"^c conflicts:\s*(\d+)",
        budget_flag="--conflicts {budget}",
    )


class TestExternalAdapter:
    def test_sat_exit_code_and_metric(self, tmp_path, one_param_space):
        problem = write_problem(tmp_path, "p.sat", verdict="SAT", conflicts=42)
        outcome = one_problem_backend(adapter_for(), one_param_space, problem).solve(1, Strategy(("1",)))
        assert outcome.verdict is Verdict.SAT
        assert outcome.metric == 42.0

    def test_unsat_with_zero_conflicts(self, tmp_path, one_param_space):
        problem = write_problem(tmp_path, "p.unsat", verdict="UNSAT", conflicts=0)
        outcome = one_problem_backend(adapter_for(), one_param_space, problem).solve(1, Strategy(("0",)))
        assert outcome.verdict is Verdict.UNSAT
        assert outcome.metric == 0.0

    def test_unexpected_exit_code(self, tmp_path, one_param_space):
        problem = write_problem(tmp_path, "p.bad", verdict="SAT", conflicts=1, exit=1)
        with pytest.raises(UnexpectedExitCodeError, match="unexpected exit code 1"):
            one_problem_backend(adapter_for(), one_param_space, problem).solve(1, Strategy(("1",)))

    def test_budget_passed_through_aborts(self, tmp_path, one_param_space):
        problem = write_problem(tmp_path, "p.hard", verdict="UNSAT", conflicts=500)
        outcome = one_problem_backend(adapter_for(), one_param_space, problem).solve(
            1, Strategy(("1",)), budget=100.0
        )
        assert outcome.verdict is Verdict.ABORTED
        assert outcome.metric == 100.0

    def test_aborted_run_without_a_metric_reports_its_budget(self, tmp_path, one_param_space):
        # exit=0 is exit_aborted, and the stub then prints no "c conflicts:" line.
        problem = write_problem(tmp_path, "p.silent", verdict="UNSAT", conflicts=500, exit=0)
        backend = one_problem_backend(adapter_for(), one_param_space, problem)
        assert backend.solve(1, Strategy(("1",)), budget=100.0) == SolveOutcome(Verdict.ABORTED, 100.0)
        with pytest.raises(MetricParseError, match="no metric matching"):
            backend.solve(1, Strategy(("1",)))

    def test_determinism_across_runs(self, tmp_path, one_param_space):
        problem = write_problem(tmp_path, "p.det", verdict="UNSAT", conflicts=321)
        outcomes = [
            one_problem_backend(adapter_for(), one_param_space, problem).solve(1, Strategy(("0",)))
            for _ in range(2)
        ]
        assert outcomes[0].metric == outcomes[1].metric == 321.0

    def test_launch_failure(self, one_param_space):
        config = SolverAdapterConfig(command="/definitely/not/a/solver {problem} {chrono}")
        with pytest.raises(SolverLaunchError):
            one_problem_backend(config, one_param_space, "p").solve(1, Strategy(("1",)))

    def test_metric_parse_failure(self, tmp_path, one_param_space):
        problem = write_problem(tmp_path, "p.sat", verdict="SAT", conflicts=5)
        config = adapter_for()
        broken = SolverAdapterConfig(
            command=config.command,
            metric_pattern=r"^c decisions:\s*(\d+)",
        )
        with pytest.raises(MetricParseError):
            one_problem_backend(broken, one_param_space, problem).solve(1, Strategy(("1",)))

    def test_non_numeric_metric_capture(self, tmp_path, one_param_space):
        problem = write_problem(tmp_path, "p.sat", verdict="SAT", conflicts=5)
        broken = SolverAdapterConfig(
            command=adapter_for().command,
            metric_pattern=r"^c (stub) solver",
        )
        with pytest.raises(MetricParseError, match="metric 'stub' captured by .* is not a number"):
            one_problem_backend(broken, one_param_space, problem).solve(1, Strategy(("1",)))

    @pytest.mark.parametrize("text", ["nan", "-3", "inf"])
    def test_non_finite_or_negative_metric_capture(self, tmp_path, text):
        # float() reads each of these, but none is an effort a run can report.
        space = parse_space(f"name,default,alternatives\nlevel,{text},1\n")
        config = SolverAdapterConfig(
            command=f"{sys.executable} {STUB} {{problem}} --level {{level}}",
            metric_pattern=r"^c options: --level (\S+)",
        )
        problem = write_problem(tmp_path, "p.sat", verdict="SAT", conflicts=5)
        with pytest.raises(MetricParseError, match=f"metric '{text}' captured by .* is not finite and nonnegative"):
            one_problem_backend(config, space, problem).solve(1, Strategy((text,)))

    def test_template_must_mention_each_parameter_once(self, one_param_space):
        with pytest.raises(ValueError, match="exactly once"):
            validate_template(SolverAdapterConfig(command="solver {problem}"), one_param_space)
        with pytest.raises(ValueError, match="exactly once"):
            validate_template(
                SolverAdapterConfig(command="solver {problem} {chrono} {chrono}"),
                one_param_space,
            )
        validate_template(adapter_for(), one_param_space)

    def test_external_backend_resolves_locators(self, tmp_path, one_param_space):
        p1 = write_problem(tmp_path, "p1", verdict="UNSAT", conflicts=10)
        p2 = write_problem(tmp_path, "p2", verdict="SAT", conflicts=20)
        manifest = parse_manifest(f"1\t{p1}\n2\t{p2}\n")
        backend = ExternalBackend(adapter_for(), one_param_space, manifest)
        assert backend.num_problems == 2
        assert backend.solve(1, Strategy(("1",))).verdict is Verdict.UNSAT
        assert backend.solve(2, Strategy(("1",))).metric == 20.0

    def test_both_backends_refuse_indices_outside_the_problems(self, monkeypatch, one_param_space):
        # A negative index would pick a problem from the end of the locators; none may launch a solver.
        monkeypatch.setattr(subprocess, "run", lambda *args, **kwargs: pytest.fail("launched a solver"))
        external = ExternalBackend(adapter_for(), one_param_space, ("p1", "p2"))
        synthetic = backend_for(["UNSAT", "SAT"])
        for backend in (external, synthetic):
            for index in (-2, -1, 0, 3):
                with pytest.raises(IndexError, match="out of range 1..2"):
                    backend.solve(index, Strategy(("1",)))

    def test_locator_with_shell_characters_is_one_argument(self, tmp_path, one_param_space):
        (tmp_path / "my dir").mkdir()
        (tmp_path / "it's").mkdir()
        p1 = write_problem(tmp_path / "my dir", "p1.problem", verdict="UNSAT", conflicts=10)
        p2 = write_problem(tmp_path / "it's", "p2.problem", verdict="SAT", conflicts=20)
        backend = ExternalBackend(adapter_for(), one_param_space, parse_manifest(f"1\t{p1}\n2\t{p2}\n"))
        assert backend.solve(1, Strategy(("1",))) == SolveOutcome(Verdict.UNSAT, 10.0)
        assert backend.solve(2, Strategy(("1",)), budget=50.0) == SolveOutcome(Verdict.SAT, 20.0)

    @pytest.mark.parametrize(
        "budget_flag,budget,budget_words",
        [
            ("--conflicts {budget}", None, []),
            ("--conflicts {budget}", 100.0, ["--conflicts", "100"]),
            ("--conflicts {budget}", 55.5, ["--conflicts", "55.5"]),
            ("'--limit={budget}'", 55.5, ["--limit=55.5"]),
            (None, 100.0, []),
        ],
        ids=["unbudgeted", "whole_budget", "fractional_budget", "quoted_flag", "no_budget_flag"],
    )
    def test_exact_argv_launched(self, tmp_path, monkeypatch, one_param_space, budget_flag, budget, budget_words):
        # An echo solver prints the words it was given; a quoted template word and a
        # locator holding a space and a quote must each arrive as one word, unchanged.
        echo = tmp_path / "echo_solver.py"
        echo.write_text("import json, sys\nprint(json.dumps(sys.argv[1:]))\nprint('c conflicts: 7')\n"
                        "sys.exit(10)\n", encoding="utf-8")
        stdouts = []
        real_run = subprocess.run

        def recording_run(*args, **kwargs):
            proc = real_run(*args, **kwargs)
            stdouts.append(proc.stdout)
            return proc

        monkeypatch.setattr(subprocess, "run", recording_run)
        config = SolverAdapterConfig(
            command=f"{shlex.quote(sys.executable)} {shlex.quote(str(echo))} "
                    "\"two words\" {problem} --chrono={chrono}",
            budget_flag=budget_flag,
        )
        locator = str(tmp_path / "it's a dir" / "p.cnf")
        backend = ExternalBackend(config, one_param_space, parse_manifest(f"1\t{locator}\n"))
        assert backend.solve(1, Strategy(("0",)), budget=budget) == SolveOutcome(Verdict.SAT, 7.0)
        assert len(stdouts) == 1
        argv = json.loads(stdouts[0].splitlines()[0])
        assert argv == ["two words", locator, "--chrono=0"] + budget_words


class TestAdapterConfigFile:
    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "adapter.cfg"
        path.write_text(
            "# my solver\n"
            "command = kissat {problem} --chrono={chrono}\n"
            "exit_sat = 10\n"
            "exit_unsat = 20\n"
            "metric_pattern = ^c conflicts:\\s*(\\d+)\n"
            "budget_flag = --conflicts {budget}\n",
            encoding="utf-8",
        )
        config = load_adapter_config(path)
        assert config.command == "kissat {problem} --chrono={chrono}"
        assert config.exit_sat == 10
        assert config.budget_flag == "--conflicts {budget}"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "adapter.cfg"
        path.write_text("command = x {problem}\nwhatever = 3\n", encoding="utf-8")
        with pytest.raises(ValueError, match="unknown adapter key"):
            load_adapter_config(path)

    def test_missing_command_rejected(self, tmp_path):
        path = tmp_path / "adapter.cfg"
        path.write_text("exit_sat = 10\n", encoding="utf-8")
        with pytest.raises(ValueError, match="command"):
            load_adapter_config(path)

    def test_non_integer_exit_code_names_file_and_line(self, tmp_path):
        path = tmp_path / "adapter.cfg"
        path.write_text("command = x {problem}\n# codes\nexit_sat = ten\n", encoding="utf-8")
        with pytest.raises(ValueError) as excinfo:
            load_adapter_config(path)
        assert str(excinfo.value) == f"{path}:3: exit_sat must be an integer, got 'ten'"

    def test_repeated_key_names_both_lines(self, tmp_path):
        # Read as a dict, the second template would silently replace the first.
        path = tmp_path / "adapter.cfg"
        path.write_text("command = x {problem}\n# again\ncommand = y {problem}\n", encoding="utf-8")
        with pytest.raises(ValueError) as excinfo:
            load_adapter_config(path)
        assert str(excinfo.value) == f"{path}:3: repeated adapter key 'command' (first set on line 1)"

    @pytest.mark.parametrize(
        "line,message",
        [
            ("command = solver {problem} --chrono '{chrono}",
             "command .* does not split into shell words: No closing quotation"),
            ("budget_flag = --conflicts {budgte}", r"budget_flag references unknown fields \['budgte'\]"),
            ("budget_flag = --conflicts", r"budget_flag must reference \{budget\} exactly once, found 0"),
            ("budget_flag = --conflicts {budget} --on {problem}",
             r"budget_flag references unknown fields \['problem'\]"),
            # exit_aborted defaults to 0, so every run that exits 0 would read as SAT.
            ("exit_sat = 0", "exit_sat and exit_aborted are both 0"),
            # Unchecked, every solve would raise a bare re.error.
            ("metric_pattern = ^c conflicts: ([0-9.]+",
             r"metric_pattern '\^c conflicts: \(\[0-9\.\]\+' is not a valid regex: missing \), unterminated subpattern"),
        ],
        ids=["unbalanced_quote", "misspelt_field", "no_value", "other_field", "shared_exit_code",
             "unbalanced_paren"],
    )
    def test_bad_template_fails_at_construction(self, tmp_path, one_param_space, line, message):
        # Unchecked, each would surface only at the first (budgeted) solve, mid-run.
        # A bad ``command`` line replaces the good one: a file may set each key once.
        lines = {"command": "command = solver {problem} --chrono {chrono}"}
        lines[line.split("=", 1)[0].strip()] = line
        path = tmp_path / "adapter.cfg"
        path.write_text("\n".join(lines.values()) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            ExternalBackend(load_adapter_config(path), one_param_space, parse_manifest("1\tp.cnf\n"))


class TestManifest:
    def test_three_entries(self, tmp_path):
        text = "1\ta.cnf\n2\tb.cnf\n3\tc.cnf\n"
        assert parse_manifest(text) == ("a.cnf", "b.cnf", "c.cnf")
        path = tmp_path / "manifest.tsv"
        path.write_text(text, encoding="utf-8")
        assert load_manifest(path) == ("a.cnf", "b.cnf", "c.cnf")

    def test_gap_rejected(self):
        for text, message in [("1\ta.cnf\n3\tc.cnf\n", "line 2: expected index 2, got '3'"),
                              ("# problems\none\ta.cnf\n", "line 2: expected index 1, got 'one'")]:
            with pytest.raises(ManifestError) as excinfo:
                parse_manifest(text)
            assert str(excinfo.value) == message

    def test_missing_locator_rejected(self):
        with pytest.raises(ManifestError, match="line 2: missing locator"):
            parse_manifest("1\ta.cnf\n2\t \n")

    @pytest.mark.parametrize("line", ["2\tb.cnf\tk=20", "2\tb.cnf\tk=20,s=10\tnote", "2\tb.cnf\t"],
                             ids=["third_column", "fourth_column", "trailing_tab"])
    def test_extra_columns_rejected_naming_the_line(self, line):
        # Nothing reads a column past the locator, so keeping one would ignore it silently.
        with pytest.raises(ManifestError) as excinfo:
            parse_manifest(f"# problems\n1\ta.cnf\n{line}\n")
        assert str(excinfo.value) == f"line 3: expected index<TAB>locator, got {line!r}"

    def test_indices_outside_one_to_n_rejected(self, monkeypatch, one_param_space):
        # The manifest is a plain tuple, so the backend holding it owns the 1..n check.
        monkeypatch.setattr(subprocess, "run", lambda *args, **kwargs: pytest.fail("launched a solver"))
        backend = ExternalBackend(adapter_for(), one_param_space, parse_manifest("1\ta.cnf\n2\tb.cnf\n"))
        for index in (-1, 0, 3):
            with pytest.raises(IndexError, match="out of range 1..2"):
                backend.solve(index, Strategy(("1",)))

    def test_comments_ignored(self):
        assert parse_manifest("# problems\n1\ta.cnf\n") == ("a.cnf",)


@pytest.mark.parametrize("load, text", [
    (load_space, serialize_space(builtin_space("kissat_small"))),
    (load_manifest, "1\ta.cnf\n2\tb.cnf\n"),
    (load_adapter_config, "command = kissat {problem}\nexit_sat = 10\n"),
    (load_landscape, json.dumps({"optimum": ["0"], "weights": [1.0], "base_metrics": [5.0], "verdicts": ["SAT"]})),
], ids=["space", "manifest", "adapter", "landscape"])
def test_byte_order_mark_is_skipped(tmp_path, load, text):
    # Spreadsheet "CSV UTF-8" exports start with one.
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_text(text, encoding="utf-8")
    marked.write_text("\ufeff" + text, encoding="utf-8")
    assert load(marked) == load(plain)
