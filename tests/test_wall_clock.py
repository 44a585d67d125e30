"""The wall clock, made deterministic: a fake ``perf_counter`` that only known work advances.

``stratlearn.trajectory.time`` is replaced by a fake whose reading moves only
when a backend call, a fit, a prediction or a chain step advances it by a
fixed number of seconds.  Each event's time is then known exactly: every
duration below is a binary fraction, so the float sums are exact too.
"""

import pytest

from helpers import FakeTime, convergence_landscape
from stratlearn import cli, engine
from stratlearn.backends import SyntheticBackend, save_landscape
from stratlearn.engine import EpochPolicy, ForestConfig, Outcome, run, summarize
from stratlearn.space import builtin_space, serialize_space
from stratlearn.trajectory import Trajectory

SPACE = builtin_space("kissat_small")
CALL_S = 1.0  # every backend call, main solve or collection run
FIT_S = 2.0
PREDICT_S = 0.03125
STEP_S = 2.0**-6


@pytest.fixture
def fake_time(monkeypatch):
    fake = FakeTime()
    monkeypatch.setattr("stratlearn.trajectory.time", fake)
    return fake


class TimedBackend(SyntheticBackend):
    """A synthetic backend each of whose calls takes ``CALL_S`` seconds on the fake clock."""

    def __init__(self, landscape, fake):
        super().__init__(landscape)
        self.fake = fake

    def solve(self, index, strategy, budget=None):
        self.fake.advance(CALL_S)
        return super().solve(index, strategy, budget)


def learning_run(fake, budget):
    policy = EpochPolicy(samples_per_epoch=4, learning_budget=budget, strategize_samples=20)
    return run(TimedBackend(convergence_landscape(12), fake), policy, space=SPACE, seed=1,
               forest_config=ForestConfig(trees=3), clock="wall")


def test_solve_and_collect_events_take_their_seconds(fake_time):
    result = learning_run(fake_time, budget=1e6)
    calls = [e for e in result.trajectory if e.phase in ("solve", "collect")]
    assert result.trajectory.phase_events("collect")
    assert all(e.virtual_time == CALL_S != e.raw_metric for e in calls)


def test_train_and_strategize_events_carry_their_compute_seconds(fake_time, monkeypatch):
    fit_adaptive, predict, predictions = engine.fit_adaptive, engine.predict, []

    def slow_fit(*args):
        fake_time.advance(FIT_S)
        return fit_adaptive(*args)

    def slow_predict(*args):
        fake_time.advance(PREDICT_S)
        predictions.append(args)
        return predict(*args)

    monkeypatch.setattr(engine, "fit_adaptive", slow_fit)
    monkeypatch.setattr(engine, "predict", slow_predict)
    result = learning_run(fake_time, budget=1e6)
    trains = result.trajectory.phase_events("train")
    strategizes = result.trajectory.phase_events("strategize")
    assert trains and strategizes
    assert all(e.virtual_time == FIT_S for e in trains)
    assert all(e.virtual_time > 0 for e in strategizes)
    assert sum(e.virtual_time for e in strategizes) == len(predictions) * PREDICT_S


def test_events_partition_the_run_including_the_chains_own_steps(fake_time, monkeypatch):
    run_chain = engine.run_chain

    def slow_chain(space, cost_fn, *args, **kwargs):
        def timed_cost(rank):
            fake_time.advance(STEP_S)  # the chain's own compute, outside any backend call
            return cost_fn(rank)
        return run_chain(space, timed_cost, *args, **kwargs)

    monkeypatch.setattr(engine, "run_chain", slow_chain)
    start = fake_time.now
    result = learning_run(fake_time, budget=1e6)
    assert result.trajectory.phase_events("collect") and result.trajectory.phase_events("strategize")
    assert result.trajectory.cumulative_time == fake_time.now - start


def test_budget_in_seconds_admits_and_refuses_epochs_by_seconds(fake_time):
    budget, estimate = 10.0, 4 * CALL_S  # samples_per_epoch reruns of a CALL_S solve
    result = learning_run(fake_time, budget=budget)
    trajectory = result.trajectory
    # Replay the admissions from the count of collection calls, each CALL_S seconds.
    spent, admitted, refused = 0.0, 0, 0
    events = trajectory.events
    for position, event in enumerate(events[:-1]):
        if event.phase != "solve":
            spent += CALL_S if event.phase == "collect" else 0.0
            continue
        learned = events[position + 1].phase in ("collect", "train")
        assert learned == (spent + estimate <= budget)
        admitted, refused = admitted + learned, refused + (not learned)
    assert admitted >= 2 and refused >= 1
    assert trajectory.learning_time == summarize(trajectory, result.outcome).learning_time == spent
    assert spent <= budget + estimate


def test_time_limit_ends_the_cli_run_on_trajectory_time(fake_time, monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "SyntheticBackend", lambda landscape: TimedBackend(landscape, fake_time))
    space_path, land_path = tmp_path / "space.csv", tmp_path / "land.json"
    space_path.write_text(serialize_space(SPACE), encoding="utf-8")
    save_landscape(convergence_landscape(12), land_path)
    result, summary = cli.execute(cli.parse_args([
        "--space", str(space_path), "--landscape", str(land_path), "--seed", "1",
        "--time-limit", "12", "--budget-seconds", "6", "--samples-per-epoch", "2",
        "--strategize-samples", "10", "--trees", "3",
    ]))
    assert result.outcome is Outcome.TIME_LIMIT
    assert summary.cumulative_time == result.trajectory.cumulative_time >= 12
    assert result.trajectory.phase_events("collect")  # learning time counts toward the limit
    for event in result.trajectory.phase_events("solve"):  # each began before the limit
        assert event.cumulative_time - event.virtual_time < 12


def test_unknown_clock_mode_is_refused():
    with pytest.raises(ValueError, match="unknown clock mode 'sundial'"):
        Trajectory("sundial")
