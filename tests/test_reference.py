"""Every drawn run equals ``tests/helpers.py::reference_run``, the calculus written out plainly, event for event."""

import dataclasses

from hypothesis import given, settings

from helpers import reference_run, run_cases


@settings(max_examples=400, deadline=2000)
@given(run_cases())
def test_run_equals_the_reference(case):
    result = case.run()
    outcome, events = reference_run(case.landscape, case.policy, case.space, seed=case.seed,
                                    beta=case.sampler_config.beta, forest_config=case.forest_config,
                                    time_limit=case.time_limit)
    assert result.outcome.value == outcome
    assert [dataclasses.astuple(event) for event in result.trajectory] == events
