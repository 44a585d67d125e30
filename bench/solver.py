"""Solver stand-in for the subprocess-cli benchmark workload.

Usage: python -S -E solver.py PROBLEM VALUE... [--budget B]

PROBLEM is a key=value file holding one problem of a synthetic landscape
(``base``, ``verdict``, ``optimum`` and ``weights``, the last two
``;``-separated); the VALUEs are the strategy's assignments in space order.
It prints ``c metric: M`` with M computed exactly as
``SyntheticLandscape.metric`` computes it, so a run through this script
replays the in-process synthetic trajectory.  Exit codes follow the DIMACS
convention: 10 SAT, 20 UNSAT.  When M exceeds the budget the run exits 0
(no answer) and still reports M, as the synthetic backend does.

It uses no argparse and imports nothing beyond ``sys``, so a launch costs
little more than interpreter start-up.
"""

import sys


def main(argv):
    budget = None
    if len(argv) >= 2 and argv[-2] == "--budget":
        budget = float(argv[-1])
        argv = argv[:-2]
    problem, values = argv[0], argv[1:]
    data = {}
    with open(problem, encoding="utf-8") as handle:
        for line in handle:
            key, _, value = line.strip().partition("=")
            data[key] = value
    optimum = data["optimum"].split(";")
    weights = [float(w) for w in data["weights"].split(";")]
    if len(values) != len(optimum):
        print(f"c expected {len(optimum)} parameter values, got {len(values)}")
        return 1
    penalty = 1.0 + sum(w for w, a, o in zip(weights, values, optimum) if a != o)
    metric = float(data["base"]) * penalty
    print(f"c metric: {metric!r}")
    if budget is not None and metric > budget:
        return 0
    return 10 if data["verdict"] == "SAT" else 20


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
