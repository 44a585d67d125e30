#!/usr/bin/env python3
"""Sweep learning budget against tree depth and write a heat-map matrix.

Example:
    python scripts/run_ablation.py --space space.csv --landscape land.json \
        --time-limit 40000 --virtual-clock --budgets 500,12000 --depths 1,2,4 \
        --out grid.tsv

Every flag other than ``--budgets`` and ``--depths`` is a ``stratlearn`` run
flag; ``--out`` names the grid file.
"""

import argparse
import sys

from stratlearn.cli import ablation_grid, parse_args


def _floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",")]


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Sweep learning budget against tree depth; "
        "remaining flags are passed to the stratlearn run parser.",
        allow_abbrev=False,
    )
    parser.add_argument("--budgets", type=_floats, required=True,
                        help="comma-separated absolute learning budgets")
    parser.add_argument("--depths", type=_ints, required=True,
                        help="comma-separated fixed tree depths")
    ns, rest = parser.parse_known_args(argv)
    config = parse_args(rest)
    grid = ablation_grid(config, ns.budgets, ns.depths)
    print("budget\\depth\t" + "\t".join(str(d) for d in grid.depths))
    for budget, row in zip(grid.budgets, grid.largest_solved):
        print(f"{budget:g}\t" + "\t".join("-" if c is None else str(c) for c in row))
    if config.out:
        print(f"grid written to {config.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
