#!/usr/bin/env python3
"""Reproduce the population-size trend study.

Sweeps the MU count over a fixed deployment area with all three content
delivery scenarios, writes the detail/summary CSVs, and prints the headline
quantities, read back from the summary CSV: energy efficiency against the
multicast baseline, the LP feasibility rate, and the mean cooperation
threshold. Every MU believes the session continues (belief 1.0).

Usage:
    python scripts/reproduce_trends.py [--kmin 3] [--kmax 12] [--runs 100]
                                       [--seed 1] [--out trends.csv]
"""

import argparse
import csv
import sys
from dataclasses import replace

from d2dlan import ReplicationError
from d2dlan.cli import build_parser, run_experiment, spec_from_args, summary_path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kmin", type=int, default=3)
    parser.add_argument("--kmax", type=int, default=12)
    parser.add_argument("--runs", type=int, default=100)
    parser.add_argument("--slots", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default="trends.csv")
    args = parser.parse_args(argv)

    # the d2dlan command line checks the values and reports errors alike
    cli_args = build_parser().parse_args([
        "--sweep-k", f"{args.kmin}:{args.kmax}", "--runs", str(args.runs),
        "--slots", str(args.slots), "--seed", str(args.seed),
        "--scenario", "all", "--out", args.out])
    try:
        spec = replace(spec_from_args(cli_args), beliefs=1.0)
        status = run_experiment(spec)
    except (ValueError, ReplicationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if status != 0:
        return status
    with open(summary_path(spec.out), newline="", encoding="utf-8") as fh:
        means = {(row["scenario"], int(row["K"]), row["metric"]):
                 float(row["mean"]) for row in csv.DictReader(fh)}

    print()
    print(f"{'K':>3} {'multicast':>12} {'mcrcd':>12} {'gain':>8} "
          f"{'feasible':>9} {'mean CEV':>9}")
    for k in spec.k_values:
        eff_m = means["multicast", k, "efficiency_bpj"]
        eff_p = means["mcrcd", k, "efficiency_bpj"]
        feasible = means["mcrcd", k, "feasible"]
        cev = means.get(("mcrcd", k, "cev"), float("nan"))
        print(f"{k:>3} {eff_m:>12.4g} {eff_p:>12.4g} "
              f"{eff_p / eff_m - 1:>+7.1%} {feasible:>9.3f} {cev:>9.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
