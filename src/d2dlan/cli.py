"""Batch experiment driver: config files, K-sweeps, CSV emission.

Detail CSV schema (one row per scenario, K, run, MU):
    scenario,K,run_id,mu_id,throughput_bps,energy_j,efficiency_bpj,cev,feasible
Summary CSV schema (one row per scenario, K, metric):
    scenario,K,metric,mean,ci95_halfwidth
Floats carry 12 significant digits; reruns with the same spec and seed are
byte-identical.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace

from .scenarios import (MonteCarloResult, ReplicationError, SessionConfig,
                        monte_carlo, RUN_METRICS)

SCENARIO_CHOICES = ("multicast", "optimal", "mcrcd", "all")
ALL_SCENARIOS = ("multicast", "optimal", "mcrcd")

DETAIL_HEADER = ("scenario,K,run_id,mu_id,throughput_bps,energy_j,"
                 "efficiency_bpj,cev,feasible")
SUMMARY_HEADER = "scenario,K,metric,mean,ci95_halfwidth"


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentSpec:
    k_values: tuple[int, ...] = ()
    runs: int = 100
    slots: int = 10
    seed: int = 1
    scenarios: tuple[str, ...] = ALL_SCENARIOS
    out: str = "results.csv"
    area_side: float = 400.0
    beliefs: float = 0.9
    max_hops: int = 4


def _parse_int(value: str, key: str, line_no: int, minimum: int | None = None) -> int:
    try:
        parsed = int(value)
    except ValueError:
        raise ConfigError(f"line {line_no}: key '{key}' needs an integer, got {value!r}")
    if minimum is not None and parsed < minimum:
        raise ConfigError(f"line {line_no}: key '{key}' must be >= {minimum}, got {parsed}")
    return parsed


def _parse_float(value: str, key: str, line_no: int,
                 low: float | None = None, high: float | None = None) -> float:
    try:
        parsed = float(value)
    except ValueError:
        raise ConfigError(f"line {line_no}: key '{key}' needs a number, got {value!r}")
    if low is not None and parsed < low:
        raise ConfigError(f"line {line_no}: key '{key}' must be >= {low}")
    if high is not None and parsed > high:
        raise ConfigError(f"line {line_no}: key '{key}' must be <= {high}")
    return parsed


def _parse_sweep(value: str, line_no: int) -> tuple[int, ...]:
    parts = value.split(":")
    if len(parts) != 2:
        raise ConfigError(f"line {line_no}: sweep_k needs MIN:MAX, got {value!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise ConfigError(f"line {line_no}: sweep_k needs integer bounds, got {value!r}")
    if lo < 2 or lo > hi:
        raise ConfigError(f"line {line_no}: sweep_k needs 2 <= MIN <= MAX, got {value!r}")
    return tuple(range(lo, hi + 1))


def parse_config(text: str) -> ExperimentSpec:
    """Parse `key = value` lines (# comments) into an experiment spec.
    Unknown keys and out-of-range values are errors; missing keys fall back
    to the documented defaults."""
    spec = ExperimentSpec()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not value:
            raise ConfigError(f"line {line_no}: key '{key}' has no value")
        if key == "mu_count":
            spec = replace(spec, k_values=(_parse_int(value, key, line_no, minimum=2),))
        elif key == "sweep_k":
            spec = replace(spec, k_values=_parse_sweep(value, line_no))
        elif key == "runs":
            spec = replace(spec, runs=_parse_int(value, key, line_no, minimum=2))
        elif key == "slots":
            spec = replace(spec, slots=_parse_int(value, key, line_no, minimum=1))
        elif key == "seed":
            spec = replace(spec, seed=_parse_int(value, key, line_no, minimum=0))
        elif key == "scenario":
            if value not in SCENARIO_CHOICES:
                raise ConfigError(
                    f"line {line_no}: scenario must be one of {'|'.join(SCENARIO_CHOICES)}")
            spec = replace(spec, scenarios=ALL_SCENARIOS if value == "all" else (value,))
        elif key == "out":
            spec = replace(spec, out=value)
        elif key == "area_side":
            spec = replace(spec, area_side=_parse_float(value, key, line_no, low=1e-9))
        elif key == "beliefs":
            spec = replace(spec, beliefs=_parse_float(value, key, line_no, low=0.0, high=1.0))
        elif key == "max_hops":
            spec = replace(spec, max_hops=_parse_int(value, key, line_no, minimum=1))
        else:
            raise ConfigError(f"line {line_no}: unknown key '{key}'")
    return spec


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _detail_rows(k: int, result: MonteCarloResult) -> list[str]:
    rows = []
    for rec in result.records:
        for name in result.scenarios:
            res = rec.results[name]
            for mu in range(k):
                cev = ""
                if res.per_mu_cev is not None:
                    cev = _fmt(res.per_mu_cev[mu])
                rows.append(",".join([
                    name, str(k), str(rec.run_index), str(mu),
                    _fmt(res.per_mu_throughput[mu]),
                    _fmt(res.per_mu_energy[mu]),
                    _fmt(res.per_mu_efficiency[mu]),
                    cev,
                    _fmt(res.feasible_fraction),
                ]))
    return rows


def _summary_rows(k: int, result: MonteCarloResult) -> list[str]:
    rows = []
    summary = result.summary()
    for name in result.scenarios:
        for metric in RUN_METRICS:
            if (name, metric) not in summary:
                continue
            mean, half = summary[(name, metric)]
            rows.append(",".join([name, str(k), metric, _fmt(mean), _fmt(half)]))
    return rows


def summary_path(out: str) -> str:
    if out.endswith(".csv"):
        return out[:-4] + ".summary.csv"
    return out + ".summary.csv"


def run_experiment(spec: ExperimentSpec) -> int:
    """Run the sweep and write the detail and summary CSV files; returns a
    process exit status."""
    if not spec.k_values:
        print("error: no MU count given (set mu_count/sweep_k or pass --k/--sweep-k)",
              file=sys.stderr)
        return 2
    detail_lines = [DETAIL_HEADER]
    summary_lines = [SUMMARY_HEADER]
    printable = []
    for k in spec.k_values:
        config = SessionConfig(
            mu_count=k, slot_count=spec.slots, area_side=spec.area_side,
            master_seed=spec.seed, runs=spec.runs, beliefs=spec.beliefs,
            max_hops=spec.max_hops,
        )
        result = monte_carlo(config, scenarios=spec.scenarios)
        detail_lines.extend(_detail_rows(k, result))
        rows = _summary_rows(k, result)
        summary_lines.extend(rows)
        printable.extend(rows)
    try:
        with open(spec.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(detail_lines) + "\n")
        with open(summary_path(spec.out), "w", encoding="utf-8") as fh:
            fh.write("\n".join(summary_lines) + "\n")
    except OSError as exc:
        print(f"error: cannot write results: {exc}", file=sys.stderr)
        return 1
    print(f"{'scenario':<10} {'K':>3} {'metric':<16} {'mean':>16} {'ci95':>14}")
    for row in printable:
        name, k, metric, mean, half = row.split(",")
        print(f"{name:<10} {k:>3} {metric:<16} {mean:>16} {half:>14}")
    print(f"detail: {spec.out}")
    print(f"summary: {summary_path(spec.out)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="d2dlan",
        description="Energy-aware D2D LAN experiment driver",
    )
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--k", type=int, help="MU count (2 or more)")
    parser.add_argument("--sweep-k", help="sweep MU counts, MIN:MAX")
    parser.add_argument("--runs", type=int, help="Monte Carlo replications")
    parser.add_argument("--slots", type=int, help="slots per session")
    parser.add_argument("--seed", type=int, help="master RNG seed")
    parser.add_argument("--scenario", choices=SCENARIO_CHOICES,
                        help="scenario selection")
    parser.add_argument("--out", help="detail CSV path")
    return parser


def spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                spec = parse_config(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}")
    else:
        spec = ExperimentSpec()
    if args.k is not None and args.sweep_k is not None:
        raise ConfigError("--k and --sweep-k are mutually exclusive")
    if args.k is not None:
        if args.k < 2:
            raise ConfigError("--k must be at least 2")
        spec = replace(spec, k_values=(args.k,))
    if args.sweep_k is not None:
        spec = replace(spec, k_values=_parse_sweep(args.sweep_k, 0))
    if args.runs is not None:
        if args.runs < 2:
            raise ConfigError("--runs must be at least 2")
        spec = replace(spec, runs=args.runs)
    if args.slots is not None:
        if args.slots < 1:
            raise ConfigError("--slots must be at least 1")
        spec = replace(spec, slots=args.slots)
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError("--seed must be nonnegative")
        spec = replace(spec, seed=args.seed)
    if args.scenario is not None:
        spec = replace(spec, scenarios=ALL_SCENARIOS if args.scenario == "all"
                       else (args.scenario,))
    if args.out is not None:
        spec = replace(spec, out=args.out)
    return spec


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        spec = spec_from_args(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return run_experiment(spec)
    except (ValueError, ReplicationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
