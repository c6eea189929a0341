"""Workload process of the d2dlan benchmark.

``bench/run.py`` starts this file once per measurement, with MCRCD_THREADS
removed so every replication runs serially on one core. The process prints
``setup_end <time.monotonic()>`` when warm-up is over and, unless it is a
set-up probe, a JSON report as its last line.

A workload is a sequence of cycles. A cycle is one pass over the workload's
K values, one library call per block, with inputs derived from the seed and
the cycle index only. The first ``ref_cycles`` cycles are the reference work:
the summary digest covers them, and the traced run repeats exactly them.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
SRC = HERE.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import d2dlan  # noqa: E402
from d2dlan import cli  # noqa: E402
from d2dlan.channel import rate_table  # noqa: E402
from d2dlan.scenarios import (ScenarioResult, SessionConfig,  # noqa: E402
                              generate_topology, run_multicast)

import tracing  # noqa: E402

ALL_SCENARIOS = ("multicast", "optimal", "mcrcd")
CYCLE_STRIDE = 10 ** 6     # master seed of cycle c under seed s: s * stride + c
SCREEN_STRIDE = 10 ** 3    # candidate master seeds tried per screened block
WARMUP_CYCLE = CYCLE_STRIDE - 1   # never reached by a measured cycle
WARMUP_RUNS = 2
CALIBRATION_LOOPS = 50_000
CALIBRATION_TABLE = np.random.default_rng(0).integers(
    0, 8, size=(16384, 8)).astype(np.int16)
CALIBRATION_RATES = np.random.default_rng(1).random((8, 8))
CALIBRATION_REF_S = 0.0125  # median of calibration_s() on the reference host
# the CLI writes floats at 12 significant digits: half a unit in the last
# digit is at most 5e-12 of the value
CSV_REL_ERR = 5e-12


@dataclass(frozen=True)
class Workload:
    name: str
    k_values: tuple[int, ...]
    scenarios: tuple[str, ...]
    runs: int          # replications per K in one cycle
    ref_cycles: int
    via_cli: bool = False    # blocks call cli.run_experiment
    screened: bool = False   # each block holds exactly one topology without
                             # a full-star seed (see screened_seed)


WORKLOADS = {
    w.name: w for w in (
        Workload("mcrcd_small", (3, 4, 5, 6), ("mcrcd",), runs=25,
                 ref_cycles=4),
        Workload("sweep_large", (12, 16, 24), ALL_SCENARIOS, runs=8,
                 ref_cycles=4, via_cli=True),
        Workload("planner_exact", (6, 7, 8), ("optimal",), runs=3,
                 ref_cycles=3, screened=True),
    )
}


@dataclass(frozen=True)
class Block:
    """One library call at one K: ``monte_carlo``, or ``run_experiment``
    for a CLI workload. Calls are kept short so that the calibration work
    timed between them follows the host's speed closely."""

    k: int
    master_seed: int
    runs: int


def has_full_star(topology) -> bool:
    """Some MU reaches every other MU directly at no less than its own
    cellular rate; the exact planner answers such topologies without a tree
    search."""
    rates = rate_table(topology)
    ok = rates.sr_rate >= rates.lr_rate[:, None]
    np.fill_diagonal(ok, True)
    return bool(ok.all(axis=1).any())


def screened_seed(k: int, base: int, runs: int) -> int:
    """First master seed from ``base * SCREEN_STRIDE`` on whose ``runs``
    topologies at K include exactly one without a full-star seed.

    About a third of uniform topologies lack one, and the exact planner
    spends ~1 s on each at K = 8 against ~0.3 ms on the rest. Fixing their
    count per block keeps the heavy tail in every cycle while removing the
    binomial spread of its share between seeds.
    """
    for candidate in range(base * SCREEN_STRIDE, (base + 1) * SCREEN_STRIDE):
        config = SessionConfig(mu_count=k, runs=runs, master_seed=candidate)
        heavy = sum(not has_full_star(generate_topology(config, i))
                    for i in range(runs))
        if heavy == 1:
            return candidate
    raise RuntimeError(f"no screened master seed for K={k} from base {base}")


def cycle_blocks(workload: Workload, seed: int, cycle: int,
                 runs: int | None = None) -> list[Block]:
    runs = workload.runs if runs is None else runs
    base = seed * CYCLE_STRIDE + cycle
    return [Block(k, screened_seed(k, base, runs) if workload.screened
                  else base, runs)
            for k in workload.k_values]


def warmup_blocks(workload: Workload) -> list[Block]:
    """Same blocks for every seed, so set-up does the same work each run."""
    return cycle_blocks(workload, 0, WARMUP_CYCLE, runs=WARMUP_RUNS)


# --- running blocks ---------------------------------------------------------

def execute(workload: Workload, block: Block, scratch: Path):
    """The timed library call. Returns a MonteCarloResult, or None once the
    CLI has written its CSV files into ``scratch``."""
    if not workload.via_cli:
        config = SessionConfig(mu_count=block.k, runs=block.runs,
                               master_seed=block.master_seed)
        return d2dlan.monte_carlo(config, workload.scenarios)
    spec = cli.ExperimentSpec(k_values=(block.k,), runs=block.runs,
                              seed=block.master_seed,
                              scenarios=workload.scenarios,
                              out=str(scratch / "results.csv"))
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.run_experiment(spec)
    if status != 0:
        raise RuntimeError(f"run_experiment returned {status}")
    return None


def read_csvs(scratch: Path) -> tuple[str, str]:
    out = scratch / "results.csv"
    return (out.read_text(encoding="utf-8"),
            Path(cli.summary_path(str(out))).read_text(encoding="utf-8"))


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    busy_s: float = 0.0        # inside library calls
    violations: list[str] = field(default_factory=list)
    digest_lines: list[str] = field(default_factory=list)


def calibration_s() -> float:
    """Seconds taken by fixed work: an interpreter-bound loop, then gathers
    and comparisons over a table like the planner's. The host this benchmark
    was built on drifts by up to ±25% in speed over a few seconds; timing
    this work next to every block lets each cycle's time be rescaled to the
    reference speed CALIBRATION_REF_S."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i * i % 7
    edge = CALIBRATION_RATES[CALIBRATION_TABLE, np.arange(8)[None, :]]
    thr = np.take_along_axis(edge, CALIBRATION_TABLE.astype(np.intp), axis=1)
    int((edge >= thr).all(axis=1).sum())
    return time.perf_counter() - start


@dataclass
class Cycle:
    done: int           # replications completed
    busy_s: float       # inside library calls
    ref_busy_s: float   # the same, at the reference host speed
    outputs: list       # [(block, output)]


def run_cycle(workload: Workload, blocks: list[Block], scratch: Path,
              tally: Tally, log) -> Cycle:
    """Run the blocks of one cycle, timing the calibration work before the
    first block and after each one. A block that raises counts all its
    replications as failed and the cycle goes on with the next block."""
    done = 0
    busy = 0.0
    outputs = []
    calibrations = [calibration_s()]
    for block in blocks:
        tally.attempted += block.runs
        start = time.perf_counter()
        try:
            output = execute(workload, block, scratch)
        except Exception:
            busy += time.perf_counter() - start
            tally.failed += block.runs
            log(f"block failed: workload={workload.name} "
                f"K={block.k} "
                f"master_seed={block.master_seed}\n{traceback.format_exc()}")
        else:
            busy += time.perf_counter() - start
            done += block.runs
            outputs.append((block, read_csvs(scratch) if workload.via_cli
                            else output))
        calibrations.append(calibration_s())
    tally.busy_s += busy
    return Cycle(done, busy,
                 busy * CALIBRATION_REF_S / statistics.median(calibrations),
                 outputs)


# --- output checks ----------------------------------------------------------

def _fmt(value: float) -> str:
    return f"{value:.12g}"


def block_runs(workload: Workload, output):
    """(K, run_id, {scenario: ScenarioResult}) per replication, plus the
    summary rows ``scenario,K,metric,mean,ci95`` at 12 significant digits.
    Multicast is computed here, untimed, when the workload does not run it."""
    if workload.via_cli:
        return _csv_runs(*output)
    result = output
    config = result.config
    k = config.mu_count
    runs = []
    for rec in result.records:
        results = dict(rec.results)
        if "multicast" not in results:
            results["multicast"] = run_multicast(
                generate_topology(config, rec.run_index), config)
        runs.append((k, rec.run_index, results))
    summary = [",".join([name, str(k), metric, _fmt(mean), _fmt(half)])
               for (name, metric), (mean, half) in result.summary().items()]
    return runs, summary


def _csv_runs(detail: str, summary: str):
    grouped: dict[tuple[int, int], dict[str, list]] = {}
    for row in csv.DictReader(io.StringIO(detail)):
        key = (int(row["K"]), int(row["run_id"]))
        cols = grouped.setdefault(key, {}).setdefault(
            row["scenario"], [[], [], [], [], []])
        cols[0].append(float(row["throughput_bps"]))
        cols[1].append(float(row["energy_j"]))
        cols[2].append(float(row["efficiency_bpj"]))
        if row["cev"]:
            cols[3].append(float(row["cev"]))
        cols[4].append(float(row["feasible"]))
    runs = []
    for (k, run_id), by_scenario in grouped.items():
        results = {
            name: ScenarioResult(
                scenario_tag=name, per_mu_throughput=tuple(thr),
                per_mu_energy=tuple(energy), per_mu_efficiency=tuple(eff),
                feasible_fraction=feasible[0],
                per_mu_cev=tuple(cev) if cev else None)
            for name, (thr, energy, eff, cev, feasible) in by_scenario.items()}
        runs.append((k, run_id, results))
    return runs, summary.splitlines()[1:]


def check_run(k: int, results: dict[str, ScenarioResult],
              rel_err: float = 0.0) -> list[str]:
    """Finite per-MU values, feasible fraction in [0, 1], and on runs where
    mcrcd found a feasible slot the criterion-4 dominance chain: per-MU
    efficiency mcrcd >= multicast and total energy optimal <= mcrcd <=
    multicast. Without mcrcd, the exact planner's total energy must not
    exceed multicast.

    ``rel_err`` bounds the relative rounding error of each value (values
    read back from CSV); a comparison fails only if it fails for every
    unrounded value consistent with what was read."""
    problems = []
    for name, res in results.items():
        columns = [res.per_mu_throughput, res.per_mu_energy,
                   res.per_mu_efficiency]
        if res.per_mu_cev is not None:
            columns.append(res.per_mu_cev)
        for column in columns:
            if len(column) != k or not all(math.isfinite(v) for v in column):
                problems.append(f"{name}: per-MU values not {k} finite numbers")
                break
        if not 0.0 <= res.feasible_fraction <= 1.0:
            problems.append(f"{name}: feasible_fraction "
                            f"{res.feasible_fraction} outside [0, 1]")
    if problems:
        return problems
    base = results["multicast"]
    prot = results.get("mcrcd")
    opt = results.get("optimal")
    tot_m = sum(base.per_mu_energy)

    def above(lower: float, upper: float) -> bool:
        """lower > upper + 1e-9 J, allowing for rounding of both totals."""
        return lower > upper + 1e-9 + rel_err * (abs(lower) + abs(upper))

    if prot is not None and prot.feasible_fraction > 0.0:
        for mu in range(k):
            if prot.per_mu_efficiency[mu] * (1 + rel_err) < \
                    base.per_mu_efficiency[mu] * (1 - rel_err) * (1 - 1e-12):
                problems.append(f"mcrcd efficiency below multicast at MU {mu}")
        tot_p = sum(prot.per_mu_energy)
        if above(tot_p, tot_m):
            problems.append("mcrcd total energy above multicast")
        if opt is not None and above(sum(opt.per_mu_energy), tot_p):
            problems.append("optimal total energy above mcrcd")
    elif prot is None and opt is not None \
            and above(sum(opt.per_mu_energy), tot_m):
        problems.append("optimal total energy above multicast")
    return problems


def check_outputs(workload: Workload, outputs: list, tally: Tally,
                  digest: bool) -> None:
    for block, output in outputs:
        runs, summary = block_runs(workload, output)
        rel_err = CSV_REL_ERR if workload.via_cli else 0.0
        for k, run_id, results in runs:
            for problem in check_run(k, results, rel_err):
                tally.violations.append(
                    f"{workload.name} K={k} master_seed={block.master_seed} "
                    f"run={run_id}: {problem}")
        if digest:
            tally.digest_lines.extend(summary)


def digest_of(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


# --- phases -----------------------------------------------------------------

def warm_up(workload: Workload, scratch: Path, log) -> None:
    tally = Tally()
    cycle = run_cycle(workload, warmup_blocks(workload), scratch, tally, log)
    if tally.failed:
        raise RuntimeError("warm-up failed")
    check_outputs(workload, cycle.outputs, tally, digest=False)


def measure(workload: Workload, seed: int, seconds: float, scratch: Path,
            log) -> dict:
    """Untraced timed phase: whole cycles until at least ``seconds`` were
    spent inside library calls and the reference work is done. Outputs are
    checked after each cycle, outside the timed calls."""
    tally = Tally()
    rates = []
    raw_rates = []
    n = 0
    while n < workload.ref_cycles or tally.busy_s < seconds:
        cycle = run_cycle(workload, cycle_blocks(workload, seed, n), scratch,
                          tally, log)
        rates.append(cycle.done / cycle.ref_busy_s)
        raw_rates.append(cycle.done / cycle.busy_s)
        check_outputs(workload, cycle.outputs, tally,
                      digest=n < workload.ref_cycles)
        n += 1
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "violations": tally.violations,
        "digest": digest_of(tally.digest_lines),
        "cycles": n,
        "cycle_rates": rates,
        "runs_per_s": statistics.median(rates),
        "raw_runs_per_s": statistics.median(raw_rates),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def traced(workload: Workload, seed: int, scratch: Path, log) -> dict:
    """The reference work, each cycle run untraced and then traced. Outputs
    of traced cycles are checked after the patches are removed. The tracing
    overhead is the median over cycles of traced against untraced time, both
    at the reference host speed."""
    plain = Tally()
    with_spans = Tally()
    tracer = tracing.Tracer()
    ratios = []
    for n in range(workload.ref_cycles):
        blocks = cycle_blocks(workload, seed, n)
        cycle = run_cycle(workload, blocks, scratch, plain, log)
        check_outputs(workload, cycle.outputs, plain, digest=True)
        with tracer:
            traced_cycle = run_cycle(workload, blocks, scratch, with_spans,
                                     log)
        check_outputs(workload, traced_cycle.outputs, with_spans, digest=True)
        ratios.append(traced_cycle.ref_busy_s / cycle.ref_busy_s)
    table = tracing.layer_table(tracer.spans)
    spans_path = OUT_DIR / f"spans-{workload.name}-seed{seed}.tsv.gz"
    tracer.write(spans_path)
    digest = digest_of(plain.digest_lines)
    violations = plain.violations + with_spans.violations
    if digest_of(with_spans.digest_lines) != digest:
        violations.append("traced run changed the summary")
    return {
        "attempted": plain.attempted + with_spans.attempted,
        "failed": plain.failed + with_spans.failed,
        "violations": violations,
        "digest": digest,
        "cycles": workload.ref_cycles,
        "per_layer": tracing.per_layer_metrics(
            table, with_spans.busy_s, statistics.median(ratios) - 1.0),
        "layers": {name: [entry.calls, entry.self_ns / 1e9]
                   for name, entry in table.items()},
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(HERE.parent)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="stop after warm-up (a set-up time sample)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    os.environ.pop("MCRCD_THREADS", None)
    workload = WORKLOADS[args.workload]

    def log(message: str) -> None:
        print(message, file=sys.stderr, flush=True)

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        scratch = Path(tmp)
        warm_up(workload, scratch, log)
        print(f"setup_end {time.monotonic()!r}", flush=True)
        if args.probe:
            return 0
        if args.trace:
            report = traced(workload, args.seed, scratch, log)
        else:
            report = measure(workload, args.seed, args.seconds, scratch, log)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
