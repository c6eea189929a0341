"""d2dlan benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` measures every workload in turn.

Run from a checkout of the repository; the library is imported from its
``src`` directory. With ``--trace 0`` the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics; with ``--trace 1`` the metrics are the per-layer ones from a traced
run. ``correct`` is false when any output check failed; the exit status is
0 whenever a result line was printed.

Each measurement runs in a fresh process (``harness.py``) with MCRCD_THREADS
removed. Set-up time is sampled in that process and in SETUP_PROBES earlier
processes that stop after warm-up; the median is reported.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# names of harness.WORKLOADS; the launcher imports neither numpy nor d2dlan
WORKLOADS = ("mcrcd_small", "sweep_large", "planner_exact")
DEFAULT_SEED = 1
SETUP_PROBES = 2
TIME_LIMIT_S = 170.0   # for all processes of one workload


class BenchError(RuntimeError):
    pass


def spawn(args: list[str], deadline: float) -> tuple[float, str]:
    """Run one workload process, killing it at ``deadline`` (monotonic
    seconds); returns (set-up seconds, its stdout)."""
    env = dict(os.environ)
    env.pop("MCRCD_THREADS", None)
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "harness.py"), *args],
                            stdout=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(deadline - start, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("workload process timed out")
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with {proc.returncode}")
    for line in out.splitlines():
        if line.startswith("setup_end "):
            return float(line.split()[1]) - start, out
    raise BenchError("workload process reported no set-up time")


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"; quartiles {q1:.4g} .. {q3:.4g}"


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Measure one workload, print its report and return the result object
    (``correct``, ``attempted``, ``failed``, ``metrics``)."""
    child_args = ["--workload", name, "--seed", str(seed),
                  "--seconds", repr(seconds), "--trace", str(trace)]
    deadline = time.monotonic() + TIME_LIMIT_S
    setups = [] if trace else [spawn(child_args + ["--probe"], deadline)[0]
                               for _ in range(SETUP_PROBES)]
    setup, out = spawn(child_args, deadline)
    try:
        report = json.loads(out.splitlines()[-1])
    except (json.JSONDecodeError, IndexError):
        raise BenchError("workload process printed no report")
    setups.append(setup)

    attempted = report["attempted"]
    failed = report["failed"]
    print(f"workload {name}, seed {seed}: {report['cycles']} cycles, "
          f"{attempted} replications attempted")
    print(f"  summary digest {report['digest']}")
    print(f"  failed_frac  {failed / attempted:.6g} ({failed}/{attempted})")
    if trace:
        metrics = report["per_layer"]
        print(f"  {report['spans']} spans written to {report['spans_file']}")
        print(f"  {'span':<34} {'calls':>9} {'self_s':>10}")
        for span, (calls, self_s) in sorted(report["layers"].items(),
                                            key=lambda kv: -kv[1][1]):
            print(f"  {span:<34} {calls:>9} {self_s:>10.4f}")
        for key, metric in metrics.items():
            print(f"  {key:<42} {metric['value']:.6g} {metric['unit']}")
    else:
        metrics = {
            "runs_per_s": {"value": report["runs_per_s"], "unit": "1/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
        print(f"  runs_per_s   {report['runs_per_s']:.6g} 1/s at reference "
              f"speed (median of {report['cycles']} cycles"
              f"{_quartiles(report['cycle_rates'])}; as timed "
              f"{report['raw_runs_per_s']:.6g})")
        print(f"  setup_s      {statistics.median(setups):.6g} s (median of "
              f"{len(setups)} processes: "
              f"{', '.join(f'{s:.4g}' for s in setups)})")
        print(f"  peak_rss_mb  {report['peak_rss_mb']:.6g} MB")
    for violation in report["violations"]:
        print(f"  check failed: {violation}")
    return {"correct": not report["violations"], "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="d2dlan benchmark (see bench/README.md)")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (ROOT / "src" / "d2dlan" / "__init__.py").is_file():
        print(f"error: no d2dlan sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args.seed, args.seconds,
                                      args.trace) for name in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # with "all", the last line maps each workload to its result object
    print(json.dumps(results if args.workload == "all"
                     else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
