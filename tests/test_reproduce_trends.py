import csv
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from d2dlan import SessionConfig, monte_carlo
from d2dlan.cli import summary_path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_trends.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("reproduce_trends", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_table_describes_the_csv_it_wrote(tmp_path, capsys):
    out = tmp_path / "trends.csv"
    status = _load_script().main(["--kmin", "3", "--kmax", "4", "--runs", "3",
                                  "--slots", "2", "--seed", "1",
                                  "--out", str(out)])
    assert status == 0
    lines = capsys.readouterr().out.splitlines()
    header = next(i for i, line in enumerate(lines) if line.split()[:1] == ["K"])
    table = {int(row.split()[0]): row.split() for row in lines[header + 1:]}
    assert sorted(table) == [3, 4]
    with open(summary_path(str(out)), newline="", encoding="utf-8") as fh:
        written = {(row["scenario"], int(row["K"]), row["metric"]): row["mean"]
                   for row in csv.DictReader(fh)}
    for k, (_, eff_m, eff_p, gain, feasible, cev) in table.items():
        # the CSV holds the belief-1.0 sessions, and the table is read from it
        mc = monte_carlo(SessionConfig(mu_count=k, slot_count=2, master_seed=1,
                                       runs=3, beliefs=1.0),
                         scenarios=("multicast", "mcrcd"))
        expected = np.mean(mc.run_scalars("mcrcd", "efficiency_bpj"))
        assert written["mcrcd", k, "efficiency_bpj"] == f"{expected:.12g}"
        assert eff_p == f"{expected:.4g}"
        assert eff_m == f"{float(written['multicast', k, 'efficiency_bpj']):.4g}"
        assert feasible == f"{float(written['mcrcd', k, 'feasible']):.3f}"
        assert cev == f"{float(written['mcrcd', k, 'cev']):.4f}"
        assert gain != "+0.0%"


@pytest.mark.parametrize("flag, value", [("--runs", "1"), ("--kmin", "1")])
def test_bad_argument_prints_one_error_line(tmp_path, capsys, flag, value):
    argv = ["--kmin", "3", "--kmax", "4", "--runs", "3", "--slots", "2",
            "--out", str(tmp_path / "trends.csv"), flag, value]
    assert _load_script().main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert not (tmp_path / "trends.csv").exists()
