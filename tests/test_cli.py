import pytest

from conftest import FIXTURES

from d2dlan import scenarios
from d2dlan.cli import (ConfigError, ExperimentSpec, main, parse_config,
                        run_experiment, spec_from_args, build_parser,
                        summary_path)


def test_parse_config_basic():
    spec = parse_config("mu_count = 6\nruns = 100\n")
    assert spec.k_values == (6,)
    assert spec.runs == 100
    assert spec.slots == 10
    assert spec.seed == 1


def test_parse_config_empty_gives_defaults():
    spec = parse_config("")
    assert spec == ExperimentSpec()
    assert spec.k_values == ()


def test_parse_config_comments_and_sweep():
    spec = parse_config("# experiment\nsweep_k = 4:6  # inclusive\nscenario = mcrcd\n")
    assert spec.k_values == (4, 5, 6)
    assert spec.scenarios == ("mcrcd",)


def test_parse_config_range_error():
    with pytest.raises(ConfigError, match="mu_count"):
        parse_config("mu_count = 1")
    with pytest.raises(ConfigError, match="sweep_k"):
        parse_config("sweep_k = 6:4")
    with pytest.raises(ConfigError, match="beliefs"):
        parse_config("beliefs = 1.4")


@pytest.mark.parametrize("key", ["area_side", "beliefs"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_parse_config_rejects_non_finite(key, value):
    with pytest.raises(ConfigError, match=f"key '{key}' must be finite"):
        parse_config(f"{key} = {value}")


def test_parse_config_unknown_key():
    with pytest.raises(ConfigError, match="unknown key 'mu_cnt'"):
        parse_config("mu_cnt = 4")


def test_parse_config_malformed_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("runs = 10\nnot a key value\n")


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("mu_count = 6\nruns = 50\nout = from_config.csv\n")
    parser = build_parser()
    args = parser.parse_args(["--config", str(cfg), "--k", "4",
                              "--runs", "10", "--out", "cli.csv"])
    spec = spec_from_args(args)
    assert spec.k_values == (4,)
    assert spec.runs == 10
    assert spec.out == "cli.csv"


def test_flags_mutually_exclusive():
    parser = build_parser()
    args = parser.parse_args(["--k", "4", "--sweep-k", "3:5"])
    with pytest.raises(ConfigError):
        spec_from_args(args)


def test_run_experiment_requires_k(capsys):
    assert run_experiment(ExperimentSpec()) == 2
    assert "no MU count" in capsys.readouterr().err


def small_spec(tmp_path, **kw):
    defaults = dict(k_values=(3,), runs=2, slots=2,
                    out=str(tmp_path / "res.csv"),
                    scenarios=("multicast", "mcrcd"))
    defaults.update(kw)
    return ExperimentSpec(**defaults)


def test_run_experiment_writes_csvs(tmp_path, capsys):
    spec = small_spec(tmp_path)
    assert run_experiment(spec) == 0
    detail = (tmp_path / "res.csv").read_text().splitlines()
    summary = (tmp_path / "res.summary.csv").read_text().splitlines()
    assert detail[0] == ("scenario,K,run_id,mu_id,throughput_bps,energy_j,"
                         "efficiency_bpj,cev,feasible")
    assert summary[0] == "scenario,K,metric,mean,ci95_halfwidth"
    # one detail row per scenario, run and MU
    assert len(detail) == 1 + 2 * 2 * 3
    # multicast rows carry an empty CEV column
    multicast_rows = [r for r in detail[1:] if r.startswith("multicast")]
    assert multicast_rows and all(r.split(",")[7] == "" for r in multicast_rows)
    out = capsys.readouterr().out
    assert "scenario" in out and "res.csv" in out


def test_run_experiment_sweep_row_counts(tmp_path):
    spec = small_spec(tmp_path, k_values=(3, 4), scenarios=("multicast",))
    assert run_experiment(spec) == 0
    detail = (tmp_path / "res.csv").read_text().splitlines()
    assert len(detail) == 1 + 2 * (3 + 4)
    summary = (tmp_path / "res.summary.csv").read_text().splitlines()
    # per (scenario, K): throughput, energy, efficiency, feasible
    assert len(summary) == 1 + 2 * 4


def test_run_experiment_deterministic(tmp_path):
    spec_a = small_spec(tmp_path, out=str(tmp_path / "a.csv"))
    spec_b = small_spec(tmp_path, out=str(tmp_path / "b.csv"))
    assert run_experiment(spec_a) == 0
    assert run_experiment(spec_b) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.summary.csv").read_bytes() == \
        (tmp_path / "b.summary.csv").read_bytes()


def test_run_experiment_io_failure(tmp_path, capsys):
    spec = small_spec(tmp_path, out=str(tmp_path / "missing" / "res.csv"))
    assert run_experiment(spec) == 1
    assert "cannot write" in capsys.readouterr().err


def test_main_end_to_end(tmp_path, capsys):
    out = tmp_path / "cli.csv"
    code = main(["--k", "3", "--runs", "2", "--slots", "2",
                 "--scenario", "multicast", "--seed", "7", "--out", str(out)])
    assert code == 0
    assert out.exists()
    assert summary_path(str(out)) == str(tmp_path / "cli.summary.csv")


def test_main_config_error(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mu_count = 1\n")
    assert main(["--config", str(cfg)]) == 2
    assert "error" in capsys.readouterr().err


def test_main_missing_config_file(capsys):
    assert main(["--config", "/nonexistent/path.cfg"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_main_reports_failing_replication(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("MCRCD_THREADS", raising=False)

    def broken(topology, config):
        raise RuntimeError("injected")

    monkeypatch.setitem(scenarios.SCENARIO_RUNNERS, "multicast", broken)
    code = main(["--k", "3", "--runs", "2", "--scenario", "multicast",
                 "--seed", "5", "--out", str(tmp_path / "r.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "K=3 master_seed=5 run_index=0" in err
    assert "RuntimeError: injected" in err


@pytest.mark.parametrize("k", [6, 12])
def test_golden_csvs(tmp_path, capsys, k):
    # K = 6 runs the exact planner, K = 12 the heuristic one; mcrcd saves
    # energy in some runs of both
    cfg = tmp_path / "golden.cfg"
    cfg.write_text("runs = 8\nseed = 2\nscenario = all\nbeliefs = 1.0\n")
    out = tmp_path / f"golden_k{k}.csv"
    assert main(["--config", str(cfg), "--k", str(k), "--out", str(out)]) == 0
    for name in (out.name, f"golden_k{k}.summary.csv"):
        assert (tmp_path / name).read_bytes() == \
            (FIXTURES / name).read_bytes(), name
