import json
import os

import numpy as np
import pytest

from lblab import cli, harness
from lblab.harness import (EXIT_CONFIG, EXIT_OK, ConfigError, ExperimentConfig,
                           cmd_envelope, cmd_fig1, cmd_sampling_compare,
                           cmd_trace, load_config, log_slope_fit, verify_all,
                           verify_report, worker_count, write_csv, write_svg)
from lblab.polynomials import poly_from_json


def small_cfg(**kw):
    base = dict(iterations=20, seeds=5, grid_points=5, n=8, d=4,
                optimizers=("sag", "saga"))
    base.update(kw)
    return load_config(None, **base)


def test_load_config_defaults_and_overrides():
    cfg = load_config(None)
    assert cfg.family == "fsm"
    assert cfg.kappa == 100.0
    cfg = load_config(None, n=16, L=50.0)
    assert cfg.n == 16
    assert cfg.kappa == 50.0


def test_load_config_file(tmp_path):
    p = tmp_path / "exp.ini"
    p.write_text("[experiment]\nn = 16\nlam = 0.02\noptimizers = sag, svrg\n")
    cfg = load_config(str(p))
    assert cfg.n == 16
    assert cfg.lam == 0.02
    assert cfg.optimizers == ("sag", "svrg")


def test_load_config_rejects_unknown_key(tmp_path):
    p = tmp_path / "exp.ini"
    p.write_text("[experiment]\nnot_a_key = 1\n")
    with pytest.raises(ConfigError):
        load_config(str(p))
    with pytest.raises(ConfigError):
        load_config(None, bogus=1)


def test_load_config_rejects_bad_value(tmp_path):
    p = tmp_path / "exp.ini"
    p.write_text("[experiment]\nn = lots\n")
    with pytest.raises(ConfigError):
        load_config(str(p))
    with pytest.raises(ConfigError):
        load_config("/nonexistent/path.ini")


def test_config_hash_tracks_content():
    assert small_cfg().hash() == small_cfg().hash()
    assert small_cfg().hash() != small_cfg(n=16).hash()


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("LBLAB_THREADS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("LBLAB_THREADS", "zero")
    with pytest.raises(ConfigError):
        worker_count()
    monkeypatch.delenv("LBLAB_THREADS")
    assert worker_count() >= 1


def test_write_csv_format(tmp_path):
    out = tmp_path / "t.csv"
    text = write_csv(str(out), ["k", "v"], [[0, 0.1], [1, np.float64(0.25)]],
                     "abc123", units="u")
    assert out.read_text() == text
    lines = text.splitlines()
    assert lines[0] == "# config_hash=abc123 units=u"
    assert lines[1] == "k,v"
    assert lines[2] == "0,0.1"
    assert lines[3] == "1,0.25"


def test_envelope_csv_deterministic_across_thread_counts(monkeypatch):
    cfg = small_cfg()
    monkeypatch.setenv("LBLAB_THREADS", "1")
    code1, csv1 = cmd_envelope(cfg)
    monkeypatch.setenv("LBLAB_THREADS", "4")
    code2, csv2 = cmd_envelope(cfg)
    assert code1 == code2
    assert csv1 == csv2


def test_envelope_holds_on_small_run():
    code, csv = cmd_envelope(small_cfg())
    assert code == EXIT_OK
    assert csv.splitlines()[1] == "optimizer,k,empirical_worst,envelope,margin"


def test_fig1_csv(tmp_path):
    cfg = small_cfg(d=20, iterations=60)
    csv = cmd_fig1(cfg, out_svg=str(tmp_path / "f.svg"))
    lines = csv.splitlines()
    assert lines[1] == "k,gd,agd,hb,lbfgs"
    assert len(lines) == 63
    assert (tmp_path / "f.svg").read_text().startswith("<svg")
    assert cmd_fig1(cfg) == csv


def test_log_slope_fit_exact_geometric():
    errs = 3.0 * 0.5 ** np.arange(50)
    slope, r2, hi = log_slope_fit(errs, 5, 40)
    assert slope == pytest.approx(np.log(0.5), rel=1e-12)
    assert r2 == pytest.approx(1.0)
    assert hi == 40


def test_log_slope_fit_clips_at_floor():
    errs = np.concatenate([np.exp(-np.arange(30, dtype=float)), np.full(30, 1e-16)])
    slope, r2, hi = log_slope_fit(errs, 0, 59)
    assert hi < 59
    assert slope == pytest.approx(-1.0, rel=1e-6)
    assert r2 > 0.99


def test_cmd_trace_emits_parseable_json():
    cfg = small_cfg(family="fsm")
    text = harness.cmd_trace(cfg, "sgd", 5, seed=1)
    polys = [poly_from_json(line) for line in text.strip().splitlines()]
    assert len(polys) == cfg.d
    assert all(p.total_degree <= 5 for p in polys)
    for line in text.strip().splitlines():
        doc = json.loads(line)
        assert set(doc) == {"vars", "terms"}


def test_cmd_sampling_compare_smoke():
    csv = cmd_sampling_compare(small_cfg(iterations=30, seeds=4))
    lines = csv.splitlines()
    assert lines[1] == "k,with_replacement,without_replacement"
    assert len(lines) == 33


def test_write_svg_structure(tmp_path):
    x = np.arange(10)
    y = np.exp(-x / 3.0)
    text = write_svg(str(tmp_path / "p.svg"), {"a": (x, y), "b": (x, y * 2)})
    assert text.count("<polyline") == 2
    assert "</svg>" in text


def test_verify_all_clean():
    checks = verify_all(quick=True)
    bad = [c for c in checks if not c[2]]
    assert bad == []
    report = verify_report(checks)
    assert "PASS" in report
    assert "FAIL" not in report


def test_verify_all_detects_corruption():
    checks = verify_all(corrupt="maxnorm_prefactor", quick=True)
    assert any(not c[2] for c in checks)


def test_cli_bounds_and_exit_codes(capsys, tmp_path):
    assert cli.main(["bounds", "--formula", "maxnorm", "--kmax", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[1] == "k,bound"
    assert cli.main(["bounds", "--config", "/nope.ini"]) == EXIT_CONFIG


def test_cli_envelope_and_trace(capsys, tmp_path):
    code = cli.main(["envelope", "--iters", "15", "--seeds", "4", "--eta-grid", "3"])
    assert code == EXIT_OK
    capsys.readouterr()
    out = tmp_path / "trace.jsonl"
    assert cli.main(["trace", "--opt", "gd", "--k", "3", "--family", "toy",
                     "--out", str(out)]) == EXIT_OK
    assert out.exists()


@pytest.mark.parametrize("argv", [
    ["envelope", "--family", "rlm"],
    ["run", "--opt", "adam"],
    ["run", "--opt", "sdca", "--family", "fsm"],
    ["run", "--opt", "cd_random", "--family", "rlm"],
    ["trace", "--opt", "lbfgs", "--family", "fsm"],
    ["envelope", "--family", "fsm", "--n", "0"],
    ["run", "--opt", "sag", "--family", "foo"],
    ["run", "--opt", "sag", "--n", "abc"],
    ["bounds", "--formula", "l1", "--kappa", "0.5"],
    ["bounds", "--formula", "fsm_envelope", "--kappa", "0.5"],
    ["bounds", "--formula", "fsm_envelope", "--kappa", "1"],
    ["fig2", "--kappa", "0.5"],
    ["trace", "--opt", "gd", "--family", "fsm", "--kappa", "0.5", "--k", "2"],
    ["fig1", "--d", "1"],
    ["approx-check", "--kmax", "1", "--grid", "1"],
    ["trace", "--opt", "sgd", "--k", "-1"],
    ["bounds", "--kmax", "-1"],
    ["approx-check", "--kmax", "-1"],
    ["trace", "--opt", "cd_cyclic", "--family", "toy"],
    ["trace", "--opt", "cd_random", "--family", "toy"],
    ["trace", "--opt", "cd_cyclic", "--family", "smooth", "--d", "1"],
    ["trace", "--opt", "cd_random", "--family", "smooth", "--d", "3"],
    ["trace", "--opt", "gd", "--family", "fsm", "--d", "1"],
])
def test_cli_bad_input_exits_3_with_one_line(argv, capsys):
    assert cli.main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("config error: ")


def test_approx_check_grid_defaults_to_config(capsys, tmp_path):
    # degree 0 needs 8 grid points: the config's approx_grid is what runs
    # unless --grid is given
    ini = tmp_path / "grid.ini"
    ini.write_text("[run]\napprox_grid = 7\n")
    argv = ["approx-check", "--kmax", "0", "--config", str(ini)]
    assert cli.main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: grid too coarse for the requested degree\n"
    assert cli.main(argv + ["--grid", "8"]) == EXIT_OK
    from_flag = capsys.readouterr().out.splitlines()
    ini.write_text("[run]\napprox_grid = 8\n")
    assert cli.main(argv) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[1:] == from_flag[1:]


def test_cli_verify_all(capsys):
    assert cli.main(["verify-all"]) == EXIT_OK
