import argparse
import hashlib
import json
import os
import threading
import warnings

import mpmath
import numpy as np
import pytest

from lblab import bestapprox, cli, harness, instances, optimizers, trace
from lblab.harness import (EXIT_CONFIG, EXIT_OK, ConfigError, cmd_envelope,
                           cmd_fig1, cmd_sampling_compare, cmd_trace,
                           load_config, log_slope_fit, verify_all,
                           verify_report, worker_count, write_csv, write_svg)
from lblab.polynomials import poly_from_json, poly_to_json


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


def test_config_file_without_section_header_exits_3(tmp_path, capsys):
    p = tmp_path / "flat.ini"
    p.write_text("lbfgs_memory = 1\n")
    with pytest.raises(ConfigError):
        load_config(str(p))
    assert cli.main(["fig1", "--config", str(p)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("config error: bad config file: ")


@pytest.mark.parametrize("key", ["L", "mu", "R", "lam"])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_load_config_refuses_non_finite_parameters(key, value, tmp_path):
    p = tmp_path / "exp.ini"
    p.write_text(f"[experiment]\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=f"^{key} must be finite"):
        load_config(str(p))
    with pytest.raises(ConfigError):
        load_config(None, **{key: float(value)})


@pytest.mark.parametrize("argv", [
    ["run", "--opt", "gd", "--family", "fsm"],
    ["envelope"],
    ["sampling-compare"],
    ["trace", "--opt", "gd"],
    ["fig2"],
    ["bounds", "--formula", "maxnorm"],
])
def test_cli_infinite_kappa_exits_3_with_one_line(argv, capsys):
    assert cli.main(argv + ["--kappa", "inf"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["config error: L must be finite, got inf"]


@pytest.mark.parametrize("argv, message", [
    # a zero L-BFGS curvature, then nan curves
    (["fig1", "--d", "5", "--iters", "3", "--kappa", "1e110"],
     "fig1's curves overflow float arithmetic"),
    (["fig1", "--d", "5", "--iters", "3", "--kappa", "1e308"],
     "fig1's curves overflow float arithmetic"),
    # the dense mean solve errs by about kappa * eps, past the fsm self-check
    (["run", "--opt", "gd", "--family", "fsm", "--iters", "5", "--kappa", "1e7"],
     "the solved minimizer disagrees with the closed form at L/mu = 1e+07"),
    (["sampling-compare", "--iters", "5", "--kappa", "1e7"],
     "the solved minimizer disagrees with the closed form at L/mu = 1e+07"),
    # the fsm mean system's sums overflow
    (["run", "--opt", "gd", "--family", "fsm", "--iters", "5", "--kappa", "1e308"],
     "the mean system overflows float arithmetic at L/mu = 1e+308"),
    (["envelope", "--family", "fsm", "--iters", "5", "--kappa", "1e308"],
     "the mean system overflows float arithmetic at L/mu = 1e+308"),
    (["sampling-compare", "--iters", "5", "--kappa", "1e308"],
     "the mean system overflows float arithmetic at L/mu = 1e+308"),
], ids=["fig1-1e110", "fig1-1e308", "run-fsm-1e7", "sampling-compare-1e7", "run-fsm-1e308",
        "envelope-fsm-1e308", "sampling-compare-1e308"])
def test_cli_huge_finite_kappa_exits_3_with_one_line(argv, message, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(argv) == EXIT_CONFIG
    assert caught == []  # no overflow warning adds a stderr line
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("config error: " + message)


@pytest.mark.parametrize("kappa", ["1e16", "1e308"])
def test_cli_maxnorm_at_huge_kappa_prints_the_prefactor(kappa, capsys):
    # the prefactor (b-a)/(2ab) on [mu, L] = [1, kappa] neither cancels nor
    # overflows; it is within six roundings of the exact value
    assert cli.main(["bounds", "--formula", "maxnorm", "--kmax", "1", "--kappa", kappa]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = dict(line.split(",") for line in captured.out.splitlines()[2:])
    with mpmath.workdps(700):  # enough digits to square kappa + 1 exactly
        b = mpmath.mpf(float(kappa))
        exact = 2 * (b - 1) / ((b + 1) ** 2 - (b - 1) ** 2)
        assert abs(float(rows["0"]) - exact) <= 6 * 2.0 ** -53 * exact


# the setting flags each `bounds` formula reads; it refuses the others
FORMULA_READS = {"chebyshev_inf": set(), "maxnorm": {"--kappa"}, "l1": {"--kappa"},
                 "l2": set(), "fsm_envelope": {"--n", "--kappa"}}


@pytest.mark.parametrize("formula", sorted(FORMULA_READS))
@pytest.mark.parametrize("flag, value", [("--n", "16"), ("--kappa", "50")])
def test_cli_bounds_takes_only_the_flags_its_formula_reads(formula, flag, value, capsys):
    assert set(harness.FORMULAS) == set(FORMULA_READS)
    argv = ["bounds", "--formula", formula, "--kmax", "2"]
    code = cli.main(argv + [flag, value])
    captured = capsys.readouterr()
    if flag in FORMULA_READS[formula]:
        assert code == EXIT_OK and captured.err == ""
        assert cli.main(argv) == EXIT_OK
        assert capsys.readouterr().out != captured.out  # the flag moves the hash at least
    else:
        assert code == EXIT_CONFIG and captured.out == ""
        assert captured.err == f"config error: bounds --formula {formula} does not read {flag}\n"


def test_bounds_config_file_may_set_a_field_its_formula_does_not_read(tmp_path, capsys):
    ini = tmp_path / "n.ini"
    ini.write_text("[run]\nn = 16\nmu = 2\n")
    assert cli.main(["bounds", "--formula", "l2", "--config", str(ini)]) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_config_file_keys_keep_their_case(tmp_path, capsys):
    # L is an upper-case field; a lowercased key would be unknown
    ini = tmp_path / "L.ini"
    ini.write_text("[run]\nL = 50\n")
    assert cli.main(["bounds", "--formula", "fsm_envelope", "--config", str(ini)]) == EXIT_OK
    from_file = capsys.readouterr()
    assert from_file.err == ""
    assert cli.main(["bounds", "--formula", "fsm_envelope", "--kappa", "50"]) == EXIT_OK
    from_flag = capsys.readouterr().out
    assert from_flag.startswith("# config_hash=")
    assert from_file.out == from_flag


@pytest.mark.parametrize("key", ["outdir", "envelope_prefactor"])
def test_load_config_rejects_retired_keys(key, tmp_path, capsys):
    # both keys were hashed but read by no command; they are gone, and the
    # config hash still carries their old defaults
    p = tmp_path / "exp.ini"
    p.write_text(f"[experiment]\n{key} = x\n")
    assert cli.main(["bounds", "--config", str(p)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"config error: unknown config key '{key}'")


def test_config_hash_tracks_content():
    assert small_cfg().hash() == small_cfg().hash()
    assert small_cfg().hash() != small_cfg(n=16).hash()


def test_worker_count_env(monkeypatch):
    # the envelope has no worker pool: the variable is no longer read
    for value in ("3", "zero"):
        monkeypatch.setenv("LBLAB_THREADS", value)
        assert worker_count() == 1
    monkeypatch.delenv("LBLAB_THREADS")
    assert worker_count() == 1


def test_write_csv_format():
    text = write_csv(["k", "v"], [[0, 0.1], [1, np.float64(0.25)]], "abc123", units="u")
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
    monkeypatch.delenv("LBLAB_THREADS")
    code3, csv3 = cmd_envelope(cfg)
    assert code1 == code2 == code3
    assert csv1 == csv2 == csv3


def test_envelope_builds_the_grid_once_in_the_calling_thread(monkeypatch):
    built, threads = [], []
    fsm_instance, curve = instances.fsm_instance, optimizers.expected_error_curve

    def counted(*args, **kwargs):
        built.append(args[0][0])
        return fsm_instance(*args, **kwargs)

    def watched(*args, **kwargs):
        threads.append(threading.get_ident())
        return curve(*args, **kwargs)

    monkeypatch.setattr(instances, "fsm_instance", counted)
    monkeypatch.setattr(optimizers, "expected_error_curve", watched)
    monkeypatch.setenv("LBLAB_THREADS", "4")
    cfg = load_config(None, iterations=20, seeds=5)
    assert cfg.family == "fsm" and len(cfg.optimizers) == 5
    results, _ = harness.envelope_curves(cfg)
    assert sorted(results) == sorted(cfg.optimizers)
    # one instance per grid point, shared by the five schedules
    assert built == list(harness.fsm_scalar_grid(cfg))
    assert threads == [threading.get_ident()] * 5
    assert worker_count() == 1


def test_envelope_holds_on_small_run():
    code, csv = cmd_envelope(small_cfg())
    assert code == EXIT_OK
    assert csv.splitlines()[1] == "optimizer,k,empirical_worst,envelope,margin"


def test_fig1_csv(tmp_path):
    cfg = small_cfg(d=20, iterations=60)
    code, csv = cmd_fig1(cfg, svg=str(tmp_path / "f.svg"))
    assert code == EXIT_OK
    lines = csv.splitlines()
    assert lines[1] == "k,gd,agd,hb,lbfgs"
    assert len(lines) == 63
    assert (tmp_path / "f.svg").read_text().startswith("<svg")
    assert cmd_fig1(cfg) == (EXIT_OK, csv)


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
    code, text = harness.cmd_trace(cfg, "sgd", 5, seed=1)
    assert code == EXIT_OK
    polys = [poly_from_json(line) for line in text.strip().splitlines()]
    assert len(polys) == cfg.d
    assert all(p.total_degree <= 5 for p in polys)
    for line in text.strip().splitlines():
        doc = json.loads(line)
        assert set(doc) == {"vars", "terms"}


@pytest.mark.parametrize("opt, family, n, k, distinct, repeated_pct", [
    ("sag", "fsm", 8, 18, 2, 50.0),
    ("svrg", "fsm", 4, 14, 2, 50.0),
    # nearly every coordinate differs here, so next to nothing is repeated
    ("sdca", "rlm", 8, 24, 7, 5.9),
])
def test_trace_writes_each_distinct_coordinate_once(opt, family, n, k, distinct, repeated_pct):
    cfg = load_config(None, family=family, n=n)
    vec = trace.trace_oblivious(harness._schedule(cfg, opt), family, k, n=n, d=cfg.d,
                                L=cfg.L, mu=cfg.mu, R=cfg.R, lam=cfg.lam)
    per_entry = [poly_to_json(e) + "\n" for e in vec]
    code, text = cmd_trace(cfg, opt, k)
    assert code == EXIT_OK
    assert text == "".join(per_entry)
    assert len(set(per_entry)) == distinct
    repeated = len(text) - sum(map(len, set(per_entry)))
    assert round(100 * repeated / len(text), 1) == repeated_pct


def test_cmd_sampling_compare_smoke():
    code, csv = cmd_sampling_compare(small_cfg(iterations=30, seeds=4))
    assert code == EXIT_OK
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


def test_verify_all_detects_corruption(monkeypatch):
    # an inflated uniform-norm bound must fail the sandwich check
    maxnorm_lb = harness.bounds.maxnorm_lb
    monkeypatch.setattr(harness.bounds, "maxnorm_lb", lambda *a: 1.5 * maxnorm_lb(*a))
    checks = verify_all(quick=True)
    assert any(not c[2] for c in checks)


def test_cli_bounds_and_exit_codes(capsys, tmp_path):
    assert cli.main(["bounds", "--formula", "maxnorm", "--kmax", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[1] == "k,bound"
    assert cli.main(["bounds", "--config", "/nope.ini"]) == EXIT_CONFIG


@pytest.mark.parametrize("argv", [
    ["bounds", "--kmax", "3"],
    ["approx-check", "--kmax", "1", "--grid", "257"],
    ["trace", "--opt", "gd", "--k", "3", "--family", "toy"],
    ["fig2"],
    ["fig1", "--d", "8", "--iters", "20"],
    ["run", "--opt", "gd", "--iters", "10", "--eta-grid", "3"],
    ["envelope", "--iters", "10", "--seeds", "3", "--eta-grid", "3"],
    ["sampling-compare", "--iters", "10", "--seeds", "3"],
])
def test_cli_out_writes_exactly_what_it_prints(argv, capsys, tmp_path):
    code = cli.main(argv)
    printed = capsys.readouterr().out
    out = tmp_path / "sub" / "out.txt"
    assert cli.main(argv + ["--out", str(out)]) == code
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == printed.encode()
    assert printed


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
    ["sampling-compare", "--family", "rlm"],
    # a schedule of the other oracle family fails when its run starts
    ["envelope", "--iters", "5", "--seeds", "2", "--eta-grid", "3",
     "--config", "[run]\noptimizers = sag, sdca\n"],
    ["trace", "--opt", "sgd", "--k", "-5"],
])
def test_cli_bad_input_exits_3_with_one_line(argv, capsys, tmp_path):
    if "--config" in argv:  # the flag's value is the file's text
        i = argv.index("--config") + 1
        ini = tmp_path / "cfg.ini"
        ini.write_text(argv[i])
        argv = argv[:i] + [str(ini)] + argv[i + 1:]
    assert cli.main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("config error: ")


SETTING_FLAGS = {"--family": "fsm", "--n": "8", "--d": "4", "--kappa": "50", "--iters": "10",
                 "--seeds": "3", "--eta-grid": "3"}
# the setting flags each subcommand's body reads; it accepts no others
ACCEPTED = {
    "bounds": {"--n", "--kappa"},
    "approx-check": set(),
    "trace": {"--family", "--n", "--d", "--kappa"},
    "fig2": {"--kappa"},
    "fig1": {"--d", "--kappa", "--iters"},
    "run": set(SETTING_FLAGS),
    "envelope": set(SETTING_FLAGS),
    "sampling-compare": {"--n", "--d", "--kappa", "--iters", "--seeds"},
}
REMOVED = [(sub, flag) for sub, flags in ACCEPTED.items()
           for flag in SETTING_FLAGS if flag not in flags]


def test_cli_subcommands_accept_only_the_flags_they_read():
    common = {"--config", "--out"} | set(SETTING_FLAGS)
    (sub,) = [a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    pairs = 0
    for name, parser in sub.choices.items():
        flags = {f for a in parser._actions for f in a.option_strings} & common
        if name == "verify-all":
            assert flags == set()
            continue
        assert flags == {"--config", "--out"} | ACCEPTED[name], name
        pairs += len(flags)
    assert set(sub.choices) == set(ACCEPTED) | {"verify-all"}
    assert pairs == 45 and len(REMOVED) == 27


@pytest.mark.parametrize("sub, flag", REMOVED)
def test_cli_unread_flag_exits_3_with_one_line(sub, flag, capsys):
    opt = ["--opt", "gd"] if sub == "trace" else []  # trace's one required flag
    assert cli.main([sub] + opt + [flag, SETTING_FLAGS[flag]]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("config error: unrecognized arguments: " + flag)


def test_sampling_compare_refuses_a_config_family_other_than_fsm(capsys, tmp_path):
    ini = tmp_path / "rlm.ini"
    ini.write_text("[run]\nfamily = rlm\n")
    assert cli.main(["sampling-compare", "--config", str(ini)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("config error: sampling-compare runs on the fsm family only, "
                            "got 'rlm'\n")


@pytest.mark.parametrize("flag, argv", [("--out", ["bounds", "--kmax", "2"]),
                                        ("--svg", ["fig2"])])
def test_cli_unwritable_output_exits_3_with_one_line(flag, argv, capsys, tmp_path):
    # a directory cannot be opened for writing
    assert cli.main(argv + [flag, str(tmp_path)]) == EXIT_CONFIG
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
    assert capsys.readouterr().out.splitlines() == from_flag
    # the grid is part of the config, so another grid prints another hash
    assert cli.main(argv + ["--grid", "9"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[0] != from_flag[0]


def test_approx_check_output_bytes(capsys):
    # the bytes this command printed with a per-degree LU solve and HiGHS
    # presolve: the Gram factorization and the LP options keep them
    assert cli.main(["approx-check", "--kmax", "8"]) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a436b0ed975999046233179077dd009a604d606491ff51966db291e0f8259ee3")


@pytest.mark.parametrize("opt, digest", [
    ("gd", "90a63d211decf33c3ce0f3ffbf1f628ea763d90337c78b8d9c0fc747423d5ed3"),
    ("agd", "a4f06e5c427a5142be069c0c6f116ef837c3c04972b229738ec26f456c5435a9"),
    ("hb", "37a1e6510916582eda91e0874497fcc29ecc74f054b60dcf0c55b52fc42ad0ab"),
    ("sag", "2b4d403dc0132bb16bd50165233660f4adcd7e89b41e8eaab25a5cf7c16dbc14"),
    ("svrg", "848b18b537001987e45328ae9a2e3ebf24707deda329045bde3ed952a702592c"),
    ("cd_random", "debd7a4a3d11ce9316da5c1521c7ba5c53b20205a7bf920b97270d2186633c9a"),
])
def test_run_toy_output_bytes(opt, digest, capsys):
    # the toy grid's components are DenseSym, so its deterministic rows take
    # the dense stacked form and its stochastic rows the dense Monte-Carlo
    # kernels; the pinned fsm runs take the block forms
    assert cli.main(["run", "--opt", opt, "--family", "toy"]) == EXIT_OK
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_run_sdca_rlm_output_bytes(capsys):
    # an rlm grid shape (n = 6, 7 seeds) that no perfbench pin covers
    assert cli.main(["run", "--opt", "sdca", "--family", "rlm", "--n", "6", "--seeds", "7"]) == EXIT_OK
    digest = "5db8c636a110f2df018d00b895fd87bd1e096791901d55e4d8122bc4d8535fd1"
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("kmax", ["13", "500"])
def test_approx_check_refuses_kmax_at_the_l1_certificate_first(kmax, capsys, monkeypatch):
    # the L1 LP loses its certificate at degree 9, so any kmax >= 10 exits 3
    # before a minimax LP or a Gram elimination runs
    calls = []
    monkeypatch.setattr(bestapprox, "best_uniform", lambda *a, **kw: calls.append("inf"))
    monkeypatch.setattr(bestapprox, "weighted_l2_errors", lambda *a, **kw: calls.append("l2"))
    assert cli.main(["approx-check", "--kmax", kmax]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("config error: L1 LP duality gap too large")
    assert calls == []


def test_cli_verify_all(capsys):
    assert cli.main(["verify-all"]) == EXIT_OK
