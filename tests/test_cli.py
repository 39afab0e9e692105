import argparse
import csv
import hashlib
import inspect
import itertools
import math
import multiprocessing
import os
import subprocess
import sys
import time
import warnings
from dataclasses import MISSING, asdict, fields
from pathlib import Path

import numpy as np
import pytest
import yaml

from otafl import cli, fl_core, stable_noise
from otafl.analysis import clip_survival_report, verify_convergence_bound
from otafl.cli import build_parser, main
from otafl.config import ConfigError, ExperimentConfig, load_config, parse_overrides, validate
from otafl.data import load_csv_dataset


def minimal_config(tmp_path, **extra):
    lines = {
        "rounds": 2,
        "n_clients": 2,
        "model": "quadratic",
        "quadratic_dim": 3,
        "name": "mini",
        "output_dir": str(tmp_path / "out"),
        "methods": "[mac, none]",
        "local_epochs": 1,
        "fading": "none",
    }
    lines.update(extra)
    path = tmp_path / "config.yaml"
    path.write_text("".join(f"{k}: {v}\n" for k, v in lines.items()))
    return path


def read_csv(path):
    text = Path(path).read_text().splitlines()
    assert text[0].startswith("# otafl-")
    rows = list(csv.reader(text[1:]))
    return text[0], rows[0], rows[1:]


def test_train_minimal_schema(tmp_path):
    cfg = minimal_config(tmp_path)
    assert main(["train", str(cfg)]) == 0
    out = tmp_path / "out"
    for method in ("mac", "none"):
        header_comment, columns, rows = read_csv(out / f"mini_{method}.csv")
        assert columns == ["round", "loss", "grad_norm_sq", "snr_db", "clipped_fraction", "accuracy", "diverged"]
        assert len(rows) == 2
        assert rows[0][0] == "0" and rows[1][0] == "1"
        assert f"method={method}" in header_comment
    _, columns, rows = read_csv(out / "mini_summary.csv")
    assert columns == ["method", "final_loss", "final_accuracy", "best_accuracy", "diverged", "rounds_completed"]
    assert [r[0] for r in rows] == ["mac", "none"]


def test_train_all_methods_logistic(tmp_path):
    cfg = minimal_config(
        tmp_path,
        model="logistic",
        methods="[mac, gnc, none, ideal]",
        n_clients=3,
        n_samples=60,
        feature_dim=3,
        rounds=3,
        batch_size=5,
        local_epochs=2,
        fading="rayleigh",
    )
    assert main(["train", str(cfg)]) == 0
    for method in ("mac", "gnc", "none", "ideal"):
        assert (tmp_path / "out" / f"mini_{method}.csv").exists()


def test_train_and_sweep_build_no_round_records(tmp_path, monkeypatch):
    # the per-round CSV and the summary read the telemetry columns
    class NoRecords:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a command built a RoundRecord")

    monkeypatch.setattr(fl_core, "RoundRecord", NoRecords)
    cfg = minimal_config(tmp_path, model="logistic", n_samples=40, feature_dim=2, c_grid="[0.5, 1.0]")
    assert main(["train", str(cfg)]) == 0
    assert main(["sweep", str(cfg)]) == 0
    # positive control: the patched name is the one that records builds
    config = load_config(cfg)
    [result] = fl_core.compare_methods(cli.build_task_factory(config), cli.to_fl_config(config), ["mac"], 1, 1.0, 1.0)["mac"]
    with pytest.raises(AssertionError, match="built a RoundRecord"):
        result.records


@pytest.mark.parametrize("command", ["train", "sweep"])
@pytest.mark.parametrize("fading", ["rayleigh", "none"])
def test_fading_gain_without_deterministic_fading_exits_2(tmp_path, capsys, command, fading):
    # only deterministic fading reads the gain; another kind once ran
    # without it, yet wrote fading_gain=5.0 into the provenance line
    cfg = minimal_config(tmp_path, fading=fading, fading_gain=5.0, c_grid="[0.5]")
    assert main([command, str(cfg)]) == 2
    assert f"fading gain 5.0 applies to deterministic fading only, not to '{fading}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert main([command, str(minimal_config(tmp_path, fading="deterministic", fading_gain=5.0, c_grid="[0.5]"))]) == 0


def test_module_runs_as_a_program(tmp_path):
    # every other test calls main() in process; here the interpreter's own
    # exit status, from sys.exit(main()), is the one checked
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "otafl.cli", *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True)

    small = ["theorem1", "--dim", "3", "--n-clients", "2", "--seeds", "1", "--k-grid", "5"]
    done = run(*small)
    assert done.returncode == 0, done.stderr
    _, columns, rows = read_csv(tmp_path / "theorem1.csv")
    assert columns[0] == "K" and len(rows) == 1
    bad = run(*small, "--alpha", "5", "--out", "bad.csv")
    assert bad.returncode == 2
    assert "alpha" in bad.stderr and "Traceback" not in bad.stderr
    assert not (tmp_path / "bad.csv").exists()
    absent = run("train", "absent.yaml")
    assert absent.returncode == 2
    assert "cannot read config file" in absent.stderr and "Traceback" not in absent.stderr


def test_train_missing_field_names_it(tmp_path, capsys):
    path = tmp_path / "config.yaml"
    path.write_text("n_clients: 2\n")
    assert main(["train", str(path)]) == 2
    assert "rounds" in capsys.readouterr().err


def test_train_unknown_key_named(tmp_path, capsys):
    path = tmp_path / "config.yaml"
    path.write_text("rounds: 1\nbananas: 3\n")
    assert main(["train", str(path)]) == 2
    assert "bananas" in capsys.readouterr().err


def test_yaml_parse_error_reports_location(tmp_path, capsys):
    path = tmp_path / "config.yaml"
    path.write_text("rounds: [unclosed\n")
    assert main(["train", str(path)]) == 2
    err = capsys.readouterr().err
    assert "parse error" in err and "line" in err


def test_rerun_is_byte_identical(tmp_path):
    cfg = minimal_config(tmp_path, model="logistic", n_samples=40, feature_dim=2, n_clients=2)
    assert main(["train", str(cfg)]) == 0
    first = (tmp_path / "out" / "mini_mac.csv").read_bytes()
    assert main(["train", str(cfg)]) == 0
    second = (tmp_path / "out" / "mini_mac.csv").read_bytes()
    assert first == second


def test_output_dir_stays_out_of_provenance(tmp_path):
    cfg = minimal_config(tmp_path, c_grid="{mac: [0.5, 1.0], gnc: [2.0]}")
    for out in ("a", "b"):
        assert main(["train", str(cfg), "--set", f"output_dir={tmp_path / out}"]) == 0
    for name in ("mini_mac.csv", "mini_none.csv", "mini_summary.csv"):
        comment_a, _, _ = read_csv(tmp_path / "a" / name)
        comment_b, _, _ = read_csv(tmp_path / "b" / name)
        assert comment_a == comment_b
        tokens = comment_a.split()[2:]
        assert all("=" in tok for tok in tokens)
        settings = dict(tok.split("=", 1) for tok in tokens)
        assert settings["c_grid"] == '{"mac":[0.5,1.0],"gnc":[2.0]}'
        method = name[len("mini_"):-len(".csv")]
        if method != "summary":
            assert settings.pop("method") == method
        assert set(settings) == {f.name for f in fields(ExperimentConfig)} - {"output_dir"}
        assert settings["seed"] == "0" and settings["rounds"] == "2" and settings["model"] == "quadratic"
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_readme_config_table_lists_every_field_with_its_default():
    # the README's key table documents the config; a field added, renamed or
    # given a new default in one place only would mislead a reader of the other
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("| key | default | meaning |") + 2  # past the header and its rule
    rows = [line.split("|", 3)[1:3] for line in itertools.takewhile(lambda line: line.startswith("|"), lines[start:])]
    expected = {}
    for f in fields(ExperimentConfig):
        if f.default is MISSING:
            expected[f.name] = "required"
        elif f.default is None:
            expected[f.name] = "none"
        else:
            text = f"[{', '.join(f.default)}]" if isinstance(f.default, tuple) else str(f.default)
            expected[f.name] = f"`{text}`"
    assert len(rows) == len(expected)
    assert {key.strip().strip("`"): default.strip() for key, default in rows} == expected


def test_flag_overrides_beat_file(tmp_path):
    cfg = minimal_config(tmp_path)
    assert main(["train", str(cfg), "--set", "rounds=4", "--set", "name=over"]) == 0
    _, _, rows = read_csv(tmp_path / "out" / "over_mac.csv")
    assert len(rows) == 4


def test_override_validation():
    with pytest.raises(ConfigError):
        parse_overrides(["rounds"])
    with pytest.raises(ConfigError):
        parse_overrides(["bananas=1"])
    with pytest.raises(ConfigError, match="override 'c_grid=\\[1,'"):
        parse_overrides(["c_grid=[1,"])
    assert parse_overrides(["rounds=7", "methods=[mac]"]) == {"rounds": 7, "methods": ["mac"]}


def test_yaml_exponent_floats_are_numbers(tmp_path):
    # YAML 1.1 reads 1e-3, 1E5 and 5e+2 as strings: each exited 2 with
    # "field 'learning_rate' must be a finite number, got '1e-3'"
    cfg = minimal_config(tmp_path, learning_rate="1e-3", mac_threshold="1E5", gnc_threshold="5e+2")
    loaded = load_config(cfg)
    assert (loaded.learning_rate, loaded.mac_threshold, loaded.gnc_threshold) == (0.001, 100000.0, 500.0)
    assert parse_overrides(["tau=1e-2", "c_grid=[1e-1, 1.0]"]) == {"tau": 0.01, "c_grid": [0.1, 1.0]}
    assert main(["train", str(cfg), "--set", "tau=1e-2", "--set", "c_grid=[1e-1, 1.0]"]) == 0
    assert yaml.safe_load("1e-3") == "1e-3"  # yaml.SafeLoader itself is left as it is


def test_lemma1_rows_and_slope_row(tmp_path):
    out = tmp_path / "l1.csv"
    code = main([
        "lemma1", "--alphas", "1.5", "--c-grid", "1,2,4,8",
        "--samples", "20000", "--out", str(out),
    ])
    assert code == 0
    _, columns, rows = read_csv(out)
    assert columns == ["alpha", "c", "empirical_clip_prob", "asymptote", "gaussian_oracle_err", "fitted_slope", "note"]
    assert len(rows) == 5  # four thresholds plus one slope row
    assert rows[4][1] == "" and rows[4][5] != ""


def test_lemma1_regime_violation_rows(tmp_path):
    out = tmp_path / "l1.csv"
    code = main([
        "lemma1", "--alphas", "1.5", "--c-grid", "0.5,4", "--g", "1.0",
        "--samples", "5000", "--out", str(out),
    ])
    assert code == 0
    _, _, rows = read_csv(out)
    assert rows[0][6] == "regime_violation"
    assert rows[1][6] == ""


def test_lemma1_gaussian_oracle_column(tmp_path):
    out = tmp_path / "l1.csv"
    assert main([
        "lemma1", "--alphas", "2.0", "--c-grid", "0.3,0.5",
        "--samples", "20000", "--out", str(out),
    ]) == 0
    _, _, rows = read_csv(out)
    assert rows[0][4] != ""  # oracle error column populated at alpha = 2


def test_theorem1_monotone_rows(tmp_path):
    out = tmp_path / "t1.csv"
    code = main([
        "theorem1", "--dim", "4", "--n-clients", "2", "--k-grid", "5,20,80",
        "--seeds", "2", "--out", str(out),
    ])
    assert code == 0
    _, columns, rows = read_csv(out)
    assert columns == ["K", "eta", "empirical_avg_grad_sq", "bound_rhs", "margin_ratio"]
    empirical = [float(r[2]) for r in rows]
    assert empirical[0] > empirical[1] > empirical[2]


def test_theorem1_refuses_bad_eta(tmp_path, capsys):
    out = tmp_path / "t1.csv"
    code = main([
        "theorem1", "--dim", "3", "--n-clients", "2", "--k-grid", "5",
        "--seeds", "1", "--eta", "50.0", "--out", str(out),
    ])
    assert code == 2
    assert "2/L" in capsys.readouterr().err


_LEMMA1_SMALL = ["lemma1", "--alphas", "1.5", "--c-grid", "1,2", "--samples", "1000"]
_THEOREM1_SMALL = ["theorem1", "--dim", "3", "--n-clients", "2", "--k-grid", "5", "--seeds", "1"]


@pytest.mark.parametrize("mode", [[], ["--ideal"]])
def test_theorem1_overflowing_eta_exits_2_naming_it(tmp_path, capsys, mode):
    # the descent term 2*(f0 - f*)/(K*(2 - eta*L)*eta) overflows at a tiny
    # eta: the ideal check once wrote bound_rhs inf and exited 0, the mac
    # check exited 2 naming c
    out = tmp_path / "t1.csv"
    assert main(_THEOREM1_SMALL + mode + ["--eta", "1e-320", "--out", str(out)]) == 2
    assert "error: the descent term is not finite at eta = 1e-320" in capsys.readouterr().err
    assert not out.exists()


def _exit_code(argv) -> int:
    """main's exit code, or argparse's for a flag it cannot parse."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# What a rejected flag value prints: the library names the parameter of a
# value it checks, and argparse the flag of a value that is no number.
_REJECTIONS = {
    "--g nan": "error: g must be a finite number, got nan",
    "--c inf": "error: c must be a finite number, got inf",
    "--c nan": "error: c must be a finite number, got nan",
    "--c -inf": "error: c must be a finite number, got -inf",
    "--tau inf": "error: tau must be a finite number, got inf",
    "--c-grid 1,nan": "error: c_grid must be a finite number, got nan",
    "--alpha abc": "argument --alpha: invalid float value: 'abc'",
    "--alphas 1.5,1.5": "error: alphas must be distinct and non-empty, got [1.5, 1.5]",
    "--c-grid 1,1,2": "error: c_grid must be distinct and non-empty, got [1.0, 1.0, 2.0]",
    "--eta 0.05,0.05": "error: eta_grid must be distinct and non-empty, got [0.05, 0.05]",
    "--k-grid 20,5,5": "error: k_grid must be distinct and non-empty, got [20, 5, 5]",
    "--k-grid 5,x": "argument --k-grid: invalid ints value: '5,x'",
}


def _rejection(argv, flag) -> str:
    words = " ".join(argv).replace(f"{flag}=", f"{flag} ").split()  # --flag=value as --flag value
    last = max(i for i, word in enumerate(words) if word == flag)  # argparse keeps a repeated flag's last value
    return _REJECTIONS[f"{flag} {words[last + 1]}"]


@pytest.mark.parametrize("argv, flag", [
    (_LEMMA1_SMALL + ["--g", "nan"], "--g"),  # was a StopIteration traceback
    (_THEOREM1_SMALL + ["--c", "inf"], "--c"),  # was exit 0 with nan bounds
    (_LEMMA1_SMALL + ["--tau", "inf"], "--tau"),  # was exit 0, every clip probability 1
    (["lemma1", "--alphas", "1.5", "--c-grid", "1,nan", "--samples", "1000"], "--c-grid"),
    (_THEOREM1_SMALL + ["--alpha", "abc"], "--alpha"),
    (_THEOREM1_SMALL + ["--c", "nan"], "--c"),  # these two were named by the sqrt(2)*G window
    (_THEOREM1_SMALL + ["--c=-inf"], "--c"),  # a spaced -inf reads as a flag
])
def test_nonfinite_float_flag_exits_2_naming_it(tmp_path, capsys, argv, flag):
    out = tmp_path / "out.csv"
    assert _exit_code(argv + ["--out", str(out)]) == 2
    assert _rejection(argv, flag) in capsys.readouterr().err
    assert not out.exists()


def test_theorem1_ideal_flag(tmp_path):
    out = tmp_path / "t1.csv"
    assert main([
        "theorem1", "--dim", "3", "--n-clients", "2", "--k-grid", "5,25",
        "--seeds", "1", "--ideal", "--out", str(out),
    ]) == 0
    _, _, rows = read_csv(out)
    assert all(float(r[4]) <= 1.0 for r in rows)


def test_theorem1_ideal_refuses_c(tmp_path, capsys):
    # the ideal channel is not clipped: --c was once accepted and written
    # into the provenance line, even at -1
    out = tmp_path / "t1.csv"
    assert main(_THEOREM1_SMALL + ["--ideal", "--c", "-1", "--out", str(out)]) == 2
    assert "no threshold" in capsys.readouterr().err
    assert not out.exists()


def test_theorem1_ideal_refuses_fading(tmp_path, capsys):
    # the ideal channel is not faded: --fading was once written into the
    # provenance line of rows identical to an unfaded run
    out = tmp_path / "t1.csv"
    assert main(_THEOREM1_SMALL + ["--ideal", "--fading", "rayleigh", "--out", str(out)]) == 2
    assert "error: the ideal channel is not faded, so it takes no fading" in capsys.readouterr().err
    assert not out.exists()


def test_huge_finite_flag_ends_without_a_traceback(tmp_path, capsys):
    # both once raised OverflowError from a float ** and exited 1
    out = tmp_path / "l1.csv"
    for tau in ("1e200", "1e308"):
        assert main(_LEMMA1_SMALL + ["--tau", tau, "--out", str(out)]) == 0
        _, columns, rows = read_csv(out)
        assert [r[columns.index("asymptote")] for r in rows if r[1]] == ["1.0", "1.0"]
    out = tmp_path / "t1.csv"
    assert main(_THEOREM1_SMALL + ["--c", "1e155", "--out", str(out)]) == 2
    assert "error: the bound is not finite at c = 1e+155" in capsys.readouterr().err
    assert not out.exists()


def test_theorem1_ideal_checks_the_noise_law(tmp_path, capsys):
    # an ideal run once exited 0 and wrote alpha=5.0, tau=-3.0 and the
    # unused default threshold into its provenance line
    out = tmp_path / "t1.csv"
    for flag, value in (("--alpha", "5"), ("--tau", "-3")):
        assert main(_THEOREM1_SMALL + ["--ideal", flag, value, "--out", str(out)]) == 2
        assert f"error: {flag[2:]} must" in capsys.readouterr().err
        assert not out.exists()
    assert main(_THEOREM1_SMALL + ["--ideal", "--out", str(out)]) == 0
    assert " c=None " in read_csv(out)[0]


# lemma1 and theorem1 are the library's two checks; their parsers once
# repeated the library's defaults and their commands re-listed its parameters
_CHECKS = {"lemma1": clip_survival_report, "theorem1": verify_convergence_bound}


@pytest.mark.parametrize("command", sorted(_CHECKS))
def test_check_flags_are_library_parameters_without_defaults(command):
    parser = build_parser()
    assert sorted(vars(parser.parse_args([command, "--out", "x.csv"]))) == ["command", "func", "out"]
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    dests = {a.dest for a in sub.choices[command]._actions} - {"help", "out"}
    assert dests and dests <= set(inspect.signature(_CHECKS[command]).parameters)


@pytest.mark.parametrize("command, small", [
    ("lemma1", dict(n_samples=100)),
    ("theorem1", dict(dim=2, n_clients=1, k_grid=(2,), n_seeds=1)),
])
def test_check_without_flags_calls_the_library_with_no_arguments(tmp_path, monkeypatch, command, small):
    calls = []

    def check(*args, **kwargs):
        calls.append((args, kwargs))
        return _CHECKS[command](**small)

    monkeypatch.setattr(cli, _CHECKS[command].__name__, check)
    assert main([command, "--out", str(tmp_path / "x.csv")]) == 0
    assert calls == [((), {})]


def test_theorem1_eta_list_fills_the_eta_column(tmp_path):
    # one file holds every (K, eta) point: each rate, in the given order, over the K grid
    out = tmp_path / "t1.csv"
    assert main([
        "theorem1", "--dim", "3", "--n-clients", "2", "--k-grid", "20,5",
        "--seeds", "1", "--eta", "0.1,0.05", "--out", str(out),
    ]) == 0
    provenance, columns, rows = read_csv(out)
    assert columns == ["K", "eta", "empirical_avg_grad_sq", "bound_rhs", "margin_ratio"]
    assert [row[:2] for row in rows] == [["5", "0.1"], ["20", "0.1"], ["5", "0.05"], ["20", "0.05"]]
    assert " eta=0.1,0.05 " in provenance
    assert [p.name for p in tmp_path.iterdir()] == ["t1.csv"]


def test_sweep_rows_and_best_marks(tmp_path):
    cfg = minimal_config(
        tmp_path,
        model="logistic",
        n_samples=40,
        feature_dim=2,
        n_clients=2,
        rounds=2,
        n_seeds=2,
        c_grid="{mac: [0.5, 1.0, 2.0], gnc: [1.0, 2.0, 4.0]}",
    )
    assert main(["sweep", str(cfg)]) == 0
    _, columns, rows = read_csv(tmp_path / "out" / "mini_sweep.csv")
    assert columns == ["method", "c", "median_final_accuracy", "median_final_loss", "n_diverged", "best"]
    assert len(rows) == 6
    for method in ("mac", "gnc"):
        assert sum(r[5] == "True" for r in rows if r[0] == method) == 1


def test_sweep_single_threshold_is_best(tmp_path):
    cfg = minimal_config(
        tmp_path, model="logistic", n_samples=40, feature_dim=2, n_clients=2,
        rounds=2, c_grid="[0.7]",
    )
    assert main(["sweep", str(cfg)]) == 0
    _, _, rows = read_csv(tmp_path / "out" / "mini_sweep.csv")
    assert len(rows) == 2  # one row per method
    assert all(r[5] == "True" for r in rows)


def test_quadratic_sweep_warns_nothing(tmp_path):
    # a non-classifier has no accuracy to take the median of
    cfg = minimal_config(tmp_path, c_grid="[0.5, 1.0]")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sweep", str(cfg)]) == 0
    _, _, rows = read_csv(tmp_path / "out" / "mini_sweep.csv")
    assert len(rows) == 4
    assert all(r[2] == "" and math.isfinite(float(r[3])) for r in rows)


@pytest.mark.parametrize("command", ["train", "lemma1"])
def test_tiny_alpha_runs_without_warnings(tmp_path, command):
    # at alpha = 0.01 about 1e-3 of the noise draws lie beyond the float
    # maximum; train once exited 2 on log10(0) of an infinite noise power,
    # and lemma1 printed four RuntimeWarnings
    if command == "train":
        cfg = minimal_config(
            tmp_path, alpha=0.01, methods="[mac]", n_clients=5, n_samples=200, rounds=50,
            model="logistic", fading="rayleigh",
        )
        argv = ["train", str(cfg)]
    else:
        argv = ["lemma1", "--alphas", "0.01", "--c-grid", "1,2", "--samples", "100000",
                "--out", str(tmp_path / "l1.csv")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0


@pytest.mark.parametrize("argv, flag", [
    (["theorem1", "--seeds", "0"], "n_seeds"),  # was a tuple-unpacking error
    (["theorem1", "--n-clients", "0"], "n_clients"),  # were numpy warnings, then a numpy error
    (["theorem1", "--dim", "0"], "dim"),
])
def test_theorem1_degenerate_size_exits_2_naming_it(tmp_path, capsys, argv, flag):
    out = tmp_path / "t1.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--out", str(out)]) == 2
    assert f"error: {flag} must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--alphas", "--c-grid"])
def test_lemma1_empty_list_exits_2_naming_it(tmp_path, capsys, flag):
    # was exit 0 and a CSV without data
    out = tmp_path / "l1.csv"
    assert main(["lemma1", flag, ",", "--samples", "1000", "--out", str(out)]) == 2
    assert f"error: {flag[2:].replace('-', '_')} must be distinct and non-empty, got []" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    # each was exit 0: the repeated alpha's rows written twice and both slope
    # rows carrying the second draw's fit
    (["lemma1", "--alphas", "1.5,1.5", "--c-grid", "1,2", "--samples", "1000"], "--alphas"),
    # the repeated point counted twice in the slope fit
    (["lemma1", "--alphas", "1.5", "--c-grid", "1,1,2", "--samples", "1000"], "--c-grid"),
    # the learning rate run twice and its row written twice
    (_THEOREM1_SMALL + ["--eta", "0.05,0.05"], "--eta"),
    # the repeat dropped silently and the grid reordered
    (_THEOREM1_SMALL + ["--k-grid", "20,5,5"], "--k-grid"),
    # not an integer
    (_THEOREM1_SMALL + ["--k-grid", "5,x"], "--k-grid"),
])
def test_repeated_list_value_exits_2_naming_it(tmp_path, capsys, argv, flag):
    out = tmp_path / "out.csv"
    assert _exit_code(argv + ["--out", str(out)]) == 2
    assert _rejection(argv, flag) in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command, extra, field", [
    ("train", {"methods": "[mac, none, mac]"}, "methods"),  # wrote mini_mac.csv twice
    ("sweep", {"c_grid": "[0.5, 1.0, 0.5]"}, "c_grid"),  # ran every seed twice
    ("sweep", {"c_grid": "{mac: [1.0], gnc: []}"}, "c_grid"),  # failed in the sweep, unnamed
])
def test_duplicate_methods_and_thresholds_exit_2_naming_the_field(tmp_path, capsys, command, extra, field):
    cfg = minimal_config(tmp_path, **extra)
    assert main([command, str(cfg)]) == 2
    assert f"field {field!r} must be distinct and non-empty" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_failed_partition_exits_2(tmp_path, capsys):
    # 64 training samples cannot fill 60 i.i.d. clients in 100 draws
    cfg = minimal_config(tmp_path, model="logistic", n_clients=60, n_samples=80, methods="[mac]")
    assert main(["train", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: failed to draw a partition without empty clients")
    assert not (tmp_path / "out").exists()


def test_sweep_requires_grid(tmp_path, capsys):
    cfg = minimal_config(tmp_path, model="logistic", n_samples=40, feature_dim=2, n_clients=2)
    assert main(["sweep", str(cfg)]) == 2
    assert "c_grid" in capsys.readouterr().err


def test_load_config_validation(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("rounds: 2\nalpha: 3.0\n")
    with pytest.raises(ConfigError, match="alpha"):
        load_config(path)
    path.write_text("rounds: 2\nmethods: [mac, bogus]\n")
    with pytest.raises(ConfigError, match="methods"):
        load_config(path)
    path.write_text("rounds: 0\n")
    with pytest.raises(ConfigError, match="rounds"):
        load_config(path)
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.yaml")
    for text, message in [
        ("rounds: 2\nn_classes: 1\n", "n_classes"),
        ("", "missing required field 'rounds'"),
        ("- rounds\n- 2\n", "config root must be a mapping"),
        # keys that YAML reads as a bool or a number were a TypeError traceback
        ("rounds: 2\nyes: 1\n", "unknown config key\\(s\\): True"),
        ("rounds: 2\n1: 2\n", "unknown config key\\(s\\): 1"),
        ("rounds: 2\n1: 2\nbogus: 3\n", "unknown config key\\(s\\): 1, bogus"),
    ]:
        path.write_text(text)
        with pytest.raises(ConfigError, match=message):
            load_config(path)
        assert main(["train", str(path)]) == 2


@pytest.mark.parametrize("key, value", [
    ("learning_rate", "abc"),
    ("learning_rate", "true"),
    ("alpha", '"x"'),
    ("test_fraction", "x"),
    ("n_classes", "x"),
    ("seed", "true"),
    ("c_grid", "[a]"),
    ("c_grid", "[true]"),
    ("c_grid", "{mac: 3}"),
    ("methods", "3"),
    ("name", "[a, b]"),
    ("name", "1e5"),  # a number since YAML 1.2 floats are read, as 1.0e5 always was
    ("output_dir", "[a]"),
    ("dataset_csv", "5"),
    ("label_column", "[a]"),
    ("class_separation", ".inf"),
    ("learning_rate", ".inf"),
    ("tau", ".inf"),
    ("projection_radius", ".nan"),
    ("c_grid", "[1.0, -.inf]"),
])
def test_wrong_typed_field_is_named(tmp_path, capsys, key, value):
    cfg = minimal_config(tmp_path, **{key: value})
    with pytest.raises(ConfigError, match=key):
        load_config(cfg)
    assert main(["train", str(cfg)]) == 2
    assert key in capsys.readouterr().err


def test_methods_bare_string(tmp_path, capsys):
    cfg = minimal_config(tmp_path, methods="mac")
    assert main(["train", str(cfg)]) == 0
    _, _, rows = read_csv(tmp_path / "out" / "mini_summary.csv")
    assert [r[0] for r in rows] == ["mac"]
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["mini_mac.csv", "mini_summary.csv"]
    cfg = minimal_config(tmp_path, methods="bogus")
    assert main(["train", str(cfg)]) == 2
    assert "got 'bogus'" in capsys.readouterr().err


def test_csv_negative_label_exits_2(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("a,label\n" + "".join(f"{i}.0,{i % 2}\n" for i in range(10)) + "3.0,-1\n")
    cfg = minimal_config(
        tmp_path, model="logistic", n_clients=2, dataset_csv=str(data), methods="[ideal]",
    )
    assert main(["train", str(cfg)]) == 2
    assert "row 11, column 'label'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_csv_nonfinite_feature_exits_2(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("a,label\n" + "".join(f"{i}.0,{i % 2}\n" for i in range(10)) + "nan,1\n")
    cfg = minimal_config(
        tmp_path, model="logistic", n_clients=2, dataset_csv=str(data), methods="[ideal]",
    )
    assert main(["train", str(cfg)]) == 2
    assert "row 11, column 'a': non-finite value 'nan'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_csv_repeated_column_exits_2(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("label,a,label\n" + "".join(f"{i % 2},{i}.0,{i % 2}\n" for i in range(10)))
    cfg = minimal_config(
        tmp_path, model="logistic", n_clients=2, dataset_csv=str(data), methods="[ideal]",
    )
    assert main(["train", str(cfg)]) == 2
    assert "repeated column name 'label'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_dataset_csv_null_means_synthetic_data(tmp_path):
    cfg = minimal_config(tmp_path, model="logistic", dataset_csv="null", methods="[ideal]")
    assert load_config(cfg).dataset_csv is None
    assert main(["train", str(cfg)]) == 0


def test_csv_dataset_config(tmp_path):
    data = tmp_path / "data.csv"
    rows = ["a,b,label"]
    import numpy as np

    rng = np.random.default_rng(0)
    for i in range(60):
        label = i % 2
        x = rng.normal(loc=4.0 * (2 * label - 1), size=2)
        rows.append(f"{x[0]},{x[1]},{label}")
    data.write_text("\n".join(rows) + "\n")
    cfg = minimal_config(
        tmp_path, model="logistic", n_clients=2, rounds=2,
        dataset_csv=str(data), methods="[ideal]",
    )
    assert main(["train", str(cfg)]) == 0
    assert (tmp_path / "out" / "mini_ideal.csv").exists()


def test_sweep_reads_the_dataset_csv_once(tmp_path, monkeypatch):
    # every seed and threshold sees the same file contents, read once
    from otafl import cli

    data = tmp_path / "data.csv"
    rng = np.random.default_rng(1)
    data.write_text("a,b,label\n" + "".join(
        f"{x[0]!r},{x[1]!r},{i % 2}\n" for i, x in enumerate(rng.normal(size=(40, 2)).tolist())
    ))
    reads = []

    def counting_load(*args):
        reads.append(args)
        return load_csv_dataset(*args)

    monkeypatch.setattr(cli, "load_csv_dataset", counting_load)
    cfg = minimal_config(
        tmp_path, model="logistic", n_clients=2, rounds=2, n_seeds=2,
        dataset_csv=str(data), c_grid="{mac: [0.5, 1.0, 2.0]}",
    )
    assert main(["sweep", str(cfg)]) == 0
    assert reads == [(str(data), "label")]
    _, _, rows = read_csv(tmp_path / "out" / "mini_sweep.csv")
    assert len(rows) == 3


# Values that a config field may wrongly hold: wrong types, booleans, lists,
# mappings, null, non-finite floats and numbers outside every field's range.
_FUZZ_VALUES = (
    "x", "", True, False, [], [1.0, "a"], [0.5, 2.0], {}, {"mac": [1.0]}, {"a": 1}, None,
    math.inf, -math.inf, math.nan, [math.nan], {"mac": [math.inf]},
    -1, 0, 1, 3, 0.5, 2.5, -1e-300, 1e308, -1e308, 10**400,
)


def _numbers(value):
    if isinstance(value, dict):
        value = [v for vs in value.values() for v in vs]
    return value if isinstance(value, list) else [value]


def test_validate_fuzz_yields_finite_config_or_config_error():
    # seeded, in the style of acceptance criterion 1: every mutated config
    # either validates to finite numbers or raises ConfigError, nothing else
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240601)
    defaults = {k: list(v) if isinstance(v, tuple) else v
                for k, v in asdict(ExperimentConfig(rounds=3)).items()}
    defaults.update(c_grid=[0.5, 1.0], projection_radius=2.0)
    names = sorted(defaults)
    numeric = [k for k, v in defaults.items() if isinstance(v, (int, float)) and not isinstance(v, bool)]
    outcomes = {"valid": 0, "rejected": 0}
    for _ in range(1000):
        raw = dict(defaults)
        for key in rng.choice(names, size=rng.integers(1, 3), replace=False):
            raw[str(key)] = _FUZZ_VALUES[rng.integers(len(_FUZZ_VALUES))]
        try:
            cfg = validate(raw)
        except ConfigError:
            outcomes["rejected"] += 1
            continue
        outcomes["valid"] += 1
        assert isinstance(cfg, ExperimentConfig)
        for key in numeric + ["c_grid"]:
            if getattr(cfg, key) is None and key in ("c_grid", "projection_radius"):
                continue  # null means "no grid" and "no projection"
            for v in _numbers(getattr(cfg, key)):
                assert isinstance(v, (int, float)) and not isinstance(v, bool), (key, raw[key])
                assert abs(v) <= sys.float_info.max, (key, raw[key])
    assert min(outcomes.values()) >= 25, outcomes  # both branches are exercised
    assert time.perf_counter() - t0 < 2.0


# Scalars a check flag may be given: zero, negative, extreme, non-finite
# (1e400 reads as inf) and ordinary; a list flag may repeat its value.
_CHECK_FUZZ_VALUES = ("0", "-1", "1e-300", "1e300", "0.01", "1e-5", "0.5", "1", "2", "3", "nan", "inf", "-inf", "1e400")
_CHECK_FUZZ_FLAGS = {
    "theorem1": ("--alpha", "--tau", "--eta", "--c"),
    "lemma1": ("--alphas", "--tau", "--c-grid", "--g"),
}
_CHECK_FUZZ_LISTS = ("--eta", "--alphas", "--c-grid")


def test_check_commands_fuzz_exit_0_or_2(tmp_path, capsys):
    # seeded: theorem1 and lemma1 on tiny shapes with one or two scalar flags
    # set from _CHECK_FUZZ_VALUES; each run returns 0 or 2, never a traceback
    # and never argparse's exit: the library checks every number and list.
    # --ideal --eta 0 once raised ZeroDivisionError, and
    # --alpha 1e-300 --tau 0.01 a RuntimeError from a diverged run.
    t0 = time.perf_counter()
    fuzz = np.random.default_rng(18)
    outcomes = {0: 0, 2: 0}
    for _ in range(300):
        command = ("theorem1", "lemma1")[int(fuzz.integers(2))]
        if command == "theorem1":
            argv = [command, "--dim", str(fuzz.integers(1, 4)), "--n-clients", str(fuzz.integers(1, 3)),
                    "--k-grid", "2,5", "--seeds", str(fuzz.integers(1, 3))]
            argv += ["--ideal"] if fuzz.random() < 0.5 else []
            argv += ["--fading", "rayleigh"] if fuzz.random() < 0.5 else []
        else:
            argv = [command, "--samples", str(fuzz.integers(1, 2000))]
            fuzz.random()  # once the coin of a deleted flag; still drawn, so every later case is as before
        flags = _CHECK_FUZZ_FLAGS[command]
        for flag in fuzz.choice(flags, size=fuzz.integers(1, 3), replace=False):
            value = _CHECK_FUZZ_VALUES[int(fuzz.integers(len(_CHECK_FUZZ_VALUES)))]
            if flag in _CHECK_FUZZ_LISTS and fuzz.random() < 0.2:
                value = f"{value},{value}"
            argv.append(f"{flag}={value}")  # one word, so that argparse reads -inf as a value
        code = main(argv + ["--out", str(tmp_path / "out.csv")])
        assert code in outcomes, argv
        outcomes[code] += 1
    capsys.readouterr()
    assert min(outcomes.values()) >= 25, outcomes  # both exits are exercised
    assert time.perf_counter() - t0 < 2.0


def test_diverged_bound_check_exits_2(tmp_path, capsys):
    # at alpha = 0.01 some noise draws are +-inf, the median of an entry
    # becomes inf and the projection turns it into nan; this once raised
    # RuntimeError and exited 1
    out = tmp_path / "t1.csv"
    argv = ["theorem1", "--dim", "1", "--n-clients", "1", "--k-grid", "20", "--seeds", "1", "--alpha", "0.01"]
    assert main(argv + ["--out", str(out)]) == 2
    assert "error: bound-check run diverged at seed 0" in capsys.readouterr().err
    assert not out.exists()


def test_theorem1_rows_on_workers_exit_2_or_3(tmp_path, capsys, monkeypatch):
    # the rows of seeds 1-4 run as two blocks on 2 workers; seed 3, in the
    # second block, diverges at alpha = 0.01 and is named as in one loop. A
    # worker that dies is an infrastructure failure
    out = tmp_path / "t1.csv"
    argv = ["theorem1", "--dim", "1", "--n-clients", "1", "--k-grid", "50", "--seeds", "4", "--seed", "1",
            "--alpha", "0.01", "--out", str(out)]
    monkeypatch.setattr(fl_core, "_CORES", 1)
    assert main(argv) == 2
    one_loop = capsys.readouterr().err
    assert one_loop == "error: bound-check run diverged at seed 3; the clipped update should stay bounded\n"
    monkeypatch.setattr(fl_core, "_CORES", 2)
    assert main(argv) == 2
    assert capsys.readouterr().err == one_loop
    assert multiprocessing.active_children() == []
    parent = os.getpid()

    def dying(*args):
        assert os.getpid() != parent  # never ends the test process
        os._exit(1)

    monkeypatch.setattr(fl_core, "run_replicas", dying)
    assert main(["theorem1", "--dim", "2", "--n-clients", "2", "--k-grid", "5", "--seeds", "2", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("infrastructure error: A process in the process pool was terminated abruptly")
    assert "Traceback" not in err
    assert not out.exists()
    assert multiprocessing.active_children() == []


def test_lemma1_tail_indices_on_workers_exit_3_if_one_dies(tmp_path, capsys, monkeypatch):
    # each span of a tail index's chunks runs as a unit on a worker; a worker
    # that dies is an infrastructure failure, as for theorem1's rows. At
    # 10-sample chunks the 300 samples are more than one chunk, so they fork
    monkeypatch.setattr(fl_core, "_CORES", 2)
    monkeypatch.setattr(stable_noise, "_CHUNK", 10)
    parent = os.getpid()

    def dying(*args):
        assert os.getpid() != parent  # never ends the test process
        os._exit(1)

    monkeypatch.setattr(stable_noise, "_count_inside", dying)
    out = tmp_path / "l1.csv"
    assert main(["lemma1", "--alphas", "1.1,1.5,1.9", "--samples", "100", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("infrastructure error: A process in the process pool was terminated abruptly")
    assert "Traceback" not in err
    assert not out.exists()
    assert multiprocessing.active_children() == []


def test_lemma1_has_no_difference_law_flag(tmp_path, capsys):
    # the deviation has one law, the difference of two draws; the flag that
    # chose a second one is gone, and argparse rejects it before any draw
    out = tmp_path / "x.csv"
    assert _exit_code(["lemma1", "--difference-law", "exact", "--out", str(out)]) == 2
    assert "error: unrecognized arguments: --difference-law exact" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_one_usable_core_runs_theorem1_in_one_loop_with_the_same_bytes(tmp_path, monkeypatch):
    # a child process that keeps one CPU before it imports otafl reads one
    # usable core, so it runs the rows as one loop; its file equals that
    # of this process at 2 cores, where the rows run as blocks on workers
    args = ["theorem1", "--dim", "3", "--n-clients", "2", "--seeds", "3", "--k-grid", "4,9",
            "--fading", "rayleigh", "--eta", "0.1,0.05,0.02", "--seed", "3"]
    code = ("import os, sys; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
            "from otafl import fl_core; from otafl.cli import main; "
            "print(fl_core._CORES); sys.exit(main(sys.argv[1:]))")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    child = subprocess.run([sys.executable, "-c", code, *args, "--out", str(tmp_path / "one.csv")],
                           env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    assert child.stdout == "1\n"
    monkeypatch.setattr(fl_core, "_CORES", 2)
    assert main([*args, "--out", str(tmp_path / "two.csv")]) == 0
    assert multiprocessing.active_children() == []
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()


def test_memory_error_exits_3(tmp_path, capsys, monkeypatch):
    # rounds: 1000000000000 once ended in a numpy _ArrayMemoryError traceback
    # with exit 1; whether that allocation fails depends on the allocator, so
    # the failure is raised here directly
    def cmd_train(args):
        raise MemoryError("Unable to allocate 7.28 TiB")

    monkeypatch.setattr(cli, "cmd_train", cmd_train)
    assert main(["train", str(minimal_config(tmp_path))]) == 3
    assert "infrastructure error: Unable to allocate" in capsys.readouterr().err


def test_a_failing_seed_exits_2_and_a_dead_worker_exits_3(tmp_path, capsys, monkeypatch):
    # seeds run in worker processes: an error of the run comes back as it
    # was raised, and a worker that dies is an infrastructure failure
    monkeypatch.setattr(fl_core, "_CORES", 2)
    cfg = minimal_config(tmp_path, n_seeds=3, c_grid="[0.5, 1.0]", seed=0)
    parent, run_replicas = os.getpid(), fl_core.run_replicas

    def failing(cfgs, *args):
        assert os.getpid() != parent
        if cfgs[0].seed == 1:
            raise ValueError("seed 1 diverged beyond repair")
        return run_replicas(cfgs, *args)

    monkeypatch.setattr(fl_core, "run_replicas", failing)
    assert main(["sweep", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: seed 1 diverged beyond repair\n"
    assert multiprocessing.active_children() == []

    def dying(cfgs, *args):
        assert os.getpid() != parent  # never ends the test process
        os._exit(1)

    monkeypatch.setattr(fl_core, "run_replicas", dying)
    assert main(["sweep", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("infrastructure error: A process in the process pool was terminated abruptly")
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "mini_sweep.csv").exists()
    assert multiprocessing.active_children() == []

    # any other RuntimeError is a fault of the program, with its traceback
    def cmd_sweep(args):
        raise RuntimeError("not a pool failure")

    monkeypatch.setattr(cli, "cmd_sweep", cmd_sweep)
    with pytest.raises(RuntimeError, match="not a pool failure"):
        main(["sweep", str(cfg)])


# SHA-256 of every CSV that _pinned_csvs writes, recorded with numpy 2.4.6
# before methods, thresholds and learning rates became rows of one round
# loop (the mlp4 files: before the server step clipped and counted its
# blocks in one pass; the t1 files: when theorem1 wrote its (K, eta) points
# as one table, with an eta column and every rate in the provenance line,
# each float as before; the l1 files: when lemma1's provenance line gained
# its thresholds, every row as before; l1_regime.csv: before Lemma 1's report
# fitted each slope from its own rows, at g > 0, so it holds a regime
# violation, a row outside the asymptotic regime, Gaussian oracle errors and
# zero clip probabilities, which the fit skips; the mlpce and l10 files:
# before the softmax heads folded their class axis column by column; the
# three l1 files again when lemma1's provenance line dropped its
# difference_law=exact token with the second difference law, every other
# line as before, and when Lemma 1 drew each deviation as one SaS variate
# against a margin shrunk by 2**(1/alpha), the same law from half the
# variates). Any change to the engine must leave them byte-identical.
_PINNED_NUMPY = "2.4.6"
_PINNED_DIGESTS = {
    "l1.csv": "e19654d5197265c12f20d8ead5fbf548ec30ced43d0bbed52ddbc36272d1dc48",
    "l10_sweep.csv": "7b3710f2bff0f74a3e870f60d58b4dd68c611c7e25aa4923d325497630e44bf0",
    "l1_chunks.csv": "61d4eda068ad0a8731d484934237f1c89733d755498e797d0643cdd832f18b58",
    "l1_regime.csv": "e6cde534658ce6ac66a774a9a9c38c3a020385740035d791ed5d62c1f601c6e7",
    "lfull_sweep.csv": "f8ba53647423051c3026e60cebf6d38db9d72142cbb2b73d6d580cf12b5c9608",
    "mini_gnc.csv": "d8ede1df6cae5fe7b929f26e3ccf6616137ffd7ba6c8ba4ca1b0500e7da153a1",
    "mini_ideal.csv": "36c59c37e260ef8fb7664ac3fa290a1e77c0d1829fb412df40b98ac090dc9b18",
    "mini_mac.csv": "764012c49d9291c65700e5a2aec47b57d51a98a4a28d33f7ed55f0ae34b9bbf1",
    "mini_none.csv": "2ac75eb2b13f7d99e4e3124db6ad05bda9f5d726a008d4122ff6197c14b7bed4",
    "mini_summary.csv": "29c0fc93a7d28d59975353918121b40d7fc4c166427399ada2539a7eb2b68e7d",
    "mini_sweep.csv": "2f971565b08545036f3b8953944890613d2b96fc6f5b83143efbfcee4931e15c",
    "mlp4_gnc.csv": "d13a698eaa47482bcd541f8ea7b29c6340e790f34e4a0d6a5822785be56d3b48",
    "mlp4_ideal.csv": "834cef4376c3e3997525a93586a0de6d146361f081f4ff15cd66bcd4bbd837b4",
    "mlp4_mac.csv": "a2c63e4ba979c78a52023477d59d170dd88021a31a0823f17777fd4bbef7cb88",
    "mlp4_none.csv": "8b61e4e0643f5bbdaba67efa970977edca250995a8798459acfdebfead86a80b",
    "mlp4_summary.csv": "ec45bb0eb20ea2580213bbebd392ec01048f42eb0c297f05c7054187fca8f2d5",
    "mlpce_mac.csv": "1648e3186bfd0bfff03b94cca01c51a9d23b5148bd66d670bc252ba5baa51df1",
    "mlpce_none.csv": "3588db90fad62a4593a1636a472a4cb8041d33b44e246fc234335102e743b56c",
    "mlpce_summary.csv": "94fabe1d198612d16372b75b5123e19a281250d017a7a526a860d3135fa97fd8",
    "mlpfull_gnc.csv": "76b8b5471a18c508f1f46a2f24f430d7c55ea4a75dc632b5fc9b6e1edea996d8",
    "mlpfull_ideal.csv": "b54e3e13e3f19cefb4734fd60727b2f7195f157cfd035953da54437b0bca590a",
    "mlpfull_mac.csv": "42e3629c745757f51c5df31bac746f95a45eddceaf3a562087d35a584eced371",
    "mlpfull_none.csv": "b4e73c457d9488ff90c367ee7daedf509f4566e1be0a6c9283421877eae4c50e",
    "mlpfull_summary.csv": "e3a8b4acfb44076854decfefd53032705c1490dcdaa0a5b4db7e3169722d17db",
    "t1.csv": "a8deb6e0f32d6775810a1bbe8a5387c286b59a7503a92b04476177bbaf301d22",
    "t1_ideal.csv": "47e8074f2cb0385d6bbdb2e86b6fa0468d03a02d6ee9fbfecfbb492a8df0dd62",
    "t1_nosweep.csv": "86ef550a2d5c668372b52b7cf7c02b874f1d965cd66e3d28df9bd02ea3b59bfa",
}


def _pinned_csvs(tmp_path):
    """train and sweep on a small shuffling logistic config whose unclipped
    run diverges, theorem1 at two learning rates on the noisy and on the
    ideal channel and at the default one, lemma1 within one and across two sample chunks
    and with thresholds on both sides of its window,
    train on a small shuffling MLP config, train (MLP) and sweep
    (3-class logistic) on full-batch configs whose clients differ in size,
    train on a cross-entropy MLP and sweep a 10-class logistic config:
    {file: sha256}."""
    cfg = minimal_config(
        tmp_path, model="logistic", methods="[ideal, mac, gnc, none]", n_clients=3, n_samples=60,
        feature_dim=3, rounds=6, batch_size=5, local_epochs=2, fading="rayleigh", alpha=0.5, tau=1.0,
        learning_rate=0.5, c_grid="{mac: [0.3, 1.0], gnc: [2.0]}", n_seeds=2, eval_every=2, seed=3,
    )
    out = tmp_path / "out"
    assert main(["train", str(cfg)]) == 0
    assert main(["sweep", str(cfg)]) == 0
    assert main(_THEOREM1_SMALL + ["--seeds", "3", "--k-grid", "5,20", "--eta", "0.1,0.05",
                                   "--out", str(out / "t1.csv")]) == 0
    assert main(_THEOREM1_SMALL + ["--seeds", "3", "--k-grid", "5,20", "--eta", "0.1,0.05", "--ideal",
                                   "--out", str(out / "t1_ideal.csv")]) == 0
    assert main(_THEOREM1_SMALL + ["--seeds", "3", "--k-grid", "5,20", "--out", str(out / "t1_nosweep.csv")]) == 0
    assert main(_LEMMA1_SMALL + ["--out", str(out / "l1.csv")]) == 0
    # more than one chunk, so many transform blocks, at the tangent, generic and Gaussian tail indices
    assert main(["lemma1", "--alphas", "1,1.5,2", "--c-grid", "1,2", "--samples", "1100000",
                 "--out", str(out / "l1_chunks.csv")]) == 0
    # Lemma 1's window at g > 0: every row kind, and a fit that skips zero clip probabilities
    assert main(["lemma1", "--g", "0.3", "--alphas", "1.5,2", "--c-grid", "0.2,0.45,1,2,5", "--samples", "2000",
                 "--out", str(out / "l1_regime.csv")]) == 0
    # the MLP's four parameter blocks, each clipped and counted on its own
    mlp = minimal_config(
        tmp_path, name="mlp4", model="mlp", hidden_units=3, mlp_loss="squared_error",
        methods="[ideal, mac, gnc, none]", n_clients=3, n_samples=60, feature_dim=3, rounds=5,
        batch_size=5, local_epochs=2, fading="rayleigh", alpha=1.5, tau=0.5, learning_rate=0.2,
        mac_threshold=0.5, gnc_threshold=3.0, n_seeds=2, eval_every=2, seed=4,
    )
    assert main(["train", str(mlp)]) == 0
    # full batch on clients of unequal size: one step of the largest-first plan
    mlp_full = minimal_config(
        tmp_path, name="mlpfull", model="mlp", hidden_units=3, mlp_loss="squared_error", partition="dirichlet",
        methods="[ideal, mac, gnc, none]", n_clients=5, n_samples=90, feature_dim=3, rounds=6,
        batch_size=1000, local_epochs=3, fading="rayleigh", alpha=1.5, tau=0.5, learning_rate=0.2,
        mac_threshold=0.5, gnc_threshold=3.0, eval_every=2, seed=4,
    )
    assert main(["train", str(mlp_full)]) == 0
    logistic_full = minimal_config(
        tmp_path, name="lfull", model="logistic", n_classes=3, partition="dirichlet", n_clients=4,
        n_samples=80, feature_dim=3, rounds=5, batch_size=1000, local_epochs=2, fading="rayleigh",
        alpha=1.2, tau=0.5, learning_rate=0.3, c_grid="{mac: [0.3, 1.0], gnc: [2.0]}", n_seeds=2, seed=6,
    )
    assert main(["sweep", str(logistic_full)]) == 0
    # the MLP's softmax cross-entropy head, at 3 classes
    mlp_ce = minimal_config(
        tmp_path, name="mlpce", model="mlp", hidden_units=3, mlp_loss="cross_entropy", n_classes=3,
        methods="[mac, none]", n_clients=3, n_samples=60, feature_dim=3, rounds=5, batch_size=5,
        local_epochs=2, fading="rayleigh", alpha=1.5, tau=0.5, learning_rate=0.3, mac_threshold=0.5,
        n_seeds=2, eval_every=2, seed=8,
    )
    assert main(["train", str(mlp_ce)]) == 0
    # a 10-class softmax: class axes of 8 and more reduce in numpy's pairwise order
    logistic_10 = minimal_config(
        tmp_path, name="l10", model="logistic", n_classes=10, n_clients=3, n_samples=150, feature_dim=10,
        rounds=4, batch_size=5, local_epochs=2, fading="rayleigh", alpha=1.5, tau=0.5, learning_rate=0.3,
        c_grid="{mac: [0.3, 1.0], gnc: [2.0]}", n_seeds=2, eval_every=2, seed=9,
    )
    assert main(["sweep", str(logistic_10)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.glob("*.csv"))}


def test_csv_bytes_match_the_pinned_digests(tmp_path):
    if np.__version__ != _PINNED_NUMPY:
        pytest.skip(f"digests were recorded with numpy {_PINNED_NUMPY}, this is numpy {np.__version__}")
    assert _pinned_csvs(tmp_path) == _PINNED_DIGESTS
