import csv
import math
import sys
import time
import warnings
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from otafl.cli import main
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
    assert parse_overrides(["rounds=7", "methods=[mac]"]) == {"rounds": 7, "methods": ["mac"]}


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
    assert columns == ["K", "empirical_avg_grad_sq", "bound_rhs", "margin_ratio"]
    empirical = [float(r[1]) for r in rows]
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


@pytest.mark.parametrize("argv, flag", [
    (_LEMMA1_SMALL + ["--g", "nan"], "--g"),  # was a StopIteration traceback
    (_THEOREM1_SMALL + ["--c", "inf"], "--c"),  # was exit 0 with nan bounds
    (_LEMMA1_SMALL + ["--tau", "inf"], "--tau"),  # was exit 0, every clip probability 1
    (["lemma1", "--alphas", "1.5", "--c-grid", "1,nan", "--samples", "1000"], "--c-grid"),
])
def test_nonfinite_float_flag_exits_2_naming_it(tmp_path, capsys, argv, flag):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert f"argument {flag}: expected a finite number" in capsys.readouterr().err
    assert not out.exists()


def test_theorem1_ideal_flag(tmp_path):
    out = tmp_path / "t1.csv"
    assert main([
        "theorem1", "--dim", "3", "--n-clients", "2", "--k-grid", "5,25",
        "--seeds", "1", "--ideal", "--out", str(out),
    ]) == 0
    _, _, rows = read_csv(out)
    assert all(float(r[3]) <= 1.0 for r in rows)


def test_theorem1_eta_sweep_writes_second_file(tmp_path):
    out = tmp_path / "t1.csv"
    assert main([
        "theorem1", "--dim", "3", "--n-clients", "2", "--k-grid", "5",
        "--seeds", "1", "--eta-sweep", "0.1,0.05", "--out", str(out),
    ]) == 0
    _, columns, rows = read_csv(tmp_path / "t1_eta.csv")
    assert columns[0] == "eta"
    assert len(rows) == 2


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
    with pytest.raises(SystemExit) as exc:
        main(["lemma1", flag, ",", "--samples", "1000", "--out", str(out)])
    assert exc.value.code == 2
    assert f"argument {flag}: expected comma-separated numbers" in capsys.readouterr().err
    assert not out.exists()


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
