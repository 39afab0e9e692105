"""Command-line experiment runner.

Four subcommands, all writing deterministic CSV files:

* ``train``    -- run every configured method on one task under matched seeds
* ``lemma1``   -- measure the probability an entry survives clipping and fit
                  its tail exponent against the power-law asymptote
* ``theorem1`` -- compare the simulated average squared gradient norm on the
                  quadratic testbed against the closed-form bound
* ``sweep``    -- grid-search clip thresholds per method

Exit codes: 0 success, 2 configuration error, 3 infrastructure failure.
Flags override config keys (flags > file > defaults).
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import clip_survival_report, make_quadratic_testbed, verify_convergence_bound
from .channel import ChannelConfig, FadingModel
from .clipping import ClipMethod
from .config import ConfigError, ExperimentConfig, load_config, parse_overrides, resolved_summary
from .data import PartitionSpec, load_csv_dataset, make_synthetic_classification, partition, train_test_split
from .fl_core import FLConfig, compare_methods, run_threshold_sweep
from .models import LogisticModel, MlpModel
from .stable_noise import RegimeError, StableParams

__all__ = ["main", "build_task_factory", "to_fl_config"]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _version_line(extra: str) -> str:
    return f"# otafl-{__version__} {extra}"


def _write_csv(path: Path, header_comment: str, columns: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(header_comment + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


# ---------------------------------------------------------------------------
# task assembly


def build_task_factory(cfg: ExperimentConfig):
    """(seed) -> (model, client datasets, held-out data) per the config."""
    if cfg.model == "quadratic":

        def factory(seed: int):
            testbed = make_quadratic_testbed(
                dim=cfg.quadratic_dim, n_clients=cfg.n_clients, seed=seed, b_scale=1.0
            )
            return testbed.model, testbed.client_datas, None

        return factory

    # read once here, so every seed and method sees the same file contents
    csv_data = None if cfg.dataset_csv is None else load_csv_dataset(cfg.dataset_csv, cfg.label_column)

    def factory(seed: int):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 5]))
        if csv_data is not None:
            full = csv_data
        else:
            full = make_synthetic_classification(
                cfg.n_samples, cfg.feature_dim, cfg.n_classes, cfg.class_separation, rng
            )
        n_classes = max(2, int(full.y.max()) + 1)
        train, test = train_test_split(full, cfg.test_fraction, rng)
        clients = partition(
            train,
            PartitionSpec(cfg.partition, cfg.n_clients, cfg.dirichlet_concentration, seed=seed),
        )
        p = full.x.shape[1]
        if cfg.model == "logistic":
            model = LogisticModel(p, n_classes)
        else:
            model = MlpModel(
                p, cfg.hidden_units, n_classes,
                activation=cfg.activation, loss_kind=cfg.mlp_loss,
            )
        return model, clients, test

    return factory


def to_fl_config(cfg: ExperimentConfig) -> FLConfig:
    """Loop-level config with the noisy channel; specialize per method with
    fl_core.method_variant."""
    return FLConfig(
        n_clients=cfg.n_clients,
        rounds=cfg.rounds,
        learning_rate=cfg.learning_rate,
        clip=ClipMethod.none(),
        channel=ChannelConfig(FadingModel(cfg.fading, cfg.fading_gain), StableParams(cfg.alpha, cfg.tau)),
        local_epochs=cfg.local_epochs,
        batch_size=cfg.batch_size,
        seed=cfg.seed,
        eval_every=cfg.eval_every,
        projection_radius=cfg.projection_radius,
    )


# ---------------------------------------------------------------------------
# subcommands

_TRAIN_COLUMNS = ["round", "loss", "grad_norm_sq", "snr_db", "clipped_fraction", "accuracy", "diverged"]


def cmd_train(args) -> int:
    cfg = load_config(args.config, parse_overrides(args.set))
    outdir = Path(cfg.output_dir)
    results = compare_methods(
        build_task_factory(cfg), to_fl_config(cfg), cfg.methods, 1, cfg.mac_threshold, cfg.gnc_threshold
    )
    summary_rows = []
    for method in cfg.methods:
        [result] = results[method]
        records = result.records
        rows = [
            [
                r.round,
                r.global_loss,
                r.grad_norm_sq,
                r.snr_db,
                r.overall_clipped_fraction,
                r.eval_accuracy,
                r.diverged,
            ]
            for r in records
        ]
        _write_csv(
            outdir / f"{cfg.name}_{method}.csv",
            _version_line(f"method={method} {resolved_summary(cfg)}"),
            _TRAIN_COLUMNS,
            rows,
        )
        accuracies = [r.eval_accuracy for r in records if r.eval_accuracy is not None]
        summary_rows.append(
            [
                method,
                records[-1].global_loss,
                result.final_eval_accuracy,
                max(accuracies) if accuracies else None,
                result.diverged,
                len(records),
            ]
        )
    _write_csv(
        outdir / f"{cfg.name}_summary.csv",
        _version_line(resolved_summary(cfg)),
        ["method", "final_loss", "final_accuracy", "best_accuracy", "diverged", "rounds_completed"],
        summary_rows,
    )
    return 0


def cmd_lemma1(args) -> int:
    report = clip_survival_report(
        alphas=args.alphas,
        tau=args.tau,
        c_grid=args.c_grid,
        g=args.g,
        n_samples=args.samples,
        seed=args.seed,
        difference_law=args.difference_law,
    )
    flags = (
        f"alphas={','.join(map(str, args.alphas))} tau={args.tau} g={args.g} "
        f"samples={args.samples} seed={args.seed} difference_law={args.difference_law}"
    )
    rows = []
    for alpha in args.alphas:
        for r in report.rows_for(alpha):
            clip_prob = None if np.isnan(r.empirical_clip_prob) else r.empirical_clip_prob
            rows.append([r.alpha, r.threshold, clip_prob, r.asymptote, r.gaussian_oracle_err, None, r.note])
        slope = report.slopes[float(alpha)]
        rows.append([alpha, None, None, None, None, None if np.isnan(slope) else slope, ""])
    _write_csv(
        Path(args.out),
        _version_line(flags),
        ["alpha", "c", "empirical_clip_prob", "asymptote", "gaussian_oracle_err", "fitted_slope", "note"],
        rows,
    )
    return 0


def cmd_theorem1(args) -> int:
    report = verify_convergence_bound(
        dim=args.dim,
        n_clients=args.n_clients,
        k_grid=args.k_grid,
        n_seeds=args.seeds,
        alpha=args.alpha,
        tau=args.tau,
        seed=args.seed,
        eta=args.eta,
        c=args.c,
        fading=args.fading,
        ideal=args.ideal,
        eta_grid=args.eta_sweep or (),
    )
    rows = [[r.rounds, r.empirical_avg, r.bound_rhs, r.margin_ratio] for r in report.rows]
    _write_csv(
        Path(args.out),
        _version_line(report.config_summary),
        ["K", "empirical_avg_grad_sq", "bound_rhs", "margin_ratio"],
        rows,
    )
    if report.eta_rows:
        out = Path(args.out)
        eta_path = out.with_name(out.stem + "_eta.csv")
        _write_csv(
            eta_path,
            _version_line(report.config_summary),
            ["eta", "empirical_avg_grad_sq", "bound_rhs", "margin_ratio"],
            [[r.eta, r.empirical_avg, r.bound_rhs, r.margin_ratio] for r in report.eta_rows],
        )
    return 0


def cmd_sweep(args) -> int:
    cfg = load_config(args.config, parse_overrides(args.set))
    if cfg.c_grid is None:
        raise ConfigError("sweep requires the 'c_grid' field (list or per-method mapping)")
    grid = cfg.c_grid if isinstance(cfg.c_grid, dict) else {"mac": list(cfg.c_grid), "gnc": list(cfg.c_grid)}
    base = to_fl_config(cfg)
    rows = run_threshold_sweep(build_task_factory(cfg), base, grid, n_seeds=cfg.n_seeds)
    out_rows = [
        [
            r.method,
            r.threshold,
            None if np.isnan(r.median_final_accuracy) else r.median_final_accuracy,
            r.median_final_loss,
            r.n_diverged,
            r.best,
        ]
        for r in rows
    ]
    _write_csv(
        Path(cfg.output_dir) / f"{cfg.name}_sweep.csv",
        _version_line(resolved_summary(cfg)),
        ["method", "c", "median_final_accuracy", "median_final_loss", "n_diverged", "best"],
        out_rows,
    )
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _finite_float(text: str) -> float:
    """A finite number; argparse names the flag when this raises."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _float_list(text: str) -> list[float]:
    values = [_finite_float(v) for v in text.split(",") if v != ""]
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")
    return values


def _int_list(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otafl",
        description="Analog over-the-air federated learning simulator with "
        "median-anchored gradient clipping.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="run the configured methods on one task")
    train.add_argument("config", help="path to a YAML experiment config")
    train.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key (repeatable; flags win over the file)")
    train.set_defaults(func=cmd_train)

    l1 = sub.add_parser("lemma1", help="clip-survival probabilities and tail exponents")
    l1.add_argument("--alphas", type=_float_list, default=[1.1, 1.5, 1.9])
    l1.add_argument("--tau", type=_finite_float, default=0.1)
    l1.add_argument("--c-grid", type=_float_list, default=[float(c) for c in np.logspace(0, 1, 6)])
    l1.add_argument("--g", type=_finite_float, default=0.0, help="per-client gradient norm bound")
    l1.add_argument("--samples", type=int, default=10**6)
    l1.add_argument("--seed", type=int, default=0)
    l1.add_argument("--difference-law", choices=["exact", "sqrt2"], default="exact")
    l1.add_argument("--out", default="lemma1.csv")
    l1.set_defaults(func=cmd_lemma1)

    t1 = sub.add_parser("theorem1", help="convergence bound check on the quadratic testbed")
    t1.add_argument("--dim", type=int, default=10)
    t1.add_argument("--n-clients", type=int, default=5)
    t1.add_argument("--k-grid", type=_int_list, default=[10, 100, 1000])
    t1.add_argument("--seeds", type=int, default=20)
    t1.add_argument("--alpha", type=_finite_float, default=1.5)
    t1.add_argument("--tau", type=_finite_float, default=0.1)
    t1.add_argument("--eta", type=_finite_float, default=None, help="defaults to 1/L")
    t1.add_argument("--c", type=_finite_float, default=None, help="defaults to 2*sqrt(2)*G")
    t1.add_argument("--seed", type=int, default=0)
    t1.add_argument("--fading", choices=["none", "rayleigh"], default="none")
    t1.add_argument("--ideal", action="store_true", help="noiseless channel, classical bound")
    t1.add_argument("--eta-sweep", type=_float_list, default=None)
    t1.add_argument("--out", default="theorem1.csv")
    t1.set_defaults(func=cmd_theorem1)

    sweep = sub.add_parser("sweep", help="threshold grid search per method")
    sweep.add_argument("config", help="path to a YAML experiment config with c_grid")
    sweep.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, RegimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"infrastructure error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
