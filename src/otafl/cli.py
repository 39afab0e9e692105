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
from .stable_noise import StableParams

__all__ = ["main", "build_task_factory", "to_fl_config"]


def _write_csv(path: Path, provenance: str, columns: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(f"# otafl-{__version__} {provenance}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        # the csv module writes None as "", a float as its repr, anything else as its str
        writer.writerows(rows)


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
        cols = result.columns
        # python floats (tolist): the csv module writes a numpy float as its repr
        losses = cols["global_loss"].tolist()
        accuracies = [None if math.isnan(a) else a for a in cols["eval_accuracy"].tolist()]
        rounds = range(len(losses))
        rows = zip(
            rounds, losses, cols["grad_norm_sq"].tolist(), cols["snr_db"].tolist(),
            cols["clipped_fraction"].mean(axis=-1).tolist(), accuracies,
            [k == result.diverged_round for k in rounds],
        )
        _write_csv(
            outdir / f"{cfg.name}_{method}.csv",
            f"method={method} {resolved_summary(cfg)}",
            _TRAIN_COLUMNS,
            rows,
        )
        best = max((a for a in accuracies if a is not None), default=None)
        summary_rows.append([method, losses[-1], result.final_eval_accuracy, best, result.diverged, len(losses)])
    _write_csv(
        outdir / f"{cfg.name}_summary.csv",
        resolved_summary(cfg),
        ["method", "final_loss", "final_accuracy", "best_accuracy", "diverged", "rounds_completed"],
        summary_rows,
    )
    return 0


def _library_kwargs(args) -> dict:
    """The flags the user gave, named as the library's parameters; the
    library's defaults cover the rest."""
    return {k: v for k, v in vars(args).items() if k not in ("command", "func", "out")}


def cmd_lemma1(args) -> int:
    report = clip_survival_report(**_library_kwargs(args))
    rows = []
    for alpha, slope in report.slopes.items():
        for r in report.rows_for(alpha):
            clip_prob = None if np.isnan(r.empirical_clip_prob) else r.empirical_clip_prob
            rows.append([r.alpha, r.threshold, clip_prob, r.asymptote, r.gaussian_oracle_err, None, r.note])
        rows.append([alpha, None, None, None, None, None if np.isnan(slope) else slope, ""])
    _write_csv(
        Path(args.out),
        report.config_summary,
        ["alpha", "c", "empirical_clip_prob", "asymptote", "gaussian_oracle_err", "fitted_slope", "note"],
        rows,
    )
    return 0


def cmd_theorem1(args) -> int:
    report = verify_convergence_bound(**_library_kwargs(args))
    table = [[r.rounds, r.eta, r.empirical_avg, r.bound_rhs, r.margin_ratio] for r in report.rows]
    _write_csv(Path(args.out), report.config_summary, ["K", "eta", "empirical_avg_grad_sq", "bound_rhs", "margin_ratio"], table)
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
        resolved_summary(cfg),
        ["method", "c", "median_final_accuracy", "median_final_loss", "n_diverged", "best"],
        out_rows,
    )
    return 0


# ---------------------------------------------------------------------------
# argument parsing


# the list flags only split on commas: the library checks each value and the
# list, so a flag's error names the library parameter; argparse names a value
# that is no number by its type's name ("invalid floats value")
def floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v != ""]


def ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v != ""]


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

    # lemma1 and theorem1 set no default but --out: a flag not given takes
    # the library's default, and each dest is the library's parameter name
    l1 = sub.add_parser("lemma1", help="clip-survival probabilities and tail exponents",
                        argument_default=argparse.SUPPRESS)
    l1.add_argument("--alphas", type=floats)
    l1.add_argument("--tau", type=float)
    l1.add_argument("--c-grid", type=floats)
    l1.add_argument("--g", type=float, help="per-client gradient norm bound")
    l1.add_argument("--samples", dest="n_samples", metavar="SAMPLES", type=int)
    l1.add_argument("--seed", type=int)
    l1.add_argument("--out", default="lemma1.csv")
    l1.set_defaults(func=cmd_lemma1)

    t1 = sub.add_parser("theorem1", help="convergence bound check on the quadratic testbed",
                        argument_default=argparse.SUPPRESS)
    t1.add_argument("--dim", type=int)
    t1.add_argument("--n-clients", type=int)
    t1.add_argument("--k-grid", type=ints)
    t1.add_argument("--seeds", dest="n_seeds", metavar="SEEDS", type=int)
    t1.add_argument("--alpha", type=float)
    t1.add_argument("--tau", type=float)
    t1.add_argument("--eta", dest="eta_grid", metavar="ETA", type=floats, help="comma list; defaults to 1/L")
    t1.add_argument("--c", type=float, help="defaults to 2*sqrt(2)*G")
    t1.add_argument("--seed", type=int)
    t1.add_argument("--fading", choices=["none", "rayleigh"])
    t1.add_argument("--ideal", action="store_true", help="noiseless channel, classical bound")
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
    except ValueError as exc:  # ConfigError and RegimeError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, MemoryError, RuntimeError) as exc:
        from concurrent.futures.process import BrokenProcessPool  # a seed's worker process died
        if isinstance(exc, RuntimeError) and not isinstance(exc, BrokenProcessPool):
            raise
        print(f"infrastructure error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
