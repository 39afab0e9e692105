"""Experiment configuration: YAML schema, defaults, and validation.

One flat key/value file drives every command. Unknown keys, missing
required keys, and out-of-domain values are reported by name; YAML syntax
errors surface with the parser's line/column marker.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import yaml

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "parse_overrides"]

_METHODS = ("mac", "gnc", "none", "ideal")
_MODELS = ("quadratic", "logistic", "mlp")
_PARTITIONS = ("iid", "dirichlet")
_FADINGS = ("rayleigh", "none", "deterministic")
_ACTIVATIONS = ("relu", "tanh")
_MLP_LOSSES = ("cross_entropy", "squared_error")


class ConfigError(ValueError):
    """Invalid or unparsable experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved experiment settings; every field has a documented default
    except `rounds`."""

    rounds: int
    name: str = "experiment"
    output_dir: str = "runs"
    seed: int = 0
    methods: tuple[str, ...] = ("mac", "gnc", "none", "ideal")
    n_clients: int = 50
    learning_rate: float = 0.03
    local_epochs: int = 5
    batch_size: int = 10
    eval_every: int = 10
    model: str = "logistic"
    hidden_units: int = 32
    activation: str = "relu"
    mlp_loss: str = "cross_entropy"
    quadratic_dim: int = 10
    feature_dim: int = 20
    n_classes: int = 2
    n_samples: int = 2000
    class_separation: float = 4.0
    test_fraction: float = 0.2
    partition: str = "iid"
    dirichlet_concentration: float = 0.3
    alpha: float = 1.5
    tau: float = 0.1
    fading: str = "rayleigh"
    fading_gain: float = 1.0
    mac_threshold: float = 1.0
    gnc_threshold: float = 10.0
    dataset_csv: str | None = None
    label_column: str = "label"
    n_seeds: int = 1
    c_grid: dict | list | None = None
    projection_radius: float | None = None


_FIELD_NAMES = {f.name for f in fields(ExperimentConfig)}
_REQUIRED = ("rounds",)


def _check_choice(name: str, value: str, choices) -> None:
    if value not in choices:
        raise ConfigError(f"field {name!r} must be one of {choices}, got {value!r}")


def _check_number(name: str, value) -> None:
    # bool is an int subclass, but `true` in a config is a typo, not a 1
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"field {name!r} must be a number, got {value!r}")
    # false for nan, +-inf and integers beyond the float range
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(f"field {name!r} must be a finite number, got {value!r}")


def _check_positive(name: str, value, strict=True) -> None:
    _check_number(name, value)
    ok = value > 0 if strict else value >= 0
    if not ok:
        raise ConfigError(f"field {name!r} must be {'positive' if strict else '>= 0'}, got {value}")


def validate(raw: dict) -> ExperimentConfig:
    unknown = sorted(set(raw) - _FIELD_NAMES)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    for key in _REQUIRED:
        if key not in raw:
            raise ConfigError(f"missing required field {key!r}")
    if "methods" in raw:
        raw = dict(raw)
        methods = raw["methods"]
        if isinstance(methods, str):
            methods = [methods]
        if not isinstance(methods, (list, tuple)):
            raise ConfigError(f"field 'methods' must be a method name or a list of them, got {methods!r}")
        raw["methods"] = tuple(methods)
    try:
        cfg = ExperimentConfig(**raw)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None

    for name in ("name", "output_dir", "label_column", "dataset_csv"):
        value = getattr(cfg, name)
        if not isinstance(value, str) and not (name == "dataset_csv" and value is None):
            raise ConfigError(f"field {name!r} must be a string, got {value!r}")
    for method in cfg.methods:
        _check_choice("methods", method, _METHODS)
    if not cfg.methods:
        raise ConfigError("field 'methods' must list at least one method")
    _check_choice("model", cfg.model, _MODELS)
    _check_choice("partition", cfg.partition, _PARTITIONS)
    _check_choice("fading", cfg.fading, _FADINGS)
    _check_choice("activation", cfg.activation, _ACTIVATIONS)
    _check_choice("mlp_loss", cfg.mlp_loss, _MLP_LOSSES)
    for name in ("seed", "rounds", "n_clients", "local_epochs", "batch_size", "eval_every",
                 "hidden_units", "quadratic_dim", "feature_dim", "n_classes", "n_samples", "n_seeds"):
        value = getattr(cfg, name)
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"field {name!r} must be an integer, got {value!r}")
        _check_positive(name, value, strict=name != "seed")
    for name in ("learning_rate", "tau", "mac_threshold", "gnc_threshold",
                 "dirichlet_concentration", "fading_gain"):
        _check_positive(name, getattr(cfg, name))
    _check_positive("class_separation", cfg.class_separation, strict=False)
    _check_number("alpha", cfg.alpha)
    if not 0.0 < cfg.alpha <= 2.0:
        raise ConfigError(f"field 'alpha' must lie in (0, 2], got {cfg.alpha}")
    _check_number("test_fraction", cfg.test_fraction)
    if not 0.0 < cfg.test_fraction < 1.0:
        raise ConfigError(f"field 'test_fraction' must lie in (0, 1), got {cfg.test_fraction}")
    if cfg.n_classes < 2:
        raise ConfigError(f"field 'n_classes' must be >= 2, got {cfg.n_classes}")
    if cfg.projection_radius is not None:
        _check_positive("projection_radius", cfg.projection_radius)
    if cfg.c_grid is not None:
        grid = cfg.c_grid
        lists = list(grid.values()) if isinstance(grid, dict) else [grid]
        if not all(isinstance(vs, list) for vs in lists):
            raise ConfigError(
                f"field 'c_grid' must be a list of thresholds or a mapping of method to list, got {grid!r}"
            )
        entries = [v for vs in lists for v in vs]
        if not entries:
            raise ConfigError("field 'c_grid' must not be empty")
        for v in entries:
            _check_positive("c_grid", v)
        if isinstance(grid, dict):
            for key in grid:
                _check_choice("c_grid", key, ("mac", "gnc"))
    return cfg


def load_config(path: str | Path, overrides: dict | None = None) -> ExperimentConfig:
    """Parse a YAML config file, apply flag overrides, validate."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config parse error in {path}: {exc}") from None
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be a mapping of keys to values, got {type(raw).__name__}")
    if overrides:
        raw.update(overrides)
    return validate(raw)


def parse_overrides(pairs: list[str]) -> dict:
    """Parse repeated ``--set key=value`` flags; values go through YAML for
    typing, so lists and numbers work the same as in the file."""
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override {pair!r} is not of the form key=value")
        key, value = pair.split("=", 1)
        key = key.strip()
        if key not in _FIELD_NAMES:
            raise ConfigError(f"unknown config key(s): {key}")
        try:
            out[key] = yaml.safe_load(value)
        except yaml.YAMLError as exc:
            raise ConfigError(f"override {pair!r}: {exc}") from None
    return out


def resolved_summary(cfg: ExperimentConfig) -> str:
    """Single deterministic line with every resolved setting that can change
    the results.

    ``output_dir`` is left out: it says where a run writes, not what it
    computes, and keeping it would make two runs of one config and seed
    written to different directories differ in their provenance line.
    Lists and mappings are written as compact JSON, so the line splits on
    whitespace into ``key=value`` tokens.
    """
    parts = []
    for f in sorted(_FIELD_NAMES - {"output_dir"}):
        value = getattr(cfg, f)
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        elif isinstance(value, (list, dict)):
            value = json.dumps(value, separators=(",", ":"))
        parts.append(f"{f}={value}")
    return " ".join(parts)
