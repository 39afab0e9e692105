"""Experiment configuration: YAML schema, defaults, and validation.

One flat key/value file drives every command. Unknown keys, missing
required keys, and out-of-domain values are reported by name; YAML syntax
errors surface with the parser's line/column marker.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, fields
from pathlib import Path

import yaml

from .stable_noise import _check_choice, _check_finite, _check_grid, _check_integer, _check_nonnegative, _check_positive

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "parse_overrides"]

_METHODS = ("mac", "gnc", "none", "ideal")
_MODELS = ("quadratic", "logistic", "mlp")
_PARTITIONS = ("iid", "dirichlet")
_FADINGS = ("rayleigh", "none", "deterministic")
_ACTIVATIONS = ("relu", "tanh")
_MLP_LOSSES = ("cross_entropy", "squared_error")


class _Loader(yaml.SafeLoader):
    """SafeLoader that also reads YAML 1.2's exponent floats (1e-3, 1E5, 5e+2) as numbers, not strings."""


_Loader.add_implicit_resolver("tag:yaml.org,2002:float", re.compile(r"[-+]?(\.[0-9]+|[0-9]+(\.[0-9]*)?)[eE][-+]?[0-9]+$"),
                              list("-+.0123456789"))  # on a copy of the inherited lists: yaml.SafeLoader is unchanged


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
# every integer field, with its least value
_LEAST = {"seed": 0, "n_classes": 2, "rounds": 1, "n_clients": 1, "local_epochs": 1, "batch_size": 1, "eval_every": 1,
          "hidden_units": 1, "quadratic_dim": 1, "feature_dim": 1, "n_samples": 1, "n_seeds": 1}


def _field(rule, name: str, *args) -> None:
    # stable_noise's rule, named as config names a field: "field 'x' must be ..."
    try:
        rule(repr(name), *args)
    except ValueError as exc:
        raise ConfigError(f"field {exc}") from None


def validate(raw: dict) -> ExperimentConfig:
    # YAML keys need not be strings (`yes:` is True, `1:` is 1)
    unknown = sorted(map(str, set(raw) - _FIELD_NAMES))
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
    cfg = ExperimentConfig(**raw)

    for name in ("name", "output_dir", "label_column", "dataset_csv"):
        value = getattr(cfg, name)
        if not isinstance(value, str) and not (name == "dataset_csv" and value is None):
            raise ConfigError(f"field {name!r} must be a string, got {value!r}")
    for method in cfg.methods:
        _field(_check_choice, "methods", method, _METHODS)
    _field(_check_grid, "methods", cfg.methods)
    for name, choices in (("model", _MODELS), ("partition", _PARTITIONS), ("fading", _FADINGS),
                          ("activation", _ACTIVATIONS), ("mlp_loss", _MLP_LOSSES)):
        _field(_check_choice, name, getattr(cfg, name), choices)
    for name, low in _LEAST.items():
        _field(_check_integer, name, getattr(cfg, name), low)
        _field(_check_finite, name, getattr(cfg, name))
    positives = ("learning_rate", "tau", "mac_threshold", "gnc_threshold", "dirichlet_concentration", "fading_gain")
    if cfg.projection_radius is not None:  # null means no projection
        positives += ("projection_radius",)
    for name in positives:
        _field(_check_positive, name, getattr(cfg, name))
    _field(_check_nonnegative, "class_separation", cfg.class_separation)
    _field(_check_finite, "alpha", cfg.alpha)
    if not 0.0 < cfg.alpha <= 2.0:
        raise ConfigError(f"field 'alpha' must lie in (0, 2], got {cfg.alpha}")
    _field(_check_finite, "test_fraction", cfg.test_fraction)
    if not 0.0 < cfg.test_fraction < 1.0:
        raise ConfigError(f"field 'test_fraction' must lie in (0, 1), got {cfg.test_fraction}")
    if cfg.c_grid is not None:
        grid = cfg.c_grid
        lists = list(grid.values()) if isinstance(grid, dict) else [grid]
        if not all(isinstance(vs, list) for vs in lists):
            raise ConfigError(
                f"field 'c_grid' must be a list of thresholds or a mapping of method to list, got {grid!r}"
            )
        for vs in lists:
            for v in vs:
                _field(_check_positive, "c_grid", v)
            _field(_check_grid, "c_grid", vs)
        if isinstance(grid, dict):
            _field(_check_grid, "c_grid", grid)
            for key in grid:
                _field(_check_choice, "c_grid", key, ("mac", "gnc"))
    return cfg


def load_config(path: str | Path, overrides: dict | None = None) -> ExperimentConfig:
    """Parse a YAML config file, apply flag overrides, validate."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    try:
        raw = yaml.load(text, _Loader)
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
            out[key] = yaml.load(value, _Loader)
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
