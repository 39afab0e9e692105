"""Synchronous federated training over the simulated analog uplink.

Each round: every client runs local descent from the broadcast parameters,
the pseudo-gradients cross the noisy multi-access channel as one faded
average, the server clips the received vector block-wise, takes a gradient
step, and broadcasts again. Client, channel, and init randomness derive from
independent, round-keyed child seeds, so changing one stream never perturbs
the others.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import ChannelConfig, measure_snr, sample_fading, transmit
from .clipping import ClipMethod, apply_blockwise, clip_statistics, merge_blocks, split_blocks, vector_median

__all__ = [
    "FLConfig",
    "RoundRecord",
    "TrainResult",
    "client_rng",
    "channel_rng",
    "init_rng",
    "prepare_task",
    "run_round",
    "run_training",
    "evaluate",
    "compare_methods",
    "method_variant",
    "run_threshold_sweep",
    "SweepRow",
]

_STREAM_INIT, _STREAM_CLIENT, _STREAM_CHANNEL = 0, 1, 2

# A run is declared diverged once its loss exceeds this multiple of the
# initial loss (with an absolute floor of 1) or stops being finite.
_DIVERGENCE_FACTOR = 1e6


def client_rng(seed: int, round_idx: int, client_idx: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([seed, _STREAM_CLIENT, round_idx, client_idx])
    )


def channel_rng(seed: int, round_idx: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, _STREAM_CHANNEL, round_idx]))


def init_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, _STREAM_INIT]))


@dataclass(frozen=True)
class FLConfig:
    """Loop-level knobs of one training run."""

    n_clients: int
    rounds: int
    learning_rate: float
    clip: ClipMethod
    channel: ChannelConfig
    local_epochs: int = 1
    batch_size: int = 1_000_000_000  # effectively full batch
    seed: int = 0
    eval_every: int = 10
    projection_radius: float | None = None

    def __post_init__(self) -> None:
        if self.n_clients < 1 or self.rounds < 1:
            raise ValueError("n_clients and rounds must be >= 1")
        if not self.learning_rate > 0.0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.local_epochs < 1 or self.batch_size < 1 or self.eval_every < 1:
            raise ValueError("local_epochs, batch_size and eval_every must be >= 1")
        if self.projection_radius is not None and not self.projection_radius > 0.0:
            raise ValueError("projection_radius must be positive when set")


@dataclass(frozen=True)
class RoundRecord:
    """Per-round telemetry."""

    round: int
    global_loss: float
    grad_norm_sq: float
    snr_db: float
    clipped_fraction: tuple[float, ...]
    update_norm: float
    median_mean_gap: float
    eval_accuracy: float | None = None
    wall_time: float = 0.0
    diverged: bool = False

    @property
    def overall_clipped_fraction(self) -> float:
        return float(np.mean(self.clipped_fraction))


@dataclass(frozen=True)
class TrainResult:
    records: list[RoundRecord]
    final_w: np.ndarray
    diverged: bool
    diverged_round: int | None = None
    final_eval_loss: float | None = None
    final_eval_accuracy: float | None = None


@dataclass(frozen=True)
class _Step:
    """One local minibatch step of every client: the columns it reads, the
    clients that still have samples there (a slice when all do), and their
    sample weights (None when no column is padding)."""

    cols: slice
    active: np.ndarray | slice
    weight: np.ndarray | None


@dataclass(frozen=True)
class _PreparedTask:
    """Client payloads stacked into tensors padded to the largest client,
    plus the plan of local steps, for vectorized rounds."""

    model: object
    n_clients: int
    eval_data: object | None
    x: np.ndarray
    y: np.ndarray
    mask: np.ndarray | None  # None when no client is padded
    steps: tuple[_Step, ...]
    shuffled: tuple[tuple[int, int], ...]  # (client, size) where a batch is smaller than the data


def prepare_task(model, client_datas, cfg: FLConfig, eval_data=None) -> _PreparedTask:
    """Stack client payloads and plan the local steps of `cfg` once, so every
    round is a handful of array ops."""
    n = len(client_datas)
    if n < 1:
        raise ValueError("need at least one client")
    sizes = np.array([len(d.y) for d in client_datas])
    if sizes.min() < 1:
        raise ValueError("every client needs at least one sample")
    m_max = int(sizes.max())
    first = client_datas[0]
    x = np.zeros((n, m_max) + first.x.shape[1:])
    y = np.zeros((n, m_max) + first.y.shape[1:], dtype=first.y.dtype)
    mask = np.zeros((n, m_max))
    for i, d in enumerate(client_datas):
        m = len(d.y)
        x[i, :m] = d.x
        y[i, :m] = d.y
        mask[i, :m] = 1.0

    # weight[n, j] = 1 while t*b + j is a real sample of client n; clients
    # whose samples are exhausted at step t are skipped entirely (their
    # gradient would be zero)
    b = int(min(cfg.batch_size, m_max))
    steps = []
    for start in range(0, m_max, b):
        cols = slice(start, min(start + b, m_max))
        active = np.flatnonzero(sizes > start)
        weight = mask[active, cols]
        steps.append(_Step(
            cols=cols,
            active=active if active.size < n else slice(None),
            weight=None if weight.all() else weight,
        ))
    return _PreparedTask(
        model=model,
        n_clients=n,
        eval_data=eval_data,
        x=x,
        y=y,
        mask=None if mask.all() else mask,
        steps=tuple(steps),
        shuffled=tuple((i, m) for i, m in enumerate(sizes.tolist()) if cfg.batch_size < m),
    )


def _pseudo_gradients(task: _PreparedTask, w: np.ndarray, cfg: FLConfig, round_idx: int) -> np.ndarray:
    """Pseudo-gradient of every client, stacked to (N, d).

    Row n reproduces the naive per-client oracle `local_update` of
    tests/conftest.py for client n driven by client_rng(cfg.seed, round_idx, n):
    same batch order, same step count, vectorized across clients with
    zero-weight padding. The per-client windows [t*min(batch, m_n), ...)
    coincide with the global windows [t*batch, (t+1)*batch) over each
    client's shuffled list, so every step is an aligned slice of one
    per-epoch gather. A one-sample client takes `local_epochs` full-gradient
    steps.
    """
    model, lr = task.model, cfg.learning_rate
    n = task.n_clients
    rngs = [(i, m, client_rng(cfg.seed, round_idx, i)) for i, m in task.shuffled]
    xr, yr = task.x, task.y
    grad_sum = np.zeros((n, w.size))
    w_local = np.repeat(w[None], n, axis=0)
    for _ in range(cfg.local_epochs):
        if rngs:
            order = np.repeat(np.arange(task.y.shape[1])[None], n, axis=0)
            for i, m, rng in rngs:
                order[i, :m] = rng.permutation(m)
            rows = np.arange(n)[:, None]
            xr = task.x[rows, order]
            yr = task.y[rows, order]
        for step in task.steps:
            active = step.active
            g = model.gradient(
                w_local[active], xr[active, step.cols], yr[active, step.cols],
                sample_weight=step.weight,
            )
            grad_sum[active] += g
            w_local[active] -= lr * g
    return grad_sum


def _block_clip_fractions(blocks, method: ClipMethod) -> tuple[float, ...]:
    if method.kind == "mac":
        return tuple(1.0 - clip_statistics(b, method.threshold)[1] for b in blocks)
    if method.kind == "gnc":
        return tuple(1.0 if np.linalg.norm(b) > method.threshold else 0.0 for b in blocks)
    return tuple(0.0 for _ in blocks)


def run_round(w: np.ndarray, k: int, cfg: FLConfig, task: _PreparedTask) -> tuple[np.ndarray, RoundRecord]:
    """Round k from parameters w: local compute, noisy aggregation,
    server-side clipping, global step. Returns the next parameters and the
    round's record.

    Arithmetic overflow is silenced: an exploding unclipped baseline is a
    measured outcome, handled by the divergence policy in run_training.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _run_round_inner(w, k, cfg, task)


def _run_round_inner(w: np.ndarray, k: int, cfg: FLConfig, task: _PreparedTask) -> tuple[np.ndarray, RoundRecord]:
    t0 = time.perf_counter()
    pseudo = _pseudo_gradients(task, w, cfg, k)
    true_mean = pseudo.mean(axis=0)

    rng_ch = channel_rng(cfg.seed, k)
    if cfg.channel.noise_enabled:
        gains = sample_fading(cfg.channel.fading, cfg.n_clients, rng_ch)
    else:
        gains = np.ones(cfg.n_clients)
    received, noise = transmit(pseudo, gains, cfg.channel, rng_ch)
    snr_db = measure_snr(true_mean, noise)

    blocks = split_blocks(received, task.model.block_layout)
    clipped_fraction = _block_clip_fractions(blocks, cfg.clip)
    clipped = merge_blocks(apply_blockwise(blocks, cfg.clip))

    w_next = w - cfg.learning_rate * clipped
    if cfg.projection_radius is not None:
        norm = float(np.linalg.norm(w_next))
        if norm > cfg.projection_radius:
            w_next = w_next * (cfg.projection_radius / norm)

    loss = float(np.mean(task.model.loss(w, task.x, task.y, sample_weight=task.mask)))
    record = RoundRecord(
        round=k,
        global_loss=loss,
        grad_norm_sq=float(np.sum(true_mean**2)),
        snr_db=snr_db,
        clipped_fraction=clipped_fraction,
        update_norm=float(np.linalg.norm(w_next - w)),
        median_mean_gap=abs(vector_median(received) - float(np.mean(received))),
        eval_accuracy=_maybe_eval(task, w_next, cfg, k),
        wall_time=time.perf_counter() - t0,
    )
    return w_next, record


def _maybe_eval(task: _PreparedTask, w: np.ndarray, cfg: FLConfig, k: int) -> float | None:
    due = (k + 1) % cfg.eval_every == 0 or k == cfg.rounds - 1
    if task.eval_data is None or not task.model.is_classifier or not due:
        return None
    if not np.all(np.isfinite(w)):
        return None
    _, acc = evaluate(task.model, w, task.eval_data)
    return acc


def run_training(cfg: FLConfig, model, client_datas, eval_data=None, w0=None) -> TrainResult:
    """Run `cfg.rounds` rounds; stops early once the run diverges.

    Divergence (loss beyond 1e6 times the initial loss, or any non-finite
    value) is recorded on the terminal round record rather than raised: the
    unclipped baseline is expected to blow up under heavy-tailed noise.
    """
    if len(client_datas) != cfg.n_clients:
        raise ValueError(
            f"config expects {cfg.n_clients} clients, got {len(client_datas)} datasets"
        )
    task = prepare_task(model, client_datas, cfg, eval_data)
    w = np.asarray(w0, dtype=float).copy() if w0 is not None else model.init_params(init_rng(cfg.seed))
    if w.shape != (model.dim,):
        raise ValueError(f"initial parameters must have shape ({model.dim},), got {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("initial parameters must be finite")

    records: list[RoundRecord] = []
    loss_ceiling = None
    diverged = False
    diverged_round = None
    final_w = w
    for k in range(cfg.rounds):
        w_before = w
        w, record = run_round(w, k, cfg, task)
        if loss_ceiling is None and np.isfinite(record.global_loss):
            loss_ceiling = _DIVERGENCE_FACTOR * max(1.0, abs(record.global_loss))
        blew_up = (
            not np.isfinite(record.global_loss)
            or (loss_ceiling is not None and record.global_loss > loss_ceiling)
            or not np.all(np.isfinite(w))
        )
        if blew_up:
            records.append(replace(record, diverged=True))
            diverged = True
            diverged_round = k
            # keep the last finite iterate for downstream evaluation
            final_w = w if np.all(np.isfinite(w)) else w_before
            break
        records.append(record)
        final_w = w

    final_eval_loss = None
    final_eval_accuracy = None
    if eval_data is not None:
        final_eval_loss, final_eval_accuracy = evaluate(model, final_w, eval_data)
    return TrainResult(
        records=records,
        final_w=final_w,
        diverged=diverged,
        diverged_round=diverged_round,
        final_eval_loss=final_eval_loss,
        final_eval_accuracy=final_eval_accuracy,
    )


def evaluate(model, w, data) -> tuple[float, float | None]:
    """(loss, accuracy) on held-out data; accuracy is None for non-classifiers."""
    loss = float(model.loss(w, data.x, data.y))
    if not model.is_classifier:
        return loss, None
    accuracy = float(np.mean(model.predict(w, data.x) == data.y))
    return loss, accuracy


# ---------------------------------------------------------------------------
# method comparison and threshold sweeps


def method_variant(cfg: FLConfig, method: str, mac_threshold: float, gnc_threshold: float) -> FLConfig:
    """Specialize a base config to one of ideal / mac / gnc / none."""
    if method == "ideal":
        return replace(cfg, clip=ClipMethod.none(), channel=replace(cfg.channel, noise_enabled=False))
    noisy = replace(cfg.channel, noise_enabled=True)
    if method == "mac":
        return replace(cfg, clip=ClipMethod.mac(mac_threshold), channel=noisy)
    if method == "gnc":
        return replace(cfg, clip=ClipMethod.gnc(gnc_threshold), channel=noisy)
    if method == "none":
        return replace(cfg, clip=ClipMethod.none(), channel=noisy)
    raise ValueError(f"unknown method {method!r}")


def compare_methods(
    task_factory,
    base_cfg: FLConfig,
    methods,
    n_seeds: int,
    mac_threshold: float,
    gnc_threshold: float,
) -> dict[str, list[TrainResult]]:
    """Run every method under matched seeds: seed s uses base seed + s for
    model init, data, channel and batching alike."""
    results: dict[str, list[TrainResult]] = {m: [] for m in methods}
    for s in range(n_seeds):
        seed = base_cfg.seed + s
        model, client_datas, eval_data = task_factory(seed)
        for method in methods:
            cfg = replace(
                method_variant(base_cfg, method, mac_threshold, gnc_threshold), seed=seed
            )
            results[method].append(run_training(cfg, model, client_datas, eval_data))
    return results


@dataclass(frozen=True)
class SweepRow:
    method: str
    threshold: float
    median_final_accuracy: float
    median_final_loss: float
    n_diverged: int
    best: bool = False
    accuracies: tuple[float, ...] = field(default=(), repr=False)


def _final_loss(result: TrainResult) -> float:
    loss = result.records[-1].global_loss if result.records else np.inf
    return loss if np.isfinite(loss) else np.inf


def _final_accuracy(result: TrainResult) -> float:
    if result.final_eval_accuracy is not None:
        return result.final_eval_accuracy
    return np.nan


def run_threshold_sweep(
    task_factory,
    base_cfg: FLConfig,
    c_grid: dict[str, list[float]],
    n_seeds: int,
) -> list[SweepRow]:
    """Grid of clip thresholds per method; the best row per method (highest
    median accuracy, ties to lower loss) is marked."""
    if not c_grid or any(len(v) == 0 for v in c_grid.values()):
        raise ValueError("sweep needs a non-empty threshold grid per method")
    rows: list[SweepRow] = []
    for method, thresholds in c_grid.items():
        if method not in ("mac", "gnc"):
            raise ValueError(f"sweep supports 'mac' and 'gnc', got {method!r}")
        for c in thresholds:
            results = compare_methods(
                task_factory, base_cfg, [method], n_seeds, mac_threshold=c, gnc_threshold=c
            )[method]
            accs = np.array([_final_accuracy(r) for r in results], dtype=float)
            losses = np.array([_final_loss(r) for r in results], dtype=float)
            rows.append(
                SweepRow(
                    method=method,
                    threshold=float(c),
                    median_final_accuracy=float(np.nanmedian(accs)) if accs.size else np.nan,
                    median_final_loss=float(np.median(losses)),
                    n_diverged=sum(r.diverged for r in results),
                    accuracies=tuple(float(a) for a in accs),
                )
            )
    marked: list[SweepRow] = []
    for method in c_grid:
        method_rows = [r for r in rows if r.method == method]
        best = max(
            method_rows,
            key=lambda r: (
                -np.inf if np.isnan(r.median_final_accuracy) else r.median_final_accuracy,
                -r.median_final_loss,
            ),
        )
        for r in method_rows:
            marked.append(replace(r, best=r is best))
    return marked
