"""Synchronous federated training over the simulated analog uplink.

Each round: every client runs local descent from the broadcast parameters,
the pseudo-gradients cross the noisy multi-access channel as one faded
average, the server clips the received vector block-wise, takes a gradient
step, and broadcasts again. Client, channel, and init randomness derive from
independent, round-keyed child seeds, so changing one stream never perturbs
the others.

One round loop can carry R replicas of a run: replica r is the run at seed
`cfg.seed + r`, row r of the (R, d) parameters, and it draws from its own
streams, so it comes out bit for bit as that run alone would.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .channel import ChannelConfig, measure_snr, sample_fading, transmit
from .clipping import ClipMethod, apply_blockwise, block_clip_fractions, gnc_clip, merge_blocks, split_blocks, vector_median

__all__ = [
    "FLConfig",
    "RoundRecord",
    "TrainResult",
    "client_rng",
    "channel_rng",
    "init_rng",
    "prepare_task",
    "run_round",
    "run_replicas",
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


@dataclass(frozen=True, slots=True)
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
    """One run's outcome. Its telemetry is kept as columns, one entry per
    completed round, keyed by the RoundRecord field names (an eval_accuracy
    of nan means no evaluation that round); `records` builds the records
    from them on access."""

    columns: dict[str, np.ndarray]
    final_w: np.ndarray
    diverged: bool
    diverged_round: int | None = None
    final_eval_accuracy: float | None = None

    @property
    def records(self) -> list[RoundRecord]:
        """One record per completed round; the terminal record of a diverged
        run has diverged=True."""
        columns = {name: col.tolist() for name, col in self.columns.items()}
        columns["clipped_fraction"] = [tuple(f) for f in columns["clipped_fraction"]]
        columns["eval_accuracy"] = [None if math.isnan(a) else a for a in columns["eval_accuracy"]]
        return [
            RoundRecord(round=k, diverged=k == self.diverged_round, **{name: col[k] for name, col in columns.items()})
            for k in range(len(columns["global_loss"]))
        ]


@dataclass(frozen=True)
class _Step:
    """One local minibatch step of every client: the columns it reads, the
    number of clients that still have samples there (a prefix in step
    order), and their sample weights (None when no column is padding)."""

    cols: slice
    n_active: int
    weight: np.ndarray | None


@dataclass(frozen=True)
class _PreparedTask:
    """Client payloads stacked once into tensors padded to the largest
    client, plus the plan of local steps, for vectorized rounds. Replicas
    share both: the parameters carry the replica axis."""

    model: object
    eval_data: object | None
    x: np.ndarray  # (clients, samples, ...)
    y: np.ndarray
    mask: np.ndarray | None  # None when no client is padded
    steps: tuple[_Step, ...]
    shuffled: tuple[tuple[int, int], ...]  # (client, size) where a batch is smaller than the data
    # where a client shuffles (else None): each client's position in step
    # order, each round's sample orders as (epochs, positions, samples) flat
    # rows of x and y, and each epoch's gather
    position: np.ndarray | None
    order: np.ndarray | None
    x_epoch: np.ndarray | None
    y_epoch: np.ndarray | None


def prepare_task(model, client_datas, cfg: FLConfig, eval_data=None) -> _PreparedTask:
    """Stack client payloads, check a classifier's labels, and plan the local
    steps of `cfg` once, so every round is a handful of array ops."""
    n = len(client_datas)
    if n < 1:
        raise ValueError("need at least one client")
    sizes = np.array([len(d.y) for d in client_datas])
    if sizes.min() < 1:
        raise ValueError("every client needs at least one sample")
    m_max = int(sizes.max())
    first = client_datas[0]
    x = np.zeros((n, m_max) + first.x.shape[1:])
    y = np.zeros((n, m_max) + first.y.shape[1:], dtype=np.result_type(*{d.y.dtype for d in client_datas}))
    mask = np.zeros((n, m_max))
    for i, d in enumerate(client_datas):
        m = len(d.y)
        x[i, :m] = d.x
        y[i, :m] = d.y
        mask[i, :m] = 1.0
    if model.is_classifier:
        # any other label trains on an all-zero one-hot row, or fails mid-run in the loss
        for labels in [y] + ([] if eval_data is None else [np.asarray(eval_data.y)]):
            bad = np.argwhere(~np.isin(labels, np.arange(model.n_classes)))
            if bad.size:
                where = f"client {bad[0][0]}" if labels is y else "held-out data"
                label = labels[tuple(bad[0])].item()
                raise ValueError(f"{where} has label {label!r}; labels must be integers in [0, {model.n_classes})")

    # Steps visit the clients largest first when any shuffles (a full-batch
    # task takes one step), so those with samples left at step t are a
    # prefix; weight[s, j] = 1 while t*b + j is a real sample of the client
    # at position s. Exhausted clients are skipped (their gradient is zero).
    shuffled = tuple((i, m) for i, m in enumerate(sizes.tolist()) if cfg.batch_size < m)
    step_order = np.argsort(-sizes, kind="stable") if shuffled else np.arange(n)
    b = int(min(cfg.batch_size, m_max))
    steps = []
    for start in range(0, m_max, b):
        cols = slice(start, min(start + b, m_max))
        n_active = int(np.count_nonzero(sizes > start))
        weight = mask[step_order[:n_active], cols]
        steps.append(_Step(cols=cols, n_active=n_active, weight=None if weight.all() else weight))
    return _PreparedTask(
        model=model,
        eval_data=eval_data,
        x=x,
        y=y,
        mask=None if mask.all() else mask,
        steps=tuple(steps),
        shuffled=shuffled,
        position=np.argsort(step_order) if shuffled else None,
        # a client that never shuffles keeps its rows in sample order
        order=np.repeat([step_order[:, None] * m_max + np.arange(m_max)], cfg.local_epochs, axis=0) if shuffled else None,
        x_epoch=np.empty_like(x) if shuffled else None,
        y_epoch=np.empty_like(y) if shuffled else None,
    )


def _pseudo_gradients(task: _PreparedTask, w: np.ndarray, cfg: FLConfig, round_idx: int) -> np.ndarray:
    """Pseudo-gradient of every client of every replica, (R, N, d) for
    parameters w of shape (R, d).

    Client n reproduces the naive per-client oracle `local_update` of
    tests/conftest.py driven by client_rng(cfg.seed, round_idx, n): same
    batch order, same step count, vectorized across clients with
    zero-weight padding. The per-client windows [t*min(batch, m_n), ...)
    coincide with the global windows [t*batch, (t+1)*batch) over each
    client's shuffled list, so every step is an aligned slice of one
    per-epoch gather. A one-sample client takes `local_epochs` full-gradient
    steps. The payload has no replica axis; the local parameters do, and
    the models broadcast them against it. Only a single replica may shuffle.
    Every step writes its gradient into (a prefix of) one (R, N, d) buffer,
    in step order; the result is in client order.
    """
    model, lr = task.model, cfg.learning_rate
    n, m_max = task.y.shape[:2]
    xr, yr = task.x, task.y
    if task.shuffled:
        # each client's generator draws its permutations in epoch order;
        # shuffling its rows in place draws what rng.permutation(m) would
        for i, m in task.shuffled:
            rng = client_rng(cfg.seed, round_idx, i)
            rows = task.order[:, task.position[i], :m]
            rows[:] = np.arange(i * m_max, i * m_max + m)
            for order in rows:
                rng.shuffle(order)
        xr, yr = task.x_epoch, task.y_epoch
    w_local = np.repeat(w[:, None], n, axis=1)
    grad_sum = np.zeros_like(w_local)
    g = np.empty_like(w_local)
    for epoch in range(cfg.local_epochs):
        if task.shuffled:
            # mode="clip" leaves `out` unbuffered; the indices are in range
            for src, dst in [(task.x, xr), (task.y, yr)]:
                np.take(src.reshape(n * m_max, *src.shape[2:]), task.order[epoch], axis=0, out=dst, mode="clip")
        for step in task.steps:
            k = step.n_active
            g_step = g[:, :k]
            model.gradient(w_local[:, :k], xr[:k, step.cols], yr[:k, step.cols], sample_weight=step.weight, out=g_step)
            grad_sum[:, :k] += g_step
            g_step *= lr
            w_local[:, :k] -= g_step
    return grad_sum if task.position is None else grad_sum[:, task.position]


def run_round(w: np.ndarray, k: int, cfg: FLConfig, task: _PreparedTask) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Round k from parameters w of shape (R, d), one row per replica: local
    compute, noisy aggregation, server-side clipping, global step. Returns
    the next parameters and the round's telemetry, one array per RoundRecord
    field (but round, wall_time and diverged) with a leading replica axis.

    Arithmetic overflow is silenced: an exploding unclipped baseline is a
    measured outcome, handled by the divergence policy in run_replicas.
    """
    if w.ndim != 2 or w.shape[1] != task.model.dim:
        raise ValueError(f"parameters must have shape (R, {task.model.dim}), got {w.shape}")
    if task.shuffled and len(w) > 1:
        # shuffles are drawn per client index, from cfg.seed alone
        i, m = task.shuffled[0]
        raise ValueError(f"replicas need clients that never shuffle; client {i} has {m} samples, batch_size is {cfg.batch_size}")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        pseudo = _pseudo_gradients(task, w, cfg, k)
        true_mean = pseudo.mean(axis=1)

        # each replica draws its fades, then its noise, from its own stream
        rngs = [channel_rng(cfg.seed + r, k) for r in range(len(w))]
        gains = np.stack([sample_fading(cfg.channel.fading, cfg.n_clients, rng) for rng in rngs])
        received, noise = transmit(pseudo, gains, cfg.channel, rngs)

        blocks = split_blocks(received, task.model.block_layout)
        clipped = merge_blocks(apply_blockwise(blocks, cfg.clip))

        w_next = w - cfg.learning_rate * clipped
        if cfg.projection_radius is not None:
            # projection onto the ball is norm clipping at its radius
            w_next = gnc_clip(w_next, cfg.projection_radius)

        step = w_next - w
        return w_next, {
            "global_loss": task.model.loss(w[:, None], task.x, task.y, sample_weight=task.mask).mean(axis=-1),
            "grad_norm_sq": np.sum(true_mean**2, axis=-1),
            "snr_db": measure_snr(true_mean, noise),
            "clipped_fraction": block_clip_fractions(blocks, cfg.clip),
            "update_norm": np.sqrt(np.vecdot(step, step)),
            "median_mean_gap": np.abs(vector_median(received) - np.mean(received, axis=-1)),
            "eval_accuracy": _eval_accuracies(task, w_next, cfg, k),
        }


def _eval_accuracies(task: _PreparedTask, w: np.ndarray, cfg: FLConfig, k: int) -> np.ndarray:
    """Held-out accuracy per replica; nan off the evaluation cadence,
    without held-out data or a classifier, and for non-finite parameters."""
    accuracies = np.full(len(w), np.nan)
    due = (k + 1) % cfg.eval_every == 0 or k == cfg.rounds - 1
    if task.eval_data is None or not task.model.is_classifier or not due:
        return accuracies
    for r, row in enumerate(w):
        if np.all(np.isfinite(row)):
            accuracies[r] = evaluate(task.model, row, task.eval_data)
    return accuracies


def run_replicas(cfg: FLConfig, model, client_datas, n_replicas: int, eval_data=None, w0=None) -> list[TrainResult]:
    """Run `cfg.rounds` rounds of `n_replicas` replicas in one round loop.

    Replica r is the run at seed `cfg.seed + r`, started from `w0` or else
    from `init_params(init_rng(cfg.seed + r))`; its result equals
    `run_training` at that seed bit for bit, but for `wall_time`, which is
    the batched round's. Replicas share one step plan, so more than one
    replica needs clients that never shuffle (batch_size at least the
    client's size). The telemetry of all replicas is kept in (R, rounds)
    columns; each result holds views of its rows.

    Divergence (loss beyond 1e6 times the initial loss, or any non-finite
    value) is recorded on the terminal round rather than raised: the
    unclipped baseline is expected to blow up under heavy-tailed noise. A
    diverged replica gets no further rounds and keeps its last finite
    iterate; the loop stops once every replica has diverged.
    """
    if len(client_datas) != cfg.n_clients:
        raise ValueError(
            f"config expects {cfg.n_clients} clients, got {len(client_datas)} datasets"
        )
    if n_replicas < 1:
        raise ValueError(f"n_replicas must be >= 1, got {n_replicas}")
    task = prepare_task(model, client_datas, cfg, eval_data)
    starts = [model.init_params(init_rng(cfg.seed + r)) if w0 is None else w0 for r in range(n_replicas)]
    w = np.array(starts, dtype=float)
    if w.shape[1:] != (model.dim,):
        raise ValueError(f"initial parameters must have shape ({model.dim},), got {w.shape[1:]}")
    if not np.all(np.isfinite(w)):
        raise ValueError("initial parameters must be finite")

    columns: dict[str, np.ndarray] = {}
    wall_time = np.zeros(cfg.rounds)
    loss_ceiling = np.full(n_replicas, np.nan)
    alive = np.ones(n_replicas, dtype=bool)
    rounds_done = np.full(n_replicas, cfg.rounds)
    final_w = w.copy()
    for k in range(cfg.rounds):
        t0 = time.perf_counter()
        w, telemetry = run_round(w, k, cfg, task)
        wall_time[k] = time.perf_counter() - t0
        for name, values in telemetry.items():
            if name not in columns:
                columns[name] = np.empty((n_replicas, cfg.rounds) + values.shape[1:])
            columns[name][:, k] = values
        loss = telemetry["global_loss"]
        unset = np.isnan(loss_ceiling) & np.isfinite(loss)
        loss_ceiling[unset] = _DIVERGENCE_FACTOR * np.maximum(1.0, np.abs(loss[unset]))
        finite = np.isfinite(w).all(axis=-1)
        # a diverged replica keeps its last finite iterate for downstream evaluation
        final_w[alive & finite] = w[alive & finite]
        diverging = alive & (~np.isfinite(loss) | (loss > loss_ceiling) | ~finite)
        rounds_done[diverging] = k + 1
        alive &= ~diverging
        if not alive.any():
            break

    results = []
    for r, n_rounds in enumerate(rounds_done.tolist()):
        diverged = not alive[r]
        results.append(TrainResult(
            columns={"wall_time": wall_time[:n_rounds]} | {name: col[r, :n_rounds] for name, col in columns.items()},
            final_w=final_w[r],
            diverged=diverged,
            diverged_round=n_rounds - 1 if diverged else None,
            final_eval_accuracy=None if eval_data is None else evaluate(model, final_w[r], eval_data),
        ))
    return results


def run_training(cfg: FLConfig, model, client_datas, eval_data=None, w0=None) -> TrainResult:
    """Run `cfg.rounds` rounds of one run; stops early once it diverges (see
    run_replicas)."""
    return run_replicas(cfg, model, client_datas, 1, eval_data, w0)[0]


def evaluate(model, w, data) -> float | None:
    """Accuracy on held-out data; None for non-classifiers."""
    if not model.is_classifier:
        return None
    return float(np.mean(model.predict(w, data.x) == data.y))


# ---------------------------------------------------------------------------
# method comparison and threshold sweeps


def method_variant(cfg: FLConfig, method: str, mac_threshold: float, gnc_threshold: float) -> FLConfig:
    """Specialize a base config to one of ideal / mac / gnc / none; the
    three noisy methods keep the base channel."""
    if method == "ideal":
        return replace(cfg, clip=ClipMethod.none(), channel=ChannelConfig.ideal())
    if method == "mac":
        return replace(cfg, clip=ClipMethod.mac(mac_threshold))
    if method == "gnc":
        return replace(cfg, clip=ClipMethod.gnc(gnc_threshold))
    if method == "none":
        return replace(cfg, clip=ClipMethod.none())
    raise ValueError(f"unknown method {method!r}")


def _matched_runs(task_factory, variants: list[FLConfig], n_seeds: int) -> list[list[TrainResult]]:
    """The one matched-seed loop. Seed s builds its task once, at the base
    seed + s that every variant carries, and runs every variant on it at
    that seed before the next seed's task is built. Returns one list of
    n_seeds results per variant."""
    if not variants:
        raise ValueError("nothing to run: no method or threshold given")
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    runs: list[list[TrainResult]] = [[] for _ in variants]
    for s in range(n_seeds):
        seed = variants[0].seed + s
        model, client_datas, eval_data = task_factory(seed)
        for cfg, results in zip(variants, runs):
            results.append(run_training(replace(cfg, seed=seed), model, client_datas, eval_data))
    return runs


def compare_methods(
    task_factory,
    base_cfg: FLConfig,
    methods,
    n_seeds: int,
    mac_threshold: float,
    gnc_threshold: float,
) -> dict[str, list[TrainResult]]:
    """Run every method under matched seeds: seed s uses base seed + s for
    model init, data, channel and batching alike. Every method is resolved,
    and so checked, before the first run."""
    variants = {m: method_variant(base_cfg, m, mac_threshold, gnc_threshold) for m in methods}
    return dict(zip(variants, _matched_runs(task_factory, list(variants.values()), n_seeds)))


@dataclass(frozen=True)
class SweepRow:
    method: str
    threshold: float
    median_final_accuracy: float
    median_final_loss: float
    n_diverged: int
    best: bool = False


def _sweep_row(method: str, threshold: float, results: list[TrainResult]) -> SweepRow:
    accs = np.array([r.final_eval_accuracy for r in results], dtype=float)  # None -> nan
    losses = np.array([r.columns["global_loss"][-1] for r in results])
    return SweepRow(
        method=method,
        threshold=float(threshold),
        # all NaN for a non-classifier, where nanmedian would warn
        median_final_accuracy=float(np.nanmedian(accs)) if np.isfinite(accs).any() else np.nan,
        median_final_loss=float(np.median(np.where(np.isfinite(losses), losses, np.inf))),
        n_diverged=sum(r.diverged for r in results),
    )


def run_threshold_sweep(
    task_factory,
    base_cfg: FLConfig,
    c_grid: dict[str, list[float]],
    n_seeds: int,
) -> list[SweepRow]:
    """Grid of clip thresholds per method, every grid point under matched
    seeds; the best row per method (highest median accuracy, ties to lower
    loss, then to the earlier row) is marked. The whole grid is resolved,
    and so checked, before the first run."""
    if not c_grid or any(len(v) == 0 for v in c_grid.values()):
        raise ValueError("sweep needs a non-empty threshold grid per method")
    other = [m for m in c_grid if m not in ("mac", "gnc")]
    if other:
        raise ValueError(f"sweep supports 'mac' and 'gnc', got {other[0]!r}")
    plan = [(method, c) for method, thresholds in c_grid.items() for c in thresholds]
    runs = _matched_runs(task_factory, [method_variant(base_cfg, m, c, c) for m, c in plan], n_seeds)
    rows = [_sweep_row(m, c, results) for (m, c), results in zip(plan, runs)]
    best: dict[str, tuple] = {}
    for i, row in enumerate(rows):
        accuracy = -np.inf if np.isnan(row.median_final_accuracy) else row.median_final_accuracy
        rank = (accuracy, -row.median_final_loss, -i)
        best[row.method] = max(rank, best.get(row.method, rank))
    return [replace(row, best=best[row.method][-1] == -i) for i, row in enumerate(rows)]
