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
    records: list[RoundRecord]
    final_w: np.ndarray
    diverged: bool
    diverged_round: int | None = None
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
    once per replica, plus the plan of local steps, for vectorized rounds."""

    model: object
    n_clients: int
    n_replicas: int
    eval_data: object | None
    x: np.ndarray  # (n_replicas * n_clients, samples, ...); replica r's clients are rows r*N ... r*N+N-1
    y: np.ndarray
    mask: np.ndarray | None  # None when no client is padded
    steps: tuple[_Step, ...]
    shuffled: tuple[tuple[int, int], ...]  # (client, size) where a batch is smaller than the data


def prepare_task(model, client_datas, cfg: FLConfig, eval_data=None, n_replicas: int = 1) -> _PreparedTask:
    """Stack client payloads and plan the local steps of `cfg` once, so every
    round is a handful of array ops. The payloads are stacked once per
    replica; replicas share the step plan, so more than one replica needs
    clients that never shuffle (batch_size at least the client's size).
    """
    n = len(client_datas)
    if n < 1:
        raise ValueError("need at least one client")
    if n_replicas < 1:
        raise ValueError(f"n_replicas must be >= 1, got {n_replicas}")
    sizes = np.array([len(d.y) for d in client_datas])
    if sizes.min() < 1:
        raise ValueError("every client needs at least one sample")
    shuffled = tuple((i, m) for i, m in enumerate(sizes.tolist()) if cfg.batch_size < m)
    if shuffled and n_replicas > 1:
        i, m = shuffled[0]
        raise ValueError(f"replicas need clients that never shuffle; client {i} has {m} samples, batch_size is {cfg.batch_size}")
    client_datas = list(client_datas) * n_replicas
    sizes = np.tile(sizes, n_replicas)
    rows = n * n_replicas
    m_max = int(sizes.max())
    first = client_datas[0]
    x = np.zeros((rows, m_max) + first.x.shape[1:])
    y = np.zeros((rows, m_max) + first.y.shape[1:], dtype=first.y.dtype)
    mask = np.zeros((rows, m_max))
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
            active=active if active.size < rows else slice(None),
            weight=None if weight.all() else weight,
        ))
    return _PreparedTask(
        model=model,
        n_clients=n,
        n_replicas=n_replicas,
        eval_data=eval_data,
        x=x,
        y=y,
        mask=None if mask.all() else mask,
        steps=tuple(steps),
        shuffled=shuffled,
    )


def _pseudo_gradients(task: _PreparedTask, w: np.ndarray, cfg: FLConfig, round_idx: int) -> np.ndarray:
    """Pseudo-gradient of every client of every replica, stacked to
    (R*N, d) for parameters w of shape (R, d).

    Row n reproduces the naive per-client oracle `local_update` of
    tests/conftest.py for client n driven by client_rng(cfg.seed, round_idx, n):
    same batch order, same step count, vectorized across clients with
    zero-weight padding. The per-client windows [t*min(batch, m_n), ...)
    coincide with the global windows [t*batch, (t+1)*batch) over each
    client's shuffled list, so every step is an aligned slice of one
    per-epoch gather. A one-sample client takes `local_epochs` full-gradient
    steps. Only single-replica tasks shuffle.
    """
    model, lr = task.model, cfg.learning_rate
    rows = task.x.shape[0]
    rngs = [(i, m, client_rng(cfg.seed, round_idx, i)) for i, m in task.shuffled]
    xr, yr = task.x, task.y
    grad_sum = np.zeros((rows, w.shape[-1]))
    w_local = np.repeat(w, task.n_clients, axis=0)
    for _ in range(cfg.local_epochs):
        if rngs:
            order = np.repeat(np.arange(task.y.shape[1])[None], rows, axis=0)
            for i, m, rng in rngs:
                order[i, :m] = rng.permutation(m)
            row_idx = np.arange(rows)[:, None]
            xr = task.x[row_idx, order]
            yr = task.y[row_idx, order]
        for step in task.steps:
            active = step.active
            g = model.gradient(
                w_local[active], xr[active, step.cols], yr[active, step.cols],
                sample_weight=step.weight,
            )
            grad_sum[active] += g
            w_local[active] -= lr * g
    return grad_sum


def _by_replica(a: np.ndarray | None, n_replicas: int) -> np.ndarray | None:
    """View of a stacked (R*N, ...) client array as (R, N, ...)."""
    return None if a is None else a.reshape((n_replicas, -1) + a.shape[1:])


def run_round(w: np.ndarray, k: int, cfg: FLConfig, task: _PreparedTask) -> tuple[np.ndarray, list[RoundRecord]]:
    """Round k from parameters w of shape (R, d), one row per replica: local
    compute, noisy aggregation, server-side clipping, global step. Returns
    the next parameters and one record per replica.

    Arithmetic overflow is silenced: an exploding unclipped baseline is a
    measured outcome, handled by the divergence policy in run_replicas.
    """
    if w.shape != (task.n_replicas, task.model.dim):
        raise ValueError(f"parameters must have shape ({task.n_replicas}, {task.model.dim}), got {w.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        return _run_round_inner(w, k, cfg, task)


def _run_round_inner(w: np.ndarray, k: int, cfg: FLConfig, task: _PreparedTask) -> tuple[np.ndarray, list[RoundRecord]]:
    t0 = time.perf_counter()
    n_rep = task.n_replicas
    pseudo = _by_replica(_pseudo_gradients(task, w, cfg, k), n_rep)
    true_mean = pseudo.mean(axis=1)

    # each replica draws its fades, then its noise, from its own stream
    rngs = [channel_rng(cfg.seed + r, k) for r in range(n_rep)]
    gains = np.stack([sample_fading(cfg.channel.fading, cfg.n_clients, rng) for rng in rngs])
    received, noise = transmit(pseudo, gains, cfg.channel, rngs)
    snr_db = measure_snr(true_mean, noise)

    blocks = split_blocks(received, task.model.block_layout)
    clipped_fraction = block_clip_fractions(blocks, cfg.clip)
    clipped = merge_blocks(apply_blockwise(blocks, cfg.clip))

    w_next = w - cfg.learning_rate * clipped
    if cfg.projection_radius is not None:
        # projection onto the ball is norm clipping at its radius
        w_next = gnc_clip(w_next, cfg.projection_radius)

    loss = task.model.loss(
        w[:, None], _by_replica(task.x, n_rep), _by_replica(task.y, n_rep),
        sample_weight=_by_replica(task.mask, n_rep),
    ).mean(axis=-1)
    step = w_next - w
    per_replica = {
        "global_loss": loss.tolist(),
        "grad_norm_sq": np.sum(true_mean**2, axis=-1).tolist(),
        "snr_db": snr_db.tolist(),
        "clipped_fraction": [tuple(f) for f in clipped_fraction.tolist()],
        "update_norm": np.sqrt(np.vecdot(step, step)).tolist(),
        "median_mean_gap": np.abs(vector_median(received) - np.mean(received, axis=-1)).tolist(),
        "eval_accuracy": _eval_accuracies(task, w_next, cfg, k),
    }
    wall_time = time.perf_counter() - t0
    return w_next, [
        RoundRecord(round=k, wall_time=wall_time, **dict(zip(per_replica, values)))
        for values in zip(*per_replica.values())
    ]


def _eval_accuracies(task: _PreparedTask, w: np.ndarray, cfg: FLConfig, k: int) -> list[float | None]:
    due = (k + 1) % cfg.eval_every == 0 or k == cfg.rounds - 1
    if task.eval_data is None or not task.model.is_classifier or not due:
        return [None] * len(w)
    return [
        evaluate(task.model, row, task.eval_data) if np.all(np.isfinite(row)) else None
        for row in w
    ]


def run_replicas(cfg: FLConfig, model, client_datas, n_replicas: int, eval_data=None, w0=None) -> list[TrainResult]:
    """Run `cfg.rounds` rounds of `n_replicas` replicas in one round loop.

    Replica r is the run at seed `cfg.seed + r`, started from `w0` or else
    from `init_params(init_rng(cfg.seed + r))`; its result equals
    `run_training` at that seed bit for bit, but for `wall_time`, which is
    the batched round's. More than one replica needs clients that never
    shuffle (see `prepare_task`).

    Divergence (loss beyond 1e6 times the initial loss, or any non-finite
    value) is recorded on the terminal round record rather than raised: the
    unclipped baseline is expected to blow up under heavy-tailed noise. A
    diverged replica gets no further records and keeps its last finite
    iterate; the loop stops once every replica has diverged.
    """
    if len(client_datas) != cfg.n_clients:
        raise ValueError(
            f"config expects {cfg.n_clients} clients, got {len(client_datas)} datasets"
        )
    task = prepare_task(model, client_datas, cfg, eval_data, n_replicas)
    starts = [model.init_params(init_rng(cfg.seed + r)) if w0 is None else w0 for r in range(n_replicas)]
    w = np.array(starts, dtype=float)
    if w.shape[1:] != (model.dim,):
        raise ValueError(f"initial parameters must have shape ({model.dim},), got {w.shape[1:]}")
    if not np.all(np.isfinite(w)):
        raise ValueError("initial parameters must be finite")

    records: list[list[RoundRecord]] = [[] for _ in range(n_replicas)]
    loss_ceiling: list[float | None] = [None] * n_replicas
    diverged_round: list[int | None] = [None] * n_replicas
    final_w = list(w)
    for k in range(cfg.rounds):
        w_before = w
        w, round_records = run_round(w, k, cfg, task)
        finite = np.isfinite(w).all(axis=-1).tolist()
        for r, record in enumerate(round_records):
            if diverged_round[r] is not None:
                continue
            loss = record.global_loss
            if loss_ceiling[r] is None and math.isfinite(loss):
                loss_ceiling[r] = _DIVERGENCE_FACTOR * max(1.0, abs(loss))
            ceiling = loss_ceiling[r]
            if not math.isfinite(loss) or (ceiling is not None and loss > ceiling) or not finite[r]:
                record = replace(record, diverged=True)
                diverged_round[r] = k
            records[r].append(record)
            # a diverged replica keeps its last finite iterate for downstream evaluation
            final_w[r] = w[r] if finite[r] else w_before[r]
        if None not in diverged_round:
            break

    return [
        TrainResult(
            records=records[r],
            final_w=final_w[r],
            diverged=diverged_round[r] is not None,
            diverged_round=diverged_round[r],
            final_eval_accuracy=None if eval_data is None else evaluate(model, final_w[r], eval_data),
        )
        for r in range(n_replicas)
    ]


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
                    # all NaN for a non-classifier, where nanmedian would warn
                    median_final_accuracy=float(np.nanmedian(accs)) if np.isfinite(accs).any() else np.nan,
                    median_final_loss=float(np.median(losses)),
                    n_diverged=sum(r.diverged for r in results),
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
