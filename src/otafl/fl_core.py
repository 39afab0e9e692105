"""Synchronous federated training over the simulated analog uplink.

Each round: every client runs local descent from the broadcast parameters,
the pseudo-gradients cross the noisy multi-access channel as one faded
average, the server clips the received vector block-wise, takes a gradient
step, and broadcasts again. Client, channel, and init randomness derive from
independent, round-keyed child seeds, so changing one stream never perturbs
the others.

One round loop can carry R runs as rows of the (R, d) parameters, one
FLConfig per row: rows may differ in seed, learning rate, clip and channel,
and each draws from its own streams, so it comes out bit for bit as that run
alone would.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from . import stable_noise
from .channel import ChannelConfig, measure_snr, sample_fading, transmit
from .clipping import ClipMethod, apply_blockwise, gnc_clip, vector_median

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


def client_rng(seed: int, round_idx: int, client: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([seed, _STREAM_CLIENT, round_idx, client])
    )


def channel_rng(seed: int, round_idx: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, _STREAM_CHANNEL, round_idx]))


def init_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, _STREAM_INIT]))


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_ROUND_BLOCK = 64


def _hasher(hash_const: int, mult: int):
    """numpy's hashmix on uint32 columns, its hash constant carried from call to call."""
    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * mult & 0xFFFFFFFF
        value *= np.uint32(hash_const)
        return value ^ (value >> 16)
    return hashmix


def _seed_words(keys: np.ndarray) -> np.ndarray:
    """np.random.SeedSequence(key).generate_state(4, np.uint64) for every row
    of the (n, L) uint32 array `keys`, L <= 4, in one pass: numpy's mix of
    the entropy into its 4-word pool, then generate_state, each step on
    whole columns in wrapping uint32 arithmetic. Returns (n, 4) uint64."""
    hashmix = _hasher(_INIT_A, _MULT_A)
    zeros = np.zeros(len(keys), np.uint32)
    pool = [hashmix(keys[:, i] if i < keys.shape[1] else zeros) for i in range(_POOL_SIZE)]
    # every ordered pair of distinct pool words, in numpy's loop order
    for src, dst in itertools.permutations(range(_POOL_SIZE), 2):
        mixed = np.uint32(_MIX_MULT_L) * pool[dst] - np.uint32(_MIX_MULT_R) * hashmix(pool[src])
        pool[dst] = mixed ^ (mixed >> 16)
    hashmix = _hasher(_INIT_B, _MULT_B)
    state = np.stack([hashmix(pool[i % _POOL_SIZE]) for i in range(2 * _POOL_SIZE)], axis=1)
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64)


class _RoundWords:
    """Seed words of the streams keyed [*head[:2], k, *head[2:]], one row per
    head, for any round k. A round's words are derived when it first needs
    them, with those of its block of _ROUND_BLOCK rounds in one pass, and
    only that block is kept."""

    def __init__(self, heads: list[tuple[int, ...]]):
        self.heads, self.rounds, self.block = heads, range(0), None

    def __getitem__(self, k: int) -> np.ndarray:
        if k not in self.rounds:
            start = k - k % _ROUND_BLOCK
            self.rounds = range(start, start + _ROUND_BLOCK)
            if all(0 <= v < 2**32 for head in self.heads for v in (*head, self.rounds[-1])):
                heads = np.array(self.heads, np.uint32)
                ks = np.array(self.rounds, np.uint32)[:, None]
                keys = np.insert(np.broadcast_to(heads, (len(ks), *heads.shape)), 2, ks, axis=2)
                self.block = _seed_words(keys.reshape(-1, keys.shape[-1])).reshape(len(ks), len(heads), 4)
            else:
                # an entry that SeedSequence reads as several words, or rejects
                seqs = [[np.random.SeedSequence([*h[:2], j, *h[2:]]) for h in self.heads] for j in self.rounds]
                self.block = np.array([[seq.generate_state(4, np.uint64) for seq in row] for row in seqs])
        return self.block[k - self.rounds.start]


@functools.cache
def _words_type() -> type:
    """A seed sequence whose state is words derived ahead: PCG64 reads the
    array's data directly, so they must be a C-contiguous uint64 array of 4
    words. Made on first use, as importing numpy.random adds ~14 ms to
    every import of otafl."""

    class Words(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return Words


def _generator(words: np.ndarray) -> np.random.Generator:
    """The stream whose SeedSequence generates `words`."""
    return np.random.Generator(np.random.PCG64(_words_type()(words)))


class _SharedDraws:
    """The round-k streams of a channel group's distinct seeds as one `rng`
    for the channel functions: each draw is made once per stream, in order,
    and row r gets that of stream source[r], as its run alone would. The
    streams are built on the first draw, so a group that draws nothing (the
    ideal channel) builds no generator and derives no seed words."""

    def __init__(self, words: _RoundWords, k: int, source: np.ndarray):
        self.words, self.k, self.source = words, k, source

    @functools.cached_property
    def rngs(self) -> list[np.random.Generator]:
        return list(map(_generator, self.words[self.k]))

    def uniform(self, low, high, size):
        return np.stack([rng.uniform(low, high, size) for rng in self.rngs])[self.source]

    def standard_exponential(self, size):
        return np.stack([rng.standard_exponential(size) for rng in self.rngs])[self.source]

    def rayleigh(self, scale, size):
        return np.stack([rng.rayleigh(scale, size) for rng in self.rngs])[self.source]


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
        for name in ("n_clients", "rounds", "local_epochs", "batch_size", "eval_every", "seed"):
            stable_noise._check_integer(name, getattr(self, name), 0 if name == "seed" else 1)
        stable_noise._check_positive("learning_rate", self.learning_rate)
        if self.projection_radius is not None:
            stable_noise._check_positive("projection_radius", self.projection_radius)


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
    from them on access, for readers that want one object per round. A run
    diverged on round `diverged_round`, or not at all if it is None."""

    columns: dict[str, np.ndarray]
    final_w: np.ndarray
    diverged_round: int | None = None
    final_eval_accuracy: float | None = None

    @property
    def diverged(self) -> bool:
        return self.diverged_round is not None

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
class _PreparedTask:
    """Client payloads stacked once into tensors padded to the largest
    client, and the plan of the local steps and of the rows' server steps,
    for vectorized rounds. The parameters carry the row axis."""

    model: object
    cfg: FLConfig  # the first row's; rows differ in seed, learning rate, clip and channel only
    lr: np.ndarray  # (R, 1): the same IEEE product per row as a scalar rate
    # each distinct channel and clip method, in first-seen order, with its
    # rows; a channel also with each row's place among its rows' distinct
    # seeds, and the words of those seeds' streams
    channels: tuple[tuple[ChannelConfig, slice | list[int], np.ndarray, _RoundWords], ...]
    clips: tuple[tuple[ClipMethod, slice | list[int]], ...]
    client_words: _RoundWords  # of the shuffling clients' streams
    eval_data: object | None
    x: np.ndarray  # (clients, samples, ...)
    y: np.ndarray
    mask: np.ndarray  # zero on padding
    # the local steps: the mask in step order, the step width, and each
    # step's count of clients with samples there (a prefix in step order)
    weight: np.ndarray
    batch: int
    n_active: tuple[int, ...]
    shuffled: tuple[tuple[int, int], ...]  # (client, size) where a batch is smaller than the data
    # each client's position in step order, each round's sample orders as
    # (epochs, positions, samples) flat rows of x and y, and each epoch's gather
    position: np.ndarray
    order: np.ndarray
    x_epoch: np.ndarray
    y_epoch: np.ndarray


def _groups(keys) -> tuple[tuple[object, slice | list[int]], ...]:
    """Each distinct key, in first-seen order, with the rows that carry it:
    a slice where they are consecutive, so indexing by it copies nothing."""
    rows: dict[object, list[int]] = {}
    for r, key in enumerate(keys):
        rows.setdefault(key, []).append(r)
    return tuple((key, slice(rs[0], rs[-1] + 1) if rs[-1] - rs[0] == len(rs) - 1 else rs) for key, rs in rows.items())


def prepare_task(model, client_datas, cfgs, eval_data=None) -> _PreparedTask:
    """Check the rows `cfgs`, stack client payloads, check a classifier's
    labels, and plan the local steps and the server step once, so every
    round is a handful of array ops. Rows share every field but seed,
    learning rate, clip and channel, and the seed too where some client
    shuffles (batch_size below its size): shuffles are drawn from it."""
    if not cfgs:
        raise ValueError("need at least one config")
    cfg = cfgs[0]
    for c in cfgs:
        if replace(c, seed=cfg.seed, learning_rate=cfg.learning_rate, clip=cfg.clip, channel=cfg.channel) != cfg:
            raise ValueError(
                "rows may differ in seed, learning_rate, clip and channel only; they share n_clients, "
                "rounds, local_epochs, batch_size, eval_every and projection_radius"
            )
    n = len(client_datas)
    if n != cfg.n_clients:
        raise ValueError(f"config expects {cfg.n_clients} clients, got {n} datasets")
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

    # Steps visit the clients largest first (a full-batch task takes one
    # step), so those with samples left at step t are a prefix; weight[s, j]
    # = 1 while j is a real sample of the client at position s. Exhausted
    # clients are skipped (their gradient is zero).
    shuffled = tuple((i, m) for i, m in enumerate(sizes.tolist()) if cfg.batch_size < m)
    seeds = tuple(c.seed for c in cfgs)
    if shuffled and len(set(seeds)) > 1:
        # shuffles are drawn per client index, from the seed alone
        i, m = shuffled[0]
        raise ValueError(f"rows with different seeds need clients that never shuffle; client {i} has {m} samples, batch_size is {cfg.batch_size}")
    channels = []
    for channel, rows in _groups(c.channel for c in cfgs):
        row_seeds = [seeds[r] for r in np.arange(len(seeds))[rows]]
        own = {seed: i for i, seed in enumerate(dict.fromkeys(row_seeds))}
        channels.append((channel, rows, np.array([own[seed] for seed in row_seeds]), _RoundWords([(seed, _STREAM_CHANNEL) for seed in own])))
    step_order = np.argsort(-sizes, kind="stable")
    b = int(min(cfg.batch_size, m_max))
    return _PreparedTask(
        model=model,
        cfg=cfg,
        lr=np.array([c.learning_rate for c in cfgs])[:, None],
        channels=tuple(channels),
        clips=_groups(c.clip for c in cfgs),
        client_words=_RoundWords([(cfg.seed, _STREAM_CLIENT, i) for i, _ in shuffled]),
        eval_data=eval_data,
        x=x,
        y=y,
        mask=mask,
        weight=mask[step_order],
        batch=b,
        n_active=tuple(int(np.count_nonzero(sizes > start)) for start in range(0, m_max, b)),
        shuffled=shuffled,
        position=np.argsort(step_order),
        # a client that never shuffles keeps its rows in sample order
        order=np.repeat([step_order[:, None] * m_max + np.arange(m_max)], cfg.local_epochs, axis=0),
        x_epoch=np.empty_like(x),
        y_epoch=np.empty_like(y),
    )


def _pseudo_gradients(task: _PreparedTask, w: np.ndarray, round_idx: int) -> np.ndarray:
    """Pseudo-gradient of every client of every row, (R, N, d) for
    parameters w of shape (R, d), row r stepping at task.lr[r].

    Client n reproduces the naive per-client oracle `local_update` of
    tests/conftest.py driven by client_rng(seed, round_idx, n): same
    batch order, same step count, vectorized across clients with
    zero-weight padding. The per-client windows [t*min(batch, m_n), ...)
    coincide with the global windows [t*batch, (t+1)*batch) over each
    client's shuffled list, so every step is an aligned slice of one
    per-epoch gather. A one-sample client takes `local_epochs` full-gradient
    steps. The payload has no row axis; the local parameters do, and the
    models broadcast them against it. Every step writes its gradient into
    (a prefix of) one (R, N, d) buffer, in step order; the result is in
    client order.
    """
    model, b = task.model, task.batch
    lr = task.lr[:, :, None]
    n, m_max = task.y.shape[:2]
    if task.shuffled:
        # each client's generator draws its permutations in epoch order;
        # shuffling its rows in place draws what rng.permutation(m) would
        for rng, (i, m) in zip(map(_generator, task.client_words[round_idx]), task.shuffled):
            rows = task.order[:, task.position[i], :m]
            rows[:] = np.arange(i * m_max, i * m_max + m)
            for order in rows:
                rng.shuffle(order)
    w_local = np.repeat(w[:, None], n, axis=1)
    grad_sum = np.zeros_like(w_local)
    g = np.empty_like(w_local)
    for epoch in range(task.cfg.local_epochs):
        # mode="clip" leaves `out` unbuffered; the indices are in range
        for src, dst in [(task.x, task.x_epoch), (task.y, task.y_epoch)]:
            np.take(src.reshape(n * m_max, *src.shape[2:]), task.order[epoch], axis=0, out=dst, mode="clip")
        for t, k in enumerate(task.n_active):
            cols = slice(t * b, (t + 1) * b)
            g_step = g[:, :k]
            model.gradient(w_local[:, :k], task.x_epoch[:k, cols], task.y_epoch[:k, cols],
                           sample_weight=task.weight[:k, cols], out=g_step)
            grad_sum[:, :k] += g_step
            g_step *= lr
            w_local[:, :k] -= g_step
    # back in client order, into the step buffer, which is free by now
    return np.take(grad_sum, task.position, axis=1, out=g, mode="clip")


def run_round(w: np.ndarray, k: int, task: _PreparedTask) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Round k of the task's rows from parameters w of shape (R, d): local
    compute, noisy aggregation, server-side clipping, global step.
    Returns the next parameters and the round's telemetry, one array per
    RoundRecord field (but round, wall_time and diverged) with a leading row
    axis.

    The channel runs once per distinct channel and the clip once per
    distinct method, each over its rows. Arithmetic overflow is silenced: an
    exploding unclipped baseline is a measured outcome, handled by the
    divergence policy in run_replicas.
    """
    if w.shape != (len(task.lr), task.model.dim):
        raise ValueError(f"parameters must have shape ({len(task.lr)}, {task.model.dim}), one row per config, got {w.shape}")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # before local compute, so that their buffers are never alive together
        loss = task.model.loss(w[:, None], task.x, task.y, sample_weight=task.mask).mean(axis=-1)
        pseudo = _pseudo_gradients(task, w, k)
        true_mean = pseudo.mean(axis=1)

        # each seed draws its fades, then its noise, from its own stream;
        # rows of one channel and seed share them, as they drew the same
        received, noise = np.empty_like(w), np.empty_like(w)
        for channel, rows, source, words in task.channels:
            rng = _SharedDraws(words, k, source)
            gains = sample_fading(channel.fading, task.cfg.n_clients, rng)
            received[rows], noise[rows] = transmit(pseudo[rows], gains, channel, rng)

        clipped = np.empty_like(w)
        fractions = np.empty((len(w), len(task.model.block_layout)))
        for clip, rows in task.clips:
            clipped[rows], fractions[rows] = apply_blockwise(received[rows], task.model.block_layout, clip)

        w_next = w - task.lr * clipped
        if task.cfg.projection_radius is not None:
            # projection onto the ball is norm clipping at its radius
            w_next = gnc_clip(w_next, task.cfg.projection_radius)

        step = w_next - w
        return w_next, {
            "global_loss": loss,
            "grad_norm_sq": np.sum(true_mean**2, axis=-1),
            "snr_db": measure_snr(true_mean, noise),
            "clipped_fraction": fractions,
            "update_norm": np.sqrt(np.vecdot(step, step)),
            "median_mean_gap": np.abs(vector_median(received) - np.mean(received, axis=-1)),
            "eval_accuracy": _eval_accuracies(task, w_next, k),
        }


def _eval_accuracies(task: _PreparedTask, w: np.ndarray, k: int) -> np.ndarray:
    """Held-out accuracy per row; nan off the evaluation cadence,
    without held-out data or a classifier, and for non-finite parameters."""
    accuracies = np.full(len(w), np.nan)
    due = (k + 1) % task.cfg.eval_every == 0 or k == task.cfg.rounds - 1
    if task.eval_data is None or not task.model.is_classifier or not due:
        return accuracies
    for r, row in enumerate(w):
        if np.all(np.isfinite(row)):
            accuracies[r] = evaluate(task.model, row, task.eval_data)
    return accuracies


def run_replicas(cfgs, model, client_datas, eval_data=None, w0=None) -> list[TrainResult]:
    """Run one round loop whose row r is the run of `cfgs[r]`.

    Row r starts from `w0` or else from `init_params(init_rng(cfgs[r].seed))`
    and draws its channel from `channel_rng(cfgs[r].seed, k)`; its result
    equals `run_training(cfgs[r], ...)` bit for bit, but for `wall_time`,
    the round time of all the call's rows (no CSV holds it). prepare_task
    checks that the rows may share one loop. The telemetry of all rows is
    kept in (R, rounds) columns; each result holds views of its row.

    Divergence (loss beyond 1e6 times the initial loss, or any non-finite
    value) is recorded on the terminal round rather than raised: the
    unclipped baseline is expected to blow up under heavy-tailed noise. A
    diverged row gets no further rounds and keeps its last finite iterate;
    the loop stops once every row has diverged.
    """
    task = prepare_task(model, client_datas, cfgs, eval_data)
    cfg = task.cfg
    starts = [model.init_params(init_rng(c.seed)) if w0 is None else w0 for c in cfgs]
    w = np.array(starts, dtype=float)
    if w.shape[1:] != (model.dim,):
        raise ValueError(f"initial parameters must have shape ({model.dim},), got {w.shape[1:]}")
    if not np.all(np.isfinite(w)):
        raise ValueError("initial parameters must be finite")

    n_rows = len(cfgs)
    columns: dict[str, np.ndarray] = {}
    wall_time = np.zeros(cfg.rounds)
    alive = np.ones(n_rows, dtype=bool)
    rounds_done = np.full(n_rows, cfg.rounds)
    final_w = w.copy()
    for k in range(cfg.rounds):
        t0 = time.perf_counter()
        w, telemetry = run_round(w, k, task)
        wall_time[k] = time.perf_counter() - t0
        for name, values in telemetry.items():
            if name not in columns:
                columns[name] = np.empty((n_rows, cfg.rounds) + values.shape[1:])
            columns[name][:, k] = values
        loss = telemetry["global_loss"]
        if k == 0:
            # round 0's loss is that of the finite starting point
            loss_ceiling = _DIVERGENCE_FACTOR * np.maximum(1.0, np.abs(loss))
        finite = np.isfinite(w).all(axis=-1)
        # a diverged row keeps its last finite iterate for downstream evaluation
        final_w[alive & finite] = w[alive & finite]
        diverging = alive & (~np.isfinite(loss) | (loss > loss_ceiling) | ~finite)
        rounds_done[diverging] = k + 1
        alive &= ~diverging
        if not alive.any():
            break

    results = []
    for r, n_rounds in enumerate(rounds_done.tolist()):
        results.append(TrainResult(
            columns={"wall_time": wall_time[:n_rounds]} | {name: col[r, :n_rounds] for name, col in columns.items()},
            final_w=final_w[r],
            diverged_round=None if alive[r] else n_rounds - 1,
            final_eval_accuracy=None if eval_data is None else evaluate(model, final_w[r], eval_data),
        ))
    return results


def run_training(cfg: FLConfig, model, client_datas, eval_data=None, w0=None) -> TrainResult:
    """Run `cfg.rounds` rounds of one run; stops early once it diverges (see
    run_replicas)."""
    return run_replicas([cfg], model, client_datas, eval_data, w0)[0]


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
    stable_noise._check_choice("method", method, ("ideal", "mac", "gnc", "none"))
    if method == "ideal":
        return replace(cfg, clip=ClipMethod.none(), channel=ChannelConfig.ideal())
    if method == "mac":
        return replace(cfg, clip=ClipMethod.mac(mac_threshold))
    if method == "gnc":
        return replace(cfg, clip=ClipMethod.gnc(gnc_threshold))
    return replace(cfg, clip=ClipMethod.none())


def _matched_runs(task_factory, variants: list[FLConfig], n_seeds: int) -> list[list[TrainResult]]:
    """The one matched-seed loop. Every seed s, in order before any run,
    builds its task at base seed + s and runs every variant on it at that
    seed as the rows of one call (see _run_calls). One result list per variant."""
    stable_noise._check_integer("n_seeds", n_seeds, 1)
    calls = [([replace(cfg, seed=seed) for cfg in variants], *task_factory(seed), None)
             for seed in range(variants[0].seed, variants[0].seed + n_seeds)]
    return [list(results) for results in zip(*_run_calls(calls))]


def _run_calls(calls: list[tuple]) -> list[list[TrainResult]]:
    """run_replicas(*call) per (cfgs, model, client_datas, eval_data, w0) of
    `calls`, as units on min(units, usable cores) forked workers, or in the
    caller if that is one or without os.fork. A unit is a call or, with fewer
    calls than cores, a block of its rows, each row bit for bit its run alone.
    A unit starts only on a free worker, none after a failure, and the error
    raised is the lowest failing unit's, in row order."""
    cores = stable_noise._CORES if hasattr(os, "fork") else 1
    units = []
    for i, (cfgs, model, client_datas, eval_data, _) in enumerate(calls):
        n_blocks = min(len(cfgs), -(-cores // len(calls)))
        if n_blocks > 1:  # the checks that span rows see them all, before any block runs
            prepare_task(model, client_datas, cfgs, eval_data)
        units += [(i, slice(len(cfgs) * b // n_blocks, len(cfgs) * (b + 1) // n_blocks)) for b in range(n_blocks)]

    def run(u):
        i, rows = units[u]
        return run_replicas(calls[i][0][rows], *calls[i][1:])  # the module's name, which tests may patch

    workers = min(len(units), cores)
    if workers == 1:
        per_unit = [run(u) for u in range(len(units))]
    else:
        import multiprocessing
        from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
        # a forked worker inherits `run` and the calls: only unit numbers and results are pickled
        with ProcessPoolExecutor(workers, multiprocessing.get_context("fork"), setattr, (_run_unit, "run", run)) as pool:
            futures, running = [], set()
            for u in range(len(units)):
                if len(running) == workers:  # a unit starts only on a free worker, and none after a failure
                    done, running = wait(running, return_when=FIRST_COMPLETED)
                    if any(f.exception() is not None for f in done):
                        break
                futures.append(pool.submit(_run_unit, u))
                running.add(futures[-1])
            per_unit = [f.result() for f in futures]  # in row order: the lowest failing unit's error
    return [[r for (i, _), results in zip(units, per_unit) if i == call for r in results] for call in range(len(calls))]


def _run_unit(u: int) -> list[TrainResult]:
    return _run_unit.run(u)  # the runner that a forked worker's pool initializer set


def compare_methods(
    task_factory,
    base_cfg: FLConfig,
    methods,
    n_seeds: int,
    mac_threshold: float,
    gnc_threshold: float,
) -> dict[str, list[TrainResult]]:
    """Run every method under matched seeds: seed s uses base seed + s for
    model init, data, channel and batching alike. Every method is checked
    before the first task is built, and two methods that run the same config
    (none and ideal on an ideal base channel) are rejected. Seeds, or blocks
    of one seed's methods, run on the usable cores (see _run_calls):
    wall_time is per block, in no CSV."""
    variants = [method_variant(base_cfg, m, mac_threshold, gnc_threshold) for m in methods]
    stable_noise._check_grid("methods", methods)
    for j, cfg in enumerate(variants):
        if cfg in variants[:j]:
            raise ValueError(f"methods {methods[variants.index(cfg)]!r} and {methods[j]!r} run the same configuration")
    return dict(zip(methods, _matched_runs(task_factory, variants, n_seeds)))


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
    for method in c_grid:
        stable_noise._check_choice("method", method, ("mac", "gnc"))
    plan = [(method, c) for method, thresholds in c_grid.items() for c in thresholds]
    variants = [method_variant(base_cfg, m, c, c) for m, c in plan]
    for grid in (c_grid, *c_grid.values()):
        stable_noise._check_grid("c_grid", grid)
    runs = _matched_runs(task_factory, variants, n_seeds)
    rows = [_sweep_row(m, c, results) for (m, c), results in zip(plan, runs)]
    best: dict[str, tuple] = {}
    for i, row in enumerate(rows):
        accuracy = -np.inf if np.isnan(row.median_final_accuracy) else row.median_final_accuracy
        rank = (accuracy, -row.median_final_loss, -i)
        best[row.method] = max(rank, best.get(row.method, rank))
    return [replace(row, best=best[row.method][-1] == -i) for i, row in enumerate(rows)]
