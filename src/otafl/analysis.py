"""Quantitative verification of the clipping math and the convergence bound.

Three checks live here: Theorem 1's closed-form bound on the running average
of squared gradient norms, one formula for the clipped and the ideal channel;
the selection-matrix decomposition of a clipped update; and Monte Carlo
measurement of the probability that an entry survives clipping, and its tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import ChannelConfig, FadingModel
from .clipping import ClipMethod, vector_median
from .fl_core import FLConfig, _fork_map, _run_calls, method_variant
from .models import QuadraticClientData, QuadraticModel, SmoothnessInfo, compute_smoothness, global_loss
from .stable_noise import RegimeError, StableParams, estimate_unclipped_prob, tail_prob_simplified
from .stable_noise import _check_finite, _check_grid, _check_integer, _check_law, _check_nonnegative, _check_positive
from .stable_noise import _check_window

__all__ = [
    "BoundParams",
    "convergence_bound",
    "ClipDecomposition",
    "decompose_clip_event",
    "SurvivalRow",
    "SurvivalReport",
    "clip_survival_report",
    "gaussian_unclipped_prob",
    "QuadraticTestbed",
    "make_quadratic_testbed",
    "BoundCheckRow",
    "BoundCheckReport",
    "verify_convergence_bound",
]

# Simplified survival probabilities are clamped away from zero so the bound
# stays finite even for thresholds far below the noise scale.
_P_FLOOR = 1e-9

# The power-law asymptote is only meaningful once the predicted clip
# probability is small; beyond this value rows are flagged.
_ASYMPTOTE_LIMIT = 0.1

# Quadratic testbed: client curvatures are drawn from [0.5, 1.5], and w0 sits
# on the sphere of radius 3, which is also the projection ball.
_EIG_LOW, _EIG_HIGH = 0.5, 1.5
_W0_NORM = 3.0


@dataclass(frozen=True)
class BoundParams:
    """Constants entering the convergence bound.

    l and g are the smoothness constant and per-client gradient bound, f0 and
    f_star bracket the objective, eta is the server learning rate, c the clip
    threshold (None: unclipped), k the number of rounds, d the parameter
    dimension, and noise the noise law (None: noiseless, as in ChannelConfig).
    """

    l: float
    g: float
    f0: float
    f_star: float
    eta: float
    c: float | None
    k: int
    d: int
    noise: StableParams | None

    def __post_init__(self) -> None:
        _check_nonnegative("g", self.g)
        for name in ("f0", "f_star") if self.c is None else ("c", "f0", "f_star"):
            _check_finite(name, getattr(self, name))
        _check_positive("L", self.l)
        _check_law("noise", self.noise)
        if self.f0 < self.f_star:
            raise ValueError(f"f0={self.f0} below the lower bound f_star={self.f_star}")
        for name in ("k", "d"):
            _check_integer(name, getattr(self, name), 1)
        _check_positive("eta", self.eta)
        if self.eta * self.l >= 2.0:
            raise RegimeError(
                f"learning rate at boundary: eta*L = {self.eta * self.l} but the "
                f"bound divides by (2 - eta*L), so eta < 2/L is required"
            )
        if self.c is None:
            if self.noise is not None:
                raise RegimeError(f"an unclipped channel with noise {self.noise} has no bound; give a threshold c")
        elif self.c < math.sqrt(2.0) * self.g:  # the bound's own regime: C = sqrt(2)*G closes the window
            raise RegimeError(f"clip threshold below regime: C = {self.c} < sqrt(2)*G = {math.sqrt(2.0) * self.g}")

    def simplified_p_unclipped(self) -> float:
        if self.noise is None:
            return 1.0
        p = 1.0 - tail_prob_simplified(self.noise, self.c)
        return min(1.0, max(p, _P_FLOOR))


def convergence_bound(params: BoundParams) -> float:
    """Theorem 1: upper bound on (1/K) * sum_k E||grad f(w_k)||^2 under
    median-anchored clipping, at the simplified power-law survival probability p.

    Its descent term is the classical one over K*p effective rounds; without a
    threshold (the ideal channel) p is 1 and that term is the whole bound.
    """
    p = params.simplified_p_unclipped()
    descent = 2.0 * (params.f0 - params.f_star) / (params.k * p * (2.0 - params.eta * params.l) * params.eta)
    if not math.isfinite(descent):
        raise RegimeError(f"the descent term is not finite at eta = {params.eta}")
    if params.c is None:
        return descent
    half_window = math.sqrt(2.0) / 2.0 * params.c - params.g
    # squares by multiplication: a float ** overflows with an exception, not to inf
    residual = 0.5 * (params.eta * params.eta) * params.d * params.l * (
        p * (half_window * half_window) + (1.0 - p) * (params.c * params.c)
    )
    bound = descent + residual
    if not math.isfinite(bound):
        raise RegimeError(f"the bound is not finite at c = {params.c}")
    return bound


# ---------------------------------------------------------------------------
# selection-matrix decomposition


@dataclass(frozen=True)
class ClipDecomposition:
    """Median-anchored clipping split into kept and saturated entries.

    `selection` is 1 where the entry survived unclipped, `boundary` holds
    sgn(deviation) * C for every entry (exactly +-C wherever selection is 0).
    """

    median: float
    selection: np.ndarray
    boundary: np.ndarray

    def reconstruct(self, g: np.ndarray) -> np.ndarray:
        """S*g + (I - S) * (median + boundary); equals mac_clip(g, C)."""
        return self.selection * g + (1.0 - self.selection) * (self.median + self.boundary)

    def residual(self, noise: np.ndarray) -> np.ndarray:
        """S*noise + (I - S) * boundary, the effective perturbation of a round."""
        return self.selection * noise + (1.0 - self.selection) * self.boundary


def decompose_clip_event(g: np.ndarray, threshold: float) -> ClipDecomposition:
    _check_positive("threshold", threshold)
    g = np.asarray(g, dtype=float)
    m = vector_median(g)
    deviation = g - m
    selection = (np.abs(deviation) <= threshold).astype(float)
    boundary = np.sign(deviation) * threshold
    return ClipDecomposition(median=m, selection=selection, boundary=boundary)


# ---------------------------------------------------------------------------
# survival probability report


def gaussian_unclipped_prob(tau: float, c: float, g: float) -> float:
    """Closed form of the unclipped probability at alpha = 2.

    The deviation is the difference of two centered Gaussians with variance
    2*tau^2 each, i.e. N(0, 4*tau^2); the survival window is c - sqrt(2)*g.
    """
    _check_positive("tau", tau)
    _check_finite("c", c)
    _check_nonnegative("g", g)
    _check_window(c, g)
    return math.erf((c - math.sqrt(2.0) * g) / (2.0 * tau * math.sqrt(2.0)))


@dataclass(frozen=True)
class SurvivalRow:
    alpha: float
    threshold: float
    empirical_clip_prob: float
    asymptote: float
    gaussian_oracle_err: float | None
    note: str


@dataclass(frozen=True)
class SurvivalReport:
    rows: list[SurvivalRow]
    slopes: dict[float, float]
    config_summary: str

    def rows_for(self, alpha: float) -> list[SurvivalRow]:
        return [r for r in self.rows if r.alpha == alpha]


def clip_survival_report(
    alphas=(1.1, 1.5, 1.9),
    tau: float = 0.1,
    c_grid=tuple(float(c) for c in np.logspace(0, 1, 6)),
    g: float = 0.0,
    n_samples: int = 10**6,
    seed: int = 0,
) -> SurvivalReport:
    """Empirical clip probability per threshold, with the power-law asymptote
    and a log-log slope fit per tail index. The defaults are the criterion-3
    check that ``otafl lemma1`` runs.

    Thresholds at or below sqrt(2)*g are marked ``regime_violation`` and
    skipped; thresholds whose asymptote exceeds 0.1 are marked
    ``outside_asymptotic_regime`` and excluded from the slope fit. At
    alpha = 2 each row also carries the absolute gap to the closed-form
    Gaussian value. All thresholds of one tail index are scored on one
    shared draw, so its clip probability never rises with C. Each tail index
    then draws from its own stream as one unit of fl_core._fork_map.
    """
    laws = [StableParams(alpha, tau) for alpha in alphas]
    _check_grid("alphas", alphas)
    for x in c_grid:
        _check_positive("c_grid", x)
    _check_grid("c_grid", c_grid)
    _check_nonnegative("g", g)
    _check_integer("n_samples", n_samples, 1)
    _check_integer("seed", seed, 0)
    rows: list[SurvivalRow] = []
    slopes: dict[float, float] = {}
    window = [float(c) for c in c_grid if c > math.sqrt(2.0) * g]  # Lemma 1's regime; only these are drawn

    def draw(ai):  # one tail index, from its own stream: the same bits on any worker
        rng = np.random.default_rng(np.random.SeedSequence([seed, 3, ai]))
        return estimate_unclipped_prob(laws[ai], window, g, n_samples, rng)

    for alpha, params, drawn in zip(alphas, laws, _fork_map(draw, len(laws)) if window else [[]] * len(laws)):
        p_hats = dict(zip(window, map(float, drawn)))
        own: list[SurvivalRow] = []
        for c in c_grid:
            asymptote = tail_prob_simplified(params, c)
            if float(c) not in p_hats:
                own.append(SurvivalRow(alpha, float(c), math.nan, asymptote, None, "regime_violation"))
                continue
            p_hat = p_hats[float(c)]
            oracle_err = abs(p_hat - gaussian_unclipped_prob(tau, c, g)) if alpha == 2.0 else None
            note = "outside_asymptotic_regime" if asymptote > _ASYMPTOTE_LIMIT else ""
            own.append(SurvivalRow(alpha, float(c), 1.0 - p_hat, asymptote, oracle_err, note))
        fit = [r for r in own if r.note == "" and r.empirical_clip_prob > 0.0]
        log_c, log_p = np.log([r.threshold for r in fit]), np.log([r.empirical_clip_prob for r in fit])
        slopes[float(alpha)] = float(np.polyfit(log_c, log_p, 1)[0]) if len(fit) >= 2 else math.nan
        rows += own
    summary = (
        f"alphas={','.join(map(str, alphas))} tau={tau} c_grid={','.join(map(str, c_grid))} g={g} "
        f"samples={n_samples} seed={seed}"
    )
    return SurvivalReport(rows=rows, slopes=slopes, config_summary=summary)


# ---------------------------------------------------------------------------
# quadratic testbed and the bound check


@dataclass(frozen=True)
class QuadraticTestbed:
    model: QuadraticModel
    client_datas: list[QuadraticClientData]
    w0: np.ndarray
    info: SmoothnessInfo


def make_quadratic_testbed(
    dim: int = 10,
    n_clients: int = 5,
    seed: int = 0,
    b_scale: float = 0.0,
) -> QuadraticTestbed:
    """Random rotated-diagonal quadratic clients with certified constants.

    By default all linear terms are zero, which pins the minimizer at the
    origin and makes G = max_n lambda_max(A_n) * radius exact over the
    projection ball of radius ||w0||. A nonzero b_scale draws linear terms
    for open-ended training runs; the G bound then carries the extra ||b_n||
    slack.
    """
    for name, value, low in (("dim", dim, 1), ("n_clients", n_clients, 1), ("seed", seed, 0)):
        _check_integer(name, value, low)
    _check_finite("b_scale", b_scale)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    datas = []
    for _ in range(n_clients):
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        eigs = rng.uniform(_EIG_LOW, _EIG_HIGH, size=dim)
        a = (q * eigs) @ q.T
        a = 0.5 * (a + a.T)
        b = b_scale * rng.normal(size=dim) if b_scale else np.zeros(dim)
        datas.append(QuadraticClientData(a=a, b=b))
    w0 = rng.normal(size=dim)
    w0 *= _W0_NORM / np.linalg.norm(w0)
    model = QuadraticModel(dim)
    with np.errstate(over="ignore", invalid="ignore"):  # a huge b_scale overflows ||b_n|| and f_star
        info = compute_smoothness(datas, radius=_W0_NORM)
    if not (math.isfinite(info.g) and math.isfinite(info.f_star)):
        raise ValueError(f"b_scale must keep G and f_star finite, got {b_scale}: G={info.g}, f_star={info.f_star}")
    return QuadraticTestbed(model=model, client_datas=datas, w0=w0, info=info)


@dataclass(frozen=True)
class BoundCheckRow:
    rounds: int
    eta: float
    empirical_avg: float
    bound_rhs: float
    margin_ratio: float


@dataclass(frozen=True)
class BoundCheckReport:
    rows: list[BoundCheckRow]  # at (k, e) for each e of eta_grid, then each k of k_grid
    c: float | None  # None on the ideal channel, which is not clipped
    dim: int
    n_seeds: int
    ideal: bool
    p_unclipped_used: float
    p_unclipped_empirical: float
    config_summary: str


def verify_convergence_bound(
    dim: int = 10,
    n_clients: int = 5,
    k_grid=(10, 100, 1000),
    n_seeds: int = 20,
    alpha: float = 1.5,
    tau: float = 0.1,
    seed: int = 0,
    eta_grid=None,
    c: float | None = None,
    fading: str = "none",
    ideal: bool = False,
) -> BoundCheckReport:
    """Monte Carlo check that the running average of ||grad f||^2 stays below
    the closed-form bound on a quadratic testbed with certified constants.

    Every (K, eta) of k_grid x eta_grid (default: 1/L) is one BoundParams,
    which alone checks the rate, and one row, K inner. One run of max(k_grid)
    rounds per (rate, seed) gives every K by prefix averages over matched
    noise streams; these runs are the rows of one
    run_replicas call, cut into blocks on the usable cores, each bit for bit
    its run alone (its wall_time is its block's and reaches no file).
    p_unclipped_empirical is measured on the first rate's rows. The default
    channel has no fading: the bound treats unit-mean fades as their mean.
    ``ideal`` switches to the noiseless, unclipped channel, and takes neither
    a threshold ``c`` nor a ``fading``. Both channels' bounds come from
    convergence_bound.
    """
    for name, value in (("n_seeds", n_seeds), *(("k_grid", k) for k in k_grid)):
        _check_integer(name, value, 1)
    _check_grid("k_grid", k_grid)
    if c is not None:
        _check_finite("c", c)
    fading_model = FadingModel(fading)
    noise = StableParams(alpha, tau)
    k_grid = sorted(int(k) for k in k_grid)
    testbed = make_quadratic_testbed(dim=dim, n_clients=n_clients, seed=seed)
    info = testbed.info
    if ideal:
        if c is not None:
            raise ValueError(f"the ideal channel is not clipped, so it takes no threshold; got c={c}")
        if fading != "none":
            raise ValueError(f"the ideal channel is not faded, so it takes no fading; got fading={fading!r}")
    else:
        c = 2.0 * math.sqrt(2.0) * info.g if c is None else c
        _check_window(c, info.g)
    etas = [1.0 / info.l] if eta_grid is None else eta_grid
    f0 = global_loss(testbed.model, testbed.w0, testbed.client_datas)

    # Every point is checked and its bound evaluated before the first round,
    # so a learning rate at or beyond 2/L fails before any run starts.
    points = [
        BoundParams(l=info.l, g=info.g, f0=f0, f_star=info.f_star, eta=e, c=c, k=k, d=dim, noise=None if ideal else noise)
        for e in etas for k in k_grid
    ]
    _check_grid("eta_grid", etas)
    rhs = [convergence_bound(p) for p in points]

    base = FLConfig(
        n_clients=n_clients, rounds=k_grid[-1], learning_rate=etas[0], clip=ClipMethod.none(),
        channel=ChannelConfig(fading_model, noise), seed=seed, projection_radius=info.radius,
    )
    cfg = method_variant(base, "ideal" if ideal else "mac", c, c)  # the ideal channel takes no threshold
    cfgs = [replace(cfg, learning_rate=e, seed=seed + s) for e in etas for s in range(n_seeds)]
    [results] = _run_calls([(cfgs, testbed.model, testbed.client_datas, None, testbed.w0)])
    for row_cfg, result in zip(cfgs, results):
        if result.diverged:
            raise RegimeError(
                f"bound-check run diverged at seed {row_cfg.seed}; the clipped "
                f"update should stay bounded"
            )
    gns, clipped = (
        np.stack([result.columns[name] for result in results]).reshape(len(etas), n_seeds, k_grid[-1], *block)
        for name, block in (("grad_norm_sq", ()), ("clipped_fraction", (-1,)))
    )
    avgs = [float(np.mean(gn[:, :k])) for gn in gns for k in k_grid]  # in the order of points
    rows = [BoundCheckRow(p.k, p.eta, avg, bound, avg / bound) for p, avg, bound in zip(points, avgs, rhs)]
    unclipped = np.mean(1.0 - clipped[0].mean(axis=-1), axis=-1)

    summary = (
        f"dim={dim} n_clients={n_clients} seeds={n_seeds} eta={','.join(map(str, etas))} c={c} "
        f"L={info.l} G={info.g} f0={f0} f_star={info.f_star} alpha={alpha} "
        f"tau={tau} fading={fading} ideal={ideal} seed={seed}"
    )
    return BoundCheckReport(
        rows=rows,
        c=c,
        dim=dim,
        n_seeds=n_seeds,
        ideal=ideal,
        p_unclipped_used=points[0].simplified_p_unclipped(),
        p_unclipped_empirical=float(np.mean(unclipped)),
        config_summary=summary,
    )
