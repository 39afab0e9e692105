"""Quantitative verification of the clipping math and the convergence bound.

Three checks live here: the closed-form bound on the running average of
squared gradient norms under median-anchored clipping, the selection-matrix
decomposition of a clipped update, and Monte Carlo measurement of the
probability that an entry survives clipping together with its tail exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import ChannelConfig, FadingModel
from .clipping import ClipMethod, vector_median
from .fl_core import FLConfig, run_replicas
from .models import QuadraticClientData, QuadraticModel, SmoothnessInfo, compute_smoothness, global_loss
from .stable_noise import RegimeError, StableParams, estimate_unclipped_prob, tail_prob_simplified

__all__ = [
    "BoundParams",
    "convergence_bound",
    "classical_descent_bound",
    "ClipDecomposition",
    "decompose_clip_event",
    "SurvivalRow",
    "SurvivalReport",
    "clip_survival_report",
    "gaussian_unclipped_prob",
    "QuadraticTestbed",
    "make_quadratic_testbed",
    "BoundCheckRow",
    "EtaRow",
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
    threshold, k the number of rounds, d the parameter dimension, and
    (alpha, tau) the noise law. tau = 0 expresses the noiseless limit.
    """

    l: float
    g: float
    f0: float
    f_star: float
    eta: float
    c: float
    k: int
    d: int
    alpha: float
    tau: float

    def __post_init__(self) -> None:
        for name in ("g", "c", "tau", "f0", "f_star"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.l > 0.0:
            raise ValueError(f"L must be positive, got {self.l}")
        if self.g < 0.0:
            raise ValueError(f"G must be >= 0, got {self.g}")
        if self.f0 < self.f_star:
            raise ValueError(f"f0={self.f0} below the lower bound f_star={self.f_star}")
        if self.k < 1 or self.d < 1:
            raise ValueError("k and d must be >= 1")
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError(f"alpha must lie in (0, 2], got {self.alpha}")
        if self.tau < 0.0:
            raise ValueError(f"tau must be >= 0, got {self.tau}")
        if not self.eta > 0.0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        if self.eta * self.l >= 2.0:
            raise RegimeError(
                f"learning rate at boundary: eta*L = {self.eta * self.l} but the "
                f"bound divides by (2 - eta*L), so eta < 2/L is required"
            )
        if self.c < math.sqrt(2.0) * self.g:
            raise RegimeError(
                f"clip threshold below regime: C = {self.c} < sqrt(2)*G = "
                f"{math.sqrt(2.0) * self.g}"
            )

    def simplified_p_unclipped(self) -> float:
        if self.tau == 0.0:
            return 1.0
        p = 1.0 - tail_prob_simplified(StableParams(self.alpha, self.tau), self.c)
        return min(1.0, max(p, _P_FLOOR))


def convergence_bound(params: BoundParams, p_unclipped: float | None = None) -> float:
    """Upper bound on (1/K) * sum_k E||grad f(w_k)||^2 under median-anchored
    clipping.

    The survival probability defaults to the simplified power-law form; a
    measured value may be passed instead to decouple the check from the
    asymptote.
    """
    p = params.simplified_p_unclipped() if p_unclipped is None else p_unclipped
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p_unclipped must lie in (0, 1], got {p}")
    descent = 2.0 * (params.f0 - params.f_star) / (
        params.k * p * (2.0 - params.eta * params.l) * params.eta
    )
    half_window = math.sqrt(2.0) / 2.0 * params.c - params.g
    residual = 0.5 * params.eta**2 * params.d * params.l * (
        p * half_window**2 + (1.0 - p) * params.c**2
    )
    return descent + residual


def classical_descent_bound(f0: float, f_star: float, eta: float, l: float, k: int) -> float:
    """Noiseless full-gradient descent bound, the ideal-channel special case."""
    if eta * l >= 2.0:
        raise RegimeError(
            f"learning rate at boundary: eta*L = {eta * l}, requires eta < 2/L"
        )
    return 2.0 * (f0 - f_star) / (k * (2.0 - eta * l) * eta)


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
    if not threshold > 0.0:
        raise ValueError(f"threshold must be positive, got {threshold}")
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
    margin = c - math.sqrt(2.0) * g
    if margin <= 0.0:
        raise RegimeError(f"clip threshold must exceed sqrt(2)*G: C={c}, G={g}")
    return math.erf(margin / (2.0 * tau * math.sqrt(2.0)))


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

    def rows_for(self, alpha: float) -> list[SurvivalRow]:
        return [r for r in self.rows if r.alpha == alpha]


def clip_survival_report(
    alphas,
    tau: float,
    c_grid,
    g: float,
    n_samples: int,
    seed: int = 0,
    difference_law: str = "exact",
) -> SurvivalReport:
    """Empirical clip probability per threshold, with the power-law asymptote
    and a log-log slope fit per tail index.

    Thresholds at or below sqrt(2)*g are marked ``regime_violation`` and
    skipped; thresholds whose asymptote exceeds 0.1 are marked
    ``outside_asymptotic_regime`` and excluded from the slope fit. At
    alpha = 2 each row also carries the absolute gap to the closed-form
    Gaussian value. All thresholds of one tail index are scored on one
    shared draw, so its clip probability never rises with C.
    """
    rows: list[SurvivalRow] = []
    slopes: dict[float, float] = {}
    sqrt2_g = math.sqrt(2.0) * g
    for ai, alpha in enumerate(alphas):
        params = StableParams(alpha, tau)
        fit_c: list[float] = []
        fit_p: list[float] = []
        estimated = [float(c) for c in c_grid if c > sqrt2_g]
        rng = np.random.default_rng(np.random.SeedSequence([seed, 3, ai]))
        p_hats = iter(
            estimate_unclipped_prob(params, estimated, g, n_samples, rng, difference_law)
            if estimated else []
        )
        for c in c_grid:
            asymptote = tail_prob_simplified(params, c)
            if c <= sqrt2_g:
                rows.append(
                    SurvivalRow(alpha, float(c), math.nan, asymptote, None, "regime_violation")
                )
                continue
            p_hat = float(next(p_hats))
            clip_prob = 1.0 - p_hat
            oracle_err = None
            if alpha == 2.0:
                oracle_err = abs(p_hat - gaussian_unclipped_prob(tau, c, g))
            note = "outside_asymptotic_regime" if asymptote > _ASYMPTOTE_LIMIT else ""
            if note == "" and clip_prob > 0.0:
                fit_c.append(float(c))
                fit_p.append(clip_prob)
            rows.append(SurvivalRow(alpha, float(c), clip_prob, asymptote, oracle_err, note))
        if len(fit_c) >= 2:
            slope = float(np.polyfit(np.log(fit_c), np.log(fit_p), 1)[0])
        else:
            slope = math.nan
        slopes[float(alpha)] = slope
    return SurvivalReport(rows=rows, slopes=slopes)


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
    info = compute_smoothness(datas, radius=_W0_NORM)
    return QuadraticTestbed(model=model, client_datas=datas, w0=w0, info=info)


@dataclass(frozen=True)
class BoundCheckRow:
    rounds: int
    empirical_avg: float
    bound_rhs: float
    margin_ratio: float


@dataclass(frozen=True)
class EtaRow:
    eta: float
    empirical_avg: float
    bound_rhs: float
    margin_ratio: float


@dataclass(frozen=True)
class BoundCheckReport:
    rows: list[BoundCheckRow]
    eta_rows: list[EtaRow]
    eta: float
    c: float
    l: float
    g: float
    f0: float
    f_star: float
    alpha: float
    tau: float
    dim: int
    n_clients: int
    n_seeds: int
    ideal: bool
    p_unclipped_used: float
    p_unclipped_empirical: float
    median_mean_gap: float
    config_summary: str


def _grad_norm_matrix(cfg: FLConfig, testbed: QuadraticTestbed, n_seeds: int) -> tuple[np.ndarray, float, float]:
    """(seeds x rounds) squared gradient norms plus mean unclipped fraction
    and mean median/mean gap; the seeds run as replicas of one round loop."""
    results = run_replicas(cfg, testbed.model, testbed.client_datas, n_seeds, w0=testbed.w0)
    for s, result in enumerate(results):
        if result.diverged:
            raise RuntimeError(
                f"bound-check run diverged at seed {cfg.seed + s}; the clipped "
                f"update should stay bounded"
            )
    rows, clipped, gaps = (
        np.stack([result.columns[name] for result in results])
        for name in ("grad_norm_sq", "clipped_fraction", "median_mean_gap")
    )
    unclipped = np.mean(1.0 - clipped.mean(axis=-1), axis=-1)
    return rows, float(np.mean(unclipped)), float(np.mean(gaps.mean(axis=-1)))


def verify_convergence_bound(
    dim: int = 10,
    n_clients: int = 5,
    k_grid=(10, 100, 1000),
    n_seeds: int = 20,
    alpha: float = 1.5,
    tau: float = 0.1,
    seed: int = 0,
    eta: float | None = None,
    c: float | None = None,
    fading: str = "none",
    ideal: bool = False,
    eta_grid=(),
) -> BoundCheckReport:
    """Monte Carlo check that the running average of ||grad f||^2 stays below
    the closed-form bound on a quadratic testbed with certified constants.

    One run of max(k_grid) rounds per seed provides every K via prefix
    averages, so the K comparison uses matched noise streams. The seeds run
    as replicas of one round loop, each bit for bit the run it would be
    alone, and their telemetry is kept as (seeds x rounds) columns. The default
    channel has no fading: the bound treats unit-mean fades as their mean, and
    the check isolates exactly what the bound controls. ``ideal`` switches to
    the noiseless channel and the classical descent bound.
    """
    for name, value in (("dim", dim), ("n_clients", n_clients), ("n_seeds", n_seeds)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    k_grid = sorted(set(int(k) for k in k_grid))
    if not k_grid or k_grid[0] < 1:
        raise ValueError("k_grid must contain positive round counts")
    testbed = make_quadratic_testbed(dim=dim, n_clients=n_clients, seed=seed)
    info = testbed.info
    if eta is None:
        eta = 1.0 / info.l
    if c is None:
        c = 2.0 * math.sqrt(2.0) * info.g
    if not ideal and c <= math.sqrt(2.0) * info.g:
        raise RegimeError(
            f"clip threshold outside the theorem's regime: C = {c} <= sqrt(2)*G = "
            f"{math.sqrt(2.0) * info.g}"
        )
    f0 = global_loss(testbed.model, testbed.w0, testbed.client_datas)
    k_max = k_grid[-1]

    def bound_at(k: int, eta_val: float) -> float:
        if ideal:
            return classical_descent_bound(f0, info.f_star, eta_val, info.l, k)
        params = BoundParams(
            l=info.l, g=info.g, f0=f0, f_star=info.f_star, eta=eta_val,
            c=c, k=k, d=dim, alpha=alpha, tau=tau,
        )
        return convergence_bound(params)

    # Every bound is evaluated before the first round, so a learning rate at
    # or beyond 2/L, in eta or in eta_grid, fails before any run starts.
    rhs = [bound_at(k, eta) for k in k_grid]
    eta_rhs = [bound_at(k_max, float(eta_val)) for eta_val in eta_grid]

    fading_model = FadingModel.rayleigh_unit_mean() if fading == "rayleigh" else FadingModel.no_fading()
    cfg = FLConfig(
        n_clients=n_clients,
        rounds=k_max,
        learning_rate=eta,
        clip=ClipMethod.none() if ideal else ClipMethod.mac(c),
        channel=ChannelConfig.ideal() if ideal else ChannelConfig(fading_model, StableParams(alpha, tau)),
        seed=seed,
        projection_radius=info.radius,
    )

    gns, p_empirical, gap = _grad_norm_matrix(cfg, testbed, n_seeds)
    rows = []
    for k, bound in zip(k_grid, rhs):
        empirical = float(np.mean(gns[:, :k]))
        rows.append(BoundCheckRow(k, empirical, bound, empirical / bound))

    eta_rows = []
    for eta_val, bound in zip(eta_grid, eta_rhs):
        sweep_cfg = replace(cfg, learning_rate=float(eta_val))
        sweep_gns, _, _ = _grad_norm_matrix(sweep_cfg, testbed, n_seeds)
        empirical = float(np.mean(sweep_gns))
        eta_rows.append(EtaRow(float(eta_val), empirical, bound, empirical / bound))

    if ideal or tau == 0.0:
        p_used = 1.0
    else:
        p_used = BoundParams(
            l=info.l, g=info.g, f0=f0, f_star=info.f_star, eta=eta,
            c=c, k=k_max, d=dim, alpha=alpha, tau=tau,
        ).simplified_p_unclipped()
    summary = (
        f"dim={dim} n_clients={n_clients} seeds={n_seeds} eta={eta} c={c} "
        f"L={info.l} G={info.g} f0={f0} f_star={info.f_star} alpha={alpha} "
        f"tau={tau} fading={fading} ideal={ideal} seed={seed}"
    )
    return BoundCheckReport(
        rows=rows,
        eta_rows=eta_rows,
        eta=eta,
        c=c,
        l=info.l,
        g=info.g,
        f0=f0,
        f_star=info.f_star,
        alpha=alpha,
        tau=tau,
        dim=dim,
        n_clients=n_clients,
        n_seeds=n_seeds,
        ideal=ideal,
        p_unclipped_used=p_used,
        p_unclipped_empirical=p_empirical,
        median_mean_gap=gap,
        config_summary=summary,
    )
