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
from .fl_core import FLConfig, _run_calls, method_variant
from .models import QuadraticClientData, QuadraticModel, SmoothnessInfo, compute_smoothness, global_loss
from .stable_noise import RegimeError, StableParams, estimate_unclipped_prob, tail_prob_simplified
from .stable_noise import _check_integer, _check_not_bool, _check_positive

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
        _check_not_bool(*((name, getattr(self, name)) for name in ("g", "c", "tau", "f0", "f_star", "alpha")))
        for name in ("g", "c", "tau", "f0", "f_star"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        _check_positive("L", self.l)
        if self.g < 0.0:
            raise ValueError(f"G must be >= 0, got {self.g}")
        if self.f0 < self.f_star:
            raise ValueError(f"f0={self.f0} below the lower bound f_star={self.f_star}")
        for name in ("k", "d"):
            _check_integer(name, getattr(self, name), 1)
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError(f"alpha must lie in (0, 2], got {self.alpha}")
        if self.tau < 0.0:
            raise ValueError(f"tau must be >= 0, got {self.tau}")
        _check_positive("eta", self.eta)
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


def convergence_bound(params: BoundParams) -> float:
    """Upper bound on (1/K) * sum_k E||grad f(w_k)||^2 under median-anchored
    clipping, at the simplified power-law survival probability p.

    Its descent term is the classical one over K*p effective rounds.
    """
    p = params.simplified_p_unclipped()
    descent = classical_descent_bound(params.f0, params.f_star, params.eta, params.l, params.k * p)
    half_window = math.sqrt(2.0) / 2.0 * params.c - params.g
    # squares by multiplication: a float ** overflows with an exception, not to inf
    residual = 0.5 * (params.eta * params.eta) * params.d * params.l * (
        p * (half_window * half_window) + (1.0 - p) * (params.c * params.c)
    )
    bound = descent + residual
    if not math.isfinite(bound):
        raise RegimeError(f"the bound is not finite at c = {params.c}")
    return bound


def classical_descent_bound(f0: float, f_star: float, eta: float, l: float, k: float) -> float:
    """Noiseless full-gradient descent bound, the ideal-channel special case."""
    _check_positive("eta", eta)
    if eta * l >= 2.0:
        raise RegimeError(f"learning rate at boundary: eta*L = {eta * l}, requires eta < 2/L")
    descent = 2.0 * (f0 - f_star) / (k * (2.0 - eta * l) * eta)
    if not math.isfinite(descent):
        raise RegimeError(f"the descent term is not finite at eta = {eta}")
    return descent


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
    difference_law: str = "exact",
) -> SurvivalReport:
    """Empirical clip probability per threshold, with the power-law asymptote
    and a log-log slope fit per tail index. The defaults are the criterion-3
    check that ``otafl lemma1`` runs.

    Thresholds at or below sqrt(2)*g are marked ``regime_violation`` and
    skipped; thresholds whose asymptote exceeds 0.1 are marked
    ``outside_asymptotic_regime`` and excluded from the slope fit. At
    alpha = 2 each row also carries the absolute gap to the closed-form
    Gaussian value. All thresholds of one tail index are scored on one
    shared draw, so its clip probability never rises with C.
    """
    for name, grid in (("alphas", alphas), ("c_grid", c_grid)):
        if len(grid) == 0 or len(set(map(float, grid))) < len(grid):  # a repeat would run twice and count twice in a fit
            raise ValueError(f"{name} must be distinct and non-empty, got {list(grid)}")
    if not 0.0 <= g < math.inf:
        raise ValueError(f"g must be finite and >= 0, got {g}")
    if not all(0.0 < c < math.inf for c in c_grid):
        raise ValueError(f"c_grid must hold finite positive thresholds, got {list(c_grid)}")
    _check_not_bool(("g", g), *(("c_grid", x) for x in c_grid))
    _check_integer("n_samples", n_samples, 1)
    _check_integer("seed", seed, 0)
    if difference_law not in ("exact", "sqrt2"):
        raise ValueError(f"unknown difference_law {difference_law!r}")
    laws = [StableParams(alpha, tau) for alpha in alphas]
    rows: list[SurvivalRow] = []
    slopes: dict[float, float] = {}
    sqrt2_g = math.sqrt(2.0) * g
    estimated = [float(c) for c in c_grid if c > sqrt2_g]
    for ai, (alpha, params) in enumerate(zip(alphas, laws)):
        fit_c: list[float] = []
        fit_p: list[float] = []
        rng = np.random.default_rng(np.random.SeedSequence([seed, 3, ai]))
        p_hats = estimate_unclipped_prob(params, estimated, g, n_samples, rng, difference_law) if estimated else []
        for c in c_grid:
            asymptote = tail_prob_simplified(params, c)
            if c <= sqrt2_g:
                rows.append(
                    SurvivalRow(alpha, float(c), math.nan, asymptote, None, "regime_violation")
                )
                continue
            p_hat = float(p_hats[estimated.index(c)])
            clip_prob = 1.0 - p_hat
            oracle_err = None
            if alpha == 2.0:
                oracle_err = abs(p_hat - gaussian_unclipped_prob(tau, c, g))
            note = "outside_asymptotic_regime" if asymptote > _ASYMPTOTE_LIMIT else ""
            if note == "" and clip_prob > 0.0:
                fit_c.append(float(c))
                fit_p.append(clip_prob)
            rows.append(SurvivalRow(alpha, float(c), clip_prob, asymptote, oracle_err, note))
        slopes[float(alpha)] = float(np.polyfit(np.log(fit_c), np.log(fit_p), 1)[0]) if len(fit_c) >= 2 else math.nan
    summary = (
        f"alphas={','.join(map(str, alphas))} tau={tau} g={g} "
        f"samples={n_samples} seed={seed} difference_law={difference_law}"
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
    eta: float
    empirical_avg: float
    bound_rhs: float
    margin_ratio: float


@dataclass(frozen=True)
class BoundCheckReport:
    rows: list[BoundCheckRow]  # at (k, eta) for each k of k_grid
    eta_rows: list[BoundCheckRow]  # at (max(k_grid), e) for each e of eta_grid
    eta: float
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
    eta: float | None = None,
    c: float | None = None,
    fading: str = "none",
    ideal: bool = False,
    eta_grid=(),
) -> BoundCheckReport:
    """Monte Carlo check that the running average of ||grad f||^2 stays below
    the closed-form bound on a quadratic testbed with certified constants.

    One run of max(k_grid) rounds per seed provides every K via prefix
    averages, so the K comparison uses matched noise streams. Every
    (learning rate, seed) pair is a row of one run_replicas call, cut into
    blocks on the usable cores, each row bit for bit its run alone; a row's
    wall_time is its block's and reaches no file. The default channel has no
    fading: the bound treats unit-mean fades as their mean, and the check
    isolates exactly what the bound controls. ``ideal`` switches to the
    noiseless channel and the classical descent bound, and takes neither a
    threshold ``c`` nor a ``fading``.
    """
    for name, value in (("n_seeds", n_seeds), *(("k_grid", k) for k in k_grid)):
        _check_integer(name, value, 1)
    _check_not_bool(("eta", eta), ("c", c), *(("eta", e) for e in eta_grid))
    fading_model = FadingModel(fading)
    noise = StableParams(alpha, tau)
    if len(set(map(float, eta_grid))) < len(eta_grid):
        raise ValueError(f"eta_grid must be distinct, got {list(eta_grid)}")
    if not k_grid or len(set(k_grid)) < len(k_grid):
        raise ValueError(f"k_grid must be distinct and non-empty, got {list(k_grid)}")
    k_grid = sorted(int(k) for k in k_grid)
    testbed = make_quadratic_testbed(dim=dim, n_clients=n_clients, seed=seed)
    info = testbed.info
    if eta is None:
        eta = 1.0 / info.l
    f0 = global_loss(testbed.model, testbed.w0, testbed.client_datas)
    k_max = k_grid[-1]
    if ideal:
        if c is not None:
            raise ValueError(f"the ideal channel is not clipped, so it takes no threshold; got c={c}")
        if fading != "none":
            raise ValueError(f"the ideal channel is not faded, so it takes no fading; got fading={fading!r}")
        method, p_unclipped_used = "ideal", 1.0

        def bound_at(k: int, eta_val: float) -> float:
            return classical_descent_bound(f0, info.f_star, eta_val, info.l, k)
    else:
        if c is None:
            c = 2.0 * math.sqrt(2.0) * info.g
        if c <= math.sqrt(2.0) * info.g:
            raise RegimeError(
                f"clip threshold outside the theorem's regime: C = {c} <= sqrt(2)*G = "
                f"{math.sqrt(2.0) * info.g}"
            )
        params = BoundParams(
            l=info.l, g=info.g, f0=f0, f_star=info.f_star, eta=eta,
            c=c, k=k_max, d=dim, alpha=alpha, tau=tau,
        )
        method, p_unclipped_used = "mac", params.simplified_p_unclipped()

        def bound_at(k: int, eta_val: float) -> float:
            return convergence_bound(replace(params, k=k, eta=eta_val))

    # Every bound is evaluated before the first round, so a learning rate at
    # or beyond 2/L, in eta or in eta_grid, fails before any run starts.
    points = [(k, eta) for k in k_grid] + [(k_max, float(e)) for e in eta_grid]
    rhs = [bound_at(k, e) for k, e in points]

    base = FLConfig(
        n_clients=n_clients, rounds=k_max, learning_rate=eta, clip=ClipMethod.none(),
        channel=ChannelConfig(fading_model, noise), seed=seed, projection_radius=info.radius,
    )
    cfg = method_variant(base, method, c, c)  # the ideal channel takes no threshold

    # a sweep rate equal to eta reads eta's rows: the same seeds at the same rate
    etas = list(dict.fromkeys([eta, *map(float, eta_grid)]))
    cfgs = [replace(cfg, learning_rate=e, seed=seed + s) for e in etas for s in range(n_seeds)]
    [results] = _run_calls([(cfgs, testbed.model, testbed.client_datas, None, testbed.w0)])
    for row_cfg, result in zip(cfgs, results):
        if result.diverged:
            raise RegimeError(
                f"bound-check run diverged at seed {row_cfg.seed}; the clipped "
                f"update should stay bounded"
            )
    gns, clipped = (
        np.stack([result.columns[name] for result in results]).reshape(len(etas), n_seeds, k_max, *block)
        for name, block in (("grad_norm_sq", ()), ("clipped_fraction", (-1,)))
    )
    rows = []
    for (k, e), bound in zip(points, rhs):
        empirical = float(np.mean(gns[etas.index(e)][:, :k]))
        rows.append(BoundCheckRow(k, e, empirical, bound, empirical / bound))
    unclipped = np.mean(1.0 - clipped[0].mean(axis=-1), axis=-1)

    summary = (
        f"dim={dim} n_clients={n_clients} seeds={n_seeds} eta={eta} c={c} "
        f"L={info.l} G={info.g} f0={f0} f_star={info.f_star} alpha={alpha} "
        f"tau={tau} fading={fading} ideal={ideal} seed={seed}"
    )
    return BoundCheckReport(
        rows=rows[:len(k_grid)],
        eta_rows=rows[len(k_grid):],
        eta=eta,
        c=c,
        dim=dim,
        n_seeds=n_seeds,
        ideal=ideal,
        p_unclipped_used=p_unclipped_used,
        p_unclipped_empirical=float(np.mean(unclipped)),
        config_summary=summary,
    )
