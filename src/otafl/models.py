"""Desk-scale differentiable models with hand-derived gradients.

Three model families cover the simulator's needs: quadratic objectives with
exact curvature constants, (multinomial) logistic regression, and a one
hidden layer MLP. Every model takes one client payload protocol: features x
and targets y with a leading sample axis, plus optional per-sample weights.
A quadratic client is a one-sample payload (x = A[None], y = b[None]).
Loss and gradient evaluations broadcast over leading axes so that all
clients of a round can be processed in one vectorized call: parameters of
shape (..., d) combine with payloads of shape (..., m, ...), labels and
sample weights included, so one payload serves every row of a batched run.
`gradient` writes its blocks into `out=` when given one, as numpy's own
functions do, and the forward pass runs in place: a local step reuses buffers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stable_noise import _check_choice, _check_integer, _check_positive

__all__ = [
    "QuadraticClientData",
    "QuadraticModel",
    "LogisticModel",
    "MlpModel",
    "SmoothnessInfo",
    "compute_smoothness",
    "global_loss",
]


# ---------------------------------------------------------------------------
# quadratic objectives


@dataclass(frozen=True)
class QuadraticClientData:
    """One client's quadratic objective 0.5 * w'Aw - b'w (A symmetric PSD),
    seen by the models as the one-sample payload x = A[None], y = b[None]."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"A must be square, got shape {a.shape}")
        if b.shape != (a.shape[0],):
            raise ValueError(f"b must have shape ({a.shape[0]},), got {b.shape}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def x(self) -> np.ndarray:
        return self.a[None]

    @property
    def y(self) -> np.ndarray:
        return self.b[None]


class QuadraticModel:
    """Weighted mean over samples j of 0.5 * w'A_j w - b_j'w, with x holding
    the A_j (..., m, d, d) and y the b_j (..., m, d)."""

    is_classifier = False

    def __init__(self, dim: int):
        _check_integer("dim", dim, 1)
        self.dim = dim
        self.block_layout = [dim]

    def loss(self, w, x, y, sample_weight=None):
        w = np.asarray(w, dtype=float)[..., None, :]
        y = np.asarray(y, dtype=float)
        wn = _normalized_weights(y.shape[:-1], sample_weight)
        aw = (np.asarray(x, dtype=float) @ w[..., None])[..., 0]
        # np.add.reduce is np.sum without its Python wrapper: small quadratic
        # runs are overhead-bound
        per_sample = 0.5 * np.add.reduce(w * aw, axis=-1) - np.add.reduce(y * w, axis=-1)
        return np.add.reduce(per_sample * wn, axis=-1)

    def gradient(self, w, x, y, sample_weight=None, out=None):
        w = np.asarray(w, dtype=float)
        y = np.asarray(y, dtype=float)
        wn = _normalized_weights(y.shape[:-1], sample_weight)
        per_sample = (np.asarray(x, dtype=float) @ w[..., None, :, None])[..., 0] - y
        out = np.empty(per_sample.shape[:-2] + (self.dim,)) if out is None else out
        np.matmul(wn[..., None, :], per_sample, out=out[..., None, :])
        return out

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        return np.zeros(self.dim)


# ---------------------------------------------------------------------------
# shared helpers for the sample-based classifiers


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _class_reduce(ufunc, z: np.ndarray) -> np.ndarray:
    """ufunc.reduce(z, axis=-1, keepdims=True) for np.maximum or np.add on a
    C-contiguous z, bit for bit (a nan's sign aside). Below 8 entries numpy
    folds that axis left to right, a sum from +0.0: folding the columns skips
    its reduction machinery. From 8 on numpy sums pairwise and its max breaks
    +-0 ties in another order, so its reduce runs."""
    if not 1 < z.shape[-1] < 8:
        return ufunc.reduce(z, axis=-1, keepdims=True)
    acc = ufunc(z[..., :1], z[..., 1:2])
    for j in range(2, z.shape[-1]):
        ufunc(acc, z[..., j : j + 1], out=acc)
    return np.add(acc, 0.0, out=acc) if ufunc is np.add else acc  # a row of -0.0 sums to +0.0


def _log_softmax(z: np.ndarray) -> np.ndarray:
    """Log-softmax along the last axis, computed in place in z."""
    z -= _class_reduce(np.maximum, z)
    z -= np.log(_class_reduce(np.add, np.exp(z)))
    return z


def _label_log_prob(logp: np.ndarray, y: np.ndarray) -> np.ndarray:
    """logp[..., y] per sample; the labels broadcast against the leading
    axes of the log-probabilities."""
    labels = np.broadcast_to(y[..., None].astype(int), logp.shape[:-1] + (1,))
    return np.take_along_axis(logp, labels, axis=-1)[..., 0]


def _normalized_weights(shape: tuple[int, ...], sample_weight) -> np.ndarray:
    """Per-sample weights over a batch of the given shape (samples on the
    last axis) that sum to one along the sample axis (or to zero for an
    all-padding batch). No weights means every sample counts equally."""
    if sample_weight is None:
        return np.full(shape, 1.0 / shape[-1])
    sample_weight = np.asarray(sample_weight, dtype=float)
    return sample_weight / np.maximum(np.sum(sample_weight, axis=-1, keepdims=True), 1.0)


class LogisticModel:
    """Logistic regression with a bias: sigmoid for two classes, softmax
    beyond. The weights come first, then one bias per logit."""

    is_classifier = True

    def __init__(self, feature_dim: int, n_classes: int = 2):
        for name, value, low in (("feature_dim", feature_dim, 1), ("n_classes", n_classes, 2)):
            _check_integer(name, value, low)
        self.feature_dim = feature_dim
        self.n_classes = n_classes
        if n_classes == 2:
            self.block_layout = [feature_dim, 1]
        else:
            self.block_layout = [feature_dim * n_classes, n_classes]
        self.dim = sum(self.block_layout)

    def _binary_logits(self, w, x):
        p = self.feature_dim
        return (x @ w[..., :p, None])[..., 0] + w[..., p:][..., None, 0]

    def _softmax_logits(self, w, x):
        p, c = self.feature_dim, self.n_classes
        weights = w[..., : p * c].reshape(*w.shape[:-1], p, c)
        return x @ weights + w[..., p * c :][..., None, :]

    def loss(self, w, x, y, sample_weight=None):
        w = np.asarray(w, dtype=float)
        x = np.asarray(x, dtype=float)
        y = np.asarray(y)
        wn = _normalized_weights(y.shape, sample_weight)
        if self.n_classes == 2:
            z = self._binary_logits(w, x)
            yf = y.astype(float)
            ce = np.maximum(z, 0.0) - z * yf + np.log1p(np.exp(-np.abs(z)))
        else:
            ce = -_label_log_prob(_log_softmax(self._softmax_logits(w, x)), y)
        return np.sum(ce * wn, axis=-1)

    def gradient(self, w, x, y, sample_weight=None, out=None):
        w = np.asarray(w, dtype=float)
        x = np.asarray(x, dtype=float)
        y = np.asarray(y)
        wn = _normalized_weights(y.shape, sample_weight)
        p = self.feature_dim
        if self.n_classes == 2:
            r = (_sigmoid(self._binary_logits(w, x)) - y) * wn
            out = np.empty(r.shape[:-1] + (self.dim,)) if out is None else out
            np.matmul(r[..., None, :], x, out=out[..., None, :p])
            np.sum(r, axis=-1, out=out[..., p])
            return out
        c = self.n_classes
        resid = self._softmax_logits(w, x)
        np.exp(_log_softmax(resid), out=resid)
        resid -= y[..., None] == np.arange(c)
        resid *= wn[..., None]
        lead = resid.shape[:-2]
        out = np.empty(lead + (self.dim,)) if out is None else out
        np.matmul(np.swapaxes(x, -1, -2), resid, out=out[..., : p * c].reshape(*lead, p, c))
        np.sum(resid, axis=-2, out=out[..., p * c :])
        return out

    def predict(self, w, x) -> np.ndarray:
        if self.n_classes == 2:
            return (self._binary_logits(np.asarray(w, dtype=float), x) > 0.0).astype(int)
        return np.argmax(self._softmax_logits(np.asarray(w, dtype=float), x), axis=-1)

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        return np.zeros(self.dim)


class MlpModel:
    """One-hidden-layer MLP with hand-derived gradients.

    Two heads are available: softmax cross-entropy ("cross_entropy") and a
    squared-error head on the logits against one-hot targets
    ("squared_error"). The squared-error head has unbounded residuals, so it
    reproduces the gradient-explosion failure mode that saturating losses
    mask at small scale.
    """

    is_classifier = True

    def __init__(
        self,
        feature_dim: int,
        hidden_units: int,
        n_classes: int,
        activation: str = "relu",
        loss_kind: str = "cross_entropy",
    ):
        for name, value, low in (("feature_dim", feature_dim, 1), ("hidden_units", hidden_units, 1), ("n_classes", n_classes, 2)):
            _check_integer(name, value, low)
        _check_choice("activation", activation, ("relu", "tanh"))
        _check_choice("loss_kind", loss_kind, ("cross_entropy", "squared_error"))
        self.feature_dim = feature_dim
        self.hidden_units = hidden_units
        self.n_classes = n_classes
        self.activation = activation
        self.loss_kind = loss_kind
        p, h, c = feature_dim, hidden_units, n_classes
        self.block_layout = [p * h, h, h * c, c]
        self.dim = sum(self.block_layout)

    def _unpack(self, w):
        p, h, c = self.feature_dim, self.hidden_units, self.n_classes
        lead = w.shape[:-1]
        w1 = w[..., : p * h].reshape(*lead, p, h)
        b1 = w[..., p * h : p * h + h]
        w2 = w[..., p * h + h : p * h + h + h * c].reshape(*lead, h, c)
        b2 = w[..., p * h + h + h * c :]
        return w1, b1, w2, b2

    def _forward(self, w, x):
        """Hidden activations and logits, each computed in place in one array."""
        w1, b1, w2, b2 = self._unpack(w)
        hidden = x @ w1
        hidden += b1[..., None, :]
        if self.activation == "relu":
            np.maximum(hidden, 0.0, out=hidden)
        else:
            np.tanh(hidden, out=hidden)
        logits = hidden @ w2
        logits += b2[..., None, :]
        return hidden, logits

    def loss(self, w, x, y, sample_weight=None):
        w = np.asarray(w, dtype=float)
        x = np.asarray(x, dtype=float)
        y = np.asarray(y)
        wn = _normalized_weights(y.shape, sample_weight)
        _, logits = self._forward(w, x)
        if self.loss_kind == "squared_error":
            resid = logits - (y[..., None] == np.arange(self.n_classes))
            per_sample = 0.5 * _class_reduce(np.add, resid**2)[..., 0]
        else:
            per_sample = -_label_log_prob(_log_softmax(logits), y)
        return np.sum(per_sample * wn, axis=-1)

    def gradient(self, w, x, y, sample_weight=None, out=None):
        w = np.asarray(w, dtype=float)
        x = np.asarray(x, dtype=float)
        y = np.asarray(y)
        wn = _normalized_weights(y.shape, sample_weight)
        w2 = self._unpack(w)[2]
        hidden, resid = self._forward(w, x)
        if self.loss_kind == "cross_entropy":
            np.exp(_log_softmax(resid), out=resid)
        resid -= y[..., None] == np.arange(self.n_classes)
        resid *= wn[..., None]
        out = np.empty(resid.shape[:-2] + (self.dim,)) if out is None else out
        gw1, gb1, gw2, gb2 = self._unpack(out)
        np.matmul(np.swapaxes(hidden, -1, -2), resid, out=gw2)
        np.sum(resid, axis=-2, out=gb2)
        # the activation's derivative, read off its output before the hidden
        # buffer takes dhidden: relu's hidden > 0 is pre > 0 (nan included),
        # and 1 - hidden**2 is 1 - tanh(pre)**2
        deriv = hidden > 0.0 if self.activation == "relu" else 1.0 - hidden**2
        dhidden = np.matmul(resid, np.swapaxes(w2, -1, -2), out=hidden)
        dhidden *= deriv
        np.matmul(np.swapaxes(x, -1, -2), dhidden, out=gw1)
        np.sum(dhidden, axis=-2, out=gb1)
        return out

    def predict(self, w, x) -> np.ndarray:
        _, logits = self._forward(np.asarray(w, dtype=float), np.asarray(x, dtype=float))
        return np.argmax(logits, axis=-1)

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        p, h, c = self.feature_dim, self.hidden_units, self.n_classes
        w1 = rng.normal(0.0, np.sqrt(2.0 / (p + h)), size=p * h)
        w2 = rng.normal(0.0, np.sqrt(2.0 / (h + c)), size=h * c)
        return np.concatenate([w1, np.zeros(h), w2, np.zeros(c)])


# ---------------------------------------------------------------------------
# client-averaged objective and curvature constants


def global_loss(model, w, client_datas) -> float:
    """Mean of the per-client empirical risks (clients weighted equally)."""
    return float(np.mean([model.loss(w, d.x, d.y) for d in client_datas]))


@dataclass(frozen=True)
class SmoothnessInfo:
    """Smoothness constant L, gradient bound G (over a ball of the stated
    radius), and a lower bound on the objective, all in closed form."""

    l: float
    g: float
    f_star: float
    radius: float


def compute_smoothness(client_datas, radius: float) -> SmoothnessInfo:
    """Exact curvature and gradient-bound constants of quadratic clients over
    the ball ||w|| <= radius.

    L is the top eigenvalue of the averaged A, G is bounded by
    max_n (lambda_max(A_n) * radius + ||b_n||), and f_star is evaluated at
    the exact minimizer.
    """
    _check_positive("radius", radius)
    a_mean = np.mean([d.a for d in client_datas], axis=0)
    b_mean = np.mean([d.b for d in client_datas], axis=0)
    l = float(np.linalg.eigvalsh(a_mean)[-1])
    g = max(
        float(np.linalg.eigvalsh(d.a)[-1]) * radius + float(np.linalg.norm(d.b))
        for d in client_datas
    )
    w_star = np.linalg.solve(a_mean, b_mean)
    f_star = 0.5 * float(w_star @ a_mean @ w_star) - float(b_mean @ w_star)
    return SmoothnessInfo(l=l, g=g, f_star=f_star, radius=radius)
