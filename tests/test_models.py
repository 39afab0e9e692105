import time

import numpy as np
import pytest

from conftest import finite_difference_gradient, global_gradient, local_update
from otafl import (
    LogisticModel,
    MlpModel,
    QuadraticClientData,
    QuadraticModel,
    compute_smoothness,
)
from otafl.models import _class_reduce, _label_log_prob, _log_softmax, _normalized_weights, global_loss


def make_logistic_data(rng, n=30, p=4, classes=2):
    x = rng.normal(size=(n, p))
    y = rng.integers(classes, size=n)
    return x, y


def test_quadratic_loss_and_gradient_values():
    # one-sample payload: x = A[None], y = b[None]
    model = QuadraticModel(2)
    eye = np.eye(2)[None]
    assert model.loss(np.zeros(2), eye, np.zeros((1, 2))) == 0.0
    assert model.loss(np.array([3.0, 4.0]), eye, np.zeros((1, 2))) == 12.5
    np.testing.assert_array_equal(
        model.gradient(np.zeros(2), eye, np.array([[1.0, 1.0]])), [-1.0, -1.0]
    )
    data = QuadraticClientData(a=np.eye(2), b=np.ones(2))
    assert data.x.shape == (1, 2, 2) and data.y.shape == (1, 2)
    assert len(data.y) == 1


def test_quadratic_gradient_broadcasts_over_clients():
    model = QuadraticModel(3)
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 3, 3))
    a = a @ a.transpose(0, 2, 1)
    b = rng.normal(size=(4, 3))
    w = rng.normal(size=3)
    stacked = model.gradient(w, a[:, None], b[:, None])
    assert stacked.shape == (4, 3)
    for i in range(4):
        np.testing.assert_allclose(stacked[i], model.gradient(w, a[i][None], b[i][None]), rtol=1e-12)


@pytest.mark.parametrize("model", [
    LogisticModel(4, 2), LogisticModel(4, 3), MlpModel(4, 6, 3), MlpModel(4, 6, 2, loss_kind="squared_error"),
])
def test_replica_parameters_broadcast_against_one_payload(model):
    # parameters (R, 1, d) against one (N, m, ...) payload, labels and padding
    # mask included: each replica's losses are its own run's, bit for bit
    rng = np.random.default_rng(6)
    x = rng.normal(size=(5, 7, 4))
    y = rng.integers(model.n_classes, size=(5, 7))
    mask = (rng.random((5, 7)) < 0.7) * 1.0
    w = rng.normal(scale=0.5, size=(3, 1, model.dim))
    for weight in (None, mask):
        losses = model.loss(w, x, y, sample_weight=weight)
        assert losses.shape == (3, 5)
        for r in range(3):
            assert losses[r].tobytes() == model.loss(w[r:r + 1], x, y, sample_weight=weight)[0].tobytes()


def test_logistic_uniform_prediction_loss():
    # with zero weights every prediction is uniform: loss = ln 2 on two classes
    model = LogisticModel(2, 2)
    x = np.array([[1.0, 0.0], [-1.0, 0.0]])
    y = np.array([1, 0])
    assert model.loss(np.zeros(model.dim), x, y) == pytest.approx(np.log(2.0))


def test_logistic_boundary_gradient_is_half_feature():
    # one sample on the decision boundary: sigmoid residual is exactly 0.5,
    # on the weights (times the feature) and on the bias (times one)
    model = LogisticModel(3, 2)
    x = np.array([[2.0, -1.0, 0.5]])
    for label, sign in [(0, 0.5), (1, -0.5)]:
        g = model.gradient(np.zeros(model.dim), x, np.array([label]))
        np.testing.assert_allclose(g, sign * np.append(x[0], 1.0), rtol=1e-15)


@pytest.mark.parametrize(
    "model,classes",
    [
        (LogisticModel(4, 2), 2),
        (MlpModel(4, 6, 2, activation="relu", loss_kind="squared_error"), 2),
        (LogisticModel(4, 3), 3),
        (MlpModel(4, 6, 3, activation="tanh"), 3),
        (MlpModel(4, 6, 2, activation="relu"), 2),
        (MlpModel(4, 6, 2, activation="tanh", loss_kind="squared_error"), 2),
    ],
)
def test_gradients_match_finite_differences(model, classes):
    rng = np.random.default_rng(1)
    x, y = make_logistic_data(rng, classes=classes)
    for _ in range(10):
        w = rng.normal(scale=0.5, size=model.dim)
        analytic = model.gradient(w, x, y)
        numeric = finite_difference_gradient(lambda v: model.loss(v, x, y), w)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-8)


def test_quadratic_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    model = QuadraticModel(5)
    a = rng.normal(size=(5, 5))
    a = a @ a.T
    b = rng.normal(size=5)
    w = rng.normal(size=5)
    numeric = finite_difference_gradient(lambda v: model.loss(v, a[None], b[None]), w)
    np.testing.assert_allclose(model.gradient(w, a[None], b[None]), numeric, rtol=1e-4, atol=1e-8)


def test_quadratic_samples_are_a_weighted_mean():
    # several (A_j, b_j) samples: the loss and gradient are the weighted mean
    # of the one-sample values, and a zero-weight sample drops out
    rng = np.random.default_rng(12)
    model = QuadraticModel(3)
    a = rng.normal(size=(4, 3, 3))
    a = a @ a.transpose(0, 2, 1)
    b = rng.normal(size=(4, 3))
    w = rng.normal(size=3)
    weight = np.array([1.0, 2.0, 0.0, 1.0])
    share = weight / weight.sum()
    singles = [model.gradient(w, a[j][None], b[j][None]) for j in range(4)]
    losses = [model.loss(w, a[j][None], b[j][None]) for j in range(4)]
    np.testing.assert_allclose(
        model.gradient(w, a, b, sample_weight=weight), share @ np.array(singles), rtol=1e-12
    )
    assert model.loss(w, a, b, sample_weight=weight) == pytest.approx(share @ np.array(losses), rel=1e-12)
    keep = [0, 1, 3]
    np.testing.assert_allclose(
        model.gradient(w, a, b, sample_weight=(weight > 0).astype(float)),
        model.gradient(w, a[keep], b[keep]),
        rtol=1e-12,
    )
    numeric = finite_difference_gradient(lambda v: model.loss(v, a, b, sample_weight=weight), w)
    np.testing.assert_allclose(model.gradient(w, a, b, sample_weight=weight), numeric, rtol=1e-4, atol=1e-8)


def test_gradient_sample_weights_match_subset():
    model = LogisticModel(3, 2)
    rng = np.random.default_rng(3)
    x, y = make_logistic_data(rng, n=8, p=3)
    w = rng.normal(size=model.dim)
    weight = np.array([1, 1, 1, 1, 1, 0, 0, 0], dtype=float)
    masked = model.gradient(w, x, y, sample_weight=weight)
    subset = model.gradient(w, x[:5], y[:5])
    np.testing.assert_allclose(masked, subset, rtol=1e-12)


def test_local_update_full_batch_reduces_to_gradient():
    model = LogisticModel(4, 2)
    rng = np.random.default_rng(4)
    x, y = make_logistic_data(rng)
    data = type("D", (), {"x": x, "y": y})()
    w = rng.normal(size=model.dim)
    pseudo = local_update(model, w, data, epochs=1, batch_size=10**9, lr=0.1, rng=np.random.default_rng(0))
    np.testing.assert_array_equal(pseudo, model.gradient(w, x, y))


def test_local_update_two_step_quadratic_closed_form():
    # two full-gradient steps: (I - (I - eta*A)^2)(w - A^{-1} b) / eta
    rng = np.random.default_rng(5)
    dim = 4
    a = rng.normal(size=(dim, dim))
    a = a @ a.T + np.eye(dim)
    b = rng.normal(size=dim)
    data = QuadraticClientData(a=a, b=b)
    model = QuadraticModel(dim)
    w = rng.normal(size=dim)
    eta = 0.05
    pseudo = local_update(model, w, data, epochs=2, batch_size=1, lr=eta, rng=np.random.default_rng(0))
    shrink = np.eye(dim) - eta * a
    expected = (np.eye(dim) - shrink @ shrink) @ (w - np.linalg.solve(a, b)) / eta
    np.testing.assert_allclose(pseudo, expected, rtol=1e-10)


def test_local_update_deterministic_replay():
    model = MlpModel(4, 5, 2)
    rng = np.random.default_rng(6)
    x, y = make_logistic_data(rng, n=25)
    data = type("D", (), {"x": x, "y": y})()
    w = model.init_params(np.random.default_rng(1))
    runs = [
        local_update(model, w, data, epochs=5, batch_size=10, lr=0.03, rng=np.random.default_rng(9))
        for _ in range(2)
    ]
    np.testing.assert_array_equal(runs[0], runs[1])


def test_smoothness_quadratic_exact():
    shared = QuadraticClientData(a=np.diag([1.0, 4.0]), b=np.zeros(2))
    info = compute_smoothness([shared, shared], radius=3.0)
    assert info.l == pytest.approx(4.0)
    assert info.f_star == pytest.approx(0.0)

    identity = QuadraticClientData(a=np.eye(2), b=np.zeros(2))
    info = compute_smoothness([identity], radius=2.5)
    assert info.g == pytest.approx(2.5)  # ||grad|| = ||w|| on the ball


def test_quadratic_descent_reaches_minimizer():
    rng = np.random.default_rng(8)
    dim = 6
    datas = []
    for _ in range(3):
        a = rng.normal(size=(dim, dim))
        datas.append(QuadraticClientData(a=a @ a.T + 0.5 * np.eye(dim), b=rng.normal(size=dim)))
    model = QuadraticModel(dim)
    a_mean = np.mean([d.a for d in datas], axis=0)
    b_mean = np.mean([d.b for d in datas], axis=0)
    l = np.linalg.eigvalsh(a_mean)[-1]
    w = rng.normal(size=dim)
    for _ in range(4000):
        w = w - (1.0 / l) * global_gradient(model, w, datas)
    assert np.linalg.norm(global_gradient(model, w, datas)) < 1e-8
    np.testing.assert_allclose(w, np.linalg.solve(a_mean, b_mean), atol=1e-8)


def test_global_matches_mean_of_local():
    rng = np.random.default_rng(9)
    model = LogisticModel(3, 2)
    from otafl import Dataset

    datas = []
    for _ in range(4):
        x, y = make_logistic_data(rng, n=12, p=3)
        datas.append(Dataset(x=x, y=y))
    w = rng.normal(size=model.dim)
    mean_grad = np.mean([model.gradient(w, d.x, d.y) for d in datas], axis=0)
    np.testing.assert_allclose(global_gradient(model, w, datas), mean_grad, atol=1e-12)
    mean_loss = np.mean([model.loss(w, d.x, d.y) for d in datas])
    assert global_loss(model, w, datas) == pytest.approx(mean_loss, rel=1e-12)


def test_mlp_descent_is_monotone():
    rng = np.random.default_rng(10)
    x, y = make_logistic_data(rng, n=40, p=4, classes=2)
    model = MlpModel(4, 8, 2, activation="tanh")
    for init_seed in range(10):
        w = model.init_params(np.random.default_rng(init_seed))
        prev = model.loss(w, x, y)
        for _ in range(100):
            w = w - 0.05 * model.gradient(w, x, y)
            cur = model.loss(w, x, y)
            assert cur <= prev + 1e-12
            prev = cur


def test_block_layouts():
    assert QuadraticModel(7).block_layout == [7]
    assert LogisticModel(5, 2).block_layout == [5, 1]
    assert LogisticModel(5, 3).block_layout == [15, 3]
    assert MlpModel(5, 8, 3).block_layout == [40, 8, 24, 3]
    for model in (LogisticModel(5, 3), MlpModel(5, 8, 3)):
        assert sum(model.block_layout) == model.dim


def test_mlp_squared_error_values():
    # logits are zero at zero weights: per-sample loss is 0.5 * ||onehot||^2
    model = MlpModel(3, 4, 2, loss_kind="squared_error")
    x = np.random.default_rng(0).normal(size=(5, 3))
    y = np.array([0, 1, 0, 1, 1])
    assert model.loss(np.zeros(model.dim), x, y) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        MlpModel(3, 4, 2, loss_kind="hinge")


@pytest.mark.parametrize("build, match", [
    (lambda: QuadraticClientData(a=np.zeros((2, 3)), b=np.zeros(2)), r"A must be square, got shape \(2, 3\)"),
    (lambda: QuadraticClientData(a=np.eye(2), b=np.zeros(3)), r"b must have shape \(2,\), got \(3,\)"),
    (lambda: QuadraticModel(0), "dim must be >= 1, got 0"),
    (lambda: LogisticModel(0), "feature_dim must be >= 1"),
    (lambda: MlpModel(3, 0, 2), "hidden_units must be >= 1, got 0"),
    (lambda: MlpModel(3, 4, 2, activation="sigmoid"), r"activation must be one of \('relu', 'tanh'\), got 'sigmoid'"),
    (lambda: compute_smoothness([QuadraticClientData(a=np.eye(2), b=np.zeros(2))], radius=0.0),
     "radius must be positive, got 0.0"),
])
def test_bad_model_input_is_rejected(build, match):
    with pytest.raises(ValueError, match=match):
        build()


def test_mlp_predict_and_init_determinism():
    model = MlpModel(3, 4, 2)
    w1 = model.init_params(np.random.default_rng(11))
    w2 = model.init_params(np.random.default_rng(11))
    np.testing.assert_array_equal(w1, w2)
    x = np.random.default_rng(12).normal(size=(6, 3))
    labels = model.predict(w1, x)
    assert labels.shape == (6,)
    assert set(np.unique(labels)).issubset({0, 1})


# The MLP as it was computed out of place, with the pre-activation kept: the
# reference that the in-place forward and gradient must equal bit for bit.


def reference_mlp_forward(model, w, x):
    w1, b1, w2, b2 = model._unpack(w)
    pre = x @ w1 + b1[..., None, :]
    hidden = np.maximum(pre, 0.0) if model.activation == "relu" else np.tanh(pre)
    logits = hidden @ w2 + b2[..., None, :]
    return pre, hidden, logits


def reference_log_softmax(z):
    shifted = z - np.max(z, axis=-1, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))


def reference_mlp_loss(model, w, x, y, sample_weight=None):
    wn = _normalized_weights(y.shape, sample_weight)
    _, _, logits = reference_mlp_forward(model, w, x)
    if model.loss_kind == "squared_error":
        resid = logits - (y[..., None] == np.arange(model.n_classes))
        per_sample = 0.5 * np.sum(resid**2, axis=-1)
    else:
        per_sample = -_label_log_prob(reference_log_softmax(logits), y)
    return np.sum(per_sample * wn, axis=-1)


def reference_mlp_gradient(model, w, x, y, sample_weight=None):
    wn = _normalized_weights(y.shape, sample_weight)
    p, h, c = model.feature_dim, model.hidden_units, model.n_classes
    _, _, w2, _ = model._unpack(w)
    pre, hidden, logits = reference_mlp_forward(model, w, x)
    if model.loss_kind == "squared_error":
        resid = logits - (y[..., None] == np.arange(c)).astype(float)
    else:
        resid = np.exp(reference_log_softmax(logits))
        resid -= y[..., None] == np.arange(c)
    resid *= wn[..., None]
    gw2 = np.swapaxes(hidden, -1, -2) @ resid
    gb2 = np.sum(resid, axis=-2)
    dhidden = resid @ np.swapaxes(w2, -1, -2)
    if model.activation == "relu":
        dhidden = dhidden * (pre > 0.0)
    else:
        dhidden = dhidden * (1.0 - np.tanh(pre) ** 2)
    gw1 = np.swapaxes(x, -1, -2) @ dhidden
    gb1 = np.sum(dhidden, axis=-2)
    lead = gb1.shape[:-1]
    return np.concatenate([gw1.reshape(*lead, p * h), gb1, gw2.reshape(*lead, h * c), gb2], axis=-1)


def reference_logistic_softmax(model, w, x, y, sample_weight=None):
    """Loss and gradient of LogisticModel's softmax head, out of place, with
    np.max and np.sum over the class axis."""
    wn = _normalized_weights(y.shape, sample_weight)
    p, c = model.feature_dim, model.n_classes
    logits = x @ w[..., : p * c].reshape(*w.shape[:-1], p, c) + w[..., p * c :][..., None, :]
    logp = reference_log_softmax(logits)
    loss = np.sum(-_label_log_prob(logp, y) * wn, axis=-1)
    resid = (np.exp(logp) - (y[..., None] == np.arange(c))) * wn[..., None]
    gw = np.swapaxes(x, -1, -2) @ resid
    gb = np.sum(resid, axis=-2)
    return loss, np.concatenate([gw.reshape(*gb.shape[:-1], p * c), gb], axis=-1)


def fuzz_payload(fuzz, head, lead):
    """A model of the given head and a payload for parameters with leading
    axes `lead`: the payload carries the client axis, never the replica axis.
    The softmax heads draw their class count from both sides of 8, where
    numpy's class-axis sum changes order."""
    p, m = int(fuzz.integers(1, 6)), int(fuzz.integers(1, 9))
    payload_lead = lead[-1:]
    if head == "quadratic":
        model = QuadraticModel(p)
        a = fuzz.normal(size=payload_lead + (m, p, p))
        return model, a @ np.swapaxes(a, -1, -2), fuzz.normal(size=payload_lead + (m, p))
    if head == "logistic/sigmoid":
        model = LogisticModel(p, 2)
    elif head == "logistic/softmax":
        model = LogisticModel(p, int(fuzz.integers(3, 13)))
    else:
        activation, loss_kind = head.split("/")[1:]
        model = MlpModel(p, int(fuzz.integers(1, 7)), int(fuzz.integers(2, 13)), activation, loss_kind)
    x = fuzz.normal(scale=fuzz.choice([0.1, 1.0, 10.0]), size=payload_lead + (m, p))
    return model, x, fuzz.integers(model.n_classes, size=payload_lead + (m,))


def test_gradient_out_fuzz_is_bit_identical():
    # 420 seeded draws, 20 for each (head, leading shape); every second draw
    # pads its clients' batches with zero sample weights, whole rows
    # included. ~0.2 s on a 2-core VM.
    heads = ["quadratic", "logistic/sigmoid", "logistic/softmax", "mlp/relu/cross_entropy", "mlp/relu/squared_error",
             "mlp/tanh/cross_entropy", "mlp/tanh/squared_error"]
    leads = [(), (3,), (2, 3)]
    fuzz = np.random.default_rng(20261)
    t0 = time.perf_counter()
    for case in range(420):
        head, lead = heads[case % 7], leads[case // 7 % 3]
        model, x, y = fuzz_payload(fuzz, head, lead)
        weight = None
        if case // 21 % 2:
            m = y.shape[len(lead[-1:])]
            weight = (np.arange(m) < fuzz.integers(0, m + 1, size=lead[-1:] + (1,))) * 1.0
        w = fuzz.normal(scale=fuzz.choice([0.3, 3.0]), size=lead + (model.dim,))
        expected = model.gradient(w, x, y, sample_weight=weight)
        # the caller's buffer: a prefix of a larger one, full of garbage
        if lead:
            buf = np.full(lead[:-1] + (lead[-1] + 2, model.dim), np.nan)[..., : lead[-1], :]
        else:
            buf = np.full(model.dim, np.nan)
        assert model.gradient(w, x, y, sample_weight=weight, out=buf) is buf, (case, head, lead)
        assert buf.tobytes() == expected.tobytes(), (case, head, lead)
        if isinstance(model, MlpModel):
            reference = reference_mlp_gradient(model, w, x, y, sample_weight=weight)
            assert expected.tobytes() == reference.tobytes(), (case, head, lead)
            loss = np.asarray(model.loss(w, x, y, sample_weight=weight))
            assert loss.tobytes() == reference_mlp_loss(model, w, x, y, sample_weight=weight).tobytes()
            logits = reference_mlp_forward(model, w, x)[2]
            assert model.predict(w, x).tobytes() == np.argmax(logits, axis=-1).tobytes()
        if head == "logistic/softmax":
            loss, reference = reference_logistic_softmax(model, w, x, y, sample_weight=weight)
            assert expected.tobytes() == reference.tobytes(), (case, head, lead)
            assert np.asarray(model.loss(w, x, y, sample_weight=weight)).tobytes() == loss.tobytes()
    assert time.perf_counter() - t0 < 2.0


def same_bits(got, want):
    """Equal shapes, nan at the same entries, and every other entry the same
    bytes: a nan's sign and payload bits are numpy's own choice."""
    nan = np.isnan(want)
    return (got.shape == want.shape and np.array_equal(np.isnan(got), nan)
            and np.where(nan, 0.0, got).tobytes() == np.where(nan, 0.0, want).tobytes())


def test_class_axis_folds_match_numpy_on_special_logits():
    # the folded class-axis max and sum against np.max and np.sum, and the
    # in-place log-softmax against reference_log_softmax, at 2-12 classes
    # (both sides of numpy's switch to pairwise summation at 8) and leading
    # shapes up to sweep_logistic_iid's (R, N, b); rows mix +-0 ties, +-inf and nan
    # into normal logits. A nan may carry other sign bits than numpy's:
    # np.max answers a row that starts with nan with the canonical nan, while
    # np.maximum keeps that nan's bits. No CSV can show it (a nan prints as
    # "nan"), and one nan logit makes the whole loss and gradient nan.
    fuzz = np.random.default_rng(20262)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
    leads = [(), (5,), (3, 4), (6, 50, 10)]
    with np.errstate(invalid="ignore", over="ignore"):
        for case in range(440):
            c, lead = 2 + case % 11, leads[case // 11 % 4]
            z = fuzz.normal(scale=fuzz.choice([0.1, 1.0, 30.0]), size=lead + (c,))
            mask = fuzz.random(z.shape) < fuzz.choice([0.2, 0.6, 1.0])
            # a third of the draws tie only at +-0, with no inf or nan
            z[mask] = fuzz.choice(special[:2] if case % 3 == 0 else special, size=int(mask.sum()))
            for got, want in (
                (_class_reduce(np.maximum, z), np.max(z, axis=-1, keepdims=True)),
                (_class_reduce(np.add, z), np.sum(z, axis=-1, keepdims=True)),
                (_class_reduce(np.add, np.exp(z)), np.sum(np.exp(z), axis=-1, keepdims=True)),
                (_log_softmax(z.copy()), reference_log_softmax(z)),
            ):
                assert same_bits(got, want), (case, c, lead)
                if case % 3 == 0:  # no nan anywhere: every byte
                    assert got.tobytes() == want.tobytes(), (case, c, lead)
