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
from otafl.models import global_loss


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
    from otafl import ClientDataset

    datas = []
    for cid in range(4):
        x, y = make_logistic_data(rng, n=12, p=3)
        datas.append(ClientDataset(x=x, y=y, client_id=cid))
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


def test_mlp_predict_and_init_determinism():
    model = MlpModel(3, 4, 2)
    w1 = model.init_params(np.random.default_rng(11))
    w2 = model.init_params(np.random.default_rng(11))
    np.testing.assert_array_equal(w1, w2)
    x = np.random.default_rng(12).normal(size=(6, 3))
    labels = model.predict(w1, x)
    assert labels.shape == (6,)
    assert set(np.unique(labels)).issubset({0, 1})
