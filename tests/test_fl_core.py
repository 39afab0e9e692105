import dataclasses
import tracemalloc

import numpy as np
import pytest

from conftest import global_gradient, local_update
from otafl import (
    ChannelConfig,
    ClipMethod,
    FadingModel,
    FLConfig,
    LogisticModel,
    MlpModel,
    PartitionSpec,
    QuadraticClientData,
    QuadraticModel,
    StableParams,
    evaluate,
    make_synthetic_classification,
    method_variant,
    partition,
    run_threshold_sweep,
    run_training,
    train_test_split,
)
from otafl import fl_core
from otafl.analysis import make_quadratic_testbed
from otafl.fl_core import (
    SweepRow,
    _pseudo_gradients,
    client_rng,
    compare_methods,
    prepare_task,
    run_replicas,
    run_round,
)


def quadratic_clients(rng, dim=4, n_clients=3, with_b=True):
    datas = []
    for _ in range(n_clients):
        a = rng.normal(size=(dim, dim))
        a = a @ a.T / dim + 0.5 * np.eye(dim)
        b = rng.normal(size=dim) if with_b else np.zeros(dim)
        datas.append(QuadraticClientData(a=a, b=b))
    return QuadraticModel(dim), datas


def classification_task(seed, n=120, p=5, n_clients=4, separation=4.0):
    rng = np.random.default_rng(seed)
    full = make_synthetic_classification(n, p, 2, separation, rng)
    train, test = train_test_split(full, 0.2, rng)
    clients = partition(train, PartitionSpec("iid", n_clients, seed=seed))
    return LogisticModel(p, 2), clients, test


def base_config(n_clients, rounds, **kw):
    defaults = dict(
        n_clients=n_clients,
        rounds=rounds,
        learning_rate=0.1,
        clip=ClipMethod.none(),
        channel=ChannelConfig.ideal(),
        seed=0,
    )
    defaults.update(kw)
    return FLConfig(**defaults)


def test_single_round_closed_form_descent():
    rng = np.random.default_rng(0)
    model, datas = quadratic_clients(rng)
    cfg = base_config(3, 1, learning_rate=0.2)
    w0 = rng.normal(size=model.dim)
    result = run_training(cfg, model, datas, w0=w0)
    a_mean = np.mean([d.a for d in datas], axis=0)
    b_mean = np.mean([d.b for d in datas], axis=0)
    np.testing.assert_allclose(result.final_w, w0 - 0.2 * (a_mean @ w0 - b_mean), rtol=1e-12)
    assert len(result.records) == 1
    assert result.records[0].snr_db == np.inf


def test_ideal_channel_matches_centralized_descent():
    model, clients, _ = classification_task(seed=1)
    cfg = base_config(4, 30, learning_rate=0.5)
    result = run_training(cfg, model, clients, w0=np.zeros(model.dim))
    # replay centralized full-gradient descent on the client-averaged loss
    w = np.zeros(model.dim)
    for k in range(30):
        w = w - 0.5 * global_gradient(model, w, clients)
    np.testing.assert_allclose(result.final_w, w, atol=1e-10)


def test_mac_with_huge_threshold_matches_unclipped():
    rng = np.random.default_rng(2)
    model, datas = quadratic_clients(rng)
    w0 = rng.normal(size=model.dim)
    plain = run_training(base_config(3, 50), model, datas, w0=w0)
    clipped = run_training(
        base_config(3, 50, clip=ClipMethod.mac(1e12)), model, datas, w0=w0
    )
    np.testing.assert_allclose(clipped.final_w, plain.final_w, rtol=1e-12, atol=1e-12)


def test_mac_update_bound_per_block():
    # every update entry stays within eta * (|block median| + C) of zero, in
    # every replica of a batched round
    model, clients, _ = classification_task(seed=3)
    c = 0.05
    cfg = base_config(
        4,
        10,
        learning_rate=0.3,
        clip=ClipMethod.mac(c),
        channel=ChannelConfig(FadingModel.rayleigh_unit_mean(), StableParams(1.5, 0.1)),
    )
    n_replicas = 3
    task = prepare_task(model, clients, cfg)
    w = np.zeros((n_replicas, model.dim))
    from otafl.clipping import split_blocks, vector_median
    from otafl.channel import sample_fading, transmit
    from otafl.fl_core import channel_rng

    for k in range(10):
        # recompute each replica's received vector with its own streams to
        # get the block medians the server saw
        pseudo = _pseudo_gradients(task, w, cfg, k)
        assert pseudo.shape == (n_replicas, 4, model.dim)
        w_next, telemetry = run_round(w, k, cfg, task)
        assert {name: values.shape[0] for name, values in telemetry.items()} == dict.fromkeys(telemetry, n_replicas)
        for r in range(n_replicas):
            rng_ch = channel_rng(cfg.seed + r, k)
            gains = sample_fading(cfg.channel.fading, cfg.n_clients, rng_ch)
            received, _ = transmit(pseudo[r], gains, cfg.channel, rng_ch)
            delta_blocks = split_blocks(w_next[r] - w[r], model.block_layout)
            for blk, dblk in zip(split_blocks(received, model.block_layout), delta_blocks):
                bound = cfg.learning_rate * (abs(vector_median(blk)) + c) * (1 + 1e-9)
                assert np.max(np.abs(dblk)) <= bound
        w = w_next


def test_engine_matches_per_client_reference():
    # ragged client sizes, several epochs, small batches
    rng = np.random.default_rng(4)
    p = 4
    model = LogisticModel(p, 2)
    from otafl import ClientDataset

    clients = []
    for cid, m in enumerate([7, 10, 13, 3]):
        x = rng.normal(size=(m, p))
        y = rng.integers(2, size=m)
        clients.append(ClientDataset(x=x, y=y, client_id=cid))
    cfg = base_config(4, 1, learning_rate=0.05, local_epochs=3, batch_size=4, seed=77)
    task = prepare_task(model, clients, cfg)
    w = rng.normal(size=model.dim)
    round_idx = 5
    stacked = _pseudo_gradients(task, w[None], cfg, round_idx)[0]
    for n, data in enumerate(clients):
        reference = local_update(
            model, w, data, epochs=3, batch_size=4, lr=0.05,
            rng=client_rng(cfg.seed, round_idx, n),
        )
        np.testing.assert_allclose(stacked[n], reference, rtol=1e-10, atol=1e-12)


def test_engine_matches_reference_quadratic():
    rng = np.random.default_rng(5)
    model, datas = quadratic_clients(rng)
    cfg = base_config(3, 1, learning_rate=0.1, local_epochs=4)
    task = prepare_task(model, datas, cfg)
    w = rng.normal(size=model.dim)
    stacked = _pseudo_gradients(task, w[None], cfg, 0)[0]
    for n, data in enumerate(datas):
        reference = local_update(model, w, data, epochs=4, batch_size=1, lr=0.1,
                                 rng=client_rng(cfg.seed, 0, n))
        np.testing.assert_allclose(stacked[n], reference, rtol=1e-10)


def test_seed_isolation_channel_does_not_touch_batches():
    # same seed, different channel: the round-0 client compute is identical
    model, clients, _ = classification_task(seed=6)
    noisy = base_config(
        4, 1, local_epochs=2, batch_size=5,
        channel=ChannelConfig(FadingModel.rayleigh_unit_mean(), StableParams(1.5, 0.5)),
    )
    ideal = base_config(4, 1, local_epochs=2, batch_size=5)
    w0 = np.zeros(model.dim)
    r_noisy = run_training(noisy, model, clients, w0=w0)
    r_ideal = run_training(ideal, model, clients, w0=w0)
    assert r_noisy.records[0].grad_norm_sq == r_ideal.records[0].grad_norm_sq
    assert r_noisy.records[0].global_loss == r_ideal.records[0].global_loss


def test_determinism_bit_identical_records():
    model, clients, test = classification_task(seed=7)
    cfg = base_config(
        4, 8, local_epochs=2, batch_size=6,
        clip=ClipMethod.mac(0.5),
        channel=ChannelConfig(FadingModel.rayleigh_unit_mean(), StableParams(1.5, 0.1)),
    )
    a = run_training(cfg, model, clients, eval_data=test)
    b = run_training(cfg, model, clients, eval_data=test)
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        fa = dataclasses.asdict(ra)
        fb = dataclasses.asdict(rb)
        fa.pop("wall_time")
        fb.pop("wall_time")
        assert fa == fb
    np.testing.assert_array_equal(a.final_w, b.final_w)


def test_divergence_is_recorded_not_raised():
    # learning rate beyond 2/L turns descent into exponential growth
    model = QuadraticModel(1)
    datas = [QuadraticClientData(a=np.array([[1.0]]), b=np.zeros(1))]
    cfg = base_config(1, 200, learning_rate=3.0)
    result = run_training(cfg, model, datas, w0=np.array([1.0]))
    assert result.diverged
    assert result.records[-1].diverged
    assert len(result.records) < 200
    assert result.diverged_round == result.records[-1].round


def test_unclipped_heavy_tail_blowup_vs_mac():
    # matched seeds: the unclipped baseline sees gradient spikes orders of
    # magnitude beyond anything the clipped run experiences
    rng = np.random.default_rng(8)
    model, datas = quadratic_clients(rng, dim=10, n_clients=3, with_b=False)
    w0 = rng.normal(size=10)
    w0 *= 0.3 / np.linalg.norm(w0)
    channel = ChannelConfig(FadingModel.no_fading(), StableParams(1.5, 0.1))
    worst_ratio = 0.0
    for seed in range(20):
        none_cfg = base_config(3, 200, learning_rate=0.5, channel=channel, seed=seed)
        mac_cfg = base_config(
            3, 200, learning_rate=0.5, channel=channel, seed=seed, clip=ClipMethod.mac(0.3)
        )
        r_none = run_training(none_cfg, model, datas, w0=w0)
        r_mac = run_training(mac_cfg, model, datas, w0=w0)
        peak_none = max(r.grad_norm_sq for r in r_none.records)
        peak_mac = max(r.grad_norm_sq for r in r_mac.records)
        worst_ratio = max(worst_ratio, peak_none / peak_mac)
    assert worst_ratio > 1e3


def test_evaluate_cases():
    model, clients, test = classification_task(seed=9, separation=8.0)
    cfg = base_config(4, 60, learning_rate=0.5)
    result = run_training(cfg, model, clients, eval_data=test, w0=np.zeros(model.dim))
    assert result.final_eval_accuracy >= 0.95

    acc = evaluate(model, np.zeros(model.dim), test)
    assert acc == pytest.approx(np.mean(test.y == 0), abs=1e-12) or acc == pytest.approx(
        np.mean(model.predict(np.zeros(model.dim), test.x) == test.y)
    )

    # a non-classifier reports no accuracy
    qdata = QuadraticClientData(a=np.eye(2), b=np.zeros(2))
    assert evaluate(QuadraticModel(2), np.array([3.0, 4.0]), qdata) is None


def test_eval_cadence():
    model, clients, test = classification_task(seed=10)
    cfg = base_config(4, 7, eval_every=3)
    result = run_training(cfg, model, clients, eval_data=test, w0=np.zeros(model.dim))
    evaluated = [r.round for r in result.records if r.eval_accuracy is not None]
    assert evaluated == [2, 5, 6]  # every third round plus the final one


def test_config_validation():
    with pytest.raises(ValueError):
        base_config(0, 1)
    with pytest.raises(ValueError):
        base_config(1, 1, learning_rate=0.0)
    with pytest.raises(ValueError):
        base_config(1, 1, local_epochs=0)
    with pytest.raises(ValueError):
        base_config(1, 1, projection_radius=0.0)


def test_client_count_mismatch():
    rng = np.random.default_rng(11)
    model, datas = quadratic_clients(rng)
    with pytest.raises(ValueError):
        run_training(base_config(5, 1), model, datas)


@pytest.mark.parametrize("model", [MlpModel(4, 3, 2), LogisticModel(4, 3)])
def test_labels_outside_the_classes_are_rejected(model):
    # a label outside 0..K-1 once trained on an all-zero one-hot row (and
    # the MLP's loss then raised IndexError mid-run)
    from otafl import ClientDataset, Dataset

    rng = np.random.default_rng(13)
    k = model.n_classes
    clients = [ClientDataset(x=rng.normal(size=(4, 4)), y=np.arange(4) % k, client_id=i) for i in range(3)]
    held_out = Dataset(x=rng.normal(size=(4, 4)), y=np.arange(4) % k)
    cfg = base_config(3, 1, batch_size=2)
    prepare_task(model, clients, cfg, held_out)
    for bad in (k, -1, 1.5, np.nan):
        labels = np.array([0.0, 1.0, bad, 0.0])
        wrong = [*clients[:2], dataclasses.replace(clients[2], y=labels)]
        with pytest.raises(ValueError, match=f"client 2 has label {bad!r}"):
            run_training(cfg, model, wrong, held_out)
        with pytest.raises(ValueError, match=f"held-out data has label {bad!r}"):
            prepare_task(model, clients, cfg, Dataset(x=held_out.x, y=labels))


def test_local_step_allocates_no_per_step_buffers():
    # the criterion-6 task (MLP 20-32-2, 50 iid clients of 15-50 samples, 5
    # epochs of batch 10): a call holds four (R, N, d) arrays at most (local
    # parameters, gradient sum, the steps' gradient buffer, the result in
    # client order), 1.19 MB. Per-step gradients, updates, copies of the
    # clients with samples left and per-epoch gathers (2.72 MB, 9.2 such
    # arrays) once page-faulted on every step.
    rng = np.random.default_rng(np.random.SeedSequence([731, 5]))
    full = make_synthetic_classification(2000, 20, 2, 5.0, rng)
    train, _ = train_test_split(full, 0.2, rng)
    clients = partition(train, PartitionSpec("iid", 50, seed=731))
    model = MlpModel(20, 32, 2, loss_kind="squared_error")
    cfg = base_config(50, 1, learning_rate=0.03, local_epochs=5, batch_size=10, clip=ClipMethod.mac(0.4), seed=731)
    task = prepare_task(model, clients, cfg)
    w = model.init_params(np.random.default_rng(0))[None]
    _pseudo_gradients(task, w, cfg, 0)
    tracemalloc.start()
    try:
        _pseudo_gradients(task, w, cfg, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    array_bytes = 50 * model.dim * 8
    assert peak < 5 * array_bytes, f"peak {peak} B is {peak / array_bytes:.1f} (1, N, d) arrays"


def assert_same_run(batched, alone):
    """Bit-for-bit equality of two TrainResults, wall_time aside."""
    assert batched.final_w.tobytes() == alone.final_w.tobytes()
    assert (batched.diverged, batched.diverged_round) == (alone.diverged, alone.diverged_round)
    assert batched.final_eval_accuracy == alone.final_eval_accuracy
    assert len(batched.records) == len(alone.records)
    for rb, ra in zip(batched.records, alone.records):
        fb, fa = dataclasses.asdict(rb), dataclasses.asdict(ra)
        fb.pop("wall_time")
        fa.pop("wall_time")
        # repr: nan == nan is false, and the types must match too
        assert repr(fb) == repr(fa)


@pytest.mark.parametrize("fading", [FadingModel.no_fading(), FadingModel.rayleigh_unit_mean()])
@pytest.mark.parametrize("method", ["mac", "gnc", "none", "ideal"])
def test_replicas_equal_standalone_runs(method, fading):
    bed = make_quadratic_testbed(dim=4, n_clients=3, seed=1, b_scale=1.0)
    base = base_config(
        3, 25, learning_rate=0.3, local_epochs=2, seed=11, projection_radius=3.0,
        channel=ChannelConfig(fading, StableParams(1.5, 0.1)),
    )
    cfg = method_variant(base, method, 0.5, 2.0)
    batched = run_replicas(cfg, bed.model, bed.client_datas, 3, w0=bed.w0)
    assert len(batched) == 3
    for r, result in enumerate(batched):
        alone = run_training(dataclasses.replace(cfg, seed=cfg.seed + r), bed.model, bed.client_datas, w0=bed.w0)
        assert_same_run(result, alone)
    if method != "ideal":  # the ideal channel draws nothing, so its replicas coincide
        assert batched[0].final_w.tobytes() != batched[1].final_w.tobytes()


def test_replicas_diverge_one_by_one():
    # heavy noise without clipping: two replicas blow up, at different
    # rounds, while the third runs to the end
    bed = make_quadratic_testbed(dim=4, n_clients=3, seed=1, b_scale=1.0)
    cfg = base_config(
        3, 60, learning_rate=0.2, seed=2,
        channel=ChannelConfig(FadingModel.no_fading(), StableParams(0.6, 0.05)),
    )
    batched = run_replicas(cfg, bed.model, bed.client_datas, 3, w0=bed.w0)
    assert [r.diverged for r in batched] == [True, True, False]
    assert batched[0].diverged_round != batched[1].diverged_round
    assert len(batched[2].records) == 60
    for r, result in enumerate(batched):
        alone = run_training(dataclasses.replace(cfg, seed=cfg.seed + r), bed.model, bed.client_datas, w0=bed.w0)
        assert_same_run(result, alone)
        assert np.all(np.isfinite(result.final_w))


def test_replicas_draw_their_own_initial_parameters():
    # without w0, replica r starts from init_params(init_rng(seed + r)); a
    # full-batch MLP task with held-out evaluation
    rng = np.random.default_rng(12)
    full = make_synthetic_classification(90, 3, 2, 3.0, rng)
    train, test = train_test_split(full, 0.2, rng)
    clients = partition(train, PartitionSpec("iid", 3, seed=12))
    model = MlpModel(3, 4, 2)
    cfg = base_config(
        3, 6, seed=5, eval_every=2, clip=ClipMethod.mac(0.5),
        channel=ChannelConfig(FadingModel.rayleigh_unit_mean(), StableParams(1.5, 0.1)),
    )
    batched = run_replicas(cfg, model, clients, 2, eval_data=test)
    for r, result in enumerate(batched):
        alone = run_training(dataclasses.replace(cfg, seed=cfg.seed + r), model, clients, eval_data=test)
        assert_same_run(result, alone)
    assert batched[0].final_w.tobytes() != batched[1].final_w.tobytes()


def test_replica_count_validation():
    model, clients, _ = classification_task(seed=13)
    with pytest.raises(ValueError, match="n_replicas"):
        run_replicas(base_config(4, 1), model, clients, 0)
    # replicas share one step plan, so clients that shuffle are refused
    shuffling = base_config(4, 1, batch_size=5)
    with pytest.raises(ValueError, match="never shuffle"):
        run_replicas(shuffling, model, clients, 2)
    with pytest.raises(ValueError, match="never shuffle"):
        run_round(np.zeros((2, model.dim)), 0, shuffling, prepare_task(model, clients, shuffling))
    assert len(run_replicas(shuffling, model, clients, 1)) == 1


def test_compare_methods_matched_seeds():
    def factory(seed):
        return classification_task(seed=seed)

    cfg = base_config(
        4, 5, learning_rate=0.3,
        channel=ChannelConfig(FadingModel.rayleigh_unit_mean(), StableParams(1.5, 0.1)),
    )
    results = compare_methods(factory, cfg, ["ideal", "mac", "gnc", "none"], 2, 0.5, 5.0)
    assert set(results) == {"ideal", "mac", "gnc", "none"}
    assert all(len(v) == 2 for v in results.values())
    # matched seeds: every method saw the same round-0 client compute
    r0 = {m: results[m][0].records[0].grad_norm_sq for m in results}
    assert len(set(r0.values())) == 1


def test_threshold_sweep_rows_and_best_marks():
    def factory(seed):
        return classification_task(seed=seed)

    cfg = base_config(
        4, 5, learning_rate=0.3,
        channel=ChannelConfig(FadingModel.rayleigh_unit_mean(), StableParams(1.5, 0.1)),
    )
    rows = run_threshold_sweep(factory, cfg, {"mac": [0.2, 0.8], "gnc": [2.0]}, n_seeds=2)
    assert len(rows) == 3
    assert sum(r.best for r in rows if r.method == "mac") == 1
    gnc_rows = [r for r in rows if r.method == "gnc"]
    assert len(gnc_rows) == 1 and gnc_rows[0].best  # single-point grid wins by default
    with pytest.raises(ValueError):
        run_threshold_sweep(factory, cfg, {"mac": []}, n_seeds=1)


class _RunStarted(Exception):
    pass


def _forbid_runs(monkeypatch):
    # Patches the engine entry point of the matched-seed loop. A name it does
    # not call would let the "before any run" tests pass vacuously, so the
    # positive controls below check that this one is reached.
    def run_training(*args, **kwargs):
        raise _RunStarted("a training run started before the plan was checked")

    monkeypatch.setattr(fl_core, "run_training", run_training)


def _noisy_config():
    return base_config(
        4, 2, learning_rate=0.3,
        channel=ChannelConfig(FadingModel.rayleigh_unit_mean(), StableParams(1.5, 0.1)),
    )


def test_forbid_runs_reaches_the_engine_on_valid_plans(monkeypatch):
    _forbid_runs(monkeypatch)
    with pytest.raises(_RunStarted):
        compare_methods(classification_task, _noisy_config(), ["mac", "none"], 2, 0.5, 5.0)
    with pytest.raises(_RunStarted):
        run_threshold_sweep(classification_task, _noisy_config(), {"mac": [0.2, 0.4], "gnc": [1.0]}, n_seeds=2)


@pytest.mark.parametrize(
    "grid, n_seeds, match",
    [
        ({"mac": [0.2, 0.4], "sgd": [1.0]}, 2, "'sgd'"),
        ({"mac": [0.2, 0.4], "none": [1.0]}, 2, "'none'"),
        ({"mac": [0.2, 0.4], "gnc": [-1.0]}, 2, "positive"),
        ({"gnc": [1.0], "mac": [np.nan]}, 2, "positive"),
        ({"mac": [0.2], "gnc": [0.0]}, 2, "positive"),
        ({}, 2, "non-empty"),
        ({"mac": [0.2], "gnc": []}, 2, "non-empty"),
        ({"mac": [0.2]}, 0, "n_seeds"),
        ({"mac": [0.2]}, -1, "n_seeds"),
    ],
)
def test_sweep_checks_the_whole_plan_before_any_run(monkeypatch, grid, n_seeds, match):
    built = []
    _forbid_runs(monkeypatch)
    with pytest.raises(ValueError, match=match):
        run_threshold_sweep(lambda seed: built.append(seed), _noisy_config(), grid, n_seeds=n_seeds)
    assert built == []  # no task was built either


@pytest.mark.parametrize(
    "methods, mac_threshold, gnc_threshold, n_seeds, match",
    [
        (["mac", "sgd"], 0.5, 5.0, 2, "'sgd'"),
        (["none", "mac"], np.nan, 5.0, 2, "positive"),
        (["mac", "gnc"], 0.5, -1.0, 2, "positive"),
        ([], 0.5, 5.0, 2, "no method"),
        (["mac"], 0.5, 5.0, 0, "n_seeds"),
        (["mac"], 0.5, 5.0, -1, "n_seeds"),
    ],
)
def test_compare_methods_checks_the_whole_plan_before_any_run(
    monkeypatch, methods, mac_threshold, gnc_threshold, n_seeds, match
):
    built = []
    _forbid_runs(monkeypatch)
    with pytest.raises(ValueError, match=match):
        compare_methods(lambda seed: built.append(seed), _noisy_config(), methods, n_seeds, mac_threshold, gnc_threshold)
    assert built == []


def _padded_shuffling_task(seed):
    # Dirichlet clients of unequal sizes, batch 4: clients are padded and shuffle
    rng = np.random.default_rng(np.random.SeedSequence([seed, 5]))
    full = make_synthetic_classification(120, 4, 3, 3.0, rng)
    train, test = train_test_split(full, 0.2, rng)
    clients = partition(train, PartitionSpec("dirichlet", 5, 0.5, seed=seed))
    return MlpModel(4, 6, 3, activation="tanh"), clients, test


def test_sweep_matches_one_comparison_per_threshold():
    # the old path ran compare_methods once per grid point; the sweep now
    # builds each seed's task once and runs the whole grid on it
    cfg = base_config(
        5, 4, learning_rate=0.2, local_epochs=2, batch_size=4, seed=3, eval_every=2,
        channel=ChannelConfig(FadingModel.rayleigh_unit_mean(), StableParams(1.5, 0.1)),
    )
    _, clients, _ = _padded_shuffling_task(cfg.seed)
    sizes = [len(d.y) for d in clients]
    assert len(set(sizes)) > 1 and min(sizes) > cfg.batch_size
    grid = {"mac": [0.2, 0.5, 1.0], "gnc": [0.5, 2.0]}
    seeds = []

    def spy(seed):
        seeds.append(seed)
        return _padded_shuffling_task(seed)

    rows = run_threshold_sweep(spy, cfg, grid, n_seeds=2)
    assert seeds == [3, 4]
    expected = []
    for method, thresholds in grid.items():
        mine = []
        for c in thresholds:
            results = compare_methods(_padded_shuffling_task, cfg, [method], 2, c, c)[method]
            mine.append(SweepRow(
                method=method,
                threshold=float(c),
                median_final_accuracy=float(np.median([r.final_eval_accuracy for r in results])),
                median_final_loss=float(np.median([r.columns["global_loss"][-1] for r in results])),
                n_diverged=sum(r.diverged for r in results),
            ))
        # the old marking: highest accuracy, then lowest loss, first of equals
        best = max(mine, key=lambda r: (r.median_final_accuracy, -r.median_final_loss))
        expected += [dataclasses.replace(r, best=r is best) for r in mine]
    # repr compares the floats bit for bit, and the types too
    assert repr(rows) == repr(expected)
