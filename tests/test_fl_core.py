import dataclasses
import multiprocessing
import os
import signal
import time
import tracemalloc
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from conftest import global_gradient, local_update
from otafl import (
    ChannelConfig,
    ClipMethod,
    Dataset,
    FadingModel,
    FLConfig,
    LogisticModel,
    MlpModel,
    PartitionSpec,
    QuadraticClientData,
    QuadraticModel,
    RegimeError,
    StableParams,
    evaluate,
    make_synthetic_classification,
    method_variant,
    partition,
    run_threshold_sweep,
    run_training,
    sample_fading,
    sample_sas,
    train_test_split,
    transmit,
)
from otafl import channel as channel_module
from otafl import fl_core, stable_noise
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
    task = prepare_task(model, clients, seed_rows(cfg, n_replicas))
    w = np.zeros((n_replicas, model.dim))
    from otafl.clipping import vector_median
    from otafl.fl_core import channel_rng

    for k in range(10):
        # recompute each replica's received vector with its own streams to
        # get the block medians the server saw
        pseudo = _pseudo_gradients(task, w, k)
        assert pseudo.shape == (n_replicas, 4, model.dim)
        w_next, telemetry = run_round(w, k, task)
        assert {name: values.shape[0] for name, values in telemetry.items()} == dict.fromkeys(telemetry, n_replicas)
        for r in range(n_replicas):
            rng_ch = channel_rng(cfg.seed + r, k)
            gains = sample_fading(cfg.channel.fading, cfg.n_clients, rng_ch)
            received, _ = transmit(pseudo[r], gains, cfg.channel, rng_ch)
            bounds = np.cumsum(model.block_layout)[:-1]
            for blk, dblk in zip(np.split(received, bounds), np.split(w_next[r] - w[r], bounds)):
                bound = cfg.learning_rate * (abs(vector_median(blk)) + c) * (1 + 1e-9)
                assert np.max(np.abs(dblk)) <= bound
        w = w_next


def test_engine_matches_per_client_reference():
    # ragged client sizes, several epochs, small batches
    rng = np.random.default_rng(4)
    p = 4
    model = LogisticModel(p, 2)
    clients = []
    for m in [7, 10, 13, 3]:
        x = rng.normal(size=(m, p))
        y = rng.integers(2, size=m)
        clients.append(Dataset(x=x, y=y))
    cfg = base_config(4, 1, learning_rate=0.05, local_epochs=3, batch_size=4, seed=77)
    task = prepare_task(model, clients, [cfg])
    w = rng.normal(size=model.dim)
    round_idx = 5
    stacked = _pseudo_gradients(task, w[None], round_idx)[0]
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
    task = prepare_task(model, datas, [cfg])
    w = rng.normal(size=model.dim)
    stacked = _pseudo_gradients(task, w[None], 0)[0]
    for n, data in enumerate(datas):
        reference = local_update(model, w, data, epochs=4, batch_size=1, lr=0.1,
                                 rng=client_rng(cfg.seed, 0, n))
        np.testing.assert_allclose(stacked[n], reference, rtol=1e-10)


def test_local_compute_plan_matches_per_client_oracle_fuzz():
    # Seeded fuzz: ragged clients (one-sample ones included), a batch below,
    # at or above the largest client, 1-3 epochs, 1 or 3 rows each at its
    # own rate and parameters, on a 2- or 3-class logistic model or an MLP.
    # Row r, client n must be local_update at row r's rate and stream.
    t0 = time.perf_counter()
    fuzz = np.random.default_rng(2020)
    for case in range(150):
        p, n_classes = int(fuzz.integers(1, 4)), int(fuzz.integers(2, 4))
        sizes = fuzz.integers(1, 12, size=int(fuzz.integers(1, 6)))
        sizes[fuzz.random(len(sizes)) < 0.3] = 1
        m_max = int(sizes.max())
        batch_size = [int(fuzz.integers(1, m_max)) if m_max > 1 else 1, m_max, m_max + int(fuzz.integers(1, 5))][case % 3]
        epochs = int(fuzz.integers(1, 4))
        if fuzz.random() < 0.5:
            model = LogisticModel(p, n_classes)
        else:
            model = MlpModel(p, int(fuzz.integers(1, 4)), n_classes, activation=["relu", "tanh"][case % 2],
                             loss_kind=["cross_entropy", "squared_error"][int(fuzz.integers(2))])
        clients = [Dataset(x=fuzz.normal(size=(m, p)), y=fuzz.integers(n_classes, size=m)) for m in sizes]
        rates = [float(10.0 ** fuzz.uniform(-2.0, 0.0)) for _ in range([1, 3][int(fuzz.integers(2))])]
        seed, round_idx = int(fuzz.integers(1000)), int(fuzz.integers(200))
        cfgs = [base_config(len(sizes), 1, learning_rate=lr, local_epochs=epochs, batch_size=batch_size, seed=seed)
                for lr in rates]
        w = fuzz.normal(scale=0.5, size=(len(rates), model.dim))
        stacked = _pseudo_gradients(prepare_task(model, clients, cfgs), w, round_idx)
        assert stacked.shape == (len(rates), len(sizes), model.dim)
        for r, lr in enumerate(rates):
            for n, data in enumerate(clients):
                reference = local_update(model, w[r], data, epochs=epochs, batch_size=batch_size, lr=lr,
                                         rng=client_rng(seed, round_idx, n))
                np.testing.assert_allclose(stacked[r, n], reference, rtol=1e-10, atol=1e-12,
                                           err_msg=f"case {case}, row {r}, client {n}, sizes {sizes.tolist()}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0, f"150 cases took {elapsed:.2f} s"


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


def test_divergence_is_stored_once():
    # diverged reads diverged_round, so the two cannot disagree
    assert "diverged" not in {f.name for f in dataclasses.fields(fl_core.TrainResult)}
    result = fl_core.TrainResult(columns={}, final_w=np.zeros(1), diverged_round=4)
    assert result.diverged
    assert not dataclasses.replace(result, diverged_round=None).diverged
    assert not fl_core.TrainResult(columns={}, final_w=np.zeros(1)).diverged
    with pytest.raises(TypeError):
        fl_core.TrainResult(columns={}, final_w=np.zeros(1), diverged=True)


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


def test_a_fractional_seed_is_rejected():
    # seed=2.5 once ran seed 2's streams bit for bit: the round keys are cast to uint32
    with pytest.raises(ValueError, match="^seed must be an integer, got 2.5$"):
        base_config(3, 2, seed=2.5)


def test_client_count_mismatch():
    rng = np.random.default_rng(11)
    model, datas = quadratic_clients(rng)
    with pytest.raises(ValueError):
        run_training(base_config(5, 1), model, datas)


@pytest.mark.parametrize("model", [MlpModel(4, 3, 2), LogisticModel(4, 3)])
def test_labels_outside_the_classes_are_rejected(model):
    # a label outside 0..K-1 once trained on an all-zero one-hot row (and
    # the MLP's loss then raised IndexError mid-run)
    rng = np.random.default_rng(13)
    k = model.n_classes
    clients = [Dataset(x=rng.normal(size=(4, 4)), y=np.arange(4) % k) for _ in range(3)]
    held_out = Dataset(x=rng.normal(size=(4, 4)), y=np.arange(4) % k)
    cfg = base_config(3, 1, batch_size=2)
    prepare_task(model, clients, [cfg], held_out)
    for bad in (k, -1, 1.5, np.nan):
        labels = np.array([0.0, 1.0, bad, 0.0])
        wrong = [*clients[:2], dataclasses.replace(clients[2], y=labels)]
        with pytest.raises(ValueError, match=f"client 2 has label {bad!r}"):
            run_training(cfg, model, wrong, held_out)
        with pytest.raises(ValueError, match=f"held-out data has label {bad!r}"):
            prepare_task(model, clients, [cfg], Dataset(x=held_out.x, y=labels))


def test_local_step_allocates_no_per_step_buffers():
    # the criterion-6 task (MLP 20-32-2, 50 iid clients of 15-50 samples, 5
    # epochs of batch 10): a call holds three (R, N, d) arrays at most (local
    # parameters, gradient sum, and the steps' gradient buffer, which then
    # takes the result in client order), 0.89 MB, plus a step's forward pass
    # (1.11 MB measured). Per-step gradients, updates, copies of the
    # clients with samples left and per-epoch gathers (2.72 MB, 9.2 such
    # arrays) once page-faulted on every step.
    rng = np.random.default_rng(np.random.SeedSequence([731, 5]))
    full = make_synthetic_classification(2000, 20, 2, 5.0, rng)
    train, _ = train_test_split(full, 0.2, rng)
    clients = partition(train, PartitionSpec("iid", 50, seed=731))
    model = MlpModel(20, 32, 2, loss_kind="squared_error")
    cfg = base_config(50, 1, learning_rate=0.03, local_epochs=5, batch_size=10, clip=ClipMethod.mac(0.4), seed=731)
    task = prepare_task(model, clients, [cfg])
    w = model.init_params(np.random.default_rng(0))[None]
    _pseudo_gradients(task, w, 0)
    tracemalloc.start()
    try:
        _pseudo_gradients(task, w, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    array_bytes = 50 * model.dim * 8
    assert peak < 5 * array_bytes, f"peak {peak} B is {peak / array_bytes:.1f} (1, N, d) arrays"


def seed_rows(cfg, n):
    """Rows of cfg at seeds cfg.seed, cfg.seed + 1, ..."""
    return [dataclasses.replace(cfg, seed=cfg.seed + r) for r in range(n)]


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
    batched = run_replicas(seed_rows(cfg, 3), bed.model, bed.client_datas, w0=bed.w0)
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
    batched = run_replicas(seed_rows(cfg, 3), bed.model, bed.client_datas, w0=bed.w0)
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
    batched = run_replicas(seed_rows(cfg, 2), model, clients, eval_data=test)
    for r, result in enumerate(batched):
        alone = run_training(dataclasses.replace(cfg, seed=cfg.seed + r), model, clients, eval_data=test)
        assert_same_run(result, alone)
    assert batched[0].final_w.tobytes() != batched[1].final_w.tobytes()


def test_replica_count_validation():
    model, clients, _ = classification_task(seed=13)
    # rows share one step plan: everything but seed, learning rate, clip and channel
    cfg = base_config(4, 1)
    with pytest.raises(ValueError, match="share n_clients, rounds"):
        run_replicas([cfg, dataclasses.replace(cfg, eval_every=3)], model, clients)
    # shuffles are drawn per client from the seed, so shuffling rows share one
    shuffling = base_config(4, 1, batch_size=5)
    with pytest.raises(ValueError, match="never shuffle"):
        run_replicas(seed_rows(shuffling, 2), model, clients)
    with pytest.raises(ValueError, match="never shuffle"):
        prepare_task(model, clients, seed_rows(shuffling, 2))
    # a task is planned for the rows' client count
    with pytest.raises(ValueError, match="config expects 4 clients, got 3 datasets"):
        prepare_task(model, clients[:3], [cfg])
    with pytest.raises(ValueError, match="config expects 4 clients, got 3 datasets"):
        run_replicas([cfg], model, clients[:3])
    with pytest.raises(ValueError, match="need at least one config"):
        prepare_task(model, clients, [])
    empty = Dataset(x=np.zeros((0, clients[0].x.shape[1])), y=np.zeros(0, dtype=int))
    with pytest.raises(ValueError, match="every client needs at least one sample"):
        prepare_task(model, [*clients[:3], empty], [cfg])
    # parameters carry one row per config, each of the model's dimension
    task = prepare_task(model, clients, [cfg])
    with pytest.raises(ValueError, match=rf"parameters must have shape \(1, {model.dim}\)"):
        run_round(np.zeros((2, model.dim)), 0, task)
    with pytest.raises(ValueError, match=rf"initial parameters must have shape \({model.dim},\)"):
        run_replicas([cfg], model, clients, w0=np.zeros(model.dim + 1))
    with pytest.raises(ValueError, match="initial parameters must be finite"):
        run_replicas([cfg], model, clients, w0=np.full(model.dim, np.nan))
    mixed = [method_variant(dataclasses.replace(shuffling, learning_rate=lr), "mac", 0.5, 0.5) for lr in (0.1, 0.2)]
    assert len(run_replicas(mixed, model, clients)) == 2


def test_compare_methods_matched_seeds(monkeypatch):
    def factory(seed):
        return classification_task(seed=seed)

    # the methods of one seed are rows of one round loop: a run_round call
    # per seed and round, not one per method, seed and round
    rounds = []
    run_round = fl_core.run_round

    def counting(*args, **kwargs):
        rounds.append(args[1])
        return run_round(*args, **kwargs)

    monkeypatch.setattr(fl_core, "run_round", counting)
    # seeds run in this process only on one usable core: a worker's calls
    # would be counted in the worker
    monkeypatch.setattr(stable_noise, "_CORES", 1)
    cfg = base_config(
        4, 5, learning_rate=0.3,
        channel=ChannelConfig(FadingModel.rayleigh_unit_mean(), StableParams(1.5, 0.1)),
    )
    results = compare_methods(factory, cfg, ["ideal", "mac", "gnc", "none"], 2, 0.5, 5.0)
    assert rounds == [*range(5), *range(5)]
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
    def run_replicas(*args, **kwargs):
        raise _RunStarted("a training run started before the plan was checked")

    monkeypatch.setattr(fl_core, "run_replicas", run_replicas)


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
        ({"gnc": [1.0], "mac": [np.nan]}, 2, "finite"),
        ({"mac": [0.2], "gnc": [0.0]}, 2, "positive"),
        ({}, 2, "non-empty"),
        ({"mac": [0.2], "gnc": []}, 2, "non-empty"),
        ({"mac": [0.2]}, 0, "n_seeds"),
        ({"mac": [0.2]}, -1, "n_seeds"),
        ({"gnc": [1.0], "mac": [0.2, 0.4, 0.2]}, 2, "distinct"),
        ({"mac": [0.2]}, True, "n_seeds"),  # once ran one seed
        ({"mac": [0.2]}, 2.5, "n_seeds"),  # once a TypeError from range
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
        (["none", "mac"], np.nan, 5.0, 2, "finite"),
        (["mac", "gnc"], 0.5, -1.0, 2, "positive"),
        ([], 0.5, 5.0, 2, "methods must be distinct and non-empty"),
        (["mac"], 0.5, 5.0, 0, "n_seeds"),
        (["mac"], 0.5, 5.0, -1, "n_seeds"),
        (["mac", "none", "mac"], 0.5, 5.0, 2, "distinct"),
        (["mac"], 0.5, 5.0, True, "n_seeds"),
        (["mac"], 0.5, 5.0, 2.5, "n_seeds"),
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


def test_compare_methods_rejects_methods_that_coincide(monkeypatch):
    # on the ideal base channel none and ideal are one config: they once ran
    # as two identical rows
    built = []
    _forbid_runs(monkeypatch)
    with pytest.raises(ValueError, match="^methods 'none' and 'ideal' run the same configuration$"):
        compare_methods(lambda seed: built.append(seed), base_config(4, 2), ["mac", "none", "ideal"], 1, 1.0, 1.0)
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


def _fingerprint(results):
    """Everything of a {method: [TrainResult]} map but wall time, as bytes
    and exact values."""
    return [
        (method, r.final_w.tobytes(), r.diverged_round, r.final_eval_accuracy,
         [(name, col.dtype.str, col.shape, col.tobytes()) for name, col in sorted(r.columns.items()) if name != "wall_time"])
        for method, runs in results.items() for r in runs
    ]


def _diverging_config():
    # padded, shuffling clients under alpha = 0.5 noise: the none rows diverge
    return base_config(
        5, 10, learning_rate=0.3, local_epochs=2, batch_size=4, seed=1, eval_every=3,
        channel=ChannelConfig(FadingModel.rayleigh_unit_mean(), StableParams(0.5, 1.0)),
    )


@pytest.mark.parametrize("cores, fork", [(1, True), (2, True), (2, False)])
def test_seeds_on_worker_processes_equal_one_loop(monkeypatch, cores, fork):
    # 3 seeds on 2 workers split unevenly; rounds counted here show where
    # the seeds ran: in this process on one core or without os.fork
    rounds = []
    run_round = fl_core.run_round

    def counting(*args, **kwargs):
        rounds.append(args[1])
        return run_round(*args, **kwargs)

    def both(n_cores):
        monkeypatch.setattr(stable_noise, "_CORES", n_cores)
        methods = compare_methods(_padded_shuffling_task, _diverging_config(), ["ideal", "mac", "gnc", "none"], 3, 0.3, 1.0)
        rows = run_threshold_sweep(_padded_shuffling_task, _diverging_config(), {"mac": [0.3, 1.0], "gnc": [1.0]}, n_seeds=3)
        assert multiprocessing.active_children() == []
        return methods, rows

    serial = both(1)
    monkeypatch.setattr(fl_core, "run_round", counting)
    if not fork:
        monkeypatch.delattr(os, "fork")
    methods, rows = both(cores)
    assert len(rounds) == (0 if cores > 1 and fork else 2 * 3 * 10)
    assert any(r.diverged for r in methods["none"]) and not all(r.diverged for r in methods["ideal"])
    assert _fingerprint(methods) == _fingerprint(serial[0])
    assert repr(rows) == repr(serial[1])


@pytest.mark.parametrize("cores", [1, 2])
def test_the_lowest_failing_seed_raises_its_error(monkeypatch, tmp_path, cores):
    # seed 2 fails at once and seed 1 later, and seed 1's error is raised,
    # as in one loop. No seed starts after a failure: with 2 workers, seeds
    # 0 and 1 start, and seed 2 only once seed 0 ends. The seeds then
    # running both fail, so in every order of completion the next seed to
    # end is a failing one, and seed 3 never starts
    monkeypatch.setattr(stable_noise, "_CORES", cores)
    run_replicas = fl_core.run_replicas

    def failing(cfgs, *args):
        seed = cfgs[0].seed
        (tmp_path / f"seed{seed}").touch()
        time.sleep(0.2 if seed == 1 else 0.0)
        if seed in (1, 2):
            raise ValueError(f"seed {seed} failed")
        return run_replicas(cfgs, *args)

    monkeypatch.setattr(fl_core, "run_replicas", failing)
    with pytest.raises(ValueError) as raised:
        compare_methods(classification_task, _noisy_config(), ["mac", "none"], 10, 0.5, 5.0)
    assert type(raised.value) is ValueError and str(raised.value) == "seed 1 failed"
    assert multiprocessing.active_children() == []
    assert {"seed0", "seed1"} <= {p.name for p in tmp_path.iterdir()} <= {"seed0", "seed1", "seed2"}


def test_a_dead_worker_fails_the_call_at_once(monkeypatch):
    monkeypatch.setattr(stable_noise, "_CORES", 2)
    parent = os.getpid()

    def dying(*args):
        assert os.getpid() != parent  # never ends the test process
        os._exit(1)

    monkeypatch.setattr(fl_core, "run_replicas", dying)
    start = time.perf_counter()
    with pytest.raises(BrokenProcessPool):
        compare_methods(classification_task, _noisy_config(), ["mac", "none"], 3, 0.5, 5.0)
    assert time.perf_counter() - start < 10
    assert multiprocessing.active_children() == []


def _wide_task(seed):
    # 6001 parameters: the three noisy rows of a seed draw their noise in
    # two spans, on the transform threads
    return classification_task(seed, p=6000)


def _compare_after_a_multi_span_draw(want):
    os.setpgrp()  # its seed workers join its process group, so a hang is killed whole
    sample_sas(StableParams(1.5, 0.3), 4 * stable_noise._BLOCK, np.random.default_rng(9))
    assert stable_noise._thread_pool.cache_info().currsize == 1  # this process's transform threads are up
    got = compare_methods(_wide_task, _noisy_config(), ["mac", "gnc", "none"], 2, 0.5, 5.0)
    raise SystemExit(0 if _fingerprint(got) == want and not multiprocessing.active_children() else 1)


def test_seed_workers_fork_from_a_process_with_transform_threads(monkeypatch):
    # a seed worker forked while its parent's transform threads are up
    # makes its own threads rather than wait on the parent's; the check
    # runs in a child so that a hang times out
    monkeypatch.setattr(stable_noise, "_CORES", 1)
    want = _fingerprint(compare_methods(_wide_task, _noisy_config(), ["mac", "gnc", "none"], 2, 0.5, 5.0))
    monkeypatch.setattr(stable_noise, "_CORES", 2)
    child = multiprocessing.get_context("fork").Process(target=_compare_after_a_multi_span_draw, args=(want,))
    child.start()
    child.join(timeout=30)
    if child.is_alive():
        os.killpg(child.pid, signal.SIGKILL)
        child.join()
    assert child.exitcode == 0


_METHODS = ["ideal", "mac", "gnc", "none"]


@pytest.mark.parametrize("cores, fork", [(2, True), (4, True), (2, False)])
def test_blocks_of_one_seed_equal_one_loop(monkeypatch, cores, fork):
    # one seed, the shape of `otafl train`: its methods are cut into blocks
    # of rows, two at 2 cores and one each at 4, where the block of the none
    # row, which diverges on round 3, stops early. Rounds counted here show
    # where the blocks ran: without os.fork, in this process as one loop
    monkeypatch.setattr(stable_noise, "_CORES", 1)
    serial = compare_methods(_padded_shuffling_task, _diverging_config(), _METHODS, 1, 0.3, 1.0)
    rounds = []
    run_round = fl_core.run_round

    def counting(*args, **kwargs):
        rounds.append(args[1])
        return run_round(*args, **kwargs)

    monkeypatch.setattr(fl_core, "run_round", counting)
    monkeypatch.setattr(stable_noise, "_CORES", cores)
    if not fork:
        monkeypatch.delattr(os, "fork")
    split = compare_methods(_padded_shuffling_task, _diverging_config(), _METHODS, 1, 0.3, 1.0)
    assert multiprocessing.active_children() == []
    assert rounds == ([] if fork else list(range(10)))
    assert split["none"][0].diverged_round == 3 and not any(split[m][0].diverged for m in _METHODS[:3])
    assert _fingerprint(split) == _fingerprint(serial)


@pytest.mark.parametrize(
    "rows, message",
    [
        # each block is one seed, so each alone would pass
        ([{"seed": 1}, {"seed": 2}], "rows with different seeds need clients that never shuffle"),
        ([{}, {}, {"eval_every": 5}, {"eval_every": 5}], "rows may differ in seed, learning_rate, clip and channel only"),
    ],
)
def test_a_split_call_checks_its_rows_whole(monkeypatch, rows, message):
    # at 2 cores one call's rows run in two blocks; the checks that span
    # rows see them all, before any block runs, with the messages of one loop
    model, clients, test = _padded_shuffling_task(1)
    cfgs = [dataclasses.replace(_diverging_config(), **row) for row in rows]
    half = len(cfgs) // 2
    for block in (cfgs[:half], cfgs[half:]):
        prepare_task(model, clients, block, test)
    with pytest.raises(ValueError, match=message) as one_loop:
        run_replicas(cfgs, model, clients, test)
    monkeypatch.setattr(stable_noise, "_CORES", 2)
    _forbid_runs(monkeypatch)
    with pytest.raises(ValueError) as split:
        fl_core._run_calls([(cfgs, model, clients, test, None)])
    assert type(split.value) is ValueError and str(split.value) == str(one_loop.value)
    assert multiprocessing.active_children() == []


def test_the_lowest_failing_block_raises_its_error(monkeypatch):
    # one seed's 4 methods at 3 cores run as 3 blocks: [ideal], [mac] and
    # [gnc, none]. The last fails at once and mac's later; mac's error is
    # raised, with its type, as in one loop
    monkeypatch.setattr(stable_noise, "_CORES", 3)
    run_replicas = fl_core.run_replicas

    def failing(cfgs, *args):
        kind = cfgs[0].clip.kind
        time.sleep(0.2 if kind == "mac" else 0.0)
        if kind != "none":
            raise RegimeError(f"the {kind} block failed")
        return run_replicas(cfgs, *args)

    monkeypatch.setattr(fl_core, "run_replicas", failing)
    with pytest.raises(ValueError) as raised:
        compare_methods(classification_task, _noisy_config(), _METHODS, 1, 0.5, 5.0)
    assert type(raised.value) is RegimeError and str(raised.value) == "the mac block failed"
    assert multiprocessing.active_children() == []


def test_no_block_starts_after_a_failure(monkeypatch, tmp_path):
    # 2 seeds at 3 cores: each seed's 4 methods run as 2 blocks, so 4 blocks
    # share 3 workers. Blocks 0, 1 and 2 start; block 0 fails late and the
    # other two at once, so the first block to end is a failing one and
    # block 3 never starts. Block 0's error is raised
    monkeypatch.setattr(stable_noise, "_CORES", 3)

    def failing(cfgs, *args):
        block = f"seed{cfgs[0].seed}-{cfgs[0].clip.kind}"
        (tmp_path / block).touch()
        time.sleep(0.2 if block == "seed0-none" else 0.0)
        raise ValueError(f"{block} failed")

    monkeypatch.setattr(fl_core, "run_replicas", failing)
    with pytest.raises(ValueError, match="^seed0-none failed$"):
        compare_methods(classification_task, _noisy_config(), _METHODS, 2, 0.5, 5.0)
    assert multiprocessing.active_children() == []
    assert {p.name for p in tmp_path.iterdir()} == {"seed0-none", "seed0-gnc", "seed1-none"}


def test_a_dead_block_worker_fails_the_call_at_once(monkeypatch):
    # one seed's two methods, one block each
    monkeypatch.setattr(stable_noise, "_CORES", 2)
    parent = os.getpid()

    def dying(*args):
        assert os.getpid() != parent  # never ends the test process
        os._exit(1)

    monkeypatch.setattr(fl_core, "run_replicas", dying)
    start = time.perf_counter()
    with pytest.raises(BrokenProcessPool):
        compare_methods(classification_task, _noisy_config(), ["mac", "none"], 1, 0.5, 5.0)
    assert time.perf_counter() - start < 10
    assert multiprocessing.active_children() == []


def test_rows_equal_standalone_runs():
    # one seed on a padded, shuffling task: rows for ideal, mac, gnc at half
    # the learning rate, and none, which diverges under alpha = 0.5 noise,
    # each equal their standalone runs bit for bit
    base = base_config(
        5, 10, learning_rate=0.3, local_epochs=2, batch_size=4, seed=1, eval_every=3,
        channel=ChannelConfig(FadingModel.rayleigh_unit_mean(), StableParams(0.5, 1.0)),
    )
    model, clients, test = _padded_shuffling_task(base.seed)
    assert len({len(d.y) for d in clients}) > 1 and max(len(d.y) for d in clients) > base.batch_size
    cfgs = [method_variant(base, m, 0.3, 1.0) for m in ("ideal", "mac", "gnc", "none")]
    cfgs[2] = dataclasses.replace(cfgs[2], learning_rate=0.15)
    rows = run_replicas(cfgs, model, clients, test)
    assert [r.diverged for r in rows] == [False, False, False, True]
    for cfg, row in zip(cfgs, rows):
        assert_same_run(row, run_training(cfg, model, clients, test))


def test_rows_of_one_seed_and_channel_share_its_draws(monkeypatch):
    # mac, gnc and none rows on one channel at one seed drew identical fades
    # and noise, each from its own generator; now they share one draw
    base = base_config(
        5, 6, learning_rate=0.3, local_epochs=2, batch_size=4, seed=2, eval_every=3,
        channel=ChannelConfig(FadingModel.rayleigh_unit_mean(), StableParams(1.5, 0.5)),
    )
    model, clients, test = _padded_shuffling_task(base.seed)
    cfgs = [method_variant(base, m, 0.3, 1.0) for m in ("mac", "gnc", "none", "ideal")]
    # rows at two seeds and two rates, in rate-major order, share per seed
    q_model, q_datas = quadratic_clients(np.random.default_rng(9))
    q_base = base_config(3, 6, clip=ClipMethod.mac(0.5), channel=base.channel, seed=3)
    q_cfgs = [dataclasses.replace(q_base, learning_rate=lr, seed=s) for lr in (0.1, 0.05) for s in (3, 4)]
    alone = [run_training(c, model, clients, test) for c in cfgs]
    q_alone = [run_training(c, q_model, q_datas) for c in q_cfgs]

    groups, draws = [], []
    shared_draws, sample_sas = fl_core._SharedDraws, channel_module.sample_sas

    def counting_group(*args):
        groups.append(shared_draws(*args))
        return groups[-1]

    def built():
        # (generators built, rows) per channel group and round; the
        # generators are built on a group's first draw
        return [(len(vars(g).get("rngs", [])), len(g.source)) for g in groups]

    def counting(params, dim, rng):
        noise = sample_sas(params, dim, rng)
        draws.append(noise.shape)
        return noise

    monkeypatch.setattr(fl_core, "_SharedDraws", counting_group)
    monkeypatch.setattr(channel_module, "sample_sas", counting)
    # one generator per distinct seed of each channel group, every round;
    # the ideal row's group draws nothing, so it builds no generator and
    # derives no seed words
    rows = run_replicas(cfgs, model, clients, test)
    assert built() == [(1, 3), (0, 1)] * base.rounds
    assert groups[0].words.block is not None and groups[1].words.block is None
    assert draws == [(3, model.dim)] * base.rounds
    for row, run in zip(rows, alone):
        assert_same_run(row, run)
    groups.clear()
    draws.clear()
    rows = run_replicas(q_cfgs, q_model, q_datas)
    assert built() == [(2, 4)] * q_base.rounds
    assert draws == [(4, q_model.dim)] * q_base.rounds
    for row, run in zip(rows, q_alone):
        assert_same_run(row, run)


def test_shared_draws_give_each_row_the_draws_of_its_seed():
    # Seeded fuzz: through the shared draws of S seeds' round-k streams, row
    # r of sample_sas, sample_fading and transmit equals the one-generator
    # call on a fresh channel_rng(seed source[r], k), for alpha in (0, 2]
    # with 1 and 2 always included, S in 1..20, R in S..40 rows and k the
    # case's index. Tiny alphas overflow to inf, which the byte comparison
    # checks too.
    fuzz = np.random.default_rng(20261)
    alphas = [1.0, 2.0] + (2.0 - fuzz.uniform(0.0, 2.0, size=38)).tolist()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k, alpha in enumerate(alphas):
            params = StableParams(alpha, float(10.0 ** fuzz.uniform(-3.0, 3.0)))
            channel = ChannelConfig(FadingModel.rayleigh_unit_mean(), params)
            n_seeds = int(fuzz.integers(1, 21))
            n_rows = int(fuzz.integers(n_seeds, 41))
            n_clients, dim = int(fuzz.integers(1, 9)), int(fuzz.integers(1, 71))
            seeds = fuzz.integers(2**32, size=n_seeds).tolist()
            # every generator serves at least one row
            source = fuzz.permutation(np.concatenate([np.arange(n_seeds), fuzz.integers(n_seeds, size=n_rows - n_seeds)]))
            grads = fuzz.normal(size=(n_rows, n_clients, dim))

            words = fl_core._RoundWords([(s, fl_core._STREAM_CHANNEL) for s in seeds])

            def shared():
                return fl_core._SharedDraws(words, k, source)

            noise = sample_sas(params, dim, shared())
            gains = sample_fading(channel.fading, n_clients, shared())
            rng = shared()
            out = transmit(grads, sample_fading(channel.fading, n_clients, rng), channel, rng)
            assert noise.shape == (n_rows, dim) and gains.shape == (n_rows, n_clients)
            for r, s in enumerate(source.tolist()):
                case = (alpha, n_seeds, n_rows, r)
                alone = sample_sas(params, dim, fl_core.channel_rng(seeds[s], k))
                assert noise[r].tobytes() == alone.tobytes(), case
                alone = sample_fading(channel.fading, n_clients, fl_core.channel_rng(seeds[s], k))
                assert gains[r].tobytes() == alone.tobytes(), case
                rng = fl_core.channel_rng(seeds[s], k)
                alone = transmit(grads[r], sample_fading(channel.fading, n_clients, rng), channel, rng)
                assert out[0][r].tobytes() == alone[0].tobytes() and out[1][r].tobytes() == alone[1].tobytes(), case


def _stream_draws(rng):
    order = np.arange(13)
    rng.shuffle(order)
    return b"".join(a.tobytes() for a in (
        rng.uniform(size=5), rng.standard_exponential(5), rng.rayleigh(size=5), order,
    ))


def test_seed_words_equal_the_seed_sequence_state():
    # _seed_words reimplements numpy's SeedSequence mixing, so this also
    # guards against a change inside numpy
    fuzz = np.random.default_rng(1313)
    for width in (3, 4):
        keys = fuzz.integers(0, 2**32, size=(200, width), dtype=np.uint64).astype(np.uint32)
        keys[0], keys[1] = 0, 2**32 - 1
        expected = [np.random.SeedSequence(key.tolist()).generate_state(4, np.uint64) for key in keys]
        assert fl_core._seed_words(keys).tobytes() == np.array(expected).tobytes()
    # a seed of several 32-bit words takes the SeedSequence itself
    words = fl_core._RoundWords([(2**70, fl_core._STREAM_CHANNEL)])
    expected = np.random.SeedSequence([2**70, fl_core._STREAM_CHANNEL, 2]).generate_state(4, np.uint64)
    assert words[2][0].tobytes() == expected.tobytes()


@pytest.mark.parametrize("seed", [0, 77, 2**32 - 1, 2**70])
def test_generators_from_seed_words_draw_the_defined_streams(seed):
    clients = (0, 3, 49)
    channel = fl_core._RoundWords([(seed, fl_core._STREAM_CHANNEL)])
    client = fl_core._RoundWords([(seed, fl_core._STREAM_CLIENT, i) for i in clients])
    # across blocks of derived rounds, back to an earlier one, and far ahead
    for k in (0, 1, 63, 64, 69, 3, 10**6 + 1):
        assert _stream_draws(fl_core._generator(channel[k][0])) == _stream_draws(fl_core.channel_rng(seed, k))
        for j, i in enumerate(clients):
            assert _stream_draws(fl_core._generator(client[k][j])) == _stream_draws(client_rng(seed, k, i))
        # only the block holding round k is kept
        assert k in client.rounds and client.block.shape[:2] == (len(client.rounds), len(clients))
        assert len(client.rounds) <= fl_core._ROUND_BLOCK


def test_tasks_derive_no_seed_words_before_a_round_needs_them():
    model, clients, _ = classification_task(seed=5)
    cfg = base_config(4, 10**6, batch_size=5, channel=ChannelConfig(FadingModel.rayleigh_unit_mean(), StableParams(1.5, 0.5)))
    task = prepare_task(model, clients, [cfg])
    assert task.client_words.block is None
    assert all(words.block is None for *_, words in task.channels)
