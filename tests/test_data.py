import numpy as np
import pytest

from conftest import global_gradient
from otafl import (
    Dataset,
    LogisticModel,
    PartitionSpec,
    load_csv_dataset,
    make_synthetic_classification,
    partition,
    train_test_split,
)


def test_synthetic_high_separation_is_linearly_separable():
    rng = np.random.default_rng(0)
    ds = make_synthetic_classification(200, 2, 2, 10.0, rng)
    model = LogisticModel(2, 2)
    w = np.zeros(model.dim)
    for _ in range(300):
        w = w - 0.5 * model.gradient(w, ds.x, ds.y)
    accuracy = np.mean(model.predict(w, ds.x) == ds.y)
    assert accuracy >= 0.99


def test_synthetic_zero_separation_is_chance_level():
    rng = np.random.default_rng(1)
    ds = make_synthetic_classification(4000, 3, 2, 0.0, rng)
    model = LogisticModel(3, 2)
    w = np.zeros(model.dim)
    for _ in range(200):
        w = w - 0.5 * model.gradient(w, ds.x, ds.y)
    accuracy = np.mean(model.predict(w, ds.x) == ds.y)
    assert abs(accuracy - 0.5) < 0.05


def test_synthetic_determinism_and_balance():
    a = make_synthetic_classification(100, 4, 3, 2.0, np.random.default_rng(7))
    b = make_synthetic_classification(100, 4, 3, 2.0, np.random.default_rng(7))
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.y, b.y)
    counts = np.bincount(a.y, minlength=3)
    assert counts.max() - counts.min() <= 1


def test_synthetic_pairwise_mean_distances():
    rng = np.random.default_rng(2)
    sep = 6.0
    ds = make_synthetic_classification(6000, 5, 3, sep, rng)
    means = np.stack([ds.x[ds.y == c].mean(axis=0) for c in range(3)])
    for i in range(3):
        for j in range(i + 1, 3):
            assert np.linalg.norm(means[i] - means[j]) == pytest.approx(sep, rel=0.05)


def test_synthetic_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        make_synthetic_classification(10, 2, 3, 1.0, rng)  # more classes than dims
    with pytest.raises(ValueError):
        make_synthetic_classification(10, 2, 2, -1.0, rng)
    with pytest.raises(ValueError, match="n_samples must be >= 1, got 0"):
        make_synthetic_classification(0, 2, 2, 1.0, rng)


def test_partition_iid_is_exact_and_binomial_sized():
    rng = np.random.default_rng(3)
    ds = make_synthetic_classification(100, 3, 2, 1.0, rng)
    parts = partition(ds, PartitionSpec("iid", 10, seed=0))
    sizes = [len(p) for p in parts]
    assert sum(sizes) == 100
    assert min(sizes) >= 1
    assert max(sizes) <= 25  # ~5 sigma above the mean of 10
    # multiset equality via sorted rows
    merged = np.vstack([p.x for p in parts])
    key = np.lexsort(merged.T)
    orig_key = np.lexsort(ds.x.T)
    np.testing.assert_array_equal(merged[key], ds.x[orig_key])


def test_partition_dirichlet_is_exact():
    rng = np.random.default_rng(4)
    ds = make_synthetic_classification(500, 4, 4, 1.0, rng)
    parts = partition(ds, PartitionSpec("dirichlet", 7, concentration=0.3, seed=1))
    assert sum(len(p) for p in parts) == 500
    assert all(len(p) >= 1 for p in parts)


def test_dirichlet_more_skewed_than_iid():
    rng = np.random.default_rng(5)
    ds = make_synthetic_classification(1000, 3, 2, 1.0, rng)

    def across_client_variance(kind, conc, seed):
        parts = partition(ds, PartitionSpec(kind, 10, concentration=conc, seed=seed))
        proportions = [np.mean(p.y == 1) for p in parts]
        return np.var(proportions)

    dir_var = np.mean([across_client_variance("dirichlet", 0.3, s) for s in range(50)])
    iid_var = np.mean([across_client_variance("iid", 0.3, s) for s in range(50)])
    assert dir_var > iid_var


def test_dirichlet_concentration_limit_is_uniform():
    rng = np.random.default_rng(6)
    ds = make_synthetic_classification(2000, 3, 2, 1.0, rng)
    parts = partition(ds, PartitionSpec("dirichlet", 10, concentration=1e6, seed=2))
    global_p = np.mean(ds.y == 1)
    for p in parts:
        assert abs(np.mean(p.y == 1) - global_p) < 0.02


def test_partition_determinism_and_validation():
    ds = make_synthetic_classification(50, 3, 2, 1.0, np.random.default_rng(8))
    a = partition(ds, PartitionSpec("iid", 5, seed=3))
    b = partition(ds, PartitionSpec("iid", 5, seed=3))
    for pa, pb in zip(a, b):
        np.testing.assert_array_equal(pa.x, pb.x)
    with pytest.raises(ValueError):
        partition(ds, PartitionSpec("iid", 51, seed=0))
    with pytest.raises(ValueError):
        PartitionSpec("dirichlet", 5, concentration=0.0)
    with pytest.raises(ValueError):
        PartitionSpec("random", 5)
    with pytest.raises(ValueError, match="n_clients must be >= 1, got 0"):
        PartitionSpec("iid", 0)


def test_train_test_split():
    ds = make_synthetic_classification(100, 3, 2, 1.0, np.random.default_rng(9))
    train, test = train_test_split(ds, 0.2, np.random.default_rng(0))
    assert len(train) == 80 and len(test) == 20
    with pytest.raises(ValueError):
        train_test_split(ds, 0.0, np.random.default_rng(0))
    # 0.1 and 99.9 test samples round to an empty side
    for fraction in (0.001, 0.999):
        with pytest.raises(ValueError, match="split leaves an empty side"):
            train_test_split(ds, fraction, np.random.default_rng(0))


def test_load_csv_roundtrip(tmp_path):
    path = tmp_path / "small.csv"
    path.write_text("x1,x2,label\n1.5,2.0,0\n-3.0,0.25,1\n0.0,1.0,0\n")
    ds = load_csv_dataset(path, "label")
    assert ds.x.shape == (3, 2)
    np.testing.assert_array_equal(ds.y, [0, 1, 0])
    np.testing.assert_allclose(ds.x[1], [-3.0, 0.25])


def test_load_csv_errors(tmp_path):
    bad_cell = tmp_path / "bad.csv"
    bad_cell.write_text("x1,x2,label\n1.0,2.0,0\noops,2.0,1\n")
    with pytest.raises(ValueError, match=r"row 2, column 'x1'"):
        load_csv_dataset(bad_cell, "label")

    for cell in ("nan", "inf", "-inf"):
        bad_cell.write_text(f"x1,x2,label\n1.0,2.0,0\n1.0,{cell},1\n")
        with pytest.raises(ValueError, match=rf"row 2, column 'x2': non-finite value '{cell}'"):
            load_csv_dataset(bad_cell, "label")

    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="no rows"):
        load_csv_dataset(empty, "label")

    header_only = tmp_path / "header.csv"
    header_only.write_text("x1,label\n")
    with pytest.raises(ValueError, match="no rows"):
        load_csv_dataset(header_only, "label")

    short = tmp_path / "short.csv"
    short.write_text("x1,x2,label\n1.0,2.0,0\n1.0,1\n")
    with pytest.raises(ValueError, match="row 2: expected 3 cells, got 2"):
        load_csv_dataset(short, "label")

    missing = tmp_path / "missing.csv"
    missing.write_text("x1,x2\n1.0,2.0\n")
    with pytest.raises(ValueError, match="missing label column"):
        load_csv_dataset(missing, "label")

    bad_label = tmp_path / "badlabel.csv"
    for cell in ("0.5", "inf", "nan"):
        bad_label.write_text(f"x1,label\n1.0,{cell}\n")
        with pytest.raises(ValueError, match="row 1, column 'label': .* is not an integer"):
            load_csv_dataset(bad_label, "label")

    negative = tmp_path / "negative.csv"
    negative.write_text("x1,label\n1.0,0\n2.0,-1\n")
    with pytest.raises(ValueError, match=r"row 2, column 'label': label '-1' is negative"):
        load_csv_dataset(negative, "label")


def test_load_csv_drops_a_byte_order_mark(tmp_path):
    # spreadsheets save "CSV UTF-8" with one, which once hid a first label column
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbflabel,a\n1,2.0\n0,3.0\n")
    ds = load_csv_dataset(marked, "label")
    np.testing.assert_array_equal(ds.y, [1, 0])
    np.testing.assert_array_equal(ds.x, [[2.0], [3.0]])


def test_load_csv_rejects_a_repeated_column_name(tmp_path):
    # a second label column was once read as a feature, leaking the labels
    repeated = tmp_path / "repeated.csv"
    repeated.write_text("label,a,label\n0,1.0,0\n1,3.0,1\n")
    with pytest.raises(ValueError, match="repeated column name 'label'"):
        load_csv_dataset(repeated, "label")


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(x=np.zeros((3, 2)), y=np.zeros(4))


def test_csv_feeds_training(tmp_path):
    # a tiny end-to-end: CSV -> dataset -> gradient evaluation
    path = tmp_path / "train.csv"
    rows = ["f0,f1,label"]
    rng = np.random.default_rng(10)
    for i in range(20):
        label = i % 2
        x = rng.normal(loc=3.0 * (2 * label - 1), size=2)
        rows.append(f"{x[0]},{x[1]},{label}")
    path.write_text("\n".join(rows) + "\n")
    ds = load_csv_dataset(path, "label")
    model = LogisticModel(2, 2)
    g = global_gradient(model, np.zeros(model.dim), [type("D", (), {"x": ds.x, "y": ds.y})()])
    assert np.all(np.isfinite(g))
