import time
from types import SimpleNamespace

import numpy as np
import pytest

from malrobust import data
from malrobust.attacks import AttackConfig, run_attack_suite, run_single
from malrobust.data import (Dataset, ManipulationPolicy, admissible, atomic_write, binarize,
                            generate_synthetic, oversample, project_to_m,
                            read_policy, read_sparse, split, write_policy,
                            write_sparse)
from malrobust.defenses import (DefenseConfig, EnsembleClassifier, HardenedClassifier,
                                inner_maximize, train_hardened)
from malrobust.evaluation import binary_metrics, macro_f1
from malrobust.nn import MlpClassifier, cross_entropy


class TestBinarize:
    def test_definition(self):
        out = binarize(np.array([0.2, 0.7]), np.array([0.5, 0.5]))
        assert np.array_equal(out, [0.0, 1.0])

    def test_binary_input_unchanged(self):
        x = np.array([0.0, 1.0, 1.0, 0.0])
        assert np.array_equal(binarize(x, 0.5), x)

    def test_tie_maps_up(self):
        assert binarize(np.array([0.5]), np.array([0.5]))[0] == 1.0

    def test_idempotent(self, rng):
        x = rng.random(50)
        theta = np.full(50, 0.5)
        once = binarize(x, theta)
        assert np.array_equal(binarize(once, theta), once)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            binarize(np.zeros(3), np.zeros(4))


def random_policy(rng, dim):
    return ManipulationPolicy(rng.random(dim) < 0.6, rng.random(dim) < 0.6)


class TestAdmissible:
    def test_identity_always_admissible(self, rng):
        x = (rng.random(10) < 0.5).astype(float)
        pol = ManipulationPolicy(np.zeros(10, bool), np.zeros(10, bool))
        assert admissible(x, x.copy(), pol)

    def test_forbidden_removal(self):
        pol = ManipulationPolicy(np.array([True]), np.array([False]))
        assert not admissible(np.array([1.0]), np.array([0.0]), pol)

    def test_matches_coordinate_oracle(self, rng):
        for _ in range(300):
            dim = 12
            x = (rng.random(dim) < 0.5).astype(float)
            x_adv = (rng.random(dim) < 0.5).astype(float)
            pol = random_policy(rng, dim)
            expected = True
            for j in range(dim):
                if x[j] == 0 and x_adv[j] == 1 and not pol.addition_allowed[j]:
                    expected = False
                if x[j] == 1 and x_adv[j] == 0 and not pol.removal_allowed[j]:
                    expected = False
            assert admissible(x, x_adv, pol) == expected

    def test_non_binary_rejected(self):
        pol = ManipulationPolicy(np.ones(2, bool), np.ones(2, bool))
        with pytest.raises(ValueError):
            admissible(np.array([0.5, 0.0]), np.array([0.0, 0.0]), pol)


class TestProjectToM:
    def test_rounding_forced(self):
        pol = ManipulationPolicy(np.ones(3, bool), np.ones(3, bool))
        out = project_to_m(np.array([0.0, 0.0, 1.0]), np.array([0.7, 0.2, 0.9]), pol)
        assert np.array_equal(out, [1.0, 0.0, 1.0])

    def test_forbidden_flip_reverted(self):
        pol = ManipulationPolicy(np.ones(2, bool), np.array([True, False]))
        out = project_to_m(np.array([0.0, 1.0]), np.array([0.9, 0.1]), pol)
        assert np.array_equal(out, [1.0, 1.0])

    @pytest.mark.parametrize("x", [[0.5, 0.0, 1.0], [[0.0, 1.0, 0.0], [0.0, 0.2, 1.0]]])
    def test_non_binary_origin_rejected(self, x):
        # the rounding keeps x where no flip is allowed, so a 0.5 origin
        # feature would come out as a feature no policy lets the attacker set
        with pytest.raises(ValueError, match="x is not binary"):
            project_to_m(np.array(x), np.full(3, 0.7), ManipulationPolicy.additions_only(3))

    def test_output_always_admissible(self, rng):
        for _ in range(500):
            dim = 15
            x = (rng.random(dim) < 0.5).astype(float)
            x_cont = rng.random(dim)
            pol = random_policy(rng, dim)
            out = project_to_m(x, x_cont, pol)
            assert admissible(x, out, pol)


def toy_dataset(counts, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    X, y = [], []
    for c, n in enumerate(counts):
        X.append((rng.random((n, dim)) < 0.5).astype(float))
        y.append(np.full(n, c))
    return Dataset(np.vstack(X), np.concatenate(y), len(counts))


class TestOversample:
    def test_already_balanced_unchanged(self):
        ds = toy_dataset([9, 9])
        out = oversample(ds, 1.0, seed=1)
        assert len(out) == 18
        assert np.array_equal(out.X, ds.X)

    def test_minority_grows_to_floor(self):
        ds = toy_dataset([100, 10])
        out = oversample(ds, 0.30, seed=2)
        counts = np.bincount(out.y)
        assert counts[0] == 100
        assert counts[1] >= 30

    def test_floor_already_met(self):
        ds = toy_dataset([20, 15])
        out = oversample(ds, 0.5, seed=3)
        assert len(out) == 35

    def test_replicas_are_source_copies_and_originals_kept(self):
        ds = toy_dataset([40, 5], dim=6, seed=7)
        out = oversample(ds, 0.5, seed=8)
        assert np.array_equal(out.X[:len(ds)], ds.X)
        source = {tuple(row) for row in ds.X[ds.y == 1]}
        for row, label in zip(out.X[len(ds):], out.y[len(ds):]):
            assert label == 1
            assert tuple(row) in source

    def test_empty_class_rejected(self):
        ds = Dataset(np.zeros((3, 2)), np.array([0, 0, 0]), 2)
        with pytest.raises(ValueError):
            oversample(ds, 0.5)


class TestSplit:
    def test_ten_examples_six_two_two(self):
        ds = toy_dataset([5, 5])
        tr, va, te = split(ds, (0.6, 0.2, 0.2), seed=4)
        assert (len(tr), len(va), len(te)) == (6, 2, 2)

    def test_deterministic(self):
        ds = toy_dataset([30, 20])
        a = split(ds, (0.6, 0.2, 0.2), seed=9)
        b = split(ds, (0.6, 0.2, 0.2), seed=9)
        for p1, p2 in zip(a, b):
            assert np.array_equal(p1.X, p2.X)
            assert np.array_equal(p1.y, p2.y)

    def test_disjoint_and_exhaustive(self):
        ds = toy_dataset([17, 23, 11], dim=8, seed=5)
        parts = split(ds, (0.6, 0.2, 0.2), seed=6)
        rows = [tuple(r) + (l,) for p in parts for r, l in zip(p.X, p.y)]
        assert len(rows) == len(ds)
        all_rows = sorted(tuple(r) + (l,) for r, l in zip(ds.X, ds.y))
        assert sorted(rows) == all_rows

    def test_stratified_within_one(self):
        ds = toy_dataset([40, 25, 13], seed=10)
        parts = split(ds, (0.6, 0.2, 0.2), seed=11)
        for c, n_c in enumerate([40, 25, 13]):
            for frac, part in zip((0.6, 0.2, 0.2), parts):
                got = int(np.sum(part.y == c))
                assert abs(got - n_c * frac) < 1.0

    def test_bad_fractions(self):
        ds = toy_dataset([4, 4])
        with pytest.raises(ValueError):
            split(ds, (0.5, 0.2, 0.2))


class TestGenerateSynthetic:
    def test_zero_noise_gives_prototypes(self):
        ds, _ = generate_synthetic(20, 2, 5, flip_noise=0.0, seed=1)
        for c in range(2):
            Xc = ds.X[ds.y == c]
            assert np.all(Xc == Xc[0])

    def test_deterministic(self):
        a, pa = generate_synthetic(30, 3, 10, 0.1, seed=2)
        b, pb = generate_synthetic(30, 3, 10, 0.1, seed=2)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(pa.addition_allowed, pb.addition_allowed)
        assert np.array_equal(pa.removal_allowed, pb.removal_allowed)

    def test_policy_fractions(self):
        _, pol = generate_synthetic(2000, 2, 2, 0.0, seed=3)
        assert 0.70 < pol.addition_allowed.mean() < 0.80
        assert 0.45 < pol.removal_allowed.mean() < 0.55

    def test_per_class_counts(self):
        ds, _ = generate_synthetic(10, 3, [4, 6, 2], 0.1, seed=4)
        assert np.bincount(ds.y).tolist() == [4, 6, 2]

    def test_class_densities(self):
        ds, _ = generate_synthetic(500, 2, 1, 0.0, seed=5, class_densities=[0.9, 0.1])
        assert ds.X[ds.y == 0].mean() > 0.8
        assert ds.X[ds.y == 1].mean() < 0.2

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            generate_synthetic(1, 2, 3, 0.0)

    @pytest.mark.parametrize("overrides, message", [
        ({"flip_noise": 1.5}, "flip_noise must be in"),
        ({"flip_noise": -0.2}, "flip_noise must be in"),
        ({"flip_noise": float("inf")}, "flip_noise must be a real number, got inf"),
        ({"class_densities": [1.5, 0.5]}, r"class_densities\[0\] must be in \[0, 1\], got 1.5"),
        ({"class_densities": [0.5, -1.0]}, r"class_densities\[1\] must be in"),
        ({"class_densities": [0.5, float("-inf")]}, r"class_densities\[1\] must be a real"),
    ])
    def test_rate_outside_the_unit_interval_rejected(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            generate_synthetic(**{"dim": 10, "classes": 2, "per_class": 3,
                                  "flip_noise": 0.1, **overrides})

    def test_unit_interval_ends_accepted(self):
        ds, _ = generate_synthetic(10, 2, 3, 1.0, class_densities=[0.0, 1.0])
        assert np.array_equal(ds.X[ds.y == 0], np.ones((3, 10)))

    def test_numpy_values_accepted(self):
        a, _ = generate_synthetic(np.int64(30), 2, np.int64(4), np.float64(0.1), seed=6,
                                  class_densities=np.array([0.9, 0.1]))
        b, _ = generate_synthetic(30, 2, [4, 4], 0.1, seed=6, class_densities=[0.9, 0.1])
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)


class TestSparseIO:
    def test_round_trip(self, tmp_path, rng):
        ds = toy_dataset([7, 9], dim=13, seed=6)
        ds.X[0, 3] = 0.25  # non-binary value survives too
        path = tmp_path / "ds.txt"
        write_sparse(path, ds)
        back = read_sparse(path)
        assert back.class_count == ds.class_count
        assert back.dim == ds.dim
        assert np.array_equal(back.X, ds.X)
        assert np.array_equal(back.y, ds.y)

    def test_format_example(self, tmp_path):
        path = tmp_path / "ds.txt"
        path.write_text("3 0:1 17:1\n")
        ds = read_sparse(path, dim=20, class_count=4)
        assert ds.y[0] == 3
        assert ds.X[0, 0] == 1 and ds.X[0, 17] == 1
        assert ds.X[0].sum() == 2

    def test_empty_feature_list(self, tmp_path):
        path = tmp_path / "ds.txt"
        path.write_text("2\n")
        ds = read_sparse(path, dim=5, class_count=3)
        assert ds.y[0] == 2
        assert np.all(ds.X[0] == 0)

    def test_comments_ignored(self, tmp_path):
        path = tmp_path / "ds.txt"
        path.write_text("# a remark\n1 0:1\n")
        ds = read_sparse(path, dim=2, class_count=2)
        assert len(ds) == 1

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "ds.txt"
        path.write_text("0 0:1\n1 nonsense\n")
        with pytest.raises(ValueError, match="line 2"):
            read_sparse(path, dim=3, class_count=2)

    def test_index_out_of_range(self, tmp_path):
        path = tmp_path / "ds.txt"
        path.write_text("0 9:1\n")
        with pytest.raises(ValueError, match="out of range"):
            read_sparse(path, dim=5, class_count=2)

    def test_negative_index_rejected(self, tmp_path):
        path = tmp_path / "ds.txt"
        path.write_text("0 0:1\n1 -1:1\n")
        with pytest.raises(ValueError, match="line 2: negative index -1"):
            read_sparse(path, dim=3, class_count=2)

    def test_duplicate_index_rejected(self, tmp_path):
        path = tmp_path / "ds.txt"
        path.write_text("0 2:1 2:0\n")
        with pytest.raises(ValueError, match="line 1: duplicate index 2"):
            read_sparse(path, dim=3, class_count=2)

    def test_late_header_range_error_reports_file_line(self, tmp_path):
        # the index is only checked once the trailing header sets dim; the
        # offending row is the first row but sits on the file's third line
        path = tmp_path / "ds.txt"
        path.write_text("# a remark\n\n0 9:1\n# dim=5 classes=2\n")
        with pytest.raises(ValueError, match="line 3: index 9 out of range"):
            read_sparse(path)

    def test_non_finite_value_rejected(self, tmp_path):
        path = tmp_path / "ds.txt"
        path.write_text("# dim=3 classes=2\n0 0:nan\n1 1:inf\n")
        with pytest.raises(ValueError, match="line 2: non-finite value 'nan'"):
            read_sparse(path)
        path.write_text("# dim=3 classes=2\n0 0:1\n1 1:-inf\n")
        with pytest.raises(ValueError, match="line 3: non-finite value '-inf'"):
            read_sparse(path)

    def test_negative_label_rejected(self, tmp_path):
        path = tmp_path / "ds.txt"
        path.write_text("0 0:1\n-1 1:1\n")
        with pytest.raises(ValueError, match="line 2: label -1 out of range"):
            read_sparse(path)

    def test_label_beyond_header_classes_rejected(self, tmp_path):
        path = tmp_path / "ds.txt"
        path.write_text("# dim=3 classes=2\n0 0:1\n\n5 1:1\n")
        with pytest.raises(ValueError, match=r"line 4: label 5 out of range \(classes=2\)"):
            read_sparse(path)

    @pytest.mark.parametrize("header, message", [
        ("dim=abc", "dim must be a non-negative integer, got 'abc'"),
        ("dim=-2", "dim must be a non-negative integer, got '-2'"),
        ("dim=2.5", "dim must be a non-negative integer, got '2.5'"),
        ("dim=", "dim must be a non-negative integer, got ''"),
        ("classes=x", "classes must be a non-negative integer, got 'x'"),
        ("classes=-1", "classes must be a non-negative integer, got '-1'"),
    ])
    def test_bad_header_value_reports_file_line(self, tmp_path, header, message):
        path = tmp_path / "ds.txt"
        path.write_text(f"0 0:1\n# remark\n# {header}\n1 1:1\n")
        with pytest.raises(ValueError, match=f"line 3: header {message}"):
            read_sparse(path)


class TestPolicyIO:
    def test_round_trip(self, tmp_path, rng):
        pol = random_policy(rng, 17)
        path = tmp_path / "policy.txt"
        write_policy(path, pol)
        back = read_policy(path)
        assert np.array_equal(back.addition_allowed, pol.addition_allowed)
        assert np.array_equal(back.removal_allowed, pol.removal_allowed)

    def test_bad_flags(self, tmp_path):
        path = tmp_path / "policy.txt"
        path.write_text("0 1 2\n")
        with pytest.raises(ValueError, match="line 1"):
            read_policy(path)

    def test_negative_index_rejected(self, tmp_path):
        path = tmp_path / "policy.txt"
        path.write_text("0 1 0\n1 0 1\n-1 1 1\n")
        with pytest.raises(ValueError, match="line 3: negative index -1"):
            read_policy(path)

    def test_duplicate_index_rejected(self, tmp_path):
        path = tmp_path / "policy.txt"
        path.write_text("0 1 0\n1 0 1\n0 1 1\n")
        with pytest.raises(ValueError, match="line 3: duplicate index 0"):
            read_policy(path)

    @pytest.mark.parametrize("line", ["1000000000000 1 1", "+1000000000000 1 1"])
    def test_missing_feature_named_without_listing_every_index(self, tmp_path, line):
        # the first missing feature was once found by listing every index up
        # to the largest; both the bulk pass and the line loop (the `+`) sort
        path = tmp_path / "policy.txt"
        path.write_text(line + "\n")
        start = time.perf_counter()
        with pytest.raises(ValueError, match="^policy file missing feature 0$"):
            read_policy(path)
        assert time.perf_counter() - start < 0.5


class TestAtomicWrite:
    def test_failed_write_sparse_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "ds.txt"
        write_sparse(path, toy_dataset([3, 3], dim=5))
        before = path.read_bytes()

        def broken(v):
            raise RuntimeError("disk full")
        monkeypatch.setattr(data, "_format_value", broken)
        with pytest.raises(RuntimeError):
            write_sparse(path, toy_dataset([4, 4], dim=5, seed=1))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ds.txt"]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_write_sparse_refuses_a_non_finite_value(self, tmp_path, bad):
        # read_sparse rejects such a file, so none is written
        path = tmp_path / "ds.txt"
        write_sparse(path, toy_dataset([3, 3], dim=5))
        before = path.read_bytes()
        ds = toy_dataset([4, 4], dim=5, seed=1)
        ds.X[5, 2] = bad
        with pytest.raises(ValueError, match="row 5: non-finite value"):
            write_sparse(path, ds)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ds.txt"]

    def test_failed_write_policy_keeps_previous_file(self, tmp_path, rng):
        path = tmp_path / "policy.txt"
        write_policy(path, random_policy(rng, 4))
        before = path.read_bytes()
        short = SimpleNamespace(dim=3, addition_allowed=[1, 1], removal_allowed=[0, 0, 0])
        with pytest.raises(IndexError):
            write_policy(path, short)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["policy.txt"]

    def test_replaces_target_with_ordinary_permissions(self, tmp_path):
        plain = tmp_path / "plain.txt"
        plain.write_text("x")
        path = tmp_path / "out.txt"
        path.write_text("old")
        with atomic_write(path) as fh:
            fh.write("new")
            assert path.read_text() == "old"
        assert path.read_text() == "new"
        assert path.stat().st_mode == plain.stat().st_mode
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt", "plain.txt"]


def _label_entry_points():
    """Each public call that takes labels, as (rows it expects, call on y):
    a 3-row batch of 4 binary features on a 2-class model, or one example
    for run_single."""
    X = np.array([[0.0, 1.0, 0.0, 1.0], [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
    mlp = MlpClassifier.init([4, 3, 2], seed=0)
    ensemble = EnsembleClassifier([HardenedClassifier(MlpClassifier.init([4, 3, 2], seed=s))
                                   for s in (1, 2)])
    policy = ManipulationPolicy.additions_only(4)
    fgsm = AttackConfig.for_attack("fgsm")
    return {
        "Dataset": (3, lambda y: Dataset(X, y, 2)),
        "run_attack_suite": (3, lambda y: run_attack_suite(mlp, X, y, policy, [fgsm])),
        "run_single": (1, lambda y: run_single(mlp, X[0], y, policy, fgsm)),
        "inner_maximize": (3, lambda y: inner_maximize(mlp, X, y, policy,
                                                       DefenseConfig(inner_steps=1))),
        "macro_f1": (3, lambda y: macro_f1([0, 1, 1], y, 2)),
        "binary_metrics": (3, lambda y: binary_metrics([0, 1, 1], y)),
        "MlpClassifier.input_gradients": (3, lambda y: mlp.input_gradients(X, y)),
        "EnsembleClassifier.input_gradients": (3, lambda y: ensemble.input_gradients(X, y)),
        "cross_entropy": (3, lambda y: cross_entropy(np.full((3, 2), 0.5), y)),
    }


def _repeat(value, rows):
    """The label itself for one row, else one copy of it per row."""
    return value if rows == 1 else [value] * rows


# bad label -> (labels for `rows` rows, expected message with `rows` filled in)
_BAD_LABELS = {
    "float": (lambda rows: _repeat(1.7, rows), "labels must be integers, got float64"),
    "bool": (lambda rows: _repeat(True, rows), "labels must be integers, got bool"),
    "negative": (lambda rows: _repeat(-1, rows), r"label out of range \[0, 2\)"),
    "class_count": (lambda rows: _repeat(2, rows), r"label out of range \[0, 2\)"),
    "2-d": (lambda rows: np.ones((rows, 1), dtype=int),
            r"labels must be one per row, got shape \({rows}, 1\)"),
    "one too many": (lambda rows: np.ones(rows + 1, dtype=int),
                     "^{more} labels for {rows} input rows$"),
    "one too few": (lambda rows: np.ones(rows - 1, dtype=int),
                    "^{fewer} labels for {rows} input rows$"),
}


class TestLabelRule:
    """Every call that takes labels applies the one rule of
    data._check_labels: one int label per row, each in [0, class_count)."""

    @pytest.mark.parametrize("bad", sorted(_BAD_LABELS))
    @pytest.mark.parametrize("entry", sorted(_label_entry_points()))
    def test_bad_label_rejected(self, entry, bad):
        rows, call = _label_entry_points()[entry]
        make, message = _BAD_LABELS[bad]
        if entry in ("macro_f1", "binary_metrics") and bad.startswith("one too"):
            message = "label vector lengths differ"  # two label vectors, no input rows
        with pytest.raises(ValueError, match=message.format(rows=rows, more=rows + 1,
                                                            fewer=rows - 1)):
            call(make(rows))

    @pytest.mark.parametrize("entry", sorted(_label_entry_points()))
    def test_good_labels_accepted(self, entry):
        rows, call = _label_entry_points()[entry]
        call(np.array([0, 1, 1], dtype=np.uint8)[:rows])

    def test_dataset_keeps_int_labels(self):
        ds = Dataset(np.zeros((2, 3)), np.array([1, 0], dtype=np.int8), 2)
        assert ds.y.dtype == int and ds.y.tolist() == [1, 0]
        assert Dataset(np.zeros((0, 3)), [], 2).y.dtype == int

    @pytest.mark.parametrize("class_count", [2.5, 2.0, True, "2", None, 0, -1])
    def test_dataset_rejects_bad_class_count(self, class_count):
        with pytest.raises(ValueError, match="class_count"):
            Dataset(np.zeros((2, 3)), [0, 0], class_count)


def _policy_entry_points():
    """Each call a policy enters through, as a call on the policy: a batch
    or one example of 6 binary features on a 2-class model of width 6."""
    rng = np.random.default_rng(0)
    X = (rng.random((4, 6)) < 0.5).astype(float)
    y = np.array([1, 0, 1, 0])
    mlp = MlpClassifier.init([6, 4, 2], seed=0)
    cfg = DefenseConfig(inner_steps=1, epochs=1, batch_size=4, hidden=(4,),
                        subspace_ratio=0.5)
    points = {f"run_single[{name}]": lambda policy, name=name: run_single(
        mlp, X[0], 1, policy, AttackConfig.for_attack(name, max_steps=2), benign_pool=X,
        rng=np.random.default_rng(1)) for name in ("random", "mimicry", "fgsm", "bca", "pgd_l1")}
    return {
        **points,
        "inner_maximize": lambda policy: inner_maximize(mlp, X, y, policy, cfg),
        "train_hardened": lambda policy: train_hardened(Dataset(X, y, 2), policy, cfg),
        "project_to_m": lambda policy: project_to_m(X, X, policy),
        "admissible": lambda policy: admissible(X[0], X[0], policy),
    }


class TestPolicyRule:
    """Every call a policy enters through applies data._check_policy: the
    policy is exactly as wide as the examples."""

    @pytest.mark.parametrize("width", [1, 3, 7])
    @pytest.mark.parametrize("entry", sorted(_policy_entry_points()))
    def test_wrong_width_rejected(self, entry, width):
        with pytest.raises(ValueError, match=f"policy of width {width} for examples of shape"):
            _policy_entry_points()[entry](ManipulationPolicy.additions_only(width))

    @pytest.mark.parametrize("flags", [[[True] * 6], True, np.ones((2, 3), bool)])
    def test_flags_must_be_1d(self, flags):
        with pytest.raises(ValueError, match="policy flags must be two 1-d arrays"):
            ManipulationPolicy(flags, np.logical_not(flags))
