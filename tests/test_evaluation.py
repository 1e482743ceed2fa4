import warnings

import numpy as np
import pytest

from malrobust.attacks import AttackConfig
from malrobust.data import ManipulationPolicy, generate_synthetic, split
from malrobust.defenses import DefenseConfig
from malrobust.evaluation import (DefenseSpec, _jsonable, binary_metrics,
                                  evaluate_models, harmonic_mean, macro_f1,
                                  report_rows, report_table, run_experiment)


def brute_force_counts(y_true, y_pred, c):
    tp = fp = fn = tn = 0
    for t, p in zip(y_true, y_pred):
        if t == c and p == c:
            tp += 1
        elif t != c and p == c:
            fp += 1
        elif t == c and p != c:
            fn += 1
        else:
            tn += 1
    return tp, fp, fn, tn


class TestBinaryMetrics:
    def test_perfect(self):
        fnr, fpr, acc = binary_metrics([0, 1, 0, 1], [0, 1, 0, 1])
        assert (fnr, fpr, acc) == (0.0, 0.0, 1.0)

    def test_all_positive_prediction(self):
        fnr, fpr, acc = binary_metrics([0, 0, 1, 1], [1, 1, 1, 1])
        assert (fnr, fpr, acc) == (0.0, 1.0, 0.5)

    def test_matches_counting_oracle(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 40))
            y_true = rng.integers(2, size=n)
            y_pred = rng.integers(2, size=n)
            tp, fp, fn, tn = brute_force_counts(y_true, y_pred, 1)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                fnr, fpr, acc = binary_metrics(y_true, y_pred)
            assert fnr == (fn / (fn + tp) if fn + tp else 0.0)
            assert fpr == (fp / (fp + tn) if fp + tn else 0.0)
            assert acc == (tp + tn) / n

    def test_empty_denominator_warns(self):
        with pytest.warns(RuntimeWarning):
            fnr, _, _ = binary_metrics([0, 0], [0, 1])
        assert fnr == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            binary_metrics([0, 1], [0])

    @pytest.mark.parametrize("positive_class", [7, -1, 2, True, 1.0, None])
    def test_positive_class_must_be_zero_or_one(self, positive_class):
        with pytest.raises(ValueError, match="positive_class"):
            binary_metrics([0, 1], [0, 1], positive_class)

    @pytest.mark.parametrize("y_true", [[1.7, 0], [True, False], [2, 0]])
    def test_true_labels_follow_the_two_class_rule(self, y_true):
        with pytest.raises(ValueError, match="label"):
            binary_metrics(y_true, [1, 0])


def brute_force_macro_f1(y_true, y_pred, o):
    scores = []
    for c in range(o):
        tp, fp, fn, _ = brute_force_counts(y_true, y_pred, c)
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        scores.append(2 * p * r / (p + r) if p + r else 0.0)
    return sum(scores) / o


class TestMacroF1:
    def test_perfect(self):
        assert macro_f1([0, 1, 2], [0, 1, 2], 3) == 1.0

    def test_hand_confusion_case(self):
        # class0: P=1, R=1/2 -> F1=2/3; class1: P=1/2, R=1 -> F1=2/3
        assert abs(macro_f1([0, 0, 1], [0, 1, 1], 2) - 2 / 3) < 1e-12

    def test_absent_class_zero_rule(self):
        val = macro_f1([0, 0, 1, 1], [0, 0, 1, 1], 3)
        assert abs(val - 2 / 3) < 1e-12  # third class contributes 0

    def test_matches_brute_force(self, rng):
        for _ in range(200):
            o = int(rng.integers(2, 5))
            n = int(rng.integers(1, 30))
            y_true = rng.integers(o, size=n)
            y_pred = rng.integers(o, size=n)
            assert abs(macro_f1(y_true, y_pred, o)
                       - brute_force_macro_f1(y_true, y_pred, o)) < 1e-12

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            macro_f1([0, 3], [0, 1], 2)


class TestDefenseSpec:
    @pytest.mark.parametrize("key", ["use_dae", "use_binarization", "known_manipulation_set"])
    @pytest.mark.parametrize("value", ["false", "no", 0, 1, None])
    def test_flags_must_be_bools(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be true or false"):
            DefenseSpec("d", "hardened", **{key: value})


class TestHarmonicMean:
    def test_equal_inputs(self):
        for a in (0.0, 0.3, 1.0):
            assert harmonic_mean(a, a) == a

    def test_closed_form(self):
        assert abs(harmonic_mean(0.8, 0.6) - 2 * 0.8 * 0.6 / 1.4) < 1e-12

    def test_known_score_pair(self):
        # combining macro F1 0.883 (clean) with 0.630 (under attack)
        assert abs(harmonic_mean(0.883, 0.630) - 0.7354) < 0.01

    def test_never_exceeds_arithmetic_mean(self, rng):
        for _ in range(100):
            a, b = rng.random(2)
            assert harmonic_mean(a, b) <= (a + b) / 2 + 1e-12

    def test_double_zero(self):
        assert harmonic_mean(0.0, 0.0) == 0.0


@pytest.fixture(scope="module")
def small_experiment():
    ds, _ = generate_synthetic(20, 2, 50, 0.05, seed=31)
    policy = ManipulationPolicy(np.ones(20, bool), np.zeros(20, bool))
    train, val, test = split(ds, (0.6, 0.2, 0.2), seed=32)
    cfg = DefenseConfig(epochs=25, batch_size=16, lr=0.01, hidden=(12, 12))
    specs = [DefenseSpec("basic", "plain", cfg)]
    return train, test, policy, specs


class TestRunExperiment:
    def test_zero_attacks_clean_only(self, small_experiment):
        train, test, policy, specs = small_experiment
        report = run_experiment(train, test, policy, specs, [], seed=1,
                                attack_pool=10)
        block = report["defenses"]["basic"]
        assert block["attacks"] == {}
        assert "no_attack" in block and "clean_test" in block

    def test_seeded_reports_identical(self, small_experiment):
        train, test, policy, specs = small_experiment
        configs = [AttackConfig.for_attack("fgsm"),
                   AttackConfig.for_attack("random", max_steps=10)]
        r1 = run_experiment(train, test, policy, specs, configs, seed=2,
                            attack_pool=10)
        r2 = run_experiment(train, test, policy, specs, configs, seed=2,
                            attack_pool=10)
        assert _jsonable(r1) == _jsonable(r2)

    def test_fgsm_cannot_raise_accuracy(self, small_experiment):
        train, test, policy, specs = small_experiment
        configs = [AttackConfig.for_attack("fgsm")]
        report = run_experiment(train, test, policy, specs, configs, seed=3,
                                attack_pool=15)
        block = report["defenses"]["basic"]
        assert block["attacks"]["fgsm"]["accuracy"] <= block["no_attack"]["accuracy"] + 1e-12

    def test_grey_box_without_surrogate_rejected(self, small_experiment):
        train, test, policy, specs = small_experiment
        with pytest.raises(ValueError, match="surrogate"):
            evaluate_models({"basic": object()}, train, test, policy,
                            [AttackConfig.for_attack("fgsm")],
                            threat_model="grey_box", seed=4)

    def test_grey_box_runs_with_profile(self, small_experiment):
        train, test, policy, specs = small_experiment
        configs = [AttackConfig.for_attack("bca", max_steps=8)]
        report = run_experiment(train, test, policy, specs, configs,
                                threat_model="grey_box", seed=5,
                                surrogate_profile={"hidden": (16,), "epochs": 10},
                                attack_pool=10)
        assert "bca" in report["defenses"]["basic"]["attacks"]

    def test_harmonic_mean_pairs_clean_macro_f1(self, small_experiment):
        train, test, policy, specs = small_experiment
        configs = [AttackConfig.for_attack("fgsm")]
        report = run_experiment(train, test, policy, specs, configs, seed=6,
                                attack_pool=10)
        block = report["defenses"]["basic"]
        expected = harmonic_mean(block["clean_test"]["macro_f1"],
                                 block["attacks"]["fgsm"]["macro_f1"])
        assert block["attacks"]["fgsm"]["harmonic_mean"] == expected

    def test_duplicate_attack_names_rejected(self, small_experiment):
        train, test, policy, specs = small_experiment
        configs = [AttackConfig.for_attack("fgsm"), AttackConfig.for_attack("fgsm")]
        with pytest.raises(ValueError, match="duplicate"):
            run_experiment(train, test, policy, specs, configs, seed=7,
                           attack_pool=5)

    def test_report_table_renders(self, small_experiment):
        train, test, policy, specs = small_experiment
        configs = [AttackConfig.for_attack("fgsm")]
        report = run_experiment(train, test, policy, specs, configs, seed=8,
                                attack_pool=5)
        table = report_table(report)
        assert "basic" in table and "fgsm" in table and "clean_test" in table


def table_report(labels):
    """A report with a missing cell: only the first label has pgd_l1."""
    blocks = {}
    for i, lab in enumerate(labels):
        attacks = {"fgsm": {"accuracy": 0.5}}
        if i == 0:
            attacks["pgd_l1"] = {"accuracy": 0.25}
        blocks[lab] = {"clean_test": {"accuracy": 1.0}, "no_attack": {"accuracy": 0.75},
                       "attacks": attacks}
    return {"defenses": blocks}


class TestReportTable:
    def test_long_label_columns_line_up(self):
        lines = report_table(table_report(["plain", "a_much_longer_label"])).split("\n")
        header = lines[0]
        assert header.split() == ["attack", "a_much_longer_label", "plain"]
        assert len({len(line) for line in lines}) == 1
        ends = [header.index(lab) + len(lab) for lab in header.split()[1:]]
        for line in lines[1:]:
            # each cell ends where its column's label ends
            for end, cell in zip(ends, line.split()[1:]):
                assert line[:end].endswith(" " + cell)
        assert lines[1].split() == ["clean_test", "100.00", "100.00"]
        assert lines[4].split() == ["pgd_l1", "-", "25.00"]

    def test_one_order_whatever_the_dict_order(self):
        a = table_report(["plain", "at"])
        b = {"defenses": {lab: {**block, "attacks": dict(reversed(block["attacks"].items()))}
                          for lab, block in reversed(a["defenses"].items())}}
        assert list(b["defenses"]["plain"]["attacks"]) == ["pgd_l1", "fgsm"]
        assert report_table(a) == report_table(b)
        labels, rows = report_rows(a)
        assert labels == ["at", "plain"]
        assert [name for name, _ in rows] == ["clean_test", "no_attack", "fgsm", "pgd_l1"]
