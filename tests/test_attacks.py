import numpy as np
import pytest

from conftest import linear_binary_model
from malrobust.attacks import (AttackConfig, run_attack_suite, run_single,
                               _project_l1_ball)
from malrobust.data import ManipulationPolicy, admissible
from malrobust.nn import MlpClassifier, cross_entropy


def allow_all(dim):
    return ManipulationPolicy(np.ones(dim, bool), np.ones(dim, bool))


def forbid_all(dim):
    return ManipulationPolicy(np.zeros(dim, bool), np.zeros(dim, bool))


def always_predicts(cls, dim):
    """Model predicting `cls` on the whole unit box (bias dominates)."""
    b = np.zeros(2)
    b[cls] = 50.0
    return MlpClassifier([np.zeros((dim, 2))], [b])


class TestRandomAttack:
    def test_zero_budget(self):
        x = np.array([0.0, 1.0, 0.0])
        cfg = AttackConfig("random", max_steps=0, seed=1)
        out = run_single(always_predicts(1, 3), x, 1, allow_all(3), cfg)
        assert np.array_equal(out.x_adv, x)
        assert not out.success  # victim still predicts the true label
        out2 = run_single(always_predicts(0, 3), x, 1, allow_all(3), cfg)
        assert out2.success  # already misclassified

    def test_all_flips_forbidden(self):
        x = np.array([1.0, 0.0])
        cfg = AttackConfig("random", max_steps=10, seed=2)
        out = run_single(always_predicts(1, 2), x, 1, forbid_all(2), cfg)
        assert np.array_equal(out.x_adv, x)

    def test_seeded_replay(self, rng):
        x = (rng.random(12) < 0.5).astype(float)
        pol = allow_all(12)
        cfg = AttackConfig("random", max_steps=12, seed=33)
        model = always_predicts(1, 12)
        first = run_single(model, x, 1, pol, cfg)
        second = run_single(model, x, 1, pol, cfg)
        assert np.array_equal(first.x_adv, second.x_adv)
        assert first.flips == second.flips == 12  # never succeeds, flips all

    def test_flip_budget(self, rng):
        x = np.zeros(20)
        cfg = AttackConfig("random", max_steps=5, seed=4)
        out = run_single(always_predicts(1, 20), x, 1, allow_all(20), cfg)
        assert out.flips == 5 and out.steps_used == 5


class TestMimicry:
    def test_zero_perturbation_success(self):
        x = np.array([1.0, 0.0, 1.0])
        pool = np.array([x, [0.0, 1.0, 0.0]])
        cfg = AttackConfig("mimicry", mimicry_candidates=2, seed=5)
        out = run_single(always_predicts(0, 3), x, 1, allow_all(3), cfg, benign_pool=pool)
        assert out.success and out.flips == 0

    def test_pool_of_one(self):
        x = np.zeros(3)
        pool = np.array([[1.0, 1.0, 0.0]])
        cfg = AttackConfig("mimicry", seed=6)
        out = run_single(always_predicts(1, 3), x, 1, allow_all(3), cfg, benign_pool=pool)
        assert np.array_equal(out.x_adv, pool[0])
        assert not out.success

    def test_exhaustive_candidate_oracle(self, rng):
        dim = 10
        d = rng.normal(size=dim)
        model = linear_binary_model(d)  # margin flips depending on x . d
        x = (rng.random(dim) < 0.5).astype(float)
        y = int(model.predict(x))
        pool = (rng.random((25, dim)) < 0.5).astype(float)
        pol = ManipulationPolicy(rng.random(dim) < 0.7, rng.random(dim) < 0.7)
        cfg = AttackConfig("mimicry", mimicry_candidates=10, seed=7)
        out = run_single(model, x, y, pol, cfg, benign_pool=pool)

        flip_ok = np.where(x == 0.0, pol.addition_allowed, pol.removal_allowed)
        dists = np.abs(pool - x).sum(axis=1)
        guides = np.argsort(dists, kind="stable")[:10]
        cands = [np.where(flip_ok, pool[g], x) for g in guides]
        succ = [int(model.predict(c)) != y for c in cands]
        l1s = [np.abs(c - x).sum() for c in cands]
        if any(succ):
            best = min(l1 for l1, s in zip(l1s, succ) if s)
            assert out.success and out.l1 == best
        else:
            assert not out.success and out.l1 == min(l1s)

    def test_empty_pool(self):
        cfg = AttackConfig("mimicry")
        with pytest.raises(ValueError):
            run_single(always_predicts(0, 2), np.zeros(2), 1, allow_all(2), cfg,
                       benign_pool=np.zeros((0, 2)))


class TestFgsm:
    def test_zero_gradient_is_noop(self):
        x = np.array([0.0, 1.0])
        cfg = AttackConfig("fgsm", step_size=1.0)
        out = run_single(always_predicts(1, 2), x, 1, allow_all(2), cfg)
        assert np.array_equal(out.x_adv, x)

    def test_policy_revert(self):
        # gradient (+, -) on x=(0, 1), removal forbidden on feature 2
        model = linear_binary_model([2.0, -2.0], bias=(0.0, 50.0))
        pol = ManipulationPolicy(np.array([True, True]), np.array([True, False]))
        cfg = AttackConfig("fgsm", step_size=1.0)
        out = run_single(model, np.array([0.0, 1.0]), 1, pol, cfg)
        assert np.array_equal(out.x_adv, [1.0, 1.0])

    def test_all_additions(self):
        model = linear_binary_model([1.0, 1.0], bias=(0.0, 50.0))
        cfg = AttackConfig("fgsm", step_size=1.0)
        out = run_single(model, np.zeros(2), 1, allow_all(2), cfg)
        assert np.array_equal(out.x_adv, [1.0, 1.0])


class TestGrosse:
    def test_all_ones_unchanged(self):
        model = linear_binary_model([1.0, 1.0], bias=(0.0, 50.0))
        cfg = AttackConfig("grosse", max_steps=10)
        out = run_single(model, np.ones(2), 1, allow_all(2), cfg)
        assert np.array_equal(out.x_adv, np.ones(2))

    def test_argmax_selection(self):
        model = linear_binary_model([0.1, 0.9, -0.5], bias=(0.0, 50.0))
        cfg = AttackConfig("grosse", max_steps=1)
        out = run_single(model, np.zeros(3), 1, allow_all(3), cfg)
        assert np.array_equal(out.x_adv, [0.0, 1.0, 0.0])

    def test_addition_only_trace(self, rng):
        for _ in range(20):
            d = rng.normal(size=8)
            model = linear_binary_model(d, bias=(0.0, 8.0))
            x = (rng.random(8) < 0.5).astype(float)
            pol = ManipulationPolicy(rng.random(8) < 0.7, rng.random(8) < 0.7)
            cfg = AttackConfig("grosse", max_steps=5)
            out = run_single(model, x, 1, pol, cfg)
            delta = out.x_adv - x
            assert np.all(delta >= 0)  # never removes
            assert out.flips <= 5
            assert admissible(x, out.x_adv, pol)


class TestBga:
    def test_hand_computed_threshold(self):
        # gradients (0.6, 0.1, 0.1, 0.1): threshold = ||g||_2 / sqrt(4),
        # only feature 0 reaches it (the flip set is scale-invariant)
        g = np.array([0.6, 0.1, 0.1, 0.1])
        threshold = np.linalg.norm(g) / 2.0
        assert abs(threshold - 0.3122) < 1e-3
        model = linear_binary_model(2 * g, bias=(0.0, 0.01))
        cfg = AttackConfig("bga", max_steps=1)
        out = run_single(model, np.zeros(4), 1, allow_all(4), cfg)
        assert np.array_equal(out.x_adv, [1.0, 0.0, 0.0, 0.0])

    def test_all_negative_no_flip(self):
        model = linear_binary_model([-1.0, -2.0], bias=(0.0, 50.0))
        cfg = AttackConfig("bga", max_steps=5)
        out = run_single(model, np.zeros(2), 1, allow_all(2), cfg)
        assert np.array_equal(out.x_adv, np.zeros(2))

    def test_uniform_positive_flips_all(self):
        model = linear_binary_model([0.5, 0.5, 0.5], bias=(0.0, 50.0))
        cfg = AttackConfig("bga", max_steps=1)
        out = run_single(model, np.zeros(3), 1, allow_all(3), cfg)
        assert np.array_equal(out.x_adv, np.ones(3))


class TestBca:
    def test_argmax_flip(self):
        model = linear_binary_model([0.1, 0.9, -0.5], bias=(0.0, 50.0))
        cfg = AttackConfig("bca", max_steps=1)
        out = run_single(model, np.array([0.0, 0.0, 1.0]), 1, allow_all(3), cfg)
        assert np.array_equal(out.x_adv, [0.0, 1.0, 1.0])

    def test_single_step_budget(self):
        model = linear_binary_model([1.0, 1.0, 1.0], bias=(0.0, 50.0))
        cfg = AttackConfig("bca", max_steps=1)
        out = run_single(model, np.zeros(3), 1, allow_all(3), cfg)
        assert out.flips == 1

    def test_never_reflips(self, rng):
        for _ in range(10):
            d = np.abs(rng.normal(size=6)) + 0.1
            model = linear_binary_model(d, bias=(0.0, 50.0))
            x = np.zeros(6)
            cfg = AttackConfig("bca", max_steps=6)
            out = run_single(model, x, 1, allow_all(6), cfg)
            # six steps, six distinct 0 -> 1 flips
            assert out.flips == 6
            assert np.all(out.x_adv == 1.0)


class TestPgd:
    def test_zero_budget(self):
        model = linear_binary_model([1.0, 1.0])
        cfg = AttackConfig("pgd_linf", max_steps=0)
        x = np.array([0.0, 1.0])
        out = run_single(model, x, 1, allow_all(2), cfg)
        assert np.array_equal(out.x_adv, x)

    def test_l1_touches_single_coordinate(self):
        # gradient proportional to (0.2, -0.8, 0.1) at x = (1,1,1)
        model = linear_binary_model([0.4, -1.6, 0.2])
        cfg = AttackConfig("pgd_l1", max_steps=1, step_size=1.0)
        out = run_single(model, np.ones(3), 1, allow_all(3), cfg)
        assert np.array_equal(out.x_adv, [1.0, 0.0, 1.0])

    def test_linf_saturates_box_corners(self):
        d = np.array([1.5, -2.0, 0.7, -0.3])
        model = linear_binary_model(d, bias=(0.0, 50.0))  # never succeeds
        cfg = AttackConfig("pgd_linf", max_steps=100, step_size=0.01)
        x = np.array([0.0, 1.0, 0.0, 1.0])
        out = run_single(model, x, 1, allow_all(4), cfg)
        expected = (d > 0).astype(float)  # ascent direction sign corner
        assert np.array_equal(out.x_adv, expected)
        assert out.steps_used == 100

    def test_zero_gradient_noop(self):
        model = always_predicts(1, 3)
        for name in ("pgd_l1", "pgd_l2", "pgd_linf", "pgd_adam"):
            cfg = AttackConfig.for_attack(name, max_steps=5)
            out = run_single(model, np.zeros(3), 1, allow_all(3), cfg)
            assert np.array_equal(out.x_adv, np.zeros(3))

    def test_epsilon_ball_suppresses_small_steps(self):
        d = np.array([1.0, 1.0, 1.0])
        model = linear_binary_model(d, bias=(0.0, 50.0))
        cfg = AttackConfig("pgd_linf", max_steps=100, step_size=0.01,
                           epsilon_ball=0.3)
        out = run_single(model, np.zeros(3), 1, allow_all(3), cfg)
        # movement capped below the rounding threshold, so nothing flips
        assert np.array_equal(out.x_adv, np.zeros(3))

    def test_l1_ball_projection(self, rng):
        for _ in range(50):
            v = rng.normal(size=10) * 3
            radius = float(rng.random() * 2 + 0.1)
            p = _project_l1_ball(v, radius)
            assert np.abs(p).sum() <= radius + 1e-9
            if np.abs(v).sum() <= radius:
                assert np.array_equal(p, v)


class TestEad:
    def test_clamped_margin_keeps_delta_zero(self):
        # model already misclassifies x with a huge margin: immediate success
        model = always_predicts(0, 3)
        cfg = AttackConfig("ead", max_steps=10, ead_kappa=64.0)
        x = np.array([0.0, 1.0, 0.0])
        out = run_single(model, x, 1, allow_all(3), cfg)
        assert out.success and out.steps_used == 0
        assert np.array_equal(out.x_adv, x)

    def test_huge_beta_shrinks_to_identity(self):
        model = linear_binary_model([1.0, -1.0], bias=(0.0, 50.0))
        cfg = AttackConfig("ead", max_steps=20, step_size=0.01, ead_beta=1e6)
        x = np.array([0.0, 1.0])
        out = run_single(model, x, 1, allow_all(2), cfg)
        assert np.array_equal(out.x_adv, x)

    def test_default_grey_box_constants(self):
        cfg = AttackConfig.for_attack("ead")
        assert cfg.ead_beta == 0.1
        assert cfg.ead_kappa == 64.0

    def test_evades_weak_model(self, rng):
        d = rng.normal(size=8)
        model = linear_binary_model(d, bias=(0.0, 0.5))
        x = (d < 0).astype(float)  # most malicious-looking corner
        y = int(model.predict(x))
        # a large penalty factor lets the margin term outweigh the
        # elastic-net pull across a many-flip distance
        cfg = AttackConfig.for_attack("ead", max_steps=100, ead_c=20.0)
        out = run_single(model, x, y, allow_all(8), cfg)
        assert out.success


class TestAdditionOnly:
    @pytest.mark.parametrize("name", ["grosse", "bga", "bca"])
    def test_never_removes_even_when_allowed(self, name, rng):
        for _ in range(15):
            d = rng.normal(size=10)
            model = linear_binary_model(d, bias=(0.0, 3.0))
            x = (rng.random(10) < 0.5).astype(float)
            cfg = AttackConfig.for_attack(name, max_steps=10)
            out = run_single(model, x, 1, allow_all(10), cfg)
            assert np.all(out.x_adv - x >= 0)


class TestMonotoneEvasiveness:
    # On single-layer binary models the loss is convex in the input and the
    # gradient's sign pattern is constant, so every iterative attack's final
    # point cannot fall below the starting loss.
    @pytest.mark.parametrize("name", ["fgsm", "grosse", "bga", "bca", "pgd_l1",
                                      "pgd_l2", "pgd_linf", "pgd_adam", "ead"])
    def test_linear_models(self, name, rng):
        for _ in range(15):
            dim = 10
            d = rng.normal(size=dim)
            model = linear_binary_model(d, bias=tuple(rng.normal(size=2)))
            x = (rng.random(dim) < 0.5).astype(float)
            y = int(model.predict(x))
            pol = ManipulationPolicy(rng.random(dim) < 0.7, rng.random(dim) < 0.7)
            cfg = AttackConfig.for_attack(name, max_steps=20)
            out = run_single(model, x, y, pol, cfg)
            before = cross_entropy(model.predict_proba(x), y)
            after = cross_entropy(model.predict_proba(out.x_adv), y)
            assert after >= before - 1e-9


class TestSuite:
    def small_setup(self, rng):
        dim = 8
        victim = MlpClassifier.init([dim, 6, 2], seed=3)
        surrogate = MlpClassifier.init([dim, 10, 2], seed=4)
        X = (rng.random((6, dim)) < 0.5).astype(float)
        y = np.ones(6, dtype=int)
        pol = allow_all(dim)
        pool = (rng.random((10, dim)) < 0.5).astype(float)
        return victim, surrogate, X, y, pol, pool

    def test_white_box_equals_greybox_on_self(self, rng):
        victim, _, X, y, pol, pool = self.small_setup(rng)
        configs = [AttackConfig.for_attack(n, max_steps=8, seed=5)
                   for n in ("fgsm", "bca", "random")]
        white = run_attack_suite(victim, X, y, pol, configs,
                                 threat_model="white_box", benign_pool=pool)
        grey = run_attack_suite(victim, X, y, pol, configs,
                                threat_model="grey_box", surrogate=victim,
                                benign_pool=pool)
        for name in white:
            for a, b in zip(white[name], grey[name]):
                assert np.array_equal(a.x_adv, b.x_adv)
                assert a.success == b.success

    def test_empty_attack_list(self, rng):
        victim, _, X, y, pol, _ = self.small_setup(rng)
        assert run_attack_suite(victim, X, y, pol, []) == {}

    def test_grey_box_needs_surrogate(self, rng):
        victim, _, X, y, pol, _ = self.small_setup(rng)
        with pytest.raises(ValueError, match="surrogate"):
            run_attack_suite(victim, X, y, pol,
                             [AttackConfig.for_attack("fgsm")],
                             threat_model="grey_box")

    def test_outcomes_admissible(self, rng):
        victim, surrogate, X, y, pol, pool = self.small_setup(rng)
        configs = [AttackConfig.for_attack(n, max_steps=6, seed=6)
                   for n in ("random", "mimicry", "fgsm", "grosse", "bga",
                             "bca", "pgd_l1", "pgd_l2", "pgd_linf",
                             "pgd_adam", "ead")]
        res = run_attack_suite(victim, X, y, pol, configs,
                               threat_model="grey_box", surrogate=surrogate,
                               benign_pool=pool)
        for name, outs in res.items():
            for i, out in enumerate(outs):
                assert admissible(X[i], out.x_adv, pol), name
                # grey-box success is judged on the victim
                assert out.success == (int(victim.predict(out.x_adv)) != 1)

    def test_seeded_determinism(self, rng):
        victim, _, X, y, pol, pool = self.small_setup(rng)
        configs = [AttackConfig.for_attack(n, max_steps=10, seed=42)
                   for n in ("random", "mimicry")]
        a = run_attack_suite(victim, X, y, pol, configs, benign_pool=pool)
        b = run_attack_suite(victim, X, y, pol, configs, benign_pool=pool)
        for name in a:
            for o1, o2 in zip(a[name], b[name]):
                assert np.array_equal(o1.x_adv, o2.x_adv)


class TestBadValues:
    @pytest.mark.parametrize("overrides, message", [
        ({"mimicry_selection": "randm"}, "mimicry_selection"),
        ({"step_size": 0.0}, "step_size"),
        ({"step_size": -0.1}, "step_size"),
        ({"epsilon_ball": 0.0}, "epsilon_ball"),
        ({"epsilon_ball": -1.0}, "epsilon_ball"),
        ({"mimicry_candidates": 0}, "mimicry_candidates"),
        ({"mimicry_candidates": 2.5}, "mimicry_candidates"),
        ({"mimicry_candidates": True}, "mimicry_candidates"),
        ({"max_steps": "3"}, "max_steps"), ({"max_steps": 3.0}, "max_steps"),
        ({"step_size": "0.1"}, "step_size"), ({"epsilon_ball": "1"}, "epsilon_ball"),
        ({"ead_c": True}, "ead_c"), ({"ead_beta": float("nan")}, "ead_beta"),
        ({"ead_kappa": None}, "ead_kappa"),
    ])
    def test_config_rejects(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            AttackConfig.for_attack("mimicry", **overrides)

    def test_config_accepts_numpy_numbers(self):
        cfg = AttackConfig("pgd_l2", max_steps=np.int64(3), step_size=np.float32(0.5))
        assert cfg.max_steps == 3 and cfg.epsilon_ball is None

    def test_config_accepts_both_selections(self):
        for selection in ("nearest", "random"):
            assert AttackConfig("mimicry", mimicry_selection=selection).mimicry_selection == selection

    @pytest.mark.parametrize("name", ["fgsm", "bca", "pgd_l2", "random"])
    @pytest.mark.parametrize("label", [2, 5, -1])
    def test_label_outside_the_model_rejected(self, name, label):
        cfg = AttackConfig.for_attack(name, max_steps=3)
        with pytest.raises(ValueError, match="label"):
            run_single(always_predicts(1, 3), np.zeros(3), label, allow_all(3), cfg)

    @pytest.mark.parametrize("name", ["fgsm", "bca", "pgd_l2", "random"])
    @pytest.mark.parametrize("label", [1.0, 1.5, np.float64(1.0), True, "1"])
    def test_label_that_is_no_integer_rejected(self, name, label):
        cfg = AttackConfig.for_attack(name, max_steps=3)
        with pytest.raises(ValueError, match="labels must be integers"):
            run_single(always_predicts(1, 3), np.zeros(3), label, allow_all(3), cfg)

    @pytest.mark.parametrize("label", [1, np.int64(1), np.int32(1), np.uint8(1)])
    def test_numpy_integer_labels_accepted(self, label):
        cfg = AttackConfig.for_attack("fgsm", max_steps=3)
        run_single(always_predicts(1, 3), np.zeros(3), label, allow_all(3), cfg)

    @pytest.mark.parametrize("name", ["fgsm", "bca", "pgd_l2", "random"])
    def test_non_binary_example_rejected(self, name):
        cfg = AttackConfig.for_attack(name, max_steps=3)
        with pytest.raises(ValueError, match="not binary"):
            run_single(always_predicts(1, 3), np.array([0.0, 0.5, 1.0]), 1,
                       allow_all(3), cfg)
