from itertools import islice

import numpy as np
import pytest

from conftest import linear_binary_model, overflows_off_zero
from malrobust import attacks
from malrobust.attacks import (AttackConfig, run_attack_suite, run_single,
                               _project_l1_ball)
from malrobust.data import ManipulationPolicy, admissible
from malrobust.defenses import EnsembleClassifier, HardenedClassifier
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

    @pytest.mark.parametrize("pool, message", [
        (np.full((2, 10), 0.5), "benign pool is not binary"),
        (np.full((2, 10), 2.0), "benign pool is not binary"),
        (np.array([[0.0] * 9 + [np.nan]]), "benign pool is not binary"),
        (np.zeros((2, 7)), r"benign pool of shape \(2, 7\) is no batch of width 10"),
        (np.zeros((2, 2, 10)), r"benign pool of shape \(2, 2, 10\)"),
        (np.zeros(10), r"benign pool of shape \(10,\)"),
    ])
    def test_malformed_pool_rejected(self, pool, message):
        cfg = AttackConfig("mimicry")
        with pytest.raises(ValueError, match=message):
            run_single(always_predicts(1, 10), np.zeros(10), 1, allow_all(10), cfg,
                       benign_pool=pool)


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

    def test_duplicate_attack_names_rejected(self, rng):
        victim, _, X, y, pol, _ = self.small_setup(rng)
        configs = [AttackConfig("bca", max_steps=5), AttackConfig("bca", max_steps=1)]
        with pytest.raises(ValueError, match="duplicate attack names in one suite"):
            run_attack_suite(victim, X, y, pol, configs)

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

    @pytest.mark.parametrize("bad", ["half", "narrow", "3d"])
    def test_malformed_pool_rejected_before_any_attack(self, rng, monkeypatch, bad):
        victim, _, X, y, pol, pool = self.small_setup(rng)
        pool = {"half": 0.5 * pool, "narrow": pool[:, :7], "3d": pool[None]}[bad]
        runs = []
        monkeypatch.setattr(attacks, "run_single", lambda *args, **kwargs: runs.append(args))
        configs = [AttackConfig.for_attack("fgsm"), AttackConfig("mimicry")]
        with pytest.raises(ValueError, match="benign pool"):
            run_attack_suite(victim, X, y, pol, configs, benign_pool=pool)
        assert runs == []

    @staticmethod
    def count_runs(monkeypatch):
        """The attack name of each run_single call the suite makes."""
        runs, run = [], attacks.run_single

        def counted(*args, **kwargs):
            runs.append(args[4].name)
            return run(*args, **kwargs)
        monkeypatch.setattr(attacks, "run_single", counted)
        return runs

    @pytest.mark.parametrize("threat_model", ["white_box", "grey_box"])
    def test_grosse_and_bca_run_once_per_example(self, rng, monkeypatch, threat_model):
        victim, surrogate, X, y, pol, _ = self.small_setup(rng)
        runs = self.count_runs(monkeypatch)
        configs = [AttackConfig("grosse", max_steps=5), AttackConfig("bca", max_steps=5)]
        res = run_attack_suite(victim, X, y, pol, configs, threat_model, surrogate)
        assert runs == ["grosse"] * len(X)
        assert list(res) == ["grosse", "bca"]

    @pytest.mark.parametrize("overrides", [{"max_steps": 4}, {"seed": 1}, {"seed": [0, 1]},
                                           {"step_size": 0.5}])
    def test_grosse_and_bca_with_other_settings_run_apart(self, rng, monkeypatch, overrides):
        victim, _, X, y, pol, _ = self.small_setup(rng)
        runs = self.count_runs(monkeypatch)
        configs = [AttackConfig("grosse", max_steps=5),
                   AttackConfig("bca", **{"max_steps": 5, **overrides})]
        run_attack_suite(victim, X, y, pol, configs)
        assert runs == ["grosse"] * len(X) + ["bca"] * len(X)

    @pytest.mark.parametrize("written, other", [("grosse", "bca"), ("bca", "grosse")])
    def test_shared_outcomes_are_copies(self, rng, written, other):
        victim, _, X, y, pol, _ = self.small_setup(rng)
        configs = [AttackConfig("grosse", max_steps=5), AttackConfig("bca", max_steps=5)]
        res = run_attack_suite(victim, X, y, pol, configs)
        kept = [out.x_adv.copy() for out in res[other]]
        for out in res[written]:
            out.x_adv[:] = 0.5
        assert all(np.array_equal(out.x_adv, k) for out, k in zip(res[other], kept))

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
        ({"step_size": float("inf")}, "step_size"), ({"ead_c": float("inf")}, "ead_c"),
        ({"ead_kappa": float("inf")}, "ead_kappa"),
        ({"epsilon_ball": float("inf")}, "epsilon_ball"),
        ({"ead_beta": -0.1}, "ead_beta"), ({"ead_kappa": -1.0}, "ead_kappa"),
        ({"ead_c": 0.0}, "ead_c"), ({"ead_c": -1.0}, "ead_c"),
        ({"seed": 1.5}, "seed"), ({"seed": True}, "seed"), ({"seed": -1}, "seed"),
        ({"seed": None}, "seed"), ({"seed": "3"}, "seed"), ({"seed": [1, -2]}, "seed"),
    ])
    def test_config_rejects(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            AttackConfig.for_attack("mimicry", **overrides)

    def test_config_accepts_zero_ead_beta_and_kappa(self):
        cfg = AttackConfig("ead", ead_beta=0.0, ead_kappa=0)
        assert (cfg.ead_beta, cfg.ead_kappa) == (0.0, 0)

    def test_config_accepts_numpy_numbers(self):
        cfg = AttackConfig("pgd_l2", max_steps=np.int64(3), step_size=np.float32(0.5))
        assert cfg.max_steps == 3 and cfg.epsilon_ball is None

    @pytest.mark.parametrize("seed", [0, np.int64(7), [3, 4]])
    def test_config_accepts_seed(self, seed):
        victim = MlpClassifier.init([4, 3, 2], seed=1)
        X = np.eye(4)[:2]
        pool = np.ones((3, 4))
        configs = [AttackConfig.for_attack(n, max_steps=2, seed=seed)
                   for n in ("random", "mimicry")]
        assert len(run_attack_suite(victim, X, [1, 1], allow_all(4), configs,
                                    benign_pool=pool)["random"]) == 2

    def test_config_accepts_both_selections(self):
        for selection in ("nearest", "random"):
            assert AttackConfig("mimicry", mimicry_selection=selection).mimicry_selection == selection

    @pytest.mark.parametrize("name", attacks.ATTACK_NAMES)
    def test_plain_constructor_fills_in_the_attack_step_size(self, name):
        assert AttackConfig(name) == AttackConfig.for_attack(name)
        assert AttackConfig(name).step_size == attacks._DEFAULT_STEP.get(name, 0.01)
        assert AttackConfig(name, step_size=0.3).step_size == 0.3
        assert AttackConfig.for_attack(name, step_size=0.3) == AttackConfig(name, step_size=0.3)

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


class TestRunChecks:
    """A run checks its example and label once, at its entry; a suite
    checks its pool's width against every model it calls; no step
    re-checks the points the attack builds."""

    @pytest.mark.parametrize("name", ["bca", "pgd_linf", "ead", "mimicry", "fgsm"])
    def test_example_wider_than_the_model_rejected_before_any_judge(self, monkeypatch, name):
        judged = []
        monkeypatch.setattr(attacks, "_misclassified", lambda *args: judged.append(args))
        cfg = AttackConfig.for_attack(name, max_steps=3)
        with pytest.raises(ValueError, match="input dimension 4 != model dimension 3"):
            run_single(always_predicts(1, 3), np.zeros(4), 1, allow_all(4), cfg,
                       benign_pool=np.zeros((2, 4)))
        assert judged == []

    def test_batch_given_as_the_example_rejected(self):
        cfg = AttackConfig.for_attack("bca", max_steps=3)
        with pytest.raises(ValueError, match=r"one example, got an input of shape \(1, 3\)"):
            run_single(always_predicts(1, 3), np.zeros((1, 3)), 1, allow_all(3), cfg)

    @pytest.mark.parametrize("pool_dim, victim_dim, surrogate_dim",
                             [(5, 4, 5), (4, 4, 5)])
    def test_grey_box_width_mismatch_fails_before_any_step(self, monkeypatch, pool_dim,
                                                           victim_dim, surrogate_dim):
        """A pool as wide as the surrogate but not the victim would run
        every attack on the surrogate before the victim's judge saw it."""
        steps = []
        monkeypatch.setattr(attacks, "run_single", lambda *args, **kw: steps.append(args))
        monkeypatch.setattr(attacks, "_misclassified", lambda *args: steps.append(args))
        wrong = victim_dim if pool_dim != victim_dim else surrogate_dim
        with pytest.raises(ValueError,
                           match=f"input dimension {pool_dim} != model dimension {wrong}"):
            run_attack_suite(always_predicts(1, victim_dim), np.zeros((2, pool_dim)), [1, 1],
                             allow_all(pool_dim), [AttackConfig.for_attack("bca")],
                             threat_model="grey_box",
                             surrogate=always_predicts(1, surrogate_dim))
        assert steps == []

    @pytest.mark.parametrize("name", ["pgd_l1", "pgd_l2", "pgd_linf", "pgd_adam", "ead"])
    def test_model_that_overflows_inside_a_projected_attack_raises(self, name):
        """The model is finite at the start point, which it classifies
        correctly, and overflows at the first step's point."""
        model, x = overflows_off_zero(), np.array([1.0, 0.0, 0.0, 0.0])
        assert int(model.predict(x)) == 0
        cfg = AttackConfig.for_attack(name, max_steps=5)
        with np.errstate(all="ignore"), pytest.raises(ValueError,
                                                      match="non-finite model output"):
            run_single(model, x, 0, ManipulationPolicy.additions_only(4), cfg)


def never_evaded(kind, dim=12):
    """A model of the kind that predicts class 1 on the whole unit box
    while its class-1 loss gradient is positive on the features it sees."""
    def head(width, slope):
        return linear_binary_model(np.full(width, slope), bias=(0.0, 5.0))
    if kind == "mlp":
        return head(dim, 0.1)
    if kind == "hardened":
        subset = np.array([0, 1, 3, 4, 6, 7, 9, 10])
        return HardenedClassifier(head(8, 0.1), subset=subset, thresholds=np.full(8, 0.5),
                                  input_dim=dim)
    return EnsembleClassifier([never_evaded("hardened", dim), HardenedClassifier(head(dim, 0.2))])


class TestJudgeCounts:
    """Each distinct point an iterative attack proposes is judged once, by
    one forward that also gives grosse, bca and bga their next gradient."""

    @staticmethod
    def count(monkeypatch, model):
        """Record each point attacks._misclassified judges and the row count
        of each forward the model runs: its ``_pullback``, or an ensemble's
        member loop, which both of the ensemble's entries run."""
        judged, forwards = [], []
        forward = "_vote" if isinstance(model, EnsembleClassifier) else "_pullback"
        judge, pullback = attacks._misclassified, getattr(model, forward)

        def counted_judge(m, x, y):
            judged.append(np.array(x))
            return judge(m, x, y)

        def counted_pullback(X2):
            forwards.append(len(X2))
            return pullback(X2)
        monkeypatch.setattr(attacks, "_misclassified", counted_judge)
        monkeypatch.setattr(model, forward, counted_pullback)
        return judged, forwards

    @pytest.mark.parametrize("kind", ["mlp", "hardened", "ensemble"])
    @pytest.mark.parametrize("name", ["bca", "grosse"])
    @pytest.mark.parametrize("k", [1, 5])
    def test_greedy_step_reuses_the_judged_forward(self, monkeypatch, kind, name, k):
        model = never_evaded(kind)
        judged, forwards = self.count(monkeypatch, model)
        out = run_single(model, np.zeros(12), 1, allow_all(12),
                         AttackConfig(name, max_steps=k))
        assert out.steps_used == out.flips == k and not out.success
        assert forwards == [1] * (k + 1)
        assert len(judged) == k + 1

    @pytest.mark.parametrize("kind", ["mlp", "hardened", "ensemble"])
    @pytest.mark.parametrize("k", [1, 10])
    def test_ead_step_runs_one_forward(self, monkeypatch, kind, k):
        """An ead step takes the logit margin and its gradient from one
        forward; the search adds one forward per judged point."""
        model = never_evaded(kind)
        judged, forwards = self.count(monkeypatch, model)
        out = run_single(model, np.zeros(12), 1, allow_all(12),
                         AttackConfig("ead", max_steps=k, step_size=0.1, ead_c=20.0))
        assert out.steps_used == k and not out.success
        # the rounding changes once in 10 steps here, and twice on the
        # ensemble, whose members pull at different slopes
        assert len(judged) == 1 + (k == 10) * (2 if kind == "ensemble" else 1)
        assert forwards == [1] * (k + len(judged))

    def test_pgd_linf_judges_only_changed_proposals(self, monkeypatch):
        """A 0.01 step changes the rounding at steps 50, 63 and 91 of 100
        here; a bias on the true class keeps every point classified."""
        model = MlpClassifier.init([12, 8, 2], seed=2)
        x = (np.random.default_rng(12347).random(12) < 0.5).astype(float)
        y = int(model.predict(x))
        model.biases[-1][y] += 5.0
        cfg = AttackConfig.for_attack("pgd_linf", max_steps=100)
        assert cfg.step_size == 0.01
        expected = [x]
        for proposal in islice(attacks._projected_steps(attacks._linf_direction, model, x, y,
                                                        allow_all(12), cfg, None, None), 100):
            if not np.array_equal(proposal, expected[-1]):
                expected.append(proposal)
                if int(model.predict(proposal)) != y:
                    break
        judged, forwards = self.count(monkeypatch, model)
        out = run_single(model, x, y, allow_all(12), cfg)
        assert out.steps_used == 100 and not out.success
        assert len(judged) == len(expected) == 4
        assert all(np.array_equal(a, b) for a, b in zip(judged, expected))
        # one forward per judged point and one per step's gradient
        assert len(forwards) == len(judged) + out.steps_used
