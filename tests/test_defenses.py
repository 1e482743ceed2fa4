import base64
import json

import numpy as np
import pytest

from malrobust import attacks, defenses, nn
from malrobust.attacks import AttackConfig, run_single
from malrobust.data import Dataset, ManipulationPolicy, generate_synthetic
from malrobust.defenses import (DefenseConfig, DenoisingAutoencoder,
                                EnsembleClassifier, HardenedClassifier,
                                _dae_param_grads, _salt_pepper_batch,
                                inner_maximize, load_ensemble, load_hardened,
                                save_ensemble, save_hardened, train_ensemble,
                                train_hardened)
from malrobust.nn import (AdamState, DenseStack, MlpClassifier,
                          _batch_param_gradients, adam_step, cross_entropy)


def identity_autoencoder(dim):
    enc = DenseStack([np.eye(dim)], [np.zeros(dim)], "relu", activate_last=True)
    dec = DenseStack([np.eye(dim)], [np.zeros(dim)], "relu", activate_last=False)
    return DenoisingAutoencoder(enc, dec)


def small_task(dim=24, seed=3):
    ds, _ = generate_synthetic(dim, 2, 40, 0.05, seed=seed)
    policy = ManipulationPolicy(np.ones(dim, bool), np.zeros(dim, bool))
    return ds, policy


def salt_pepper(x, ratio, seed):
    """One-row salt-and-pepper noise through the batch kernel training uses."""
    return _salt_pepper_batch(x[None, :], ratio, np.random.default_rng(seed))[0]


def dae_loss(ae, x_clean, x_noisy, x_adv):
    """The loss _dae_param_grads returns for one-row batches."""
    return _dae_param_grads(ae, x_clean[None, :], (x_noisy[None, :], x_adv[None, :]))[-1]


class TestSaltPepper:
    def test_zero_ratio_identity(self, rng):
        x = rng.random(30)
        assert np.array_equal(salt_pepper(x, 0.0, seed=1), x)

    def test_full_ratio_binary(self, rng):
        x = rng.random(30)
        out = salt_pepper(x, 1.0, seed=2)
        assert np.all((out == 0.0) | (out == 1.0))

    def test_reproducible(self, rng):
        x = rng.random(30)
        assert np.array_equal(salt_pepper(x, 0.4, seed=3), salt_pepper(x, 0.4, seed=3))

    def test_touched_count(self, rng):
        x = np.full(40, 0.5)
        out = salt_pepper(x, 0.25, seed=4)
        changed = np.sum(out != x)
        assert changed <= 10  # floor(0.25 * 40), some may coincide by value
        assert np.all(np.isin(out[out != x], [0.0, 1.0]))

    def test_rows_draw_their_own_coordinates(self):
        X = np.full((50, 40), 0.5)
        out = _salt_pepper_batch(X, 0.25, np.random.default_rng(5))
        touched = out != X
        assert np.all(touched.sum(axis=1) == 10)
        assert len({row.tobytes() for row in touched}) > 1


class TestDaeLoss:
    def test_identity_ae_zero_loss(self):
        ae = identity_autoencoder(6)
        x = np.array([0.0, 1.0, 1.0, 0.0, 1.0, 0.0])
        assert dae_loss(ae, x, x.copy(), x.copy()) == 0.0

    def test_identity_ae_k_over_d(self):
        d = 8
        ae = identity_autoencoder(d)
        x = np.zeros(d)
        noisy = x.copy()
        noisy[[1, 4, 6]] = 1.0  # k = 3 coordinates off by 1
        assert abs(dae_loss(ae, x, noisy, x.copy()) - 3 / d) < 1e-12

    def test_matches_straight_line_recompute(self, rng):
        dim, latent = 7, 5
        ae = DenoisingAutoencoder.init(dim, latent, seed=11)
        x = rng.random(dim)
        noisy = rng.random(dim)
        adv = rng.random(dim)
        h1 = np.maximum(noisy @ ae.encoder.weights[0] + ae.encoder.biases[0], 0)
        r1 = h1 @ ae.decoder.weights[0] + ae.decoder.biases[0]
        h2 = np.maximum(adv @ ae.encoder.weights[0] + ae.encoder.biases[0], 0)
        r2 = h2 @ ae.decoder.weights[0] + ae.decoder.biases[0]
        expected = np.mean((x - r1) ** 2) + np.mean((x - r2) ** 2)
        assert abs(dae_loss(ae, x, noisy, adv) - expected) < 1e-12


class TestDaeParamGrads:
    def test_matches_finite_differences_of_its_loss(self, rng):
        ae = DenoisingAutoencoder.init(6, 4, activation="elu", seed=12)
        X = (rng.random((3, 6)) < 0.5).astype(float)
        inputs = (rng.random((3, 6)), rng.random((3, 6)))
        *grads, _ = _dae_param_grads(ae, X, inputs)
        params = (ae.encoder.weights, ae.encoder.biases,
                  ae.decoder.weights, ae.decoder.biases)
        eps = 1e-6
        for arrays, grad_list in zip(params, grads):
            for P, G in zip(arrays, grad_list):
                fd = np.zeros_like(P)
                for idx in np.ndindex(P.shape):
                    saved = P[idx]
                    P[idx] = saved + eps
                    up = _dae_param_grads(ae, X, inputs)[-1]
                    P[idx] = saved - eps
                    down = _dae_param_grads(ae, X, inputs)[-1]
                    P[idx] = saved
                    fd[idx] = (up - down) / (2 * eps)
                assert np.allclose(G, fd, rtol=1e-5, atol=1e-8)


class TestInnerMaximize:
    def test_zero_steps_zero_restarts(self, rng):
        ds, policy = small_task()
        model = MlpClassifier.init([24, 8, 2], seed=1)
        cfg = DefenseConfig(inner_steps=0, restarts=0, seed=5)
        x = ds.X[0]
        x_adv, delta = inner_maximize(model, x, int(ds.y[0]), policy, cfg)
        assert np.array_equal(x_adv, x)
        assert np.all(delta == 0)

    def test_single_trial_deterministic(self, rng):
        ds, policy = small_task()
        model = MlpClassifier.init([24, 8, 2], seed=2)
        cfg = DefenseConfig(inner_steps=15, restarts=0, seed=6)
        a = inner_maximize(model, ds.X[:5], ds.y[:5], policy, cfg)
        b = inner_maximize(model, ds.X[:5], ds.y[:5], policy, cfg)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_returned_trial_beats_logged_trials(self, rng):
        # replay the restart trials with the same stream and check the max
        ds, policy = small_task()
        model = MlpClassifier.init([24, 8, 2], seed=3)
        cfg = DefenseConfig(inner_steps=10, restarts=3, noise_ratio_max=0.2, seed=7)
        X, y = ds.X[:6], ds.y[:6]
        best_x, _ = inner_maximize(model, X, y, policy, cfg)
        best_loss = model.loss(best_x, y)

        replay = np.random.default_rng(cfg.seed)
        for trial in range(cfg.restarts + 1):
            if trial == 0:
                delta = np.zeros_like(X)
            else:
                ratio = replay.uniform(0.0, cfg.noise_ratio_max)
                delta = _salt_pepper_batch(X, ratio, replay) - X
            adam = AdamState.zeros(X.shape, learning_rate=cfg.inner_lr)
            for _ in range(cfg.inner_steps):
                g = model.input_gradients(X + delta, y)
                delta = adam_step(adam, delta, g, "maximize")
                delta = np.clip(X + delta, 0.0, 1.0) - X
            from malrobust.data import project_to_m
            rounded = project_to_m(X, X + delta, policy)
            trial_loss = model.loss(rounded, y)
            assert np.all(best_loss >= trial_loss - 1e-12)

    def test_box_only_mode_rounds_plainly(self, rng):
        ds, _ = small_task()
        model = MlpClassifier.init([24, 8, 2], seed=4)
        cfg = DefenseConfig(inner_steps=10, restarts=0, seed=8)
        x_adv, _ = inner_maximize(model, ds.X[:4], ds.y[:4], None, cfg)
        assert np.all((x_adv == 0.0) | (x_adv == 1.0))

    def test_never_below_zero_delta_baseline(self, rng):
        ds, policy = small_task()
        model = MlpClassifier.init([24, 8, 2], seed=9)
        cfg = DefenseConfig(inner_steps=12, restarts=2, seed=10)
        X, y = ds.X[:8], ds.y[:8]
        x_adv, _ = inner_maximize(model, X, y, policy, cfg)
        assert np.all(model.loss(x_adv, y) >= model.loss(X, y) - 1e-12)

    @pytest.mark.parametrize("inner_steps", [0, 1])
    @pytest.mark.parametrize("policy", [ManipulationPolicy.additions_only(6), None])
    def test_non_binary_batch_rejected(self, inner_steps, policy):
        # its rounding keeps a feature where no flip is allowed, so a 0.5
        # would leave a batch that no manipulation of X reaches
        X = (np.random.default_rng(0).random((3, 6)) < 0.5).astype(float)
        cfg = DefenseConfig(inner_steps=inner_steps, restarts=0)
        with pytest.raises(ValueError, match="X is not binary"):
            inner_maximize(MlpClassifier.init([6, 4, 2], seed=0), 0.5 * X, [0, 1, 0],
                           policy, cfg)


class TestOneStepLoop:
    """The inner maximizer and pgd_adam step through attacks._box_steps, and
    each names adam_step in its own module: bench/workloads.py cuts the
    harden workload at defenses.adam_step."""

    @staticmethod
    def count(monkeypatch):
        calls = {attacks: 0, defenses: 0}

        def counted(module):
            def step(*args):
                calls[module] += 1
                return nn.adam_step(*args)
            return step
        for module in calls:
            monkeypatch.setattr(module, "adam_step", counted(module))
        return calls

    @pytest.mark.parametrize("inner_steps, restarts", [(0, 2), (1, 0), (7, 0), (5, 3)])
    def test_inner_steps_go_through_defenses(self, monkeypatch, inner_steps, restarts):
        ds, policy = small_task()
        model = MlpClassifier.init([24, 8, 2], seed=1)
        calls = self.count(monkeypatch)
        inner_maximize(model, ds.X[:5], ds.y[:5], policy,
                       DefenseConfig(inner_steps=inner_steps, restarts=restarts, seed=2))
        assert calls == {attacks: 0, defenses: (restarts + 1) * inner_steps}

    @pytest.mark.parametrize("k", [1, 9])
    def test_pgd_adam_steps_go_through_attacks(self, monkeypatch, k):
        rng = np.random.default_rng(3)
        model = MlpClassifier([rng.normal(0.0, 0.1, (12, 2))], [np.array([0.0, 50.0])])
        calls = self.count(monkeypatch)
        out = run_single(model, np.zeros(12), 1, ManipulationPolicy.additions_only(12),
                         AttackConfig.for_attack("pgd_adam", max_steps=k))
        assert out.steps_used == k and not out.success
        assert calls == {attacks: k, defenses: 0}


class TestTrainHardened:
    def test_degenerate_gradient_is_doubled_supervised(self, rng):
        # with T=0, K=0 the adversarial batch equals the clean batch, so the
        # classifier-step gradient is exactly twice the supervised gradient
        ds, policy = small_task()
        model = MlpClassifier.init([24, 8, 2], seed=5)
        X, y = ds.X[:16], ds.y[:16]
        cfg = DefenseConfig(inner_steps=0, restarts=0, seed=11)
        x_adv, _ = inner_maximize(model, X, y, policy, cfg)
        assert np.array_equal(x_adv, X)
        wg, bg, _ = _batch_param_gradients(model, X, y)
        wg2, bg2, _ = _batch_param_gradients(model, x_adv, y)
        for a, b in zip(wg, wg2):
            assert np.allclose(a + b, 2 * a, atol=1e-12)

    def test_seeded_determinism(self):
        ds, policy = small_task()
        cfg = DefenseConfig(inner_steps=5, epochs=3, batch_size=16, lr=0.01,
                            hidden=(8, 8), seed=12)
        a, ta = train_hardened(ds, policy, cfg)
        b, tb = train_hardened(ds, policy, cfg)
        assert ta == tb
        for W1, W2 in zip(a.mlp.weights, b.mlp.weights):
            assert np.array_equal(W1, W2)

    def test_regularization_mode_trains_without_policy(self):
        ds, _ = small_task()
        cfg = DefenseConfig(inner_steps=3, epochs=2, batch_size=16, lr=0.01,
                            hidden=(8,), seed=13)
        clf, trace = train_hardened(ds, None, cfg)
        assert len(trace) == 2
        assert clf.predict(ds.X).shape == (len(ds),)

    def test_binarization_and_subspace(self):
        ds, policy = small_task()
        cfg = DefenseConfig(inner_steps=2, epochs=1, batch_size=16, lr=0.01,
                            hidden=(8, 8), subspace_ratio=0.5, seed=14)
        clf, _ = train_hardened(ds, policy, cfg, use_binarization=True)
        assert len(clf.subset) == 12
        assert clf.thresholds is not None
        # gradients live in the full input space, zero outside the subset
        g = clf.input_gradients(ds.X[0], int(ds.y[0]))
        off = np.setdiff1d(np.arange(24), clf.subset)
        assert np.all(g[off] == 0.0)

    def test_dae_wiring_and_block_isolation(self):
        ds, policy = small_task()
        cfg = DefenseConfig(inner_steps=2, epochs=1, batch_size=16, lr=0.01,
                            hidden=(8, 8), latent_dim=10, seed=15)
        clf, _ = train_hardened(ds, policy, cfg, use_dae=True)
        assert clf.dae is not None
        assert clf.dae.latent_dim == 10
        assert clf.mlp.layer_sizes[0] == 10  # head consumes the encoding

        # a DAE update touches no head parameters, and vice versa
        head_before = [W.copy() for W in clf.mlp.weights]
        enc_before = [W.copy() for W in clf.dae.encoder.weights]
        X = ds.X[:8]
        ewg, ebg, dwg, dbg, _ = _dae_param_grads(clf.dae, X, (X, X))
        states = [AdamState.zeros(W.shape, 0.01) for W in clf.dae.encoder.weights]
        for i in range(len(clf.dae.encoder.weights)):
            clf.dae.encoder.weights[i] = adam_step(states[i],
                                                   clf.dae.encoder.weights[i], ewg[i])
        assert all(np.array_equal(a, b) for a, b in zip(head_before, clf.mlp.weights))

        H = clf.dae.encoder.forward(X)
        wg, bg, _ = _batch_param_gradients(clf.mlp, H, ds.y[:8])
        hstates = [AdamState.zeros(W.shape, 0.01) for W in clf.mlp.weights]
        enc_snapshot = [W.copy() for W in clf.dae.encoder.weights]
        for i in range(len(clf.mlp.weights)):
            clf.mlp.weights[i] = adam_step(hstates[i], clf.mlp.weights[i], wg[i])
        assert all(np.array_equal(a, b)
                   for a, b in zip(enc_snapshot, clf.dae.encoder.weights))

    def test_oversample_hook(self):
        X = np.vstack([np.zeros((30, 6)), np.ones((4, 6))])
        y = np.array([0] * 30 + [1] * 4)
        ds = Dataset(X, y, 2)
        policy = ManipulationPolicy(np.ones(6, bool), np.ones(6, bool))
        cfg = DefenseConfig(inner_steps=1, epochs=1, batch_size=8, lr=0.01,
                            hidden=(4,), oversample_ratio=0.5, seed=16)
        clf, _ = train_hardened(ds, policy, cfg)  # just exercises the path
        assert clf.predict(X).shape == (34,)

    @pytest.mark.parametrize("inner_steps", [0, 1])
    def test_non_binary_training_set_rejected(self, inner_steps):
        # binarization makes the view binary, so that model trains
        X = np.full((4, 6), 0.7)
        cfg = DefenseConfig(inner_steps=inner_steps, epochs=1, batch_size=4, hidden=(4,))
        ds, policy = Dataset(X, [0, 1, 0, 1], 2), ManipulationPolicy.additions_only(6)
        with pytest.raises(ValueError, match="training set is not binary"):
            train_hardened(ds, policy, cfg)
        train_hardened(ds, policy, cfg, use_binarization=True)


class TestBadValues:
    @pytest.mark.parametrize("overrides", [
        {"epochs": -1}, {"restarts": -1}, {"inner_steps": -1},
        {"data_fraction": 0.0}, {"data_fraction": -0.2}, {"data_fraction": 3.0},
        {"epochs": 2.5}, {"batch_size": 2.5}, {"ensemble_size": 1.5}, {"hidden": (4.5,)},
        {"hidden": (8, True)}, {"inner_steps": True}, {"restarts": "1"}, {"latent_dim": 8.0},
        {"lr": "0.1"}, {"inner_lr": float("nan")}, {"subspace_ratio": None},
        {"oversample_ratio": False}, {"hidden": 5}, {"hidden": None},
        {"activation": "tanh"}, {"activation": 5}, {"hidden": (0,)}, {"hidden": (8, 0)},
        {"latent_dim": 0}, {"seed": 1.5}, {"seed": "abc"}, {"seed": True}, {"seed": None},
        {"seed": [1, 2.5]}, {"seed": -1}, {"seed": [1, -2]}, {"seed": (1, 2.0)},
        {"lr": float("inf")}, {"inner_lr": float("inf")}, {"oversample_ratio": 2.0},
        {"oversample_ratio": -0.5}, {"oversample_ratio": float("inf")},
    ])
    def test_config_rejects(self, overrides):
        with pytest.raises(ValueError, match=next(iter(overrides))):
            DefenseConfig(**overrides)

    @pytest.mark.parametrize("key, value", [("lr", -1.0), ("lr", 0.0), ("inner_lr", 0.0),
                                            ("inner_lr", -0.5), ("batch_size", 0),
                                            ("batch_size", -3)])
    def test_non_positive_rate_or_batch_size_named(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be positive, got {value!r}$"):
            DefenseConfig(**{key: value})

    def test_integer_like_values_accepted(self):
        cfg = DefenseConfig(epochs=np.int64(3), lr=np.float64(0.01), noise_ratio_max=0,
                            hidden=[np.int32(4)], seed=[1, 2])
        assert cfg.epochs == 3 and DefenseConfig(hidden=()).hidden == ()
        assert DefenseConfig(seed=np.int64(4)).seed == 4 and DefenseConfig(seed=(4, 5)).seed
        assert DefenseConfig(seed=nn.child_seed(cfg.seed, 1000)).seed == [1, 2, 1000]

    def test_zero_counts_and_full_data_accepted(self):
        cfg = DefenseConfig(epochs=0, restarts=0, inner_steps=0, data_fraction=1.0)
        assert (cfg.epochs, cfg.restarts, cfg.inner_steps) == (0, 0, 0)

    @pytest.mark.parametrize("use_dae", [False, True])
    def test_no_hidden_layers_trains_a_linear_head(self, use_dae):
        ds, policy = small_task()
        cfg = DefenseConfig(inner_steps=2, epochs=20, batch_size=16, lr=0.05,
                            hidden=(), latent_dim=8, seed=31)
        clf, trace = train_hardened(ds, policy, cfg, use_dae=use_dae)
        assert len(clf.mlp.weights) == 1
        assert trace[-1] < trace[0]
        assert np.mean(clf.predict(ds.X) == ds.y) > 0.8


class TestEnsemble:
    def test_mean_vote_example(self):
        m1 = MlpClassifier([np.zeros((3, 2))], [np.log(np.array([0.6, 0.4]))])
        m2 = MlpClassifier([np.zeros((3, 2))], [np.log(np.array([0.2, 0.8]))])
        ens = EnsembleClassifier([m1, m2])
        p = ens.predict_proba(np.zeros(3))
        assert np.allclose(p, [0.4, 0.6], atol=1e-12)
        assert ens.predict(np.zeros(3)) == 1

    def test_identical_members_collapse(self):
        m = MlpClassifier.init([4, 3, 2], seed=21)
        ens = EnsembleClassifier([m, m, m])
        x = np.array([0.0, 1.0, 1.0, 0.0])
        assert np.allclose(ens.predict_proba(x), m.predict_proba(x), atol=1e-15)

    def test_mean_matches_member_recompute(self, rng):
        members = [MlpClassifier.init([5, 4, 3], seed=s) for s in (1, 2, 3)]
        ens = EnsembleClassifier(members)
        X = rng.random((6, 5))
        expected = sum(m.predict_proba(X) for m in members) / 3
        assert np.allclose(ens.predict_proba(X), expected, atol=1e-15)
        assert np.allclose(ens.predict_proba(X).sum(axis=1), 1.0, atol=1e-9)

    def test_subspace_sizes(self):
        ds, policy = small_task(dim=20)
        cfg = DefenseConfig(inner_steps=1, epochs=1, batch_size=16, lr=0.01,
                            hidden=(6, 6), ensemble_size=3, subspace_ratio=0.5,
                            data_fraction=0.8, seed=22)
        ens, _ = train_ensemble(ds, policy, cfg)
        assert ens.l == 3
        for m in ens.members:
            assert len(m.subset) == 10

    def test_members_differ(self):
        ds, policy = small_task(dim=16)
        cfg = DefenseConfig(inner_steps=1, epochs=2, batch_size=16, lr=0.01,
                            hidden=(6,), ensemble_size=2, subspace_ratio=1.0,
                            data_fraction=1.0, seed=23)
        ens, _ = train_ensemble(ds, policy, cfg)
        w0 = ens.members[0].mlp.weights[0]
        w1 = ens.members[1].mlp.weights[0]
        assert not np.array_equal(w0, w1)

    def test_single_member_equals_hardened(self):
        ds, policy = small_task(dim=16)
        cfg = DefenseConfig(inner_steps=2, epochs=2, batch_size=16, lr=0.01,
                            hidden=(6,), ensemble_size=1, subspace_ratio=1.0,
                            data_fraction=1.0, seed=24)
        ens, _ = train_ensemble(ds, policy, cfg)
        from dataclasses import replace
        from malrobust.nn import child_seed
        solo, _ = train_hardened(ds, policy,
                                 replace(cfg, seed=child_seed(cfg.seed, 1000)))
        assert np.allclose(ens.predict_proba(ds.X), solo.predict_proba(ds.X),
                           atol=1e-15)

    def test_ensemble_gradients_match_finite_differences(self, rng):
        ds, policy = small_task(dim=12)
        cfg = DefenseConfig(inner_steps=1, epochs=1, batch_size=16, lr=0.01,
                            hidden=(5,), ensemble_size=2, subspace_ratio=0.5,
                            data_fraction=1.0, seed=25)
        ens, _ = train_ensemble(ds, policy, cfg)
        x, y = ds.X[0], int(ds.y[0])
        g = ens.input_gradients(x, y)
        h = 1e-5
        for j in range(12):
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            fd = (cross_entropy(ens.predict_proba(xp), y)
                  - cross_entropy(ens.predict_proba(xm), y)) / (2 * h)
            assert abs(fd - g[j]) < 1e-6


class TestCheckpoints:
    def test_hardened_round_trip(self, tmp_path):
        ds, policy = small_task(dim=14)
        cfg = DefenseConfig(inner_steps=1, epochs=1, batch_size=16, lr=0.01,
                            hidden=(6, 6), subspace_ratio=0.5, latent_dim=5, seed=26)
        clf, _ = train_hardened(ds, policy, cfg, use_dae=True, use_binarization=True)
        path = tmp_path / "hardened.json"
        save_hardened(path, clf)
        back = load_hardened(path)
        assert np.array_equal(back.subset, clf.subset)
        assert np.array_equal(back.thresholds, clf.thresholds)
        assert np.allclose(back.predict_proba(ds.X), clf.predict_proba(ds.X),
                           atol=1e-15)

    def test_hardened_head_with_wrong_layer_sizes_rejected(self, tmp_path):
        head = MlpClassifier.init([4, 3, 2], seed=28)
        path = tmp_path / "hardened.json"
        save_hardened(path, HardenedClassifier(head))
        record = json.loads(path.read_text())
        assert record["head"]["layer_sizes"] == [4, 3, 2]
        record["head"]["layer_sizes"] = [9, 9, 9]
        path.write_text(json.dumps(record))
        with pytest.raises(ValueError, match="layer_sizes disagree"):
            load_hardened(path)

    def test_ensemble_round_trip(self, tmp_path):
        ds, policy = small_task(dim=12)
        cfg = DefenseConfig(inner_steps=1, epochs=1, batch_size=16, lr=0.01,
                            hidden=(5,), ensemble_size=3, subspace_ratio=0.5,
                            seed=27)
        ens, _ = train_ensemble(ds, policy, cfg)
        path = tmp_path / "ens.json"
        save_ensemble(path, ens)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ens.json"]
        back = load_ensemble(path)
        assert back.l == 3
        assert np.allclose(back.predict_proba(ds.X), ens.predict_proba(ds.X),
                           atol=1e-15)

    def test_old_layout_manifest_rejected(self, tmp_path):
        # the former layout: a directory with one file per member and a
        # manifest naming them
        members = [HardenedClassifier(MlpClassifier.init([4, 3, 2], seed=s)) for s in (1, 2)]
        for i, member in enumerate(members):
            save_hardened(tmp_path / f"member_{i}.json", member)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "format_version": 1, "kind": "ensemble", "l": 2, "subsets": [None, None],
            "members": ["member_0.json", "member_1.json"]}))
        with pytest.raises(ValueError, match=r"manifest\.json: unsupported checkpoint version 1"):
            load_ensemble(manifest)


def dae_hardened(dim=12, view=6, latent=4, seed=30):
    """A hardened model on a feature subset with binarization and a DAE."""
    rng = np.random.default_rng(seed)
    subset = np.sort(rng.choice(dim, size=view, replace=False))
    dae = DenoisingAutoencoder.init(view, latent, seed=rng)
    head = MlpClassifier.init([latent, 5, 2], seed=rng)
    return HardenedClassifier(head, dae, subset, np.full(view, 0.5), dim)


def edit_array(stack, key, i, edit):
    """Decode array ``i`` of a stack record's ``key`` list, replace it with
    ``edit(array)`` and store that re-encoded."""
    stack[key][i] = nn._encode_array(edit(nn._decode_array(stack[key][i])))


def tampered(tmp_path, clf, edit):
    """Save ``clf``, apply ``edit`` to the JSON record, return the path."""
    path = tmp_path / "hardened.json"
    save_hardened(path, clf)
    record = json.loads(path.read_text())
    edit(record)
    path.write_text(json.dumps(record))
    return path


class TestInputWidth:
    def test_subset_model_rejects_wrong_width(self):
        ds, policy = small_task(dim=40)
        cfg = DefenseConfig(inner_steps=1, epochs=1, batch_size=16, lr=0.01,
                            hidden=(6,), subspace_ratio=0.5, seed=31)
        clf, _ = train_hardened(ds, policy, cfg)
        assert clf.input_dim == 40 and len(clf.subset) == 20
        clf.predict(ds.X[0])
        for method in (clf.predict, clf.predict_proba, clf.logits):
            with pytest.raises(ValueError, match="input dimension 300 != model dimension 40"):
                method(np.zeros(300))
        with pytest.raises(ValueError, match="input dimension"):
            clf.input_gradients(np.zeros((2, 39)), [0, 1])

    def test_dae_model_rejects_wrong_width(self):
        clf = HardenedClassifier(MlpClassifier.init([4, 2], seed=1),
                                 DenoisingAutoencoder.init(7, 4, seed=2))
        assert clf.input_dim == 7
        with pytest.raises(ValueError, match="input dimension 8 != model dimension 7"):
            clf.predict(np.zeros(8))

    def test_ensemble_rejects_wrong_width(self):
        ens = EnsembleClassifier([dae_hardened(seed=s) for s in (1, 2)])
        ens.predict(np.zeros(12))
        with pytest.raises(ValueError, match="input dimension"):
            ens.predict(np.zeros(13))

    def test_subset_needs_input_dim(self):
        with pytest.raises(ValueError, match="input_dim"):
            HardenedClassifier(MlpClassifier.init([2, 2], seed=1), subset=np.array([0, 3]))

    @pytest.mark.parametrize("subset, message", [
        ([0, 0, 500], "sorted, unique"),
        ([0, 1, 12], "within"),
        ([-1, 0, 1], "within"),
        ([2, 1, 0], "sorted, unique"),
        ([0, 1], "2 input features for a view of width 3"),
    ])
    def test_bad_subset_rejected(self, subset, message):
        head = MlpClassifier.init([3, 2], seed=1)
        with pytest.raises(ValueError, match=message):
            HardenedClassifier(head, subset=np.array(subset), input_dim=12)


class TestNonFiniteInput:
    """NaN or inf anywhere in the full-width input is rejected, also in a
    feature the model's subset leaves out."""

    def test_hardened_rejects(self):
        clf = dae_hardened()
        X = np.zeros((3, 12))
        X[1, np.setdiff1d(np.arange(12), clf.subset)[0]] = np.nan
        for call in (clf.predict, clf.predict_proba, clf.logits,
                     lambda X: clf.loss(X, [0, 1, 0]),
                     lambda X: clf.input_gradients(X, [0, 1, 0]),
                     lambda X: clf.logit_cot_input_gradients(X, np.ones((3, 2)))):
            with pytest.raises(ValueError, match="non-finite input"):
                call(X)
        X[1] = np.inf
        with pytest.raises(ValueError, match="non-finite input"):
            clf.predict(X[1])

    def test_ensemble_rejects(self):
        ens = EnsembleClassifier([dae_hardened(seed=s) for s in (1, 2)])
        X = np.zeros((3, 12))
        X[2, 7] = np.nan
        assert all(7 not in m.subset for m in ens.members)
        for call in (ens.predict, lambda X: ens.input_gradients(X, [0, 1, 0]),
                     lambda X: ens.logit_cot_input_gradients(X, np.ones((3, 2)))):
            with pytest.raises(ValueError, match="non-finite input"):
                call(X)

    @pytest.mark.parametrize("inner_steps", [0, 1])
    def test_inner_maximize_rejects_a_nan_batch(self, inner_steps):
        # with inner_steps=0 no gradient call sees the batch
        X = np.zeros((3, 6))
        X[1, 2] = np.nan
        cfg = DefenseConfig(inner_steps=inner_steps, restarts=0)
        with pytest.raises(ValueError, match="non-finite input"):
            inner_maximize(MlpClassifier.init([6, 4, 2], seed=0), X, [0, 1, 0],
                           ManipulationPolicy.additions_only(6), cfg)

    @pytest.mark.parametrize("inner_steps", [0, 1])
    def test_train_hardened_rejects_a_nan_training_set(self, inner_steps):
        # with inner_steps=0 no model call sees the raw batch
        X = np.zeros((4, 6))
        X[2, 3] = np.nan
        cfg = DefenseConfig(inner_steps=inner_steps, epochs=1, batch_size=4, hidden=(4,))
        with pytest.raises(ValueError, match="non-finite input"):
            train_hardened(Dataset(X, [0, 1, 0, 1], 2), ManipulationPolicy.additions_only(6), cfg)


class TestCheckpointChecks:
    def test_input_dim_round_trip(self, tmp_path):
        clf = dae_hardened()
        path = tampered(tmp_path, clf, lambda r: None)
        back = load_hardened(path)
        assert back.input_dim == 12
        X = (np.random.default_rng(0).random((5, 12)) < 0.5).astype(float)
        assert np.array_equal(back.predict_proba(X), clf.predict_proba(X))
        with pytest.raises(ValueError, match="input dimension"):
            back.predict(np.zeros(6))

    @pytest.mark.parametrize("edit, message", [
        (lambda r: r.update(subset=[0, 0, 500, 1, 2, 3]), "sorted, unique"),
        (lambda r: r.update(subset=[0, 1, 2, 3, 4, 12]), "within"),
        (lambda r: r.update(subset=[0, 1, 2]), "3 input features"),
        (lambda r: r.update(input_dim=None), "input_dim"),
        (lambda r: r.update(input_dim=4), "within"),
        (lambda r: r.update(thresholds=[0.5] * 5), "5 thresholds"),
        (lambda r: r.update(thresholds=[0.5] * 5 + [float("nan")]), "non-finite thresholds"),
        (lambda r: r.update(thresholds=[float("-inf")] + [0.5] * 5), "non-finite thresholds"),
        (lambda r: r["encoder"].update(layer_sizes=[999, 999]), "layer_sizes disagree"),
        (lambda r: r["decoder"].update(layer_sizes=[4, 7]), "layer_sizes disagree"),
        (lambda r: edit_array(r["encoder"], "biases", 0, lambda b: np.append(b, 0.0)),
         "inconsistent layer shapes"),
        (lambda r: edit_array(r["encoder"], "weights", 0,
                              lambda W: W.__setitem__((0, 0), np.nan) or W),
         "non-finite"),
        (lambda r: r["head"].update(weights=[nn._encode_array(np.zeros((3, 5)))]
                                    + r["head"]["weights"][1:], layer_sizes=[3, 5, 2]),
         "encoder output width differs from the head input width"),
    ])
    def test_tampered_checkpoint_rejected(self, tmp_path, edit, message):
        with pytest.raises(ValueError, match=message):
            load_hardened(tampered(tmp_path, dae_hardened(), edit))

    def test_hardened_model_checks_its_thresholds(self):
        with pytest.raises(ValueError, match="non-finite thresholds"):
            HardenedClassifier(MlpClassifier.init([4, 2]),
                               thresholds=np.array([0.5, np.nan, 0.5, 0.5]))

    @pytest.mark.parametrize("kind", ["mlp", "hardened", "ensemble"])
    def test_save_refuses_what_load_rejects(self, tmp_path, kind):
        """A model whose parameters went non-finite after construction (a
        diverged training, say) raises on save and leaves no file."""
        clf = dae_hardened()
        model, save, stack = {
            "mlp": (clf.mlp, nn.save_model, clf.mlp),
            "hardened": (clf, save_hardened, clf.dae.encoder),
            "ensemble": (EnsembleClassifier([dae_hardened(seed=1), clf]), save_ensemble, clf.mlp),
        }[kind]
        stack.biases[0][0] = np.nan
        with pytest.raises(ValueError, match="non-finite parameters"):
            save(tmp_path / "model.json", model)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("edit, message", [
        (lambda clf: clf.thresholds.__setitem__(1, np.nan), "non-finite thresholds"),
        (lambda clf: clf.subset.__setitem__(0, 99), "within"),
    ])
    @pytest.mark.parametrize("save", [save_hardened, lambda path, clf: save_ensemble(
        path, EnsembleClassifier([dae_hardened(seed=1), clf]))])
    def test_save_refuses_a_view_that_load_rejects(self, tmp_path, edit, message, save):
        clf = dae_hardened()
        edit(clf)
        with pytest.raises(ValueError, match=message):
            save(tmp_path / "model.json", clf)
        assert list(tmp_path.iterdir()) == []

    def test_save_refuses_an_unknown_activation(self, tmp_path):
        model = MlpClassifier.init([3, 2], seed=1)
        model.activation = "tanh"  # set past the constructor's check
        with pytest.raises(ValueError, match="unknown activation 'tanh'"):
            nn.save_model(tmp_path / "model.json", model)
        assert list(tmp_path.iterdir()) == []

    def test_dense_stack_checks_its_parameters(self):
        with pytest.raises(ValueError, match="inconsistent layer shapes"):
            DenseStack([np.zeros((3, 4)), np.zeros((5, 2))], [np.zeros(4), np.zeros(2)])
        with pytest.raises(ValueError, match="inconsistent layer shapes"):
            DenseStack([np.zeros((3, 4))], [np.zeros(3)])
        with pytest.raises(ValueError, match="non-finite"):
            DenseStack([np.full((3, 4), np.inf)], [np.zeros(4)])

    @pytest.mark.parametrize("edit, key", [
        (lambda r: r.pop("subset"), "missing key 'subset'"),
        (lambda r: r.pop("thresholds"), "missing key 'thresholds'"),
        (lambda r: r.pop("input_dim"), "missing key 'input_dim'"),
        (lambda r: r.pop("head"), "missing key 'head'"),
        (lambda r: r.pop("decoder"), "missing key 'decoder'"),
        (lambda r: r["encoder"].pop("biases"), "malformed key 'encoder': missing key 'biases'"),
        (lambda r: r["head"].pop("activation"), "malformed key 'head': missing key 'activation'"),
        (lambda r: r["head"].pop("layer_sizes"), "malformed key 'head': missing key 'layer_sizes'"),
        (lambda r: r.update(subset="abc"), "malformed key 'subset'"),
        (lambda r: r.update(subset=[0.5, 1, 2, 3, 4, 5]), "malformed key 'subset'"),
        (lambda r: r.update(input_dim="12"), "malformed key 'input_dim'"),
        (lambda r: r.update(head=[1, 2]), "malformed key 'head': expected a JSON object"),
        (lambda r: r["head"].update(weights=[[[0.0, 1.0], [2.0]]]), "malformed key 'head'"),
        (lambda r: r["head"].update(weights=[nn._encode_array(np.array(1.0))]),
         "malformed key 'head': inconsistent"),
        (lambda r: r.update(decoder=None), "needs both 'encoder' and 'decoder'"),
        (lambda r: r["encoder"].update(activate_last="no"),
         "malformed key 'encoder': malformed key 'activate_last': expected bool, got str"),
        (lambda r: r["head"].update(activation=5), "malformed key 'activation'"),
    ])
    def test_missing_or_malformed_key_names_key_and_file(self, tmp_path, edit, key):
        with pytest.raises(ValueError, match=r"hardened\.json: .*" + key):
            load_hardened(tampered(tmp_path, dae_hardened(), edit))

    @pytest.mark.parametrize("text, message", [
        ("[1, 2]", "expected a JSON object, got list"),
        ('{"kind": "hardened"}', "missing key 'format_version'"),
        (json.dumps({"format_version": nn.CHECKPOINT_VERSION}), "missing key 'kind'"),
        ("{", "Expecting"),
    ])
    def test_malformed_file_names_file(self, tmp_path, text, message):
        path = tmp_path / "hardened.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=r"hardened\.json: " + message):
            load_hardened(path)


class TestCheckpointPayload:
    """Each weight and bias is stored as {"shape", "data"}, ``data`` the
    base64 of its little-endian float64 bytes; a fault in either names the
    key and the file."""

    def test_record_layout(self, tmp_path):
        clf = dae_hardened()
        record = json.loads(tampered(tmp_path, clf, lambda r: None).read_text())
        assert record["format_version"] == nn.CHECKPOINT_VERSION == 2
        W = record["encoder"]["weights"][0]
        assert sorted(W) == ["data", "shape"] and W["shape"] == [6, 4]
        assert base64.b64decode(W["data"]) == clf.dae.encoder.weights[0].astype("<f8").tobytes()
        assert record["subset"] == clf.subset.tolist()
        assert record["thresholds"] == [0.5] * 6 and record["input_dim"] == 12

    @pytest.mark.parametrize("edit, message", [
        (lambda W: W.update(data="*" + W["data"][1:]), "malformed key 'data': "),
        (lambda W: W.update(data=W["data"] + "\n"), "malformed key 'data': "),
        (lambda W: W.update(data="\u00e9" + W["data"][1:]), "malformed key 'data': "),
        (lambda W: W.update(data=5), "malformed key 'data': "),
        (lambda W: W.update(data=W["data"][:-4]), r"189 bytes of data for shape \[6, 4\]"),
        (lambda W: W.update(shape=[6, 3]), r"192 bytes of data for shape \[6, 3\]"),
        (lambda W: W.update(shape=[10**12, 10**12]), "192 bytes of data for shape"),
        (lambda W: W.update(shape=[6, -4]), "malformed key 'shape': .*non-negative ints"),
        (lambda W: W.update(shape=[6, 4.0]), "malformed key 'shape': .*non-negative ints"),
        (lambda W: W.update(shape=[6, True]), "malformed key 'shape': .*non-negative ints"),
        (lambda W: W.update(shape="6, 4"), "malformed key 'shape': .*non-negative ints"),
        (lambda W: W.pop("data"), "missing key 'data'"),
        (lambda W: W.pop("shape"), "missing key 'shape'"),
        (lambda W: W.update(nn._encode_array(np.full((6, 4), np.nan))), "non-finite parameters"),
    ])
    def test_tampered_payload_names_key_and_file(self, tmp_path, edit, message):
        path = tampered(tmp_path, dae_hardened(), lambda r: edit(r["encoder"]["weights"][0]))
        with pytest.raises(ValueError, match=r"hardened\.json: malformed key 'encoder': "
                                             ".*" + message):
            load_hardened(path)

    def test_loaded_arrays_are_writable(self, tmp_path):
        members = [dae_hardened(seed=s) for s in (1, 2)]
        save_ensemble(tmp_path / "ens.json", EnsembleClassifier(members))
        for m in load_ensemble(tmp_path / "ens.json").members:
            for stack in (m.mlp, m.dae.encoder, m.dae.decoder):
                for a in stack.weights + stack.biases:
                    assert a.flags.writeable and a.dtype == np.float64
                    a[...] = 0.0


class TestEnsembleChecks:
    def test_one_file_holds_each_member_record(self, tmp_path):
        members = [dae_hardened(seed=s) for s in (1, 2)]
        save_ensemble(tmp_path / "ens.json", EnsembleClassifier(members))
        save_hardened(tmp_path / "member.json", members[1])
        record = json.loads((tmp_path / "ens.json").read_text())
        single = json.loads((tmp_path / "member.json").read_text())
        assert sorted(record) == ["format_version", "kind", "members"]
        assert record["kind"] == "ensemble"
        del single["format_version"], single["kind"]
        assert record["members"][1] == single

    def test_empty_ensemble_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="at least one member"):
            EnsembleClassifier([])
        path = tmp_path / "ens.json"
        save_ensemble(path, EnsembleClassifier([dae_hardened()]))
        record = json.loads(path.read_text())
        record["members"] = []
        path.write_text(json.dumps(record))
        with pytest.raises(ValueError, match=r"ens\.json: .*at least one member"):
            load_ensemble(path)

    @pytest.mark.parametrize("other", [
        dae_hardened(dim=13),
        HardenedClassifier(MlpClassifier.init([12, 3], seed=1)),
    ])
    def test_members_must_agree_on_width_and_classes(self, other):
        with pytest.raises(ValueError, match="members disagree"):
            EnsembleClassifier([dae_hardened(), other])

    def test_members_key_must_be_a_list_of_records(self, tmp_path):
        path = tmp_path / "ens.json"
        path.write_text(json.dumps({"format_version": nn.CHECKPOINT_VERSION, "kind": "ensemble",
                                    "members": 3}))
        with pytest.raises(ValueError, match=r"ens\.json: malformed key 'members'"):
            load_ensemble(path)


class TestOneForwardPerGradient:
    """An ensemble gradient runs each member's dense stacks exactly once:
    the vote and the pullback share the member forwards."""

    @pytest.mark.parametrize("use_dae, stacks", [(False, 1), (True, 2)])
    @pytest.mark.parametrize("method", ["input_gradients", "logit_cot_input_gradients"])
    def test_stack_forward_count(self, monkeypatch, use_dae, stacks, method):
        rng = np.random.default_rng(40)
        members = [dae_hardened(seed=s) if use_dae else
                   HardenedClassifier(MlpClassifier.init([6, 5, 2], seed=s), None,
                                      np.arange(0, 12, 2), None, 12) for s in (1, 2, 3)]
        ens = EnsembleClassifier(members)
        X = rng.random((4, 12))
        arg = [0, 1, 1, 0] if method == "input_gradients" else rng.normal(size=(4, 2))
        calls = []
        original = nn._stack_forward
        monkeypatch.setattr(nn, "_stack_forward",
                            lambda *a: calls.append(1) or original(*a))
        getattr(ens, method)(X, arg)
        assert len(calls) == 3 * stacks


def three_kinds():
    """An MLP, a hardened model with a subset, binarization and a DAE, and
    a 3-member ensemble of such models, all 12 features wide."""
    return {"mlp": MlpClassifier.init([12, 5, 2], seed=1),
            "hardened": dae_hardened(),
            "ensemble": EnsembleClassifier([dae_hardened(seed=s) for s in (1, 2, 3)])}


PUBLIC_CALLS = {
    "predict": lambda model, X: model.predict(X),
    "loss": lambda model, X: model.loss(X, [0, 1, 1]),
    "input_gradients": lambda model, X: model.input_gradients(X, [0, 1, 1]),
    "logit_cot_input_gradients":
        lambda model, X: model.logit_cot_input_gradients(X, np.ones((3, 2))),
}


class TestOneCheckPerCall:
    """Each public call checks its input once, at its entry; the layers
    below it (view, DAE encoder, head, ensemble members) do not re-check."""

    @pytest.mark.parametrize("kind", ["mlp", "hardened", "ensemble"])
    @pytest.mark.parametrize("call", sorted(PUBLIC_CALLS))
    def test_check_input_runs_once(self, monkeypatch, kind, call):
        model = three_kinds()[kind]
        X = (np.random.default_rng(41).random((3, 12)) < 0.5).astype(float)
        calls = []
        original = nn._check_input

        def counted(*args):
            calls.append(1)
            return original(*args)
        monkeypatch.setattr(nn, "_check_input", counted)
        monkeypatch.setattr(defenses, "_check_input", counted)
        PUBLIC_CALLS[call](model, X)
        assert len(calls) == 1


class TestBadLabels:
    """A label outside [0, class_count) or a label count that differs from
    the row count is a ValueError, not a silent wrong answer."""

    @pytest.mark.parametrize("kind", ["mlp", "hardened", "ensemble"])
    @pytest.mark.parametrize("X, y, message", [
        (np.zeros(12), -1, r"label out of range \[0, 2\)"),
        (np.zeros((3, 12)), [0, -1, 1], r"label out of range \[0, 2\)"),
        (np.zeros(12), 5, r"label out of range \[0, 2\)"),
        (np.zeros((3, 12)), [0, 2, 1], r"label out of range \[0, 2\)"),
        (np.zeros((3, 12)), [1], "1 labels for 3 input rows"),
        (np.zeros((3, 12)), [1, 0, 1, 0], "4 labels for 3 input rows"),
        (np.zeros(12), [0, 1], "2 labels for 1 input rows"),
        (np.zeros(12), 1.7, "labels must be integers, got float64"),
        (np.zeros(12), np.float64(1.0), "labels must be integers, got float64"),
        (np.zeros(12), True, "labels must be integers, got bool"),
        (np.zeros((3, 12)), [0, 1.0, 1], "labels must be integers, got float64"),
        (np.zeros((3, 12)), [False, True, True], "labels must be integers, got bool"),
    ])
    @pytest.mark.parametrize("method", ["input_gradients", "loss"])
    def test_rejected(self, kind, X, y, message, method):
        model = three_kinds()[kind]
        with pytest.raises(ValueError, match=message):
            getattr(model, method)(X, y)

    @pytest.mark.parametrize("kind", ["mlp", "hardened", "ensemble"])
    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint8, np.uint64])
    def test_numpy_integer_labels_accepted(self, kind, dtype):
        model = three_kinds()[kind]
        X = np.random.default_rng(42).random((3, 12))
        y = np.array([0, 1, 1], dtype=dtype)
        assert np.array_equal(model.input_gradients(X, y), model.input_gradients(X, [0, 1, 1]))
        assert np.array_equal(model.loss(X, y), model.loss(X, [0, 1, 1]))


class TestBadCotangent:
    """logit_cot_input_gradients takes one cotangent row per input row, as
    wide as the model's classes; anything else is a ValueError."""

    @pytest.mark.parametrize("kind", ["mlp", "hardened", "ensemble"])
    @pytest.mark.parametrize("X, cot, shape", [
        (np.zeros((3, 12)), np.ones((1, 2)), r"\(1, 2\) for 3 input rows and 2 classes"),
        (np.zeros((3, 12)), np.ones(2), r"\(1, 2\) for 3 input rows"),
        (np.zeros((3, 12)), np.ones((3, 3)), r"\(3, 3\) for 3 input rows and 2 classes"),
        (np.zeros((2, 12)), np.ones((3, 2)), r"\(3, 2\) for 2 input rows"),
        (np.zeros(12), np.ones(3), r"\(1, 3\) for 1 input rows and 2 classes"),
        (np.zeros(12), np.ones((1, 1, 2)), r"\(1, 1, 2\) for 1 input rows"),
    ])
    def test_rejected(self, kind, X, cot, shape):
        with pytest.raises(ValueError, match="cotangent of shape " + shape):
            three_kinds()[kind].logit_cot_input_gradients(X, cot)

    @pytest.mark.parametrize("kind", ["mlp", "hardened", "ensemble"])
    def test_one_point_takes_a_1d_cotangent(self, kind):
        model = three_kinds()[kind]
        x = np.random.default_rng(43).random(12)
        cot = np.array([0.3, -1.2])
        g = model.logit_cot_input_gradients(x, cot)
        assert g.shape == (12,)
        assert np.array_equal(g, model.logit_cot_input_gradients(x[None, :], cot[None, :])[0])


class TestDaeLatentDim:
    def test_latent_dim_is_the_encoder_width(self):
        enc = DenseStack.init([9, 4], seed=1, activate_last=True)
        dec = DenseStack.init([4, 9], seed=2)
        assert DenoisingAutoencoder(enc, dec).latent_dim == 4
        assert DenoisingAutoencoder.init(9, 3, seed=1).latent_dim == 3
