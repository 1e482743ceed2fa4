import json
import math

import numpy as np
import pytest

from malrobust import data, nn
from malrobust.nn import (MAXIMIZE, MINIMIZE, AdamState, DenseStack, MlpClassifier,
                          adam_step, backward, cross_entropy, forward, logits,
                          softmax, train_supervised)


def zero_model(sizes, activation="relu"):
    weights = [np.zeros((a, b)) for a, b in zip(sizes[:-1], sizes[1:])]
    biases = [np.zeros(b) for b in sizes[1:]]
    return MlpClassifier(weights, biases, activation)


def oracle_forward(model, x):
    # straight-line re-implementation: explicit per-neuron loops
    a = list(x)
    n_layers = len(model.weights)
    for li in range(n_layers):
        W, b = model.weights[li], model.biases[li]
        z = []
        for j in range(W.shape[1]):
            s = b[j]
            for i in range(W.shape[0]):
                s += a[i] * W[i, j]
            z.append(s)
        if li < n_layers - 1:
            if model.activation == "relu":
                a = [max(v, 0.0) for v in z]
            else:
                a = [v if v > 0 else math.exp(v) - 1.0 for v in z]
        else:
            a = z
    m = max(a)
    e = [math.exp(v - m) for v in a]
    s = sum(e)
    return np.array([v / s for v in e])


class TestForward:
    def test_zero_weights_uniform(self):
        model = zero_model([4, 5, 3])
        p = forward(model, np.array([0.3, -1.0, 2.0, 0.0]))
        assert np.allclose(p, [1 / 3] * 3)

    def test_identity_two_by_two(self):
        model = MlpClassifier([np.eye(2)], [np.zeros(2)])
        assert np.allclose(forward(model, np.zeros(2)), [0.5, 0.5])

    @pytest.mark.parametrize("activation", ["relu", "elu"])
    def test_matches_straight_line_oracle(self, rng, activation):
        for _ in range(20):
            sizes = [int(rng.integers(2, 6)) for _ in range(int(rng.integers(2, 5)))]
            sizes[-1] = max(sizes[-1], 2)
            model = MlpClassifier.init(sizes, activation, seed=int(rng.integers(1e9)))
            x = rng.normal(size=sizes[0])
            assert np.allclose(forward(model, x), oracle_forward(model, x), atol=1e-12)

    def test_normalization(self, rng):
        model = MlpClassifier.init([6, 8, 4], seed=3)
        for _ in range(200):
            p = forward(model, rng.normal(size=6) * 10)
            assert abs(p.sum() - 1.0) < 1e-9
            assert np.all(p >= 0) and np.all(p <= 1)

    def test_dimension_mismatch(self):
        model = MlpClassifier.init([4, 3, 2], seed=0)
        with pytest.raises(ValueError):
            forward(model, np.zeros(5))


class TestLogits:
    def test_zero_weights_zero_logits(self):
        model = zero_model([3, 2])
        assert np.allclose(logits(model, np.ones(3)), [0.0, 0.0])

    def test_closed_form_softmax(self):
        model = MlpClassifier([np.zeros((2, 2))], [np.array([2.0, 0.0])])
        p = forward(model, np.zeros(2))
        e2 = math.exp(2.0)
        assert np.allclose(p, [e2 / (e2 + 1), 1 / (e2 + 1)])

    def test_consistency_with_forward(self, rng):
        model = MlpClassifier.init([5, 7, 3], "elu", seed=9)
        for _ in range(50):
            x = rng.normal(size=5)
            assert np.allclose(softmax(logits(model, x)), forward(model, x), atol=1e-9)


class TestCrossEntropy:
    def test_perfect_confidence(self):
        assert cross_entropy(np.array([1.0, 0.0]), 0) == 0.0

    def test_half_half(self):
        assert abs(cross_entropy(np.array([0.5, 0.5]), 1) - math.log(2)) < 1e-12

    def test_direct_formula(self, rng):
        for _ in range(50):
            p = rng.random(4)
            p /= p.sum()
            y = int(rng.integers(4))
            assert abs(cross_entropy(p, y) + math.log(p[y])) < 1e-12

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            cross_entropy(np.array([0.5, 0.5]), 2)
        with pytest.raises(ValueError, match="1 labels for 3 input rows"):
            cross_entropy(np.full((3, 2), 0.5), [1])

    def test_batched(self, rng):
        P = rng.random((6, 3))
        P /= P.sum(axis=1, keepdims=True)
        y = rng.integers(3, size=6)
        out = cross_entropy(P, y)
        assert out.shape == (6,)
        assert np.allclose(out, [cross_entropy(P[i], int(y[i])) for i in range(6)])


class TestBackward:
    @pytest.mark.parametrize("y", [-1, 2, [0, 1]])
    def test_bad_label_rejected(self, y):
        with pytest.raises(ValueError, match="label"):
            backward(MlpClassifier.init([3, 4, 2], seed=1), np.zeros(3), y)

    def test_saturated_minimum_has_tiny_input_grad(self):
        # huge margin toward the true class: p_y ~ 1, gradient ~ 0
        W = np.array([[30.0, -30.0]])
        model = MlpClassifier([W], [np.zeros(2)])
        gb = backward(model, np.array([1.0]), 0)
        assert np.max(np.abs(gb.input_grad)) <= 1e-6

    def test_single_layer_closed_form(self, rng):
        W = rng.normal(size=(5, 3))
        b = rng.normal(size=3)
        model = MlpClassifier([W], [b])
        x = rng.normal(size=5)
        y = 2
        p = forward(model, x)
        onehot = np.zeros(3)
        onehot[y] = 1.0
        expected = W @ (p - onehot)
        gb = backward(model, x, y)
        assert np.allclose(gb.input_grad, expected, atol=1e-12)

    @pytest.mark.parametrize("activation", ["relu", "elu"])
    def test_finite_differences(self, rng, activation):
        h = 1e-4
        for _ in range(10):
            sizes = [4, 6, 5, 3]
            model = MlpClassifier.init(sizes, activation, seed=int(rng.integers(1e9)))
            x = rng.normal(size=4)
            y = int(rng.integers(3))
            gb = backward(model, x, y)

            def loss_of(model_, x_):
                return cross_entropy(forward(model_, x_), y)

            for j in range(4):
                xp, xm = x.copy(), x.copy()
                xp[j] += h
                xm[j] -= h
                fd = (loss_of(model, xp) - loss_of(model, xm)) / (2 * h)
                an = gb.input_grad[j]
                assert abs(fd - an) <= 1e-4 * max(abs(fd), abs(an), 1e-6)
            for li in range(len(sizes) - 1):
                W = model.weights[li]
                for _ in range(4):
                    i1 = int(rng.integers(W.shape[0]))
                    j1 = int(rng.integers(W.shape[1]))
                    Wp = [w.copy() for w in model.weights]
                    Wm = [w.copy() for w in model.weights]
                    Wp[li][i1, j1] += h
                    Wm[li][i1, j1] -= h
                    bs = [bb.copy() for bb in model.biases]
                    fd = (loss_of(MlpClassifier(Wp, bs, activation), x)
                          - loss_of(MlpClassifier(Wm, bs, activation), x)) / (2 * h)
                    an = gb.weight_grads[li][i1, j1]
                    assert abs(fd - an) <= 1e-4 * max(abs(fd), abs(an), 1e-6)


class TestAdam:
    def test_first_step_is_signed_step(self):
        for g in (3.7, -0.002, 1e4):
            state = AdamState.zeros((1,), learning_rate=0.01)
            w = adam_step(state, np.array([1.0]), np.array([g]), MINIMIZE)
            assert abs((1.0 - w[0]) - 0.01 * np.sign(g)) < 1e-4

    def test_zero_gradient_no_move(self):
        state = AdamState.zeros((3,), learning_rate=0.5)
        w = np.array([1.0, -2.0, 0.5])
        w2 = adam_step(state, w, np.zeros(3))
        assert np.array_equal(w, w2)

    def test_maximize_negates(self):
        s1 = AdamState.zeros((1,), learning_rate=0.1)
        s2 = AdamState.zeros((1,), learning_rate=0.1)
        up = adam_step(s1, np.array([0.0]), np.array([2.0]), MAXIMIZE)
        down = adam_step(s2, np.array([0.0]), np.array([2.0]), MINIMIZE)
        assert up[0] > 0 > down[0]
        assert abs(up[0] + down[0]) < 1e-15

    def test_three_steps_on_square_match_hand_simulation(self):
        # f(w) = w^2, grad 2w, lr 0.1; replay the textbook update by hand
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        w_hand, m, v = 1.0, 0.0, 0.0
        trace_hand = []
        for t in range(1, 4):
            g = 2 * w_hand
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mh = m / (1 - b1 ** t)
            vh = v / (1 - b2 ** t)
            w_hand = w_hand - lr * mh / (math.sqrt(vh) + eps)
            trace_hand.append(w_hand)

        state = AdamState.zeros((1,), learning_rate=lr)
        w = np.array([1.0])
        prev = 1.0
        for t in range(3):
            w = adam_step(state, w, 2 * w, MINIMIZE)
            assert w[0] < prev  # strictly decreasing toward the minimum
            assert abs(w[0] - trace_hand[t]) < 1e-12
            prev = w[0]


class TestAdamStateChecks:
    """adam_step updates the moments in place, so a state owns float copies
    of them and rejects settings that would step silently wrong."""

    def test_moments_of_different_shapes_rejected(self):
        with pytest.raises(ValueError, match=r"moments of shapes \(3,\) and \(2,\)"):
            AdamState(np.zeros(3), np.zeros(2))

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), 0.0, -1.0, True, "0.1", None])
    def test_bad_learning_rate_rejected(self, lr):
        with pytest.raises(ValueError, match="learning_rate must be (positive|a real number)"):
            AdamState.zeros((2,), learning_rate=lr)

    @pytest.mark.parametrize("step", [-1, 1.0, True, "0"])
    def test_bad_step_rejected(self, step):
        with pytest.raises(ValueError, match="step must be (>= 0|an integer)"):
            AdamState(np.zeros(2), np.zeros(2), 0.1, step)

    def test_variables_of_another_shape_rejected(self):
        # a (1,) state once broadcast a (3,) step silently
        state = AdamState.zeros((1,), learning_rate=0.1)
        with pytest.raises(ValueError, match=r"variables of shape \(3,\) for Adam moments"):
            adam_step(state, np.zeros(3), np.ones(3))
        assert state.step == 0 and state.first_moment.tolist() == [0.0]

    def test_aliased_moments_step_like_zeros(self):
        z = np.zeros(3)
        shared, fresh = AdamState(z, z, 0.1), AdamState.zeros((3,), 0.1)
        assert shared.first_moment is not shared.second_moment
        w_shared = w_fresh = np.array([0.5, -1.0, 2.0])
        for g in ([1.0, -2.0, 0.0], [0.5, 3.0, -1.0], [-4.0, 0.0, 2.0]):
            w_shared = adam_step(shared, w_shared, np.array(g))
            w_fresh = adam_step(fresh, w_fresh, np.array(g))
            assert np.array_equal(w_shared, w_fresh)
        assert np.array_equal(shared.second_moment, fresh.second_moment)
        assert not z.any()  # the caller's array is not the state's

    def test_integer_moments_become_float_copies(self):
        m = np.zeros(2, dtype=int)
        state = AdamState(m, [0, 0], 1, np.int64(0))
        w = adam_step(state, np.zeros(2), np.array([0.25, -0.5]))
        assert state.first_moment.dtype == float and not m.any()
        assert np.allclose(w, [-1.0, 1.0])


def separable_dataset(n=60, seed=0):
    rng = np.random.default_rng(seed)
    X0 = rng.normal(loc=(-1.5, -1.5), scale=0.3, size=(n // 2, 2))
    X1 = rng.normal(loc=(1.5, 1.5), scale=0.3, size=(n // 2, 2))
    X = np.vstack([X0, X1])
    y = np.array([0] * (n // 2) + [1] * (n // 2))
    return data.Dataset(X, y, 2)


class TestTrainSupervised:
    def test_zero_epochs_unchanged(self):
        model = MlpClassifier.init([2, 4, 2], seed=1)
        before = [W.copy() for W in model.weights]
        train_supervised(model, separable_dataset(), epochs=0)
        assert all(np.array_equal(a, b) for a, b in zip(before, model.weights))

    def test_separable_reaches_high_accuracy(self):
        ds = separable_dataset(80, seed=4)
        model = MlpClassifier.init([2, 8, 2], seed=2)
        model, trace = train_supervised(model, ds, epochs=50, batch_size=16,
                                        lr=0.01, seed=3)
        acc = np.mean(model.predict(ds.X) == ds.y)
        assert acc >= 0.99
        assert trace[-1] <= trace[0]

    def test_seeded_determinism(self):
        ds = separable_dataset(40, seed=5)
        runs = []
        for _ in range(2):
            model = MlpClassifier.init([2, 6, 2], seed=11)
            model, trace = train_supervised(model, ds, epochs=5, batch_size=8,
                                            lr=0.01, seed=13)
            runs.append((model, trace))
        assert runs[0][1] == runs[1][1]
        for W1, W2 in zip(runs[0][0].weights, runs[1][0].weights):
            assert np.array_equal(W1, W2)

    def test_empty_dataset_rejected(self):
        model = MlpClassifier.init([2, 2], seed=0)
        with pytest.raises(ValueError):
            train_supervised(model, data.Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 2), 1)

    def test_nan_training_set_rejected(self):
        ds = separable_dataset(8)
        ds.X[5, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite input"):
            train_supervised(MlpClassifier.init([2, 4, 2], seed=1), ds, epochs=1)

    def test_width_mismatch_names_the_input_dimension(self):
        with pytest.raises(ValueError, match="input dimension 2 != model dimension 3"):
            train_supervised(MlpClassifier.init([3, 4, 2], seed=1), separable_dataset(8), 1)

    def test_label_outside_the_model_rejected(self):
        ds = data.Dataset(np.zeros((3, 2)), [0, 2, 1], 3)
        with pytest.raises(ValueError, match=r"label out of range \[0, 2\)"):
            train_supervised(MlpClassifier.init([2, 4, 2], seed=1), ds, epochs=1)


class TestCheckpoint:
    def test_round_trip(self, tmp_path, rng):
        model = MlpClassifier.init([5, 7, 3], "elu", seed=21)
        path = tmp_path / "model.json"
        nn.save_model(path, model)
        loaded = nn.load_model(path)
        assert loaded.activation == "elu"
        assert loaded.layer_sizes == model.layer_sizes
        for W1, W2 in zip(model.weights, loaded.weights):
            assert np.array_equal(W1, W2)
        x = rng.normal(size=5)
        assert np.array_equal(forward(model, x), forward(loaded, x))

    def test_version_check(self, tmp_path):
        model = MlpClassifier.init([2, 2], seed=0)
        path = tmp_path / "model.json"
        nn.save_model(path, model)
        text = path.read_text().replace(f'"format_version": {nn.CHECKPOINT_VERSION}',
                                        '"format_version": 99')
        path.write_text(text)
        with pytest.raises(ValueError, match="version"):
            nn.load_model(path)

    def test_version_1_file_rejected(self, tmp_path):
        # version 1 stored parameters as nested JSON lists; no reader is kept
        model = MlpClassifier.init([3, 2], seed=0)
        path = tmp_path / "model.json"
        path.write_text(json.dumps({
            "format_version": 1, "kind": "mlp", "activation": "relu", "layer_sizes": [3, 2],
            "weights": [W.tolist() for W in model.weights],
            "biases": [b.tolist() for b in model.biases]}))
        with pytest.raises(ValueError, match=r"model\.json: unsupported checkpoint version 1"):
            nn.load_model(path)

    def test_payload_fault_names_key_and_file(self, tmp_path):
        path = tmp_path / "model.json"
        nn.save_model(path, MlpClassifier.init([3, 2], seed=0))
        record = json.loads(path.read_text())
        record["biases"][0]["data"] = record["biases"][0]["data"][:-4]
        path.write_text(json.dumps(record))
        with pytest.raises(ValueError, match=r"model\.json: malformed key 'biases': "
                                             r"15 bytes of data for shape \[2\]"):
            nn.load_model(path)

    def test_missing_key_names_key_and_file(self, tmp_path):
        path = tmp_path / "model.json"
        nn.save_model(path, MlpClassifier.init([3, 2], seed=0))
        record = json.loads(path.read_text())
        del record["weights"]
        path.write_text(json.dumps(record))
        with pytest.raises(ValueError, match=r"model\.json: missing key 'weights'"):
            nn.load_model(path)

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "model.json"
        nn.save_model(path, MlpClassifier.init([3, 2], seed=0))
        before = path.read_bytes()

        def unserializable(*args, **kwargs):
            raise TypeError("not JSON serializable")
        monkeypatch.setattr(nn.json, "dumps", unserializable)  # fails inside the atomic write
        with pytest.raises(TypeError):
            nn.save_model(path, MlpClassifier.init([3, 2], seed=1))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]


class TestLayerChecks:
    @pytest.mark.parametrize("cls", [MlpClassifier, DenseStack])
    def test_unknown_activation_rejected(self, cls):
        with pytest.raises(ValueError, match="unknown activation 'tanh'"):
            cls.init([4, 3, 2], activation="tanh")

    @pytest.mark.parametrize("cls, sizes", [(MlpClassifier, [4, 0, 2]), (DenseStack, [4, 0]),
                                            (DenseStack, [0, 3])])
    def test_zero_width_layer_rejected(self, cls, sizes):
        with pytest.raises(ValueError, match="zero-width layer"):
            cls.init(sizes)

    def test_checkpoint_with_unknown_activation_fails_at_load(self, tmp_path):
        path = tmp_path / "model.json"
        nn.save_model(path, MlpClassifier.init([4, 3, 2], seed=0))
        path.write_text(path.read_text().replace('"activation": "relu"', '"activation": "tanh"'))
        with pytest.raises(ValueError, match=r"model\.json: unknown activation 'tanh'"):
            nn.load_model(path)

    def test_checkpoint_with_zero_width_layer_fails_at_load(self, tmp_path):
        path = tmp_path / "model.json"
        nn.save_model(path, MlpClassifier.init([3, 4, 2], seed=0))
        record = json.loads(path.read_text())
        record.update(layer_sizes=[3, 0, 2],
                      weights=[nn._encode_array(np.zeros(s)) for s in ((3, 0), (0, 2))],
                      biases=[nn._encode_array(np.zeros(s)) for s in (0, 2)])
        path.write_text(json.dumps(record))
        with pytest.raises(ValueError, match=r"model\.json: zero-width layer"):
            nn.load_model(path)
