"""The shared training code against the training loops it replaced.

The oracle below keeps, verbatim, the former ``AdamState``/``adam_step``
(with their beta and epsilon fields), the former ``train_supervised`` and
``train_hardened`` bodies, each with its own per-layer update loop and its
own subset-and-binarize view, the former ``_dae_param_grads`` with its
zero-filled accumulators, and the former ``_train_mlp`` that trained plain
defenses and the grey-box surrogate beside ``train_defense``; every case
compares the trained parameters and loss traces to it with exact equality.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from malrobust import defenses, evaluation, nn
from malrobust.data import Dataset, ManipulationPolicy, binarize, generate_synthetic, oversample
from malrobust.defenses import (DefenseConfig, DenoisingAutoencoder, HardenedClassifier,
                                _salt_pepper_batch, inner_maximize)
from malrobust.evaluation import SURROGATE_PROFILE, DefenseSpec
from malrobust.nn import MAXIMIZE, MINIMIZE, MlpClassifier, _batch_param_gradients, child_seed


# ---------------------------------------------------------------- oracle

@dataclass
class AdamState:
    """Adam moments for one variable array."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon_stab: float = 1e-8
    step: int = 0

    @classmethod
    def zeros(cls, shape, learning_rate=0.001, beta1=0.9, beta2=0.999,
              epsilon_stab=1e-8):
        return cls(np.zeros(shape), np.zeros(shape), learning_rate,
                   beta1, beta2, epsilon_stab)


def adam_step(state: AdamState, variables: np.ndarray, grads: np.ndarray,
              direction: str = MINIMIZE) -> np.ndarray:
    """One bias-corrected Adam update; MAXIMIZE negates the gradient.

    Mutates ``state`` and returns the updated variables.
    """
    g = np.asarray(grads, dtype=float)
    if g.shape != np.shape(variables):
        raise ValueError("gradient shape mismatch")
    if direction == MAXIMIZE:
        g = -g
    elif direction != MINIMIZE:
        raise ValueError(f"unknown direction {direction!r}")
    state.step += 1
    state.first_moment = state.beta1 * state.first_moment + (1 - state.beta1) * g
    state.second_moment = state.beta2 * state.second_moment + (1 - state.beta2) * g * g
    m_hat = state.first_moment / (1 - state.beta1 ** state.step)
    v_hat = state.second_moment / (1 - state.beta2 ** state.step)
    return variables - state.learning_rate * m_hat / (np.sqrt(v_hat) + state.epsilon_stab)



def train_supervised(model: MlpClassifier, dataset, epochs: int,
                     batch_size: int = 128, lr: float = 0.001, seed=0):
    """Mini-batch Adam training on the cross-entropy loss.

    Deterministic given the seed: the batch order is reshuffled each epoch
    from the seed stream and the last short batch is kept.  Returns
    (model, per-epoch mean loss trace); the model is updated in place.
    """
    X = np.asarray(dataset.X, dtype=float)
    y = np.asarray(dataset.y, dtype=int)
    if len(X) == 0:
        raise ValueError("empty dataset")
    rng = np.random.default_rng(seed)
    w_states = [AdamState.zeros(W.shape, lr) for W in model.weights]
    b_states = [AdamState.zeros(b.shape, lr) for b in model.biases]
    trace = []
    for _ in range(epochs):
        perm = rng.permutation(len(X))
        losses = []
        for start in range(0, len(X), batch_size):
            sel = perm[start:start + batch_size]
            wg, bg, loss = _batch_param_gradients(model, X[sel], y[sel])
            for i in range(len(model.weights)):
                model.weights[i] = adam_step(w_states[i], model.weights[i], wg[i])
                model.biases[i] = adam_step(b_states[i], model.biases[i], bg[i])
            losses.append(loss)
        trace.append(float(np.mean(losses)))
    return model, trace


def _dae_param_grads(ae, X_clean, inputs):
    """Mean gradients of the summed reconstruction losses for a batch, and
    that loss: the reconstruction error of each input (the noisy and the
    adversarial batch) against the clean batch, as a mean squared error
    over rows and features."""
    n, d = X_clean.shape
    enc_wg = [np.zeros_like(W) for W in ae.encoder.weights]
    enc_bg = [np.zeros_like(b) for b in ae.encoder.biases]
    dec_wg = [np.zeros_like(W) for W in ae.decoder.weights]
    dec_bg = [np.zeros_like(b) for b in ae.decoder.biases]
    loss = 0.0
    for X_in in inputs:
        H, enc_zs = ae.encoder.forward_cached(X_in)
        R, dec_zs = ae.decoder.forward_cached(H)
        diff = R - X_clean
        loss += float(np.mean(diff * diff))
        cot = 2.0 * diff / (n * d)
        dwg, dbg, h_cot = ae.decoder.backward(H, dec_zs, cot)
        ewg, ebg, _ = ae.encoder.backward(X_in, enc_zs, h_cot, input_cot=False)
        for i in range(len(enc_wg)):
            enc_wg[i] += ewg[i]
            enc_bg[i] += ebg[i]
        for i in range(len(dec_wg)):
            dec_wg[i] += dwg[i]
            dec_bg[i] += dbg[i]
    return enc_wg, enc_bg, dec_wg, dec_bg, loss


def _train_mlp(train_set: Dataset, seed, hidden, activation, epochs, batch_size, lr):
    """Plain softmax MLP trained on the cross-entropy loss; returns
    (classifier, training trace)."""
    sizes = [train_set.dim] + list(hidden) + [train_set.class_count]
    model = MlpClassifier.init(sizes, activation, seed=child_seed(seed, 0))
    return train_supervised(model, train_set, epochs, batch_size, lr,
                            seed=child_seed(seed, 1))


def train_hardened(dataset: Dataset, policy, config: DefenseConfig, *,
                   use_dae: bool = False, use_binarization: bool = False,
                   known_manipulation_set: bool = True):
    """Train one hardened classifier (the per-member training loop).

    With known_manipulation_set the inner maximizer respects the policy;
    without it the search is box-only (adversarial regularization).  With
    use_dae the encoder feeds the classifier and the autoencoder /
    classifier parameters are updated in alternating steps.  Returns
    (classifier, per-epoch loss trace); deterministic given config.seed.
    """
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    if known_manipulation_set and policy is None:
        raise ValueError("known_manipulation_set requires a policy")
    rng = np.random.default_rng(config.seed)
    ds = oversample(dataset, config.oversample_ratio, seed=rng) \
        if config.oversample_ratio else dataset

    dim = ds.dim
    subset = None
    if config.subspace_ratio < 1.0:
        k = int(round(config.subspace_ratio * dim))
        if k < 1:
            raise ValueError("subspace_ratio yields an empty feature subset")
        subset = np.sort(rng.choice(dim, size=k, replace=False))
    X = ds.X[:, subset] if subset is not None else np.asarray(ds.X, dtype=float)
    view_dim = X.shape[1]
    thresholds = np.full(view_dim, 0.5)
    if use_binarization:
        X = binarize(X, thresholds)
    y = ds.y
    pol_view = None
    if known_manipulation_set:
        pol_view = policy.restrict(subset) if subset is not None else policy

    o = ds.class_count
    hidden = list(config.hidden)
    if use_dae:
        latent = min(view_dim, config.latent_dim)
        dae = DenoisingAutoencoder.init(view_dim, latent, config.activation, seed=rng)
        head_sizes = [latent] + hidden[1:] + [o]
    else:
        dae = None
        head_sizes = [view_dim] + hidden + [o]
    head = MlpClassifier.init(head_sizes, config.activation, seed=rng)
    view_model = HardenedClassifier(head, dae, None, None)

    head_w = [AdamState.zeros(W.shape, config.lr) for W in head.weights]
    head_b = [AdamState.zeros(b.shape, config.lr) for b in head.biases]
    if use_dae:
        enc_w = [AdamState.zeros(W.shape, config.lr) for W in dae.encoder.weights]
        enc_b = [AdamState.zeros(b.shape, config.lr) for b in dae.encoder.biases]
        dec_w = [AdamState.zeros(W.shape, config.lr) for W in dae.decoder.weights]
        dec_b = [AdamState.zeros(b.shape, config.lr) for b in dae.decoder.biases]

    trace = []
    for _ in range(config.epochs):
        perm = rng.permutation(len(X))
        batch_losses = []
        for start in range(0, len(X), config.batch_size):
            sel = perm[start:start + config.batch_size]
            Xb, yb = X[sel], y[sel]
            X_adv, _ = inner_maximize(view_model, Xb, yb, pol_view, config, rng=rng)

            if use_dae:
                ratio = rng.uniform(0.0, config.noise_ratio_max)
                X_noisy = _salt_pepper_batch(Xb, ratio, rng)
                ewg, ebg, dwg, dbg, _ = _dae_param_grads(dae, Xb, (X_noisy, X_adv))
                for i in range(len(dae.encoder.weights)):
                    dae.encoder.weights[i] = adam_step(enc_w[i], dae.encoder.weights[i], ewg[i])
                    dae.encoder.biases[i] = adam_step(enc_b[i], dae.encoder.biases[i], ebg[i])
                for i in range(len(dae.decoder.weights)):
                    dae.decoder.weights[i] = adam_step(dec_w[i], dae.decoder.weights[i], dwg[i])
                    dae.decoder.biases[i] = adam_step(dec_b[i], dae.decoder.biases[i], dbg[i])

            # classifier step through the (frozen) encoder
            Hb = dae.encoder.forward(Xb) if use_dae else Xb
            Ha = dae.encoder.forward(X_adv) if use_dae else X_adv
            wg1, bg1, l1 = _batch_param_gradients(head, Hb, yb)
            wg2, bg2, l2 = _batch_param_gradients(head, Ha, yb)
            for i in range(len(head.weights)):
                head.weights[i] = adam_step(head_w[i], head.weights[i], wg1[i] + wg2[i])
                head.biases[i] = adam_step(head_b[i], head.biases[i], bg1[i] + bg2[i])
            batch_losses.append(l1 + l2)
        trace.append(float(np.mean(batch_losses)))

    clf = HardenedClassifier(head, dae, subset,
                             thresholds if use_binarization else None, dim)
    return clf, trace


# ---------------------------------------------------------------- cases

def small_task(seed):
    ds, _ = generate_synthetic(24, 2, 40, 0.05, seed=seed)
    return ds, ManipulationPolicy.additions_only(24)


def assert_same_stack(a, b):
    assert len(a.weights) == len(b.weights)
    for P, Q in zip(a.weights + a.biases, b.weights + b.biases):
        assert np.array_equal(P, Q)


@pytest.mark.parametrize("direction", [MINIMIZE, MAXIMIZE])
def test_adam_step_matches_oracle(direction):
    rng = np.random.default_rng(4)
    new, old = nn.AdamState.zeros((5, 3), 0.02), AdamState.zeros((5, 3), 0.02)
    v_new = v_old = rng.random((5, 3))
    for _ in range(30):
        g = rng.normal(size=(5, 3)) * rng.choice([0.0, 1e-6, 1.0, 1e3], size=(5, 3))
        v_new = nn.adam_step(new, v_new, g, direction)
        v_old = adam_step(old, v_old, g, direction)
        assert np.array_equal(v_new, v_old)
    assert new.step == old.step == 30


@pytest.mark.parametrize("sizes, activation", [([24, 2], "relu"), ([24, 10, 8, 2], "relu"),
                                               ([24, 12, 3], "elu")])
def test_train_supervised_matches_oracle(sizes, activation):
    ds, _ = small_task(1)
    if sizes[-1] == 3:
        ds = Dataset(ds.X, (ds.y + (ds.X[:, 0] > 0)) % 3, 3)
    a = MlpClassifier.init(sizes, activation, seed=2)
    b = MlpClassifier.init(sizes, activation, seed=2)
    _, trace_a = nn.train_supervised(a, ds, epochs=3, batch_size=16, lr=0.01, seed=3)
    _, trace_b = train_supervised(b, ds, epochs=3, batch_size=16, lr=0.01, seed=3)
    assert trace_a == trace_b
    assert_same_stack(a, b)


HARDENED_CASES = {
    "hardened": ({}, {}),
    "hardened_no_hidden": ({"hidden": ()}, {}),
    "regularization": ({}, {"known_manipulation_set": False}),
    "regularization_subset": ({"subspace_ratio": 0.5}, {"known_manipulation_set": False}),
    "dae": ({}, {"use_dae": True}),
    "dae_elu_three_layers": ({"activation": "elu", "hidden": (10, 8, 6)}, {"use_dae": True}),
    "subset": ({"subspace_ratio": 0.5}, {"use_binarization": True}),
    "subset_dae_oversample": ({"subspace_ratio": 0.5, "oversample_ratio": 0.6},
                              {"use_dae": True}),
}


@pytest.mark.parametrize("case", sorted(HARDENED_CASES))
def test_train_hardened_matches_oracle(case):
    overrides, flags = HARDENED_CASES[case]
    ds, policy = small_task(5)
    cfg = DefenseConfig(**{"inner_steps": 3, "restarts": 1, "noise_ratio_max": 0.2,
                           "epochs": 2, "batch_size": 16, "lr": 0.01, "hidden": (8, 8),
                           "latent_dim": 10, "seed": 6, **overrides})
    # the oracle's known_manipulation_set=False is the library's policy=None
    known = flags.get("known_manipulation_set", True)
    a, trace_a = defenses.train_hardened(
        ds, policy if known else None, cfg,
        **{k: v for k, v in flags.items() if k != "known_manipulation_set"})
    b, trace_b = train_hardened(ds, policy, cfg, **flags)
    assert trace_a == trace_b
    assert_same_stack(a.mlp, b.mlp)
    assert (a.dae is None) == (b.dae is None)
    if a.dae is not None:
        assert_same_stack(a.dae.encoder, b.dae.encoder)
        assert_same_stack(a.dae.decoder, b.dae.decoder)
    assert (a.subset is None) == (b.subset is None)
    if a.subset is not None:
        assert np.array_equal(a.subset, b.subset)


@pytest.mark.parametrize("hidden, activation", [((8, 8), "relu"), ((10, 8, 6), "elu")])
def test_dae_param_grads_matches_oracle(hidden, activation):
    rng = np.random.default_rng(8)
    ae = DenoisingAutoencoder.init(24, 10, activation, seed=9)
    X = (rng.random((16, 24)) < 0.3).astype(float)
    inputs = (_salt_pepper_batch(X, 0.2, rng), (rng.random((16, 24)) < 0.5).astype(float))
    *new, loss_new = defenses._dae_param_grads(ae, X, inputs)
    *old, loss_old = _dae_param_grads(ae, X, inputs)
    assert loss_new == loss_old
    for a, b in zip(new, old):
        assert len(a) == len(b) and all(np.array_equal(P, Q) for P, Q in zip(a, b))


SURROGATE_CASES = {
    "default": None,
    "elu_small": {"hidden": [6], "activation": "elu", "epochs": 4, "batch_size": 16,
                  "lr": 0.01},
    "no_hidden": {"hidden": (), "epochs": 3},
}


@pytest.mark.parametrize("case", sorted(SURROGATE_CASES))
@pytest.mark.parametrize("seed", [4, [5, 999]])
def test_train_surrogate_matches_oracle(case, seed):
    ds, _ = small_task(7)
    profile = SURROGATE_CASES[case]
    a = evaluation.train_surrogate(ds, seed, profile)
    b, _ = _train_mlp(ds, seed, **{**SURROGATE_PROFILE, **(profile or {})})
    assert_same_stack(a, b)


@pytest.mark.parametrize("profile", [None, SURROGATE_CASES["elu_small"]])
def test_train_models_plain_and_surrogate_match_oracle(profile):
    ds, policy = small_task(8)
    cfg = DefenseConfig(hidden=(7,), epochs=3, batch_size=16, lr=0.01, seed=1)
    models, traces, surrogate = evaluation.train_models(
        [DefenseSpec("basic", "plain", cfg)], ds, policy, 11, "grey_box", profile)
    basic, trace = _train_mlp(ds, child_seed(11, 0),
                              **{key: getattr(cfg, key) for key in SURROGATE_PROFILE})
    assert_same_stack(models["basic"], basic)
    assert traces["basic"] == trace
    oracle = _train_mlp(ds, child_seed(11, 999), **{**SURROGATE_PROFILE, **(profile or {})})[0]
    assert_same_stack(surrogate, oracle)
