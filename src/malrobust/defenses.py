"""Hardened-classifier construction.

The training loop follows the min-max recipe: oversample, optionally pick
a random feature subspace, binarize, then per batch (i) search the worst
admissible perturbation with a multi-start Adam ascent, each trial run
through the attacks' projected-step loop and rounded once, (ii) update a
denoising autoencoder on reconstruction losses, and (iii) update the
classifier head on the sum of clean and adversarial cross-entropy.  The
autoencoder and classifier are updated in alternation (block coordinate
descent); the classifier consumes the encoder output when the DAE is on.

Random-subspace ensembles train several hardened members on seeded
feature / example subsets and vote by mean probability; the log of the
floored vote stands in for their logits.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

from .attacks import _box_steps
from .data import (Dataset, ManipulationPolicy, _check_binary, _check_config_types,
                   _check_labels, _check_policy, _check_seed, _flippable, _round_flips,
                   binarize, oversample)
from .data import project_to_m  # noqa: F401  (bench/spans.py traces it by module)
from .nn import (MAXIMIZE, PROB_FLOOR, AdamState, DenseStack, MlpClassifier, _ACTIVATIONS,
                 _adam_states, _adam_update, _batch_param_gradients, _check_input, _field,
                 _like_input, _model_from_record, _model_record, _read_checkpoint,
                 _write_checkpoint, adam_step, child_seed, softmax)


@dataclass
class DefenseConfig:
    inner_lr: float = 0.02
    inner_steps: int = 100
    restarts: int = 0
    noise_ratio_max: float = 0.1
    subspace_ratio: float = 1.0
    ensemble_size: int = 5
    data_fraction: float = 0.8
    oversample_ratio: float = 0.0
    epochs: int = 150
    batch_size: int = 128
    lr: float = 0.001
    hidden: tuple = (160, 160)
    activation: str = "relu"
    latent_dim: int = 160
    seed: object = 0

    def __post_init__(self):
        if not isinstance(self.hidden, (tuple, list)):
            raise ValueError(f"hidden must be a list of layer widths, got {self.hidden!r}")
        _check_config_types(
            {**{k: getattr(self, k) for k in ("inner_steps", "restarts", "ensemble_size",
                                              "epochs", "batch_size", "latent_dim")},
             **{f"hidden[{i}]": h for i, h in enumerate(self.hidden)}},
            {k: getattr(self, k) for k in ("inner_lr", "noise_ratio_max", "subspace_ratio",
                                           "data_fraction", "oversample_ratio", "lr")})
        _check_seed(self.seed)
        for key in ("inner_lr", "lr", "batch_size"):
            if getattr(self, key) <= 0:
                raise ValueError(f"{key} must be positive, got {getattr(self, key)!r}")
        for key in ("noise_ratio_max", "oversample_ratio"):
            if not 0.0 <= getattr(self, key) <= 1.0:
                raise ValueError(f"{key} must be in [0, 1]")
        if not 0.0 < self.subspace_ratio <= 1.0:
            raise ValueError("subspace_ratio must be in (0, 1]")
        if not 0.0 < self.data_fraction <= 1.0:
            raise ValueError("data_fraction must be in (0, 1]")
        if min(self.epochs, self.restarts, self.inner_steps) < 0:
            raise ValueError("epochs, restarts and inner_steps must be >= 0")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        for i, h in enumerate(self.hidden):
            if h < 1:
                raise ValueError(f"hidden[{i}] must be >= 1, got {h}")
        if self.latent_dim < 1:
            raise ValueError(f"latent_dim must be >= 1, got {self.latent_dim}")

    @classmethod
    def adversarial_training_profile(cls, **overrides) -> "DefenseConfig":
        """Inner maximizer run with lr 0.02 for 100 steps."""
        return cls(**{"inner_lr": 0.02, "inner_steps": 100, **overrides})

    @classmethod
    def adversarial_regularization_profile(cls, **overrides) -> "DefenseConfig":
        """Inner maximizer run with lr 0.01 for 60 steps; train with no policy for box-only."""
        return cls(**{"inner_lr": 0.01, "inner_steps": 60, **overrides})


@dataclass
class DenoisingAutoencoder:
    encoder: DenseStack
    decoder: DenseStack

    def __post_init__(self):
        if self.encoder.layer_sizes[0] != self.decoder.layer_sizes[-1]:
            raise ValueError("encoder input dim must equal decoder output dim")
        if self.encoder.layer_sizes[-1] != self.decoder.layer_sizes[0]:
            raise ValueError("latent dims of encoder and decoder disagree")

    @property
    def latent_dim(self) -> int:
        return self.encoder.layer_sizes[-1]

    @classmethod
    def init(cls, dim: int, latent_dim: int, activation="relu", seed=0):
        rng = np.random.default_rng(seed)
        enc = DenseStack.init([dim, latent_dim], activation, seed=rng, activate_last=True)
        dec = DenseStack.init([latent_dim, dim], activation, seed=rng)
        return cls(enc, dec)

    def reconstruct(self, X):
        return self.decoder.forward(self.encoder.forward(X))


def _salt_pepper_batch(X, ratio, rng):
    """Force a uniformly chosen floor(ratio*dim) subset of each row's
    coordinates to 0 or 1 with equal probability."""
    n, d = X.shape
    k = int(math.floor(ratio * d))
    out = X.copy()
    if k == 0:
        return out
    scores = rng.random((n, d))
    idx = np.argpartition(scores, k - 1, axis=1)[:, :k]
    vals = (rng.random((n, k)) < 0.5).astype(float)
    out[np.arange(n)[:, None], idx] = vals
    return out


def _dae_param_grads(ae, X_clean, inputs):
    """Mean gradients of the summed reconstruction losses for a batch, and
    that loss: the reconstruction error of each input (the noisy and the
    adversarial batch) against the clean batch, as a mean squared error
    over rows and features."""
    n, d = X_clean.shape
    grads, loss = [], 0.0
    for X_in in inputs:
        H, enc_zs = ae.encoder.forward_cached(X_in)
        R, dec_zs = ae.decoder.forward_cached(H)
        diff = R - X_clean
        loss += float(np.mean(diff * diff))
        dwg, dbg, h_cot = ae.decoder.backward(H, dec_zs, 2.0 * diff / (n * d))
        ewg, ebg, _ = ae.encoder.backward(X_in, enc_zs, h_cot, input_cot=False)
        grads.append((ewg, ebg, dwg, dbg))
    # each layer's gradient summed over the inputs, in input order
    enc_wg, enc_bg, dec_wg, dec_bg = ([sum(gs) for gs in zip(*per_input)]
                                      for per_input in zip(*grads))
    return enc_wg, enc_bg, dec_wg, dec_bg, loss


@dataclass
class HardenedClassifier:
    """Classifier head plus the optional transforms in front of it.

    Prediction pipeline: select the feature subset (when set), binarize at
    the thresholds (when set), feed through the DAE encoder (when set),
    then the MLP head.  Input gradients are reported in the full input
    space, zero outside the subset; the binarization step is treated as a
    pass-through for gradients (inputs are binary in this domain, where
    thresholding is the identity).  ``input_dim`` is the full input width;
    a model without a subset takes it from the view.
    """

    mlp: MlpClassifier
    dae: DenoisingAutoencoder | None = None
    subset: np.ndarray | None = None
    thresholds: np.ndarray | None = None
    input_dim: int | None = None

    def __post_init__(self):
        view_dim = self.mlp.input_dim if self.dae is None else self.dae.encoder.layer_sizes[0]
        if self.dae is not None and self.dae.encoder.layer_sizes[-1] != self.mlp.input_dim:
            raise ValueError("encoder output width differs from the head input width")
        if self.thresholds is not None and np.shape(self.thresholds) != (view_dim,):
            raise ValueError(f"{np.size(self.thresholds)} thresholds for a view of width {view_dim}")
        if self.thresholds is not None and not np.isfinite(self.thresholds).all():
            raise ValueError("non-finite thresholds")
        if self.input_dim is None:
            if self.subset is not None:
                raise ValueError("a feature subset needs the full input_dim")
            self.input_dim = view_dim
        cols = np.arange(self.input_dim) if self.subset is None else np.asarray(self.subset)
        if cols.shape != (view_dim,):
            raise ValueError(f"{cols.size} input features for a view of width {view_dim}")
        if cols[0] < 0 or cols[-1] >= self.input_dim or np.any(np.diff(cols) <= 0):
            raise ValueError("feature subset must be sorted, unique and within "
                             f"[0, {self.input_dim})")

    @property
    def class_count(self) -> int:
        return self.mlp.class_count

    def _view(self, X2):
        """The checked full-width batch X2 as the DAE or the head sees it."""
        if self.subset is not None:
            X2 = X2[:, self.subset]
        if self.thresholds is not None:
            X2 = binarize(X2, self.thresholds)
        return X2

    def _pullback(self, X2):
        """Head logits of the checked batch X2, and the map from a logit
        cotangent to the full-width input gradient over this forward."""
        V = self._view(X2)
        H, encoder_pull = (V, lambda g: g) if self.dae is None \
            else self.dae.encoder._pullback(V)
        z, head_pull = self.mlp._pullback(H)

        def pull(cot):
            g = encoder_pull(head_pull(cot))
            if self.subset is None:
                return g
            out = np.zeros((len(g), self.input_dim))
            out[:, self.subset] = g
            return out
        return z, pull

    # the plain MLP's methods over this model's _pullback; each class holds
    # its own entries, so each can be wrapped on its own
    _loss_pullback = MlpClassifier._loss_pullback
    logits = MlpClassifier.logits
    predict_proba = MlpClassifier.predict_proba
    predict = MlpClassifier.predict
    loss = MlpClassifier.loss
    input_gradients = MlpClassifier.input_gradients
    logit_cot_input_gradients = MlpClassifier.logit_cot_input_gradients


def inner_maximize(model, X, y, policy, config: DefenseConfig, rng=None):
    """Multi-start Adam ascent on the loss over a continuous perturbation
    of a binary batch X (any other is rejected).

    Runs restarts+1 trials: one from delta = 0 and the rest from
    salt-and-pepper starting points whose noise ratio is drawn uniformly
    in [0, noise_ratio_max].  Every trial takes inner_steps Adam steps in
    maximization mode through attacks._box_steps, which clips x+delta into
    the unit box after each step, and rounds its endpoint once, through
    the policy (one that allows every flip when policy is None, the
    box-only mode used by adversarial regularization); the trial with the
    largest rounded-point cross-entropy wins, per example.

    Returns (rounded binary batch, continuous delta batch); shapes follow
    the input (a single vector yields single vectors).
    """
    rng = np.random.default_rng(config.seed if rng is None else rng)
    X2 = _check_input(X, model.input_dim)
    _check_binary(X2, "X")  # the rounding keeps the origin where no flip is allowed
    y2 = _check_labels(y, len(X2), model.class_count)
    if policy is None:  # box-only: every flip is allowed
        allowed = np.ones(X2.shape[1], dtype=bool)
        policy = ManipulationPolicy(allowed, allowed)
    _check_policy(policy, X2)
    flippable = _flippable(X2, policy)  # every trial rounds through X2's one flip mask
    best_loss = np.full(len(X2), -np.inf)
    best_x = X2.copy()
    best_delta = np.zeros_like(X2)

    def ascend(point, delta):  # the trial's adam; bench/workloads.py cuts at defenses.adam_step
        return adam_step(adam, delta, model.input_gradients(point, y2), MAXIMIZE)
    for trial in range(config.restarts + 1):
        delta = np.zeros_like(X2) if trial == 0 else \
            _salt_pepper_batch(X2, rng.uniform(0.0, config.noise_ratio_max), rng) - X2
        adam = AdamState.zeros(X2.shape, learning_rate=config.inner_lr)
        for delta in islice(_box_steps(ascend, X2, delta), config.inner_steps):
            pass  # the trial's last delta is rounded once
        rounded = _round_flips(flippable, X2, X2 + delta)
        losses = np.atleast_1d(model.loss(rounded, y2))
        better = losses > best_loss
        best_loss = np.where(better, losses, best_loss)
        best_x[better] = rounded[better]
        best_delta[better] = delta[better]
    return _like_input(X, best_x), _like_input(X, best_delta)


def train_hardened(dataset: Dataset, policy, config: DefenseConfig, *,
                   use_dae: bool = False, use_binarization: bool = False):
    """Train one hardened classifier (the per-member training loop).

    The policy is the manipulation set the defender knows: the inner
    maximizer respects it, and with policy None the search is box-only
    (adversarial regularization).  With use_dae the encoder feeds the
    classifier and the autoencoder / classifier parameters are updated in
    alternating steps.  Returns (classifier, per-epoch loss trace);
    deterministic given config.seed.
    """
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    _check_input(dataset.X, dataset.dim)  # no model call checks the head's training batches
    if policy is not None:
        _check_policy(policy, dataset.X)
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
    view_dim = dim if subset is None else len(subset)
    pol_view = policy if policy is None or subset is None else policy.restrict(subset)

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
    clf = HardenedClassifier(head, dae, subset,
                             np.full(view_dim, 0.5) if use_binarization else None, dim)
    X, y = clf._view(ds.X), ds.y  # the head trains on the view the model predicts from
    _check_binary(X, "training set")  # each batch is an inner-maximizer origin
    view_model = HardenedClassifier(head, dae, None, None)

    head_states = _adam_states(head, config.lr)
    if use_dae:
        enc_states = _adam_states(dae.encoder, config.lr)
        dec_states = _adam_states(dae.decoder, config.lr)

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
                _adam_update(dae.encoder, enc_states, ewg, ebg)
                _adam_update(dae.decoder, dec_states, dwg, dbg)

            # classifier step through the (frozen) encoder
            Hb = dae.encoder.forward(Xb) if use_dae else Xb
            Ha = dae.encoder.forward(X_adv) if use_dae else X_adv
            wg1, bg1, l1 = _batch_param_gradients(head, Hb, yb)
            wg2, bg2, l2 = _batch_param_gradients(head, Ha, yb)
            # generators: one layer's summed gradients are alive at a time
            _adam_update(head, head_states, (a + b for a, b in zip(wg1, wg2)),
                         (a + b for a, b in zip(bg1, bg2)))
            batch_losses.append(l1 + l2)
        trace.append(float(np.mean(batch_losses)))
    return clf, trace


@dataclass
class EnsembleClassifier:
    """Mean-probability vote over hardened members."""

    members: list

    def __post_init__(self):
        if not self.members:
            raise ValueError("an ensemble needs at least one member")
        shapes = {(m.input_dim, m.class_count) for m in self.members}
        if len(shapes) > 1:
            raise ValueError("ensemble members disagree on (input_dim, class_count): "
                             f"{sorted(shapes)}")

    @property
    def l(self) -> int:
        return len(self.members)

    @property
    def input_dim(self) -> int:
        return self.members[0].input_dim

    @property
    def class_count(self) -> int:
        return self.members[0].class_count

    def _vote(self, X2):
        """Mean member probabilities of the checked batch X2, and the map from
        a cotangent on them to the input gradient; each member runs one forward."""
        members = [m._pullback(X2) for m in self.members]
        qs = [softmax(z) for z, _ in members]

        def pull(v2):
            a = v2 / self.l
            total = np.zeros((len(v2), self.input_dim))
            for q, (_, member_pull) in zip(qs, members):
                total += member_pull(q * (a - (q * a).sum(axis=1, keepdims=True)))
            return total
        return sum(qs) / self.l, pull

    def _pullback(self, X2):
        """Log of the floored vote on the checked batch X2 (voting has no single
        pre-softmax layer), and the map from a cotangent on it to the input gradient."""
        p, pull = self._vote(X2)
        floored = np.maximum(p, PROB_FLOOR)
        return np.log(floored), lambda cot: pull(cot / floored)

    def _loss_pullback(self, X2):
        """The vote on the checked batch X2, and the map from checked labels
        to the input gradient of the loss over this forward; the loss is
        -log of the vote, so its cotangent lives in probability space."""
        p, pull = self._vote(X2)

        def grad(y2):
            rows = np.arange(len(y2))
            v = np.zeros_like(p)
            v[rows, y2] = -1.0 / np.maximum(p[rows, y2], PROB_FLOOR)
            v[p[rows, y2] <= PROB_FLOOR] = 0.0
            return pull(v)
        return p, grad

    # the plain MLP's methods over this class's two entries
    logits = MlpClassifier.logits
    predict_proba = MlpClassifier.predict_proba
    predict = MlpClassifier.predict
    loss = MlpClassifier.loss
    input_gradients = MlpClassifier.input_gradients
    logit_cot_input_gradients = MlpClassifier.logit_cot_input_gradients


def train_ensemble(dataset: Dataset, policy, config: DefenseConfig, *,
                   use_dae: bool = False, use_binarization: bool = False):
    """Train config.ensemble_size hardened members on seeded random
    feature subspaces and example subsets, with disjoint seed streams."""
    if config.ensemble_size < 1:
        raise ValueError("ensemble_size must be >= 1")
    members = []
    traces = []
    for i in range(config.ensemble_size):
        member_cfg = replace(config, seed=child_seed(config.seed, 1000 + i))
        sub = dataset
        if config.data_fraction < 1.0:
            d_rng = np.random.default_rng(child_seed(config.seed, 2000 + i))
            n_keep = max(1, int(round(config.data_fraction * len(dataset))))
            keep = np.sort(d_rng.choice(len(dataset), size=n_keep, replace=False))
            sub = Dataset(dataset.X[keep], dataset.y[keep], dataset.class_count)
        member, trace = train_hardened(sub, policy, member_cfg, use_dae=use_dae,
                                       use_binarization=use_binarization)
        members.append(member)
        traces.append(trace)
    return EnsembleClassifier(members), traces


def _hardened_record(clf: HardenedClassifier) -> dict:
    replace(clf)  # a load rebuilds the model, so its constructor's checks run first
    return {
        "subset": None if clf.subset is None else [int(i) for i in clf.subset],
        "thresholds": None if clf.thresholds is None else clf.thresholds.tolist(),
        "input_dim": clf.input_dim,
        "head": _model_record(clf.mlp),
        "encoder": None if clf.dae is None else _model_record(clf.dae.encoder),
        "decoder": None if clf.dae is None else _model_record(clf.dae.decoder),
    }


def _hardened_from_record(record) -> HardenedClassifier:
    def optional(convert):
        return lambda value: None if value is None else convert(value)

    stack = optional(lambda r: _model_from_record(r, DenseStack))
    enc, dec = _field(record, "encoder", stack), _field(record, "decoder", stack)
    if (enc is None) != (dec is None):
        raise ValueError("a DAE needs both 'encoder' and 'decoder'")
    indices = optional(lambda v: np.asarray(v).astype(int, casting="safe"))
    return HardenedClassifier(
        _field(record, "head", _model_from_record),
        None if enc is None else DenoisingAutoencoder(enc, dec),
        _field(record, "subset", indices),
        _field(record, "thresholds", optional(lambda v: np.asarray(v, dtype=float))),
        _field(record, "input_dim", optional(operator.index)))


def save_hardened(path, clf: HardenedClassifier) -> None:
    _write_checkpoint(path, "hardened", _hardened_record(clf))


def load_hardened(path) -> HardenedClassifier:
    return _read_checkpoint(path, "hardened", _hardened_from_record)


def save_ensemble(path, ensemble: EnsembleClassifier) -> None:
    """One checkpoint whose ``members`` list holds each member's record."""
    _write_checkpoint(path, "ensemble",
                      {"members": [_hardened_record(m) for m in ensemble.members]})


def load_ensemble(path) -> EnsembleClassifier:
    return _read_checkpoint(path, "ensemble", lambda record: EnsembleClassifier(
        _field(record, "members", lambda ms: [_hardened_from_record(m) for m in ms])))
