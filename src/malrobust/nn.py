"""Dense feed-forward classifier with exact backpropagation, plus Adam.

Everything is plain numpy.  The classifier applies its activation between
layers and a softmax on the last layer's output.  One backward recursion
walks a cotangent from the output down to the input and keeps each
layer's pre-activation cotangent; input gradients (all the attacks and
the inner maximizer need) stop there, and only training turns the
cotangents into weight and bias gradients.  Each model's private
``_pullback`` runs its forward once and returns the output with the map
from an output cotangent to the input gradient over that forward; every
prediction and input-gradient method is built on it.  Each public method
checks its input and labels once, so ``_pullback`` takes a checked 2-d
float batch and checks nothing.  The label rule is the one of
:mod:`malrobust.data`, which also applies it to every ``Dataset``;
training checks its dataset's features once per call.

Checkpoints (``format_version`` 2) are one JSON record per model: sizes
and settings as plain JSON, and each weight and bias as ``{"shape",
"data"}``, ``data`` the base64 of its little-endian float64 bytes, so a
load gives back every bit.  Only the current version is read.
"""

from __future__ import annotations

import base64
import json
import math
import os
from dataclasses import dataclass, fields

import numpy as np

from .data import _check_labels, atomic_write

PROB_FLOOR = 1e-12  # inside log, so a saturated softmax never yields -inf
MINIMIZE = "minimize"
MAXIMIZE = "maximize"
ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8
CHECKPOINT_VERSION = 2


def child_seed(seed, k: int) -> list:
    """Derive a disjoint child seed from a seed int or seed list."""
    if isinstance(seed, (list, tuple)):
        return list(seed) + [int(k)]
    return [int(seed), int(k)]


def _act(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "elu":
        return np.where(z > 0.0, z, np.expm1(z))  # alpha = 1
    raise ValueError(f"unknown activation {name!r}")


def _act_grad(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return (z > 0.0).astype(float)
    if name == "elu":
        return np.where(z > 0.0, 1.0, np.exp(z))
    raise ValueError(f"unknown activation {name!r}")


def softmax(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _stack_forward(weights, biases, activation, X, activate_last):
    """Run X through dense layers, caching pre-activations for backprop.

    Returns (output, zs) where zs[i] is layer i's pre-activation and the
    cached input of layer i is X for i=0 else the activation of zs[i-1].
    """
    zs = []
    a = X
    last = len(weights) - 1
    for i, (W, b) in enumerate(zip(weights, biases)):
        z = a @ W + b
        zs.append(z)
        if i < last or activate_last:
            a = _act(activation, z)
        else:
            a = z
    return a, zs


def _stack_backward(weights, activation, zs, out_cot, activate_last):
    """Backpropagate a cotangent on the stack output down to the first
    layer's pre-activation.

    Returns deltas, where deltas[i] is the per-example cotangent on layer
    i's pre-activation; the input cotangent is ``deltas[0] @ weights[0].T``,
    left to the callers that need it (training does not).
    """
    last = len(weights) - 1
    delta = out_cot
    if activate_last:
        delta = delta * _act_grad(activation, zs[last])
    deltas = [None] * len(weights)
    deltas[last] = delta
    for i in range(last, 0, -1):
        delta = (delta @ weights[i].T) * _act_grad(activation, zs[i - 1])
        deltas[i - 1] = delta
    return deltas


def _param_grads(activation, X, zs, deltas):
    """Weight and bias gradients, summed over the batch, from the layer
    cotangents of :func:`_stack_backward`."""
    inputs = [X] + [_act(activation, z) for z in zs[:-1]]
    return ([a.T @ d for a, d in zip(inputs, deltas)],
            [d.sum(axis=0) for d in deltas])


def _check_layers(weights, biases) -> None:
    """Each layer's weights chain onto the next, each bias matches its
    layer's width, and every parameter is finite."""
    if not weights or len(weights) != len(biases) or any(np.ndim(W) != 2 for W in weights):
        raise ValueError("inconsistent layer shapes")
    sizes = [weights[0].shape[0]] + [W.shape[1] for W in weights]
    for i, (W, b) in enumerate(zip(weights, biases)):
        if W.shape != (sizes[i], sizes[i + 1]) or b.shape != (sizes[i + 1],):
            raise ValueError("inconsistent layer shapes")
        if not (np.all(np.isfinite(W)) and np.all(np.isfinite(b))):
            raise ValueError("non-finite parameters")


def _check_input(X, dim: int) -> np.ndarray:
    """X as a float batch, checked to be ``dim`` wide and finite."""
    X2 = np.atleast_2d(np.asarray(X, dtype=float))
    if X2.shape[1] != dim:
        raise ValueError(f"input dimension {X2.shape[1]} != model dimension {dim}")
    if not np.isfinite(X2).all():
        raise ValueError("non-finite input")
    return X2


def _check_cotangent(cot, rows: int, class_count: int) -> np.ndarray:
    """cot as a float batch of one output cotangent per input row."""
    cot2 = np.atleast_2d(np.asarray(cot, dtype=float))
    if cot2.shape != (rows, class_count):
        raise ValueError(f"cotangent of shape {cot2.shape} for {rows} input rows "
                         f"and {class_count} classes")
    return cot2


def _like_input(X, out):
    """A batch output for a batch X; its single row for a single vector X."""
    return out if np.ndim(X) == 2 else out[0]


def _stack_pullback(model, X2, activate_last=False):
    """Output of the checked batch X2 through a dense model, and the map
    from an output cotangent to the input cotangent over this forward."""
    out, zs = _stack_forward(model.weights, model.biases, model.activation, X2, activate_last)
    return out, lambda cot: _stack_backward(model.weights, model.activation, zs, cot,
                                            activate_last)[0] @ model.weights[0].T


def _init_params(layer_sizes, rng):
    # symmetric fan-based init, biases zero
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return weights, biases


@dataclass
class DenseStack:
    """Plain dense stack (used for autoencoder halves)."""

    weights: list
    biases: list
    activation: str = "relu"
    activate_last: bool = False

    def __post_init__(self):
        _check_layers(self.weights, self.biases)

    @classmethod
    def init(cls, layer_sizes, activation="relu", seed=0, activate_last=False):
        rng = np.random.default_rng(seed)
        w, b = _init_params(list(layer_sizes), rng)
        return cls(w, b, activation, activate_last)

    @property
    def layer_sizes(self):
        return [self.weights[0].shape[0]] + [W.shape[1] for W in self.weights]

    def forward(self, X):
        X2 = np.atleast_2d(np.asarray(X, dtype=float))
        out, _ = _stack_forward(self.weights, self.biases, self.activation,
                                X2, self.activate_last)
        return _like_input(X, out)

    def forward_cached(self, X2):
        return _stack_forward(self.weights, self.biases, self.activation,
                              X2, self.activate_last)

    def backward(self, X2, zs, out_cot, input_cot=True):
        """Returns (weight_grads, bias_grads, input_cot); the input
        cotangent is None when ``input_cot`` is false (a first stack)."""
        deltas = _stack_backward(self.weights, self.activation, zs, out_cot,
                                 self.activate_last)
        return (*_param_grads(self.activation, X2, zs, deltas),
                deltas[0] @ self.weights[0].T if input_cot else None)

    def _pullback(self, X2):
        return _stack_pullback(self, X2, self.activate_last)


@dataclass
class MlpClassifier:
    """Feed-forward softmax classifier.

    weights[i] has shape (layer_sizes[i], layer_sizes[i+1]); the last
    layer produces logits and the activation is applied between layers.
    """

    weights: list
    biases: list
    activation: str = "relu"

    def __post_init__(self):
        _check_layers(self.weights, self.biases)
        if self.class_count < 2:
            raise ValueError("output dimension must be >= 2")

    @classmethod
    def init(cls, layer_sizes, activation="relu", seed=0):
        rng = np.random.default_rng(seed)
        w, b = _init_params(list(layer_sizes), rng)
        return cls(w, b, activation)

    @property
    def layer_sizes(self):
        return [self.weights[0].shape[0]] + [W.shape[1] for W in self.weights]

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def class_count(self) -> int:
        return self.weights[-1].shape[1]

    _pullback = _stack_pullback  # logits stay linear

    def logits(self, X):
        return _like_input(X, self._pullback(_check_input(X, self.input_dim))[0])

    def predict_proba(self, X):
        return softmax(self.logits(X))

    def predict(self, X):
        p = self.predict_proba(X)
        return np.argmax(p, axis=-1)

    def loss(self, X, y):
        return cross_entropy(self.predict_proba(X), y)

    def input_gradients(self, X, y):
        """Per-example gradient of the cross-entropy loss w.r.t. the input."""
        X2 = _check_input(X, self.input_dim)
        y2 = _check_labels(y, len(X2), self.class_count)
        z, pull = self._pullback(X2)
        return _like_input(X, pull(_ce_logit_cotangent(softmax(z), y2)))

    def logit_cot_input_gradients(self, X, cot):
        """Per-example input gradient of sum(cot * logits)."""
        X2 = _check_input(X, self.input_dim)
        cot2 = _check_cotangent(cot, len(X2), self.class_count)
        _, pull = self._pullback(X2)
        return _like_input(X, pull(cot2))


def _ce_logit_cotangent(p: np.ndarray, y: np.ndarray) -> np.ndarray:
    # dL/dlogits for L = -log(max(p_y, floor)); zero where the floor is active
    delta = p.copy()
    rows = np.arange(len(y))
    delta[rows, y] -= 1.0
    floored = p[rows, y] <= PROB_FLOOR
    if np.any(floored):
        delta[floored] = 0.0
    return delta


@dataclass
class GradientBundle:
    """Exact gradients of the per-example loss."""

    weight_grads: list
    bias_grads: list
    input_grad: np.ndarray


def forward(model: MlpClassifier, x) -> np.ndarray:
    """Class-probability vector (softmax over the output layer)."""
    return model.predict_proba(x)


def logits(model: MlpClassifier, x) -> np.ndarray:
    """Pre-softmax output; softmax(logits) equals forward."""
    return model.logits(x)


def cross_entropy(probs, y):
    """-log p_y with a 1e-12 probability floor.

    Accepts a single distribution with an int label or a batch with one
    label per row (returns a vector then).
    """
    p = np.asarray(probs, dtype=float)
    p2 = np.atleast_2d(p)
    y2 = _check_labels(y, len(p2), p2.shape[1])
    loss = -np.log(np.maximum(p2[np.arange(len(y2)), y2], PROB_FLOOR))
    return float(loss[0]) if p.ndim == 1 else loss


def backward(model: MlpClassifier, x, y: int) -> GradientBundle:
    """Gradients of cross_entropy(forward(x), y) w.r.t. parameters and x."""
    X2 = _check_input(x, model.input_dim)
    if X2.shape[0] != 1:
        raise ValueError("backward takes a single example")
    y2 = _check_labels(y, 1, model.class_count)
    wg, bg, _ = _batch_param_gradients(model, X2, y2)  # the mean over one row is exact
    z, pull = model._pullback(X2)
    return GradientBundle(wg, bg, pull(_ce_logit_cotangent(softmax(z), y2))[0])


def _batch_param_gradients(model: MlpClassifier, X2, y2):
    """Mean parameter gradients over a batch, plus the mean loss."""
    logits_, zs = _stack_forward(model.weights, model.biases, model.activation, X2, False)
    p = softmax(logits_)
    n = len(y2)
    delta = _ce_logit_cotangent(p, y2) / n
    deltas = _stack_backward(model.weights, model.activation, zs, delta, False)
    wg, bg = _param_grads(model.activation, X2, zs, deltas)
    loss = float(np.mean(cross_entropy(p, y2)))
    return wg, bg, loss


@dataclass
class AdamState:
    """Adam moments for one variable array."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    learning_rate: float = 0.001
    step: int = 0

    @classmethod
    def zeros(cls, shape, learning_rate=0.001):
        return cls(np.zeros(shape), np.zeros(shape), learning_rate)


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
    state.first_moment = ADAM_BETA1 * state.first_moment + (1 - ADAM_BETA1) * g
    state.second_moment = ADAM_BETA2 * state.second_moment + (1 - ADAM_BETA2) * g * g
    m_hat = state.first_moment / (1 - ADAM_BETA1 ** state.step)
    v_hat = state.second_moment / (1 - ADAM_BETA2 ** state.step)
    return variables - state.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)


def _adam_states(model, learning_rate):
    """One (weight, bias) pair of Adam states per layer of a dense model."""
    return [(AdamState.zeros(W.shape, learning_rate), AdamState.zeros(b.shape, learning_rate))
            for W, b in zip(model.weights, model.biases)]


def _adam_update(model, states, weight_grads, bias_grads) -> None:
    """One Adam step on each layer's weights, then its bias, in place."""
    for i, ((w_state, b_state), wg, bg) in enumerate(zip(states, weight_grads, bias_grads)):
        model.weights[i] = adam_step(w_state, model.weights[i], wg)
        model.biases[i] = adam_step(b_state, model.biases[i], bg)


def train_supervised(model: MlpClassifier, dataset, epochs: int,
                     batch_size: int = 128, lr: float = 0.001, seed=0):
    """Mini-batch Adam training on the cross-entropy loss.

    Deterministic given the seed: the batch order is reshuffled each epoch
    from the seed stream and the last short batch is kept.  Returns
    (model, per-epoch mean loss trace); the model is updated in place.
    """
    X = _check_input(dataset.X, model.input_dim)
    y = _check_labels(dataset.y, len(X), model.class_count)
    if len(X) == 0:
        raise ValueError("empty dataset")
    rng = np.random.default_rng(seed)
    states = _adam_states(model, lr)
    trace = []
    for _ in range(epochs):
        perm = rng.permutation(len(X))
        losses = []
        for start in range(0, len(X), batch_size):
            sel = perm[start:start + batch_size]
            wg, bg, loss = _batch_param_gradients(model, X[sel], y[sel])
            _adam_update(model, states, wg, bg)
            losses.append(loss)
        trace.append(float(np.mean(losses)))
    return model, trace


def _encode_array(a: np.ndarray) -> dict:
    """An array as its shape and the base64 of its little-endian float64
    bytes in C order; decoding gives back every bit."""
    a = np.asarray(a, dtype="<f8")
    return {"shape": list(a.shape), "data": base64.b64encode(a.tobytes()).decode("ascii")}


def _shape(value) -> tuple:
    if type(value) is not list or any(type(n) is not int or n < 0 for n in value):
        raise ValueError(f"expected a list of non-negative ints, got {value!r}")
    return tuple(value)


def _decode_array(record) -> np.ndarray:
    """The writable float array an :func:`_encode_array` record holds; a
    record whose shape or data is malformed, or whose byte count disagrees
    with its shape, raises a ValueError naming the key."""
    shape = _field(record, "shape", _shape)
    data = _field(record, "data", lambda v: base64.b64decode(v, validate=True))
    if len(data) != 8 * math.prod(shape):
        raise ValueError(f"{len(data)} bytes of data for shape {list(shape)}")
    return np.frombuffer(data, dtype="<f8").reshape(shape).astype(float)


def _model_record(model) -> dict:
    """Layer sizes and settings of an MLP or a dense stack, with each
    parameter array encoded by :func:`_encode_array`."""
    return {"layer_sizes": model.layer_sizes,
            **{f.name: getattr(model, f.name) for f in fields(model)
               if f.name not in ("weights", "biases")},
            "weights": [_encode_array(W) for W in model.weights],
            "biases": [_encode_array(b) for b in model.biases]}


def _field(record, key, convert=None):
    """``convert(record[key])`` (or the bare value); a record that is no
    JSON object, a missing key, or a value ``convert`` rejects raises a
    ValueError naming the key."""
    if not isinstance(record, dict):
        raise ValueError(f"expected a JSON object, got {type(record).__name__}")
    if key not in record:
        raise ValueError(f"missing key {key!r}")
    try:
        return record[key] if convert is None else convert(record[key])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed key {key!r}: {exc}") from None


def _of_type(kind):
    def check(value):
        if type(value) is not kind:
            raise TypeError(f"expected {kind.__name__}, got {type(value).__name__}")
        return value
    return check


def _model_from_record(record, cls=MlpClassifier):
    """Rebuild an MLP (or a dense stack) through its parameter checks and
    check the recorded settings' types and layer sizes."""
    params = {key: _field(record, key, lambda ps: [_decode_array(p) for p in ps])
              for key in ("weights", "biases")}
    model = cls(**params, **{f.name: _field(record, f.name, _of_type(type(f.default)))
                             for f in fields(cls) if f.name not in params})
    if model.layer_sizes != _field(record, "layer_sizes", list):
        raise ValueError("checkpoint layer_sizes disagree with parameter shapes")
    return model


def _write_checkpoint(path, kind: str, fields: dict) -> None:
    record = {"format_version": CHECKPOINT_VERSION, "kind": kind, **fields}
    with atomic_write(path) as fh:
        fh.write(json.dumps(record, sort_keys=True))


def _read_checkpoint(path, kind: str, from_record):
    """Load a JSON checkpoint of ``kind`` and rebuild its model with
    ``from_record``; any fault in the file raises a ValueError naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            record = json.load(fh)
            version = _field(record, "format_version")
            if version != CHECKPOINT_VERSION:
                raise ValueError(f"unsupported checkpoint version {version!r}")
            if _field(record, "kind") != kind:
                raise ValueError(f"expected a {kind!r} checkpoint, got kind={record['kind']!r}")
            return from_record(record)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{os.fspath(path)}: {exc}") from None


def save_model(path, model: MlpClassifier) -> None:
    """Write a self-describing JSON checkpoint."""
    _write_checkpoint(path, "mlp", _model_record(model))


def load_model(path) -> MlpClassifier:
    return _read_checkpoint(path, "mlp", _model_from_record)
