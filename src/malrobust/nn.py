"""Dense feed-forward classifier with exact backpropagation, plus Adam.

Everything is plain numpy.  The classifier and the autoencoder halves
share one dense base, ``_Dense``: its layers, their check and their
init.  The classifier applies its activation between layers and a
softmax on the last layer's output.  One backward recursion
walks a cotangent from the output down to the input and keeps each
layer's pre-activation cotangent; input gradients (all the attacks and
the inner maximizer need) stop there, and one dense-stack gradient
routine, ``_stack_grads``, turns the cotangents into weight and bias
gradients for every training step.  Each classifier has two private
entries, each over one forward of a checked 2-d float batch: ``_pullback``
returns the logits with the map from a logit cotangent to the input
gradient, and ``_loss_pullback`` returns the class probabilities with the
map from checked labels to the loss input gradient, so an attack that
judges a point can take its gradient without a second forward.  The six
public prediction and input-gradient methods are written once, in
:class:`MlpClassifier`, over these two entries; the hardened model and the
ensemble bind them.  Each public method checks its input (one example or
a 2-d batch, as wide as the model, finite) and labels once, so the entries
check nothing; so does each attack run and attack suite
(:mod:`malrobust.attacks`) and each inner-maximizer call
(:mod:`malrobust.defenses`), whose steps call the entries directly on the
points they build.  The forward of every model call, the classifier's
``_pullback``, checks its own logits: non-finite ones, which finite
weights make from a checked input only by overflow, raise a ValueError.
The label rule is the one of :mod:`malrobust.data`, which also applies
it to every ``Dataset``; training checks its dataset's features once per
call.  Both trainers, the
plain one here and the min-max one of :mod:`malrobust.defenses`, run one
mini-batch schedule, ``_epochs``.

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

from .data import _check_config_types, _check_labels, atomic_write

PROB_FLOOR = 1e-12  # inside log, so a saturated softmax never yields -inf
MINIMIZE = "minimize"
MAXIMIZE = "maximize"
ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8
CHECKPOINT_VERSION = 2
_ACTIVATIONS = ("relu", "elu")


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
    """The activation's derivative at z; relu's as a bool mask, which a
    float cotangent multiplies exactly as by 1.0 and 0.0."""
    if name == "relu":
        return z > 0.0
    if name == "elu":
        return np.where(z > 0.0, 1.0, np.exp(z))
    raise ValueError(f"unknown activation {name!r}")


def softmax(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    e = z - np.maximum.reduce(z, axis=-1, keepdims=True)  # what .max and .sum call
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def _stack_forward(weights, biases, activation, X, activate_last):
    """Run X through dense layers, caching pre-activations for backprop.

    Returns (output, zs) where zs[i] is layer i's pre-activation and the
    cached input of layer i is X for i=0 else the activation of zs[i-1].
    """
    zs = []
    a = X
    last = len(weights) - 1
    for i, (W, b) in enumerate(zip(weights, biases)):
        z = a @ W
        z += b
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
    left to the callers that need it (a first stack's training does not).
    """
    last = len(weights) - 1
    delta = out_cot
    if activate_last:
        delta = delta * _act_grad(activation, zs[last])
    deltas = [None] * len(weights)
    deltas[last] = delta
    for i in range(last, 0, -1):
        delta = delta @ weights[i].T  # a new array, so out_cot is never written
        delta *= _act_grad(activation, zs[i - 1])
        deltas[i - 1] = delta
    return deltas


def _stack_grads(stack, X2, zs, out_cot, activate_last=False, input_cot=True):
    """Gradients of sum(out_cot * output) over the forward of X2 through a
    dense stack that cached ``zs``: (weight gradients, bias gradients, each
    summed over the batch, and the input cotangent, or None when
    ``input_cot`` is false)."""
    deltas = _stack_backward(stack.weights, stack.activation, zs, out_cot, activate_last)
    inputs = [X2] + [_act(stack.activation, z) for z in zs[:-1]]
    return ([a.T @ d for a, d in zip(inputs, deltas)], [d.sum(axis=0) for d in deltas],
            deltas[0] @ stack.weights[0].T if input_cot else None)


def _check_layers(weights, biases, activation) -> None:
    """The activation is known, each layer's weights chain onto the next,
    each bias matches its layer's width, no layer is zero-wide, and every
    parameter is finite."""
    if activation not in _ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}")
    if not weights or len(weights) != len(biases) or any(np.ndim(W) != 2 for W in weights):
        raise ValueError("inconsistent layer shapes")
    sizes = [weights[0].shape[0]] + [W.shape[1] for W in weights]
    if min(sizes) < 1:
        raise ValueError(f"zero-width layer in layer sizes {sizes}")
    for i, (W, b) in enumerate(zip(weights, biases)):
        if W.shape != (sizes[i], sizes[i + 1]) or b.shape != (sizes[i + 1],):
            raise ValueError("inconsistent layer shapes")
        if not (np.all(np.isfinite(W)) and np.all(np.isfinite(b))):
            raise ValueError("non-finite parameters")


def _check_width(width: int, dim: int) -> None:
    if width != dim:
        raise ValueError(f"input dimension {width} != model dimension {dim}")


def _check_input(X, dim: int) -> np.ndarray:
    """X as a float batch, checked to be one example or a 2-d batch,
    ``dim`` wide and finite."""
    X2 = np.asarray(X, dtype=float)
    if X2.ndim > 2:
        raise ValueError(f"input of shape {X2.shape} is neither one example nor a 2-d batch")
    X2 = X2 if X2.ndim == 2 else X2.reshape(1, -1)  # np.atleast_2d without its dispatch
    _check_width(X2.shape[1], dim)
    if not np.isfinite(X2).all():
        raise ValueError("non-finite input")
    return X2


def _check_output(z: np.ndarray) -> None:
    """Reject non-finite logits z.  Every input that reaches a forward was
    checked finite or built in the unit box, so with finite weights only an
    overflow makes them."""
    if not np.logical_and.reduce(np.isfinite(z), axis=None):  # what .all calls
        raise ValueError("non-finite model output: the logits overflow")


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


@dataclass
class _Dense:
    """Dense layers: weights[i] has shape (layer_sizes[i], layer_sizes[i+1])."""

    weights: list
    biases: list
    activation: str = "relu"

    def __post_init__(self):
        _check_layers(self.weights, self.biases, self.activation)

    @classmethod
    def init(cls, layer_sizes, activation="relu", seed=0, **settings):
        """Symmetric fan-based uniform weights, zero biases."""
        rng = np.random.default_rng(seed)
        sizes = list(layer_sizes)
        weights, biases = [], []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return cls(weights, biases, activation, **settings)

    @property
    def layer_sizes(self):
        return [self.weights[0].shape[0]] + [W.shape[1] for W in self.weights]


@dataclass
class DenseStack(_Dense):
    """Plain dense stack (used for autoencoder halves)."""

    activate_last: bool = False

    def forward(self, X):
        return _like_input(X, self.forward_cached(np.atleast_2d(np.asarray(X, dtype=float)))[0])

    def forward_cached(self, X2):
        return _stack_forward(self.weights, self.biases, self.activation,
                              X2, self.activate_last)

    def backward(self, X2, zs, out_cot, input_cot=True):
        """Returns (weight_grads, bias_grads, input_cot); the input
        cotangent is None when ``input_cot`` is false (a first stack)."""
        return _stack_grads(self, X2, zs, out_cot, self.activate_last, input_cot)

    def _pullback(self, X2):
        return _stack_pullback(self, X2, self.activate_last)


@dataclass
class MlpClassifier(_Dense):
    """Feed-forward softmax classifier: the last layer produces logits and
    the activation is applied between layers."""

    def __post_init__(self):
        super().__post_init__()
        if self.class_count < 2:
            raise ValueError("output dimension must be >= 2")

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def class_count(self) -> int:
        return self.weights[-1].shape[1]

    def _pullback(self, X2):
        """Logits of the checked batch X2, and the map from a logit cotangent
        to the input gradient over this forward.  Every model call runs its
        head through here, so non-finite logits (an overflowing model) raise."""
        z, pull = _stack_pullback(self, X2)  # logits stay linear
        _check_output(z)
        return z, pull

    def _loss_pullback(self, X2):
        """Class probabilities of the checked batch X2, and the map from
        checked labels to the input gradient of the loss over this forward."""
        z, pull = self._pullback(X2)
        p = softmax(z)
        return p, lambda y2: pull(_ce_logit_cotangent(p, y2))

    def logits(self, X):
        return _like_input(X, self._pullback(_check_input(X, self.input_dim))[0])

    def predict_proba(self, X):
        return _like_input(X, self._loss_pullback(_check_input(X, self.input_dim))[0])

    def predict(self, X):
        p = self.predict_proba(X)
        return np.argmax(p, axis=-1)

    def loss(self, X, y):
        return cross_entropy(self.predict_proba(X), y)

    def input_gradients(self, X, y):
        """Per-example gradient of the cross-entropy loss w.r.t. the input."""
        X2 = _check_input(X, self.input_dim)
        y2 = _check_labels(y, len(X2), self.class_count)
        return _like_input(X, self._loss_pullback(X2)[1](y2))

    def logit_cot_input_gradients(self, X, cot):
        """Per-example input gradient of sum(cot * logits)."""
        X2 = _check_input(X, self.input_dim)
        cot2 = _check_cotangent(cot, len(X2), self.class_count)
        _, pull = self._pullback(X2)
        return _like_input(X, pull(cot2))


def _ce_logit_cotangent(p: np.ndarray, y: np.ndarray) -> np.ndarray:
    # dL/dlogits for L = -log(max(p_y, floor)); zero where the floor is active
    delta = p.copy()
    if len(y) == 1:  # one attack step: plain indexing
        j = y[0]
        p_y = p[0, j]
        delta[0, j] = p_y - 1.0
        if p_y <= PROB_FLOOR:
            delta[0] = 0.0
        return delta
    rows = np.arange(len(y))
    p_y = p[rows, y]
    delta[rows, y] = p_y - 1.0
    delta[p_y <= PROB_FLOOR] = 0.0
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
    z, zs = _stack_forward(model.weights, model.biases, model.activation, X2, False)
    _check_output(z)
    wg, bg, g = _stack_grads(model, X2, zs, _ce_logit_cotangent(softmax(z), y2))
    return GradientBundle(wg, bg, g[0])


def _batch_param_gradients(model: MlpClassifier, X2, y2):
    """Mean parameter gradients over a batch, plus the mean loss."""
    logits_, zs = _stack_forward(model.weights, model.biases, model.activation, X2, False)
    p = softmax(logits_)
    wg, bg, _ = _stack_grads(model, X2, zs, _ce_logit_cotangent(p, y2) / len(y2),
                             input_cot=False)
    return wg, bg, float(np.mean(cross_entropy(p, y2)))


@dataclass
class AdamState:
    """Adam moments for one variable array.

    The state owns its moments: both are copied to float arrays here, since
    :func:`adam_step` updates them in place.
    """

    first_moment: np.ndarray
    second_moment: np.ndarray
    learning_rate: float = 0.001
    step: int = 0

    def __post_init__(self):
        self.first_moment = np.array(self.first_moment, dtype=float)
        self.second_moment = np.array(self.second_moment, dtype=float)
        if self.first_moment.shape != self.second_moment.shape:
            raise ValueError(f"moments of shapes {self.first_moment.shape} and "
                             f"{self.second_moment.shape}")
        _check_config_types({"step": self.step}, {"learning_rate": self.learning_rate})
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate!r}")
        if self.step < 0:
            raise ValueError(f"step must be >= 0, got {self.step!r}")

    @classmethod
    def zeros(cls, shape, learning_rate=0.001):
        state = cls((), (), learning_rate)  # checks the settings; fresh moments need no copy
        state.first_moment, state.second_moment = np.zeros(shape), np.zeros(shape)
        return state


def adam_step(state: AdamState, variables: np.ndarray, grads: np.ndarray,
              direction: str = MINIMIZE) -> np.ndarray:
    """One bias-corrected Adam update; MAXIMIZE ascends the gradient.

    Updates ``state``'s step and moments in place and returns the updated
    variables as a new array; ``variables`` and ``grads`` are not written.
    Each operation is the textbook one in the textbook order, built in two
    scratch arrays.  MAXIMIZE subtracts where MINIMIZE adds: (1-b1)*(-g) is
    exactly -((1-b1)*g) and (-g)*(-g) exactly g*g, so this equals stepping
    on a negated gradient, bit for bit.
    """
    g = np.asarray(grads, dtype=float)
    if g.shape != np.shape(variables):
        raise ValueError("gradient shape mismatch")
    if g.shape != state.first_moment.shape:
        raise ValueError(f"variables of shape {g.shape} for Adam moments of shape "
                         f"{state.first_moment.shape}")
    if direction not in (MINIMIZE, MAXIMIZE):
        raise ValueError(f"unknown direction {direction!r}")
    state.step += 1
    m, v = state.first_moment, state.second_moment
    a, b = np.empty(g.shape), np.empty(g.shape)
    np.multiply(1 - ADAM_BETA1, g, out=a)
    m *= ADAM_BETA1
    if direction == MAXIMIZE:
        m -= a
    else:
        m += a
    np.multiply(1 - ADAM_BETA2, g, out=a)
    a *= g
    v *= ADAM_BETA2
    v += a
    np.divide(m, 1 - ADAM_BETA1 ** state.step, out=a)  # m_hat
    np.divide(v, 1 - ADAM_BETA2 ** state.step, out=b)  # v_hat
    np.sqrt(b, out=b)
    b += ADAM_EPSILON
    a *= state.learning_rate
    a /= b
    return np.subtract(variables, a, out=a)


def _adam_states(model, learning_rate):
    """One (weight, bias) pair of Adam states per layer of a dense model."""
    return [(AdamState.zeros(W.shape, learning_rate), AdamState.zeros(b.shape, learning_rate))
            for W, b in zip(model.weights, model.biases)]


def _adam_update(model, states, weight_grads, bias_grads) -> None:
    """One Adam step on each layer's weights, then its bias, in place."""
    for i, ((w_state, b_state), wg, bg) in enumerate(zip(states, weight_grads, bias_grads)):
        model.weights[i] = adam_step(w_state, model.weights[i], wg)
        model.biases[i] = adam_step(b_state, model.biases[i], bg)


def _epochs(rng, n, batch_size, epochs, step):
    """Per-epoch mean loss of ``step`` over the ``batch_size`` slices of a fresh
    permutation of range(n), the last short one kept; each epoch draws its
    permutation from ``rng`` just before its steps, which may draw from it too."""
    trace = []
    for _ in range(epochs):
        perm = rng.permutation(n)
        trace.append(float(np.mean([step(perm[start:start + batch_size])
                                    for start in range(0, n, batch_size)])))
    return trace


def train_supervised(model: MlpClassifier, dataset, epochs: int,
                     batch_size: int = 128, lr: float = 0.001, seed=0):
    """Mini-batch Adam training on the cross-entropy loss, over the
    :func:`_epochs` schedule drawn from the seed.  Returns (model, per-epoch
    mean loss trace); the model is updated in place."""
    X = _check_input(dataset.X, model.input_dim)
    y = _check_labels(dataset.y, len(X), model.class_count)
    if len(X) == 0:
        raise ValueError("empty dataset")
    rng = np.random.default_rng(seed)
    states = _adam_states(model, lr)

    def step(sel):
        wg, bg, loss = _batch_param_gradients(model, X[sel], y[sel])
        _adam_update(model, states, wg, bg)
        return loss
    return model, _epochs(rng, len(X), batch_size, epochs, step)


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
    parameter array encoded by :func:`_encode_array`; parameters a load
    would reject (non-finite ones, say, after a diverged training) raise."""
    _check_layers(model.weights, model.biases, model.activation)
    return {"layer_sizes": model.layer_sizes,
            **{f.name: getattr(model, f.name) for f in fields(model)
               if f.name not in ("weights", "biases")},
            "weights": [_encode_array(W) for W in model.weights],
            "biases": [_encode_array(b) for b in model.biases]}


def _object(record) -> dict:
    """record, checked to be a JSON object: anything else raises a ValueError."""
    if not isinstance(record, dict):
        raise ValueError(f"expected a JSON object, got {type(record).__name__}")
    return record


def _field(record, key, convert=None):
    """``convert(record[key])`` (or the bare value); a record that is no
    JSON object, a missing key, or a value ``convert`` rejects raises a
    ValueError naming the key."""
    if key not in _object(record):
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
