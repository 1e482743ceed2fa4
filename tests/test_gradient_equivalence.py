"""The shared backward recursion against the full backward it replaced.

``old_stack_backward`` is the earlier backward pass verbatim: it built
every layer's weight and bias gradients on every call, input gradients
included.  The ``old_*`` helpers rebuild the earlier input-gradient paths
of the plain, hardened and ensemble classifiers on top of it;
``old_scatter`` is the earlier ``HardenedClassifier._scatter`` verbatim and
``old_input_backward`` the earlier ``DenseStack.input_backward`` (now with
the first layer's product that ``_stack_backward`` leaves to its callers),
which each model's ``_pullback`` replaced.  ``old_predict_proba`` is the
earlier ``predict_proba`` (the plain and hardened models' softmax of their
logits, the ensemble's hand-written vote) and ``old_ensemble_logits`` the
ensemble's hand-written log vote, both of which the ensemble's two private
entries replaced.  ``old_softmax`` and ``old_ce_logit_cotangent`` are the
earlier ``softmax`` and ``_ce_logit_cotangent`` verbatim, so the oracle
shares no arithmetic with the code it checks.  Every comparison is bitwise (``np.array_equal``):
attack outcome tables, trained models and reports depend on the exact
floating-point values.
"""

import numpy as np
import pytest

from malrobust.defenses import (DenoisingAutoencoder, EnsembleClassifier,
                                HardenedClassifier)
from malrobust.nn import (PROB_FLOOR, DenseStack, MlpClassifier, _act, _act_grad,
                          _batch_param_gradients, _ce_logit_cotangent, _check_input,
                          _like_input, _stack_backward, _stack_forward, backward,
                          cross_entropy, softmax)

DIM = 40
HIDDEN = 24
LATENT = 16
CLASSES = 2


def old_softmax(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def old_ce_logit_cotangent(p: np.ndarray, y: np.ndarray) -> np.ndarray:
    # dL/dlogits for L = -log(max(p_y, floor)); zero where the floor is active
    delta = p.copy()
    rows = np.arange(len(y))
    delta[rows, y] -= 1.0
    floored = p[rows, y] <= PROB_FLOOR
    if np.any(floored):
        delta[floored] = 0.0
    return delta


def old_stack_backward(weights, biases, activation, X, zs, out_cot, activate_last):
    """Backpropagate a cotangent on the stack output.

    Returns (weight_grads, bias_grads, input_cot); parameter gradients are
    summed over the batch, the input cotangent stays per-example.
    """
    last = len(weights) - 1
    # reconstruct layer inputs from the cache
    inputs = [X]
    for i in range(last):
        inputs.append(_act(activation, zs[i]))
    delta = out_cot
    if activate_last:
        delta = delta * _act_grad(activation, zs[last])
    w_grads = [None] * len(weights)
    b_grads = [None] * len(weights)
    for i in range(last, -1, -1):
        w_grads[i] = inputs[i].T @ delta
        b_grads[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ weights[i].T) * _act_grad(activation, zs[i - 1])
        else:
            delta = delta @ weights[i].T
    return w_grads, b_grads, delta


def old_scatter(self, X, view_grads):
    if self.subset is None:
        out = view_grads
    else:
        X2 = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.zeros_like(X2)
        out[:, self.subset] = view_grads
    return out if np.ndim(X) == 2 else out[0]


def old_input_backward(self, zs, out_cot):
    """Input cotangent alone, without parameter gradients."""
    return _stack_backward(self.weights, self.activation, zs, out_cot,
                           self.activate_last)[0] @ self.weights[0].T


def old_mlp_backward(model, X2, out_cot):
    _, zs = _stack_forward(model.weights, model.biases, model.activation, X2, False)
    return old_stack_backward(model.weights, model.biases, model.activation,
                              X2, zs, out_cot, False)


def old_mlp_ce_cotangent(model, X2, y2):
    logits, _ = _stack_forward(model.weights, model.biases, model.activation, X2, False)
    return old_ce_logit_cotangent(old_softmax(logits), y2)


def old_hardened(clf, X2, head_grad):
    V = clf._view(X2)
    if clf.dae is None:
        return old_scatter(clf, X2, head_grad(clf.mlp, V))
    enc = clf.dae.encoder
    H, zs = enc.forward_cached(V)
    _, _, v_cot = old_stack_backward(enc.weights, enc.biases, enc.activation,
                                     V, zs, head_grad(clf.mlp, H), enc.activate_last)
    return old_scatter(clf, X2, v_cot)


def old_predict_proba(model, X):
    if not isinstance(model, EnsembleClassifier):  # the earlier MlpClassifier.predict_proba
        return old_softmax(model.logits(X))
    # the earlier EnsembleClassifier.predict_proba over its member loop
    X2 = _check_input(X, model.input_dim)
    members = [m._pullback(X2) for m in model.members]
    qs = [old_softmax(z) for z, _ in members]
    return _like_input(X, sum(qs) / model.l)


def old_ensemble_logits(ens, X):
    # mean-probability voting has no single pre-softmax layer; the log
    # of the vote is the monotone stand-in used by margin attacks
    p = old_predict_proba(ens, X)
    return np.log(np.maximum(p, PROB_FLOOR))


def old_ensemble(ens, X2, v_of_p):
    p = np.atleast_2d(old_predict_proba(ens, X2))
    v2 = v_of_p(p)
    total = np.zeros_like(X2)
    for m in ens.members:
        q = np.atleast_2d(m.predict_proba(X2))
        a = v2 / ens.l
        w = q * (a - (q * a).sum(axis=1, keepdims=True))
        total += old_hardened(m, X2, lambda mlp, H: old_mlp_backward(mlp, H, w)[2])
    return total


def ce_prob_cotangent(y2):
    def v_of_p(p):
        rows = np.arange(len(y2))
        v = np.zeros_like(p)
        v[rows, y2] = -1.0 / np.maximum(p[rows, y2], 1e-12)
        v[p[rows, y2] <= 1e-12] = 0.0
        return v
    return v_of_p


def old_input_gradients(model, X2, y2):
    def head(mlp, H):
        return old_mlp_backward(mlp, H, old_mlp_ce_cotangent(mlp, H, y2))[2]
    if isinstance(model, MlpClassifier):
        return head(model, X2)
    if isinstance(model, HardenedClassifier):
        return old_hardened(model, X2, head)
    return old_ensemble(model, X2, ce_prob_cotangent(y2))


def old_logit_cot_input_gradients(model, X2, cot2):
    def head(mlp, H):
        return old_mlp_backward(mlp, H, cot2)[2]
    if isinstance(model, MlpClassifier):
        return head(model, X2)
    if isinstance(model, HardenedClassifier):
        return old_hardened(model, X2, head)
    return old_ensemble(model, X2, lambda p: cot2 / np.maximum(p, 1e-12))


def hardened_member(activation, depth, rng):
    subset = np.sort(rng.choice(DIM, size=DIM // 2, replace=False))
    dae = DenoisingAutoencoder.init(len(subset), LATENT, activation, seed=rng)
    head = MlpClassifier.init([LATENT] + [HIDDEN] * depth + [CLASSES], activation, seed=rng)
    return HardenedClassifier(head, dae, subset, None, DIM)


def make_model(kind, activation, depth, rng):
    if kind == "mlp":
        return MlpClassifier.init([DIM] + [HIDDEN] * depth + [CLASSES], activation, seed=rng)
    if kind == "hardened":
        return hardened_member(activation, depth, rng)
    return EnsembleClassifier([hardened_member(activation, depth, rng) for _ in range(2)])


def batch(n, rng):
    # continuous points in the unit box, as the inner maximizer visits them
    return rng.random((n, DIM)), rng.integers(0, CLASSES, size=n)


GRID = pytest.mark.parametrize("activation,n,depth", [
    (a, n, d) for a in ("relu", "elu") for n in (1, 128) for d in (1, 2, 3)])


@pytest.mark.parametrize("kind", ["mlp", "hardened", "ensemble"])
@GRID
class TestInputGradients:
    def test_input_gradients(self, kind, activation, n, depth):
        rng = np.random.default_rng([depth, n])
        model = make_model(kind, activation, depth, rng)
        X, y = batch(n, rng)
        assert np.array_equal(model.input_gradients(X, y),
                              old_input_gradients(model, X, y))

    def test_logit_cot_input_gradients(self, kind, activation, n, depth):
        rng = np.random.default_rng([depth, n, 1])
        model = make_model(kind, activation, depth, rng)
        X, _ = batch(n, rng)
        cot = rng.normal(size=(n, CLASSES))
        assert np.array_equal(model.logit_cot_input_gradients(X, cot),
                              old_logit_cot_input_gradients(model, X, cot))


@pytest.mark.parametrize("kind", ["mlp", "hardened", "ensemble"])
@GRID
def test_predict_proba_and_logits(kind, activation, n, depth):
    rng = np.random.default_rng([depth, n, 5])
    model = make_model(kind, activation, depth, rng)
    X, _ = batch(n, rng)
    for x in (X, X[0]):
        assert np.array_equal(model.predict_proba(x), old_predict_proba(model, x))
        if kind == "ensemble":
            assert np.array_equal(model.logits(x), old_ensemble_logits(model, x))


def assert_lists_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


@GRID
def test_batch_param_gradients(activation, n, depth):
    rng = np.random.default_rng([depth, n, 2])
    model = make_model("mlp", activation, depth, rng)
    X, y = batch(n, rng)
    wg, bg, loss = _batch_param_gradients(model, X, y)
    old_wg, old_bg, _ = old_mlp_backward(model, X, old_mlp_ce_cotangent(model, X, y) / n)
    assert_lists_equal(wg, old_wg)
    assert_lists_equal(bg, old_bg)
    assert loss == float(np.mean(cross_entropy(model.predict_proba(X), y)))


@pytest.mark.parametrize("activation", ["relu", "elu"])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_backward(activation, depth):
    rng = np.random.default_rng([depth, 3])
    model = make_model("mlp", activation, depth, rng)
    X, y = batch(4, rng)
    for x, label in zip(X, y):
        got = backward(model, x, label)
        X1, y1 = x[None, :], np.array([label])
        old_wg, old_bg, old_xg = old_mlp_backward(model, X1,
                                                  old_mlp_ce_cotangent(model, X1, y1))
        assert_lists_equal(got.weight_grads, old_wg)
        assert_lists_equal(got.bias_grads, old_bg)
        assert np.array_equal(got.input_grad, old_xg[0])


@pytest.mark.parametrize("activate_last", [False, True])
@GRID
def test_dense_stack_backward(activation, n, depth, activate_last):
    rng = np.random.default_rng([depth, n, 4])
    stack = DenseStack.init([DIM] + [HIDDEN] * depth + [LATENT], activation,
                            seed=rng, activate_last=activate_last)
    X, _ = batch(n, rng)
    _, zs = stack.forward_cached(X)
    cot = rng.normal(size=(n, LATENT))
    old = old_stack_backward(stack.weights, stack.biases, activation, X, zs, cot,
                             activate_last)
    wg, bg, xg = stack.backward(X, zs, cot)
    assert_lists_equal(wg, old[0])
    assert_lists_equal(bg, old[1])
    assert np.array_equal(xg, old[2])
    assert np.array_equal(old_input_backward(stack, zs, cot), old[2])
    out, pull = stack._pullback(X)
    assert np.array_equal(out, stack.forward(X)) and np.array_equal(pull(cot), old[2])


@pytest.mark.parametrize("shape", [(2,), (1, 2), (3, 5), (128, 2), (7, 1)])
def test_softmax(shape):
    rng = np.random.default_rng(len(shape) + shape[-1])
    for scale in (1e-3, 1.0, 30.0, 800.0):  # the last saturates exp
        z = scale * rng.normal(size=shape)
        for view in (z, z[..., ::-1]):  # also a strided view, left unwritten
            before = view.copy()
            got = softmax(view)
            assert got.dtype == np.float64 and np.array_equal(got, old_softmax(view))
            assert np.array_equal(view, before)


def test_ce_logit_cotangent_at_the_floor():
    """Rows whose p_y is 0, exactly PROB_FLOOR or the next double above it,
    with labels that repeat and differ across rows."""
    above = np.nextafter(PROB_FLOOR, 1.0)
    p = np.array([[0.0, 1.0], [PROB_FLOOR, 1.0 - PROB_FLOOR], [above, 1.0 - above],
                  [1.0 - above, above], [0.25, 0.75], [1.0 - PROB_FLOOR, PROB_FLOOR]])
    y = np.array([0, 0, 0, 1, 1, 1])
    before = p.copy()
    got = _ce_logit_cotangent(p, y)
    assert np.array_equal(got, old_ce_logit_cotangent(p, y))
    assert np.array_equal(p, before)
    assert np.array_equal(got[[0, 1, 5]], np.zeros((3, 2)))  # the floor's rows
    assert got[2, 0] == above - 1.0 and got[3, 1] == above - 1.0
    rng = np.random.default_rng(7)
    for n, k in ((1, 2), (64, 3)):
        p = old_softmax(rng.normal(scale=40.0, size=(n, k)))
        y = rng.integers(0, k, size=n)
        assert np.array_equal(_ce_logit_cotangent(p, y), old_ce_logit_cotangent(p, y))


@pytest.mark.parametrize("X", [0.0, [0.0, 1.0, 0.5], [[0.0, 1.0, 0.5]], np.ones((4, 3))[:, ::-1]])
def test_check_input_shapes_as_atleast_2d(X):
    want = np.atleast_2d(np.asarray(X, dtype=float))
    got = _check_input(X, want.shape[1])
    assert got.shape == want.shape and np.array_equal(got, want)
