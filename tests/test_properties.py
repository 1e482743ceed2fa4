"""Property tests: projection onto the manipulation domain, the outcome
of every attack, the points every attack hands its judge, the
projected-step loop over a batch and over its rows, the sparse-dataset
and policy file round trips, the checkpoint parameter payload, and the
checkpoint round trips of models, hardened models and ensembles; and
that a failing property reports its example under the repo's pytest
settings."""

import json
import os
import subprocess
import sys
import tempfile
from itertools import islice
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from malrobust import attacks
from malrobust.attacks import (ATTACK_NAMES, GREY_BOX, WHITE_BOX, AttackConfig, _box_steps,
                               run_attack_suite, run_single)
from malrobust.data import (Dataset, ManipulationPolicy, admissible, project_to_m,
                            read_policy, read_sparse, write_policy, write_sparse)
from malrobust.defenses import (DenoisingAutoencoder, EnsembleClassifier,
                                HardenedClassifier, load_ensemble, load_hardened,
                                save_ensemble, save_hardened)
from malrobust.nn import (MAXIMIZE, AdamState, MlpClassifier, _decode_array, _encode_array,
                          adam_step, load_model, save_model)

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)

dims = st.integers(1, 40)


@st.composite
def projection_cases(draw):
    """(x, x_cont, policy): a binary origin, any finite continuous point
    and a random policy over one dimension."""
    dim = draw(dims)
    bits = arrays(bool, dim)
    x = draw(bits).astype(float)
    x_cont = draw(arrays(float, dim, elements=st.floats(-2.0, 3.0)))
    return x, x_cont, ManipulationPolicy(draw(bits), draw(bits))


@st.composite
def datasets(draw):
    """Datasets with arbitrary finite cell values, many of them zero."""
    dim, classes, n = draw(dims), draw(st.integers(1, 4)), draw(st.integers(0, 12))
    values = st.one_of(st.just(0.0), st.just(1.0),
                       st.floats(allow_nan=False, allow_infinity=False))
    X = draw(arrays(float, (n, dim), elements=values))
    y = draw(arrays(int, n, elements=st.integers(0, classes - 1)))
    return Dataset(X, y, classes)


@SETTINGS
@given(projection_cases())
def test_project_to_m_is_admissible_and_idempotent(case):
    x, x_cont, policy = case
    once = project_to_m(x, x_cont, policy)
    assert admissible(x, once, policy)
    assert np.array_equal(project_to_m(x, once, policy), once)


@st.composite
def attack_cases(draw):
    """(model, x, y, policy, benign pool) over a small seeded MLP whose
    weights are scaled up so that short attacks can cross its margins."""
    dim, classes = draw(st.integers(1, 12)), draw(st.integers(2, 3))
    sizes = [dim] + draw(st.lists(st.integers(1, 6), max_size=2)) + [classes]
    model = MlpClassifier.init(sizes, draw(st.sampled_from(["relu", "elu"])),
                               seed=draw(st.integers(0, 2**32 - 1)))
    model.weights = [3.0 * W for W in model.weights]
    bits = arrays(bool, dim)
    policy = ManipulationPolicy(draw(bits), draw(bits))
    pool = draw(arrays(bool, (draw(st.integers(1, 4)), dim))).astype(float)
    return model, draw(bits).astype(float), draw(st.integers(0, classes - 1)), policy, pool


@SETTINGS
@given(attack_cases(), st.sampled_from(ATTACK_NAMES), st.integers(0, 8),
       st.sampled_from([{}, {"step_size": 0.5}]), st.integers(0, 2**32 - 1))
def test_attack_outcome_describes_its_point(case, name, max_steps, step, seed):
    model, x, y, policy, pool = case
    cfg = AttackConfig.for_attack(name, max_steps=max_steps, seed=seed,
                                  mimicry_candidates=3, **step)
    out = run_single(model, x, y, policy, cfg, benign_pool=pool)
    assert np.isin(out.x_adv, (0.0, 1.0)).all() and admissible(x, out.x_adv, policy)
    assert out.success == (int(model.predict(out.x_adv)) != y)
    assert out.flips == np.count_nonzero(out.x_adv != x)
    if name == "fgsm":
        assert out.steps_used == 1
    elif name == "mimicry":
        assert out.steps_used == min(3, len(pool))
    else:
        assert out.steps_used <= max_steps
        if int(model.predict(x)) != y:
            assert out.success and out.steps_used == 0


@st.composite
def suite_cases(draw):
    """An attack case and a grey-box surrogate as wide as its model."""
    model, x, y, policy, pool = draw(attack_cases())
    hidden = draw(st.lists(st.integers(1, 6), max_size=2))
    surrogate = MlpClassifier.init([model.input_dim] + hidden + [model.class_count],
                                   seed=draw(st.integers(0, 2**32 - 1)))
    surrogate.weights = [3.0 * W for W in surrogate.weights]
    return model, surrogate, x, y, policy, pool


@settings(max_examples=60, deadline=None, derandomize=True)
@given(suite_cases(), st.sampled_from([WHITE_BOX, GREY_BOX]), st.integers(0, 8),
       st.sampled_from([{}, {"step_size": 0.5}]))
def test_every_judged_point_is_binary_and_admissible(case, threat_model, max_steps, step):
    """attacks._misclassified checks nothing, so every point it receives,
    from each of the eleven attacks and from the grey-box judge on the
    victim, must be binary, as wide as the example and admissible from it."""
    victim, surrogate, x, y, policy, pool = case
    judge, judged = attacks._misclassified, []

    def recording_judge(model, point, y2):
        judged.append(np.array(point))
        return judge(model, point, y2)
    configs = [AttackConfig.for_attack(name, max_steps=max_steps, seed=1,
                                       mimicry_candidates=3, **step) for name in ATTACK_NAMES]
    with mock.patch.object(attacks, "_misclassified", recording_judge):
        run_attack_suite(victim, x[None], [y], policy, configs, threat_model, surrogate, pool)
    assert len(judged) >= len(ATTACK_NAMES)
    for point in judged:
        assert point.shape == x.shape and np.isin(point, (0.0, 1.0)).all()
        assert admissible(x, point, policy)


@SETTINGS
@given(datasets())
def test_sparse_round_trip(ds):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ds.txt")
        write_sparse(path, ds)
        back = read_sparse(path)
    assert (back.dim, back.class_count) == (ds.dim, ds.class_count)
    assert np.array_equal(back.X, ds.X)
    assert np.array_equal(back.y, ds.y)


@SETTINGS
@given(dims.flatmap(lambda d: st.tuples(arrays(bool, d), arrays(bool, d))))
def test_policy_round_trip(flags):
    policy = ManipulationPolicy(*flags)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "policy.txt")
        write_policy(path, policy)
        back = read_policy(path)
    assert np.array_equal(back.addition_allowed, policy.addition_allowed)
    assert np.array_equal(back.removal_allowed, policy.removal_allowed)


FINFO = np.finfo(float)
EDGE_VALUES = [0.0, -0.0, FINFO.smallest_subnormal, -FINFO.smallest_subnormal,
               FINFO.tiny, -FINFO.tiny, FINFO.max, -FINFO.max, 1.0 / 3.0]
finite_floats = st.one_of(st.sampled_from(EDGE_VALUES),
                          st.floats(allow_nan=False, allow_infinity=False))


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == np.float64
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))  # -0.0 stays -0.0


@SETTINGS
@given(arrays(float, array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=8),
              elements=finite_floats))
def test_array_payload_round_trip(a):
    back = _decode_array(json.loads(json.dumps(_encode_array(a))))
    assert back.flags.writeable
    assert_same_bits(back, a)


@st.composite
def edge_mlps(draw):
    """MLPs whose parameters are drawn from any finite float, the extremes,
    signed zeros and subnormals included."""
    sizes = [draw(st.integers(1, 5))] + draw(st.lists(st.integers(1, 5), max_size=2)) \
        + [draw(st.integers(2, 3))]
    weights = [draw(arrays(float, (a, b), elements=finite_floats))
               for a, b in zip(sizes[:-1], sizes[1:])]
    biases = [draw(arrays(float, b, elements=finite_floats)) for b in sizes[1:]]
    return MlpClassifier(weights, biases, draw(st.sampled_from(["relu", "elu"])))


@SETTINGS
@given(edge_mlps())
def test_model_checkpoint_keeps_every_bit(model):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        save_model(path, model)
        back = load_model(path)
    assert back.activation == model.activation
    for got, want in zip(back.weights + back.biases, model.weights + model.biases):
        assert_same_bits(got, want)


@st.composite
def hardened_models(draw, dim, classes):
    """A hardened model over ``dim`` inputs with or without a feature
    subset, thresholds and a DAE, its weights drawn from a seed."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    subset = None
    if draw(st.booleans()):
        subset = np.sort(rng.choice(dim, size=draw(st.integers(1, dim)), replace=False))
    view = dim if subset is None else len(subset)
    thresholds = rng.random(view) if draw(st.booleans()) else None
    activation = draw(st.sampled_from(["relu", "elu"]))
    dae = None
    if draw(st.booleans()):
        dae = DenoisingAutoencoder.init(view, draw(st.integers(1, 6)), activation, seed=rng)
    hidden = draw(st.lists(st.integers(1, 6), max_size=2))
    head_in = view if dae is None else dae.latent_dim
    head = MlpClassifier.init([head_in] + hidden + [classes], activation, seed=rng)
    return HardenedClassifier(head, dae, subset, thresholds, dim)


@st.composite
def ensembles(draw):
    dim, classes = draw(st.integers(1, 10)), draw(st.integers(2, 3))
    members = draw(st.lists(hardened_models(dim, classes), min_size=1, max_size=3))
    return EnsembleClassifier(members)


def same_hardened(a, b):
    pairs = [(a.mlp, b.mlp)]
    if a.dae is not None:
        pairs += [(a.dae.encoder, b.dae.encoder), (a.dae.decoder, b.dae.decoder)]
    assert (b.dae is None) == (a.dae is None)
    for x, y in pairs:
        assert x.activation == y.activation
        assert all(np.array_equal(p, q) for p, q in zip(x.weights + x.biases,
                                                           y.weights + y.biases))
    for field in ("subset", "thresholds"):
        assert (getattr(b, field) is None) == (getattr(a, field) is None)
        assert getattr(a, field) is None or np.array_equal(getattr(a, field),
                                                           getattr(b, field))
    assert b.input_dim == a.input_dim


def binary_inputs(dim):
    return (np.random.default_rng(0).random((6, dim)) < 0.5).astype(float)


CHECKPOINT_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@CHECKPOINT_SETTINGS
@given(st.integers(1, 10).flatmap(lambda d: hardened_models(d, 2)))
def test_hardened_checkpoint_round_trip(clf):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "hardened.json")
        save_hardened(path, clf)
        back = load_hardened(path)
    same_hardened(clf, back)
    X = binary_inputs(clf.input_dim)
    assert np.array_equal(back.predict_proba(X), clf.predict_proba(X))


@CHECKPOINT_SETTINGS
@given(ensembles())
def test_ensemble_checkpoint_round_trip(ens):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ens.json")
        save_ensemble(path, ens)
        assert os.listdir(tmp) == ["ens.json"]
        back = load_ensemble(path)
    assert back.l == ens.l
    for a, b in zip(ens.members, back.members):
        same_hardened(a, b)
    X = binary_inputs(ens.members[0].input_dim)
    assert np.array_equal(back.predict_proba(X), ens.predict_proba(X))


@st.composite
def box_step_cases(draw):
    """(X, D, rate, k): an (n, dim) binary batch, a start delta, the rate
    of an elementwise gradient and a step count."""
    n, dim = draw(st.integers(1, 6)), draw(dims)
    X = draw(arrays(bool, (n, dim))).astype(float)
    D = draw(arrays(float, (n, dim), elements=st.floats(-1.5, 1.5)))
    return X, D, draw(st.floats(-4.0, 4.0)), draw(st.integers(0, 12))


def adam_box_steps(x, delta, rate, k):
    """The first k deltas of the box loop on x, each an Adam step in
    maximization mode on an elementwise gradient of the point and delta."""
    adam = AdamState.zeros(x.shape, learning_rate=0.3)

    def step(point, delta):
        assert np.array_equal(point, x + delta)
        return adam_step(adam, delta, rate * (1.0 - 2.0 * point) + delta * delta, MAXIMIZE)
    return [d.copy() for d in islice(_box_steps(step, x, delta.copy()), k)]


@SETTINGS
@given(box_step_cases())
def test_box_steps_on_a_batch_equal_its_rows(case):
    """A batch run of the projected-step loop yields, row for row, the
    bits of one-example runs, and every point stays in the unit box."""
    X, D, rate, k = case
    batch = adam_box_steps(X, D, rate, k)
    assert len(batch) == k
    for delta in batch:
        assert ((X + delta >= 0.0) & (X + delta <= 1.0)).all()
    for i in range(len(X)):
        rows = adam_box_steps(X[i], D[i], rate, k)
        assert [d.tobytes() for d in rows] == [d[i].tobytes() for d in batch]


PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "pyproject.toml")
FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_below_five(n):
    assert n < 5
"""


def test_failing_property_reports_its_example(tmp_path):
    """Under the repo's warning filters a failing property prints its
    falsifying example: a DeprecationWarning raised as an error by an
    import inside hypothesis's report must not end the run in INTERNALERROR."""
    (tmp_path / "test_failing.py").write_text(FAILING_PROPERTY)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", PYPROJECT, "--rootdir", str(tmp_path),
         "-q", "-p", "no:cacheprovider", "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = result.stdout + result.stderr
    assert "INTERNALERROR" not in out
    assert "Falsifying example: test_below_five(" in out
    assert result.returncode == 1
