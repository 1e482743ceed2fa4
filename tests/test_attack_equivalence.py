"""The search loop of the iterative attacks against the attack bodies it
replaced.

The oracle below keeps the former per-attack functions verbatim, each
point judged by its own ``predict`` and each gradient taken by its own
``input_gradients`` call; every case compares ``run_single`` (and a
grey-box ``run_attack_suite``) to it with exact equality on the
adversarial point, the success flag, the flip count and the steps used,
against a plain MLP, a hardened model with a feature subset, a DAE and
thresholds, and an ensemble of such models.  The oracle's ``project_to_m``
is the earlier revert formula verbatim, which the rounding through each
example's flip mask replaced; a property checks the two agree on every
binary origin.  fgsm's oracle is its earlier body verbatim, which clipped
its one signed step and rounded it through the library's ``project_to_m``;
a property compares it bit for bit to fgsm's first box step of pgd_linf.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from malrobust import attacks, data
from malrobust.attacks import (GREY_BOX, AttackConfig, AttackOutcome, _outcome,
                               _project_l1_ball, run_attack_suite, run_single)
from malrobust.data import ManipulationPolicy, _check_policy
from malrobust.defenses import DenoisingAutoencoder, EnsembleClassifier, HardenedClassifier
from malrobust.nn import MAXIMIZE, AdamState, MlpClassifier, adam_step


# ---------------------------------------------------------------- oracle

def project_to_m(x: np.ndarray, x_cont: np.ndarray, policy: ManipulationPolicy) -> np.ndarray:
    """Round a continuous vector at 0.5 (ties up) and revert policy-violating flips.

    x is the binary origin point; the result is always admissible relative
    to x.  Works on single vectors or (n, dim) batches.
    """
    x = np.asarray(x, dtype=float)
    _check_policy(policy, x)
    x_cont = np.asarray(x_cont, dtype=float)
    rounded = (x_cont >= 0.5).astype(float)
    added = (x == 0.0) & (rounded == 1.0)
    removed = (x == 1.0) & (rounded == 0.0)
    revert = (added & ~policy.addition_allowed) | (removed & ~policy.removal_allowed)
    out = np.where(revert, x, rounded)
    return out


def _misclassified(model, x, y) -> bool:
    return int(model.predict(x)) != int(y)


def random_attack(model, x, y, policy, config, benign_pool, rng) -> AttackOutcome:
    """Flip one uniformly chosen admissible feature per step.

    Each feature is flipped at most once; stops at the step budget, at
    success, or when no admissible flip remains.
    """
    rng = np.random.default_rng(config.seed if rng is None else rng)
    cur = x.copy()
    allowed = np.where(x == 0.0, policy.addition_allowed, policy.removal_allowed)
    candidates = list(np.flatnonzero(allowed))
    steps = 0
    success = _misclassified(model, cur, y)
    while steps < config.max_steps and candidates and not success:
        pick = int(rng.integers(len(candidates)))
        j = candidates.pop(pick)
        cur[j] = 1.0 - cur[j]
        steps += 1
        success = _misclassified(model, cur, y)
    return _outcome(x, cur, success, steps)


def random(model, x, y, policy: ManipulationPolicy, config: AttackConfig):
    return random_attack(model, np.asarray(x, dtype=float), y, policy, config, None, None)


def _addition_candidates(cur, grads, policy):
    return (cur == 0.0) & policy.addition_allowed & (grads > 0.0)


def grosse(model, x, y, policy: ManipulationPolicy, config: AttackConfig):
    """Per step, set the zero feature with the largest positive loss
    gradient to 1 (addition only)."""
    x = np.asarray(x, dtype=float)
    cur = x.copy()
    steps = 0
    success = _misclassified(model, cur, y)
    while steps < config.max_steps and not success:
        g = model.input_gradients(cur, y)
        mask = _addition_candidates(cur, g, policy)
        if not mask.any():
            break
        scores = np.where(mask, g, -np.inf)
        j = int(np.argmax(scores))  # lowest index wins ties
        cur[j] = 1.0
        steps += 1
        success = _misclassified(model, cur, y)
    return _outcome(x, cur, success, steps)


def bga(model, x, y, policy: ManipulationPolicy, config: AttackConfig):
    """Per step, set to 1 every addition-allowed zero feature whose
    positive partial derivative reaches ||grad||_2 / sqrt(dim)."""
    x = np.asarray(x, dtype=float)
    dim = x.shape[0]
    cur = x.copy()
    steps = 0
    success = _misclassified(model, cur, y)
    while steps < config.max_steps and not success:
        g = model.input_gradients(cur, y)
        threshold = float(np.linalg.norm(g)) / np.sqrt(dim)
        mask = (cur == 0.0) & policy.addition_allowed & (g > 0.0) & (g >= threshold)
        if not mask.any():
            break
        cur[mask] = 1.0
        steps += 1
        success = _misclassified(model, cur, y)
    return _outcome(x, cur, success, steps)


def bca(model, x, y, policy: ManipulationPolicy, config: AttackConfig):
    """Per step, flip the single addition-allowed zero feature with the
    maximum positive gradient."""
    x = np.asarray(x, dtype=float)
    cur = x.copy()
    steps = 0
    success = _misclassified(model, cur, y)
    while steps < config.max_steps and not success:
        g = model.input_gradients(cur, y)
        mask = _addition_candidates(cur, g, policy)
        if not mask.any():
            break
        j = int(np.argmax(np.where(mask, g, -np.inf)))
        cur[j] = 1.0
        steps += 1
        success = _misclassified(model, cur, y)
    return _outcome(x, cur, success, steps)


def _ball_project(delta: np.ndarray, variant: str, radius) -> np.ndarray:
    if radius is None:
        return delta
    if variant == "linf":
        return np.clip(delta, -radius, radius)
    if variant == "l2":
        n = float(np.linalg.norm(delta))
        return delta if n <= radius else delta * (radius / n)
    if variant == "l1":
        return _project_l1_ball(delta, radius)
    return delta


def pgd(model, x, y, policy: ManipulationPolicy, config: AttackConfig):
    """Projected gradient ascent on a continuous perturbation.

    Variant picks the per-step direction: linf uses the gradient sign, l2
    the normalized gradient, l1 touches only the coordinate with the
    largest absolute gradient, and adam runs an Adam update in
    maximization mode with no normalization.  Each step clips x + delta
    into the unit box; a finite epsilon_ball additionally projects delta
    into the corresponding norm ball (l1/l2/linf only).  The running
    iterate is rounded through the policy each step so the attack can stop
    at the first admissible success.
    """
    variant = config.name.split("_", 1)[1]  # "l1" | "l2" | "linf" | "adam"
    x = np.asarray(x, dtype=float)
    delta = np.zeros_like(x)
    adam = AdamState.zeros(x.shape, learning_rate=config.step_size)
    best = project_to_m(x, x + delta, policy)
    if _misclassified(model, best, y):
        return _outcome(x, best, True, 0)
    steps = 0
    for _ in range(config.max_steps):
        g = model.input_gradients(x + delta, y)
        if variant == "adam":
            delta = adam_step(adam, delta, g, MAXIMIZE)
        elif variant == "linf":
            delta = delta + config.step_size * np.sign(g)
        elif variant == "l2":
            n = float(np.linalg.norm(g))
            if n > 0.0:
                delta = delta + config.step_size * g / n
        else:  # l1: steepest coordinate whose move is not clipped away
            cur = x + delta
            feasible = ((g > 0.0) & (cur < 1.0)) | ((g < 0.0) & (cur > 0.0))
            if feasible.any():
                j = int(np.argmax(np.where(feasible, np.abs(g), -np.inf)))
                step = np.zeros_like(delta)
                step[j] = config.step_size * np.sign(g[j])
                delta = delta + step
        if variant != "adam":
            delta = _ball_project(delta, variant, config.epsilon_ball)
        delta = np.clip(x + delta, 0.0, 1.0) - x
        steps += 1
        rounded = project_to_m(x, x + delta, policy)
        if _misclassified(model, rounded, y):
            return _outcome(x, rounded, True, steps)
    x_adv = project_to_m(x, x + delta, policy)
    return _outcome(x, x_adv, _misclassified(model, x_adv, y), steps)


def _ead_margin_cotangent(model, x, y, kappa):
    """Gradient seed for g = max(Z_y - max_{j != y} Z_j, -kappa)."""
    z = model.logits(x)
    z_other = z.copy()
    z_other[y] = -np.inf
    j_star = int(np.argmax(z_other))
    margin = float(z[y] - z[j_star])
    cot = np.zeros_like(z)
    if margin > -kappa:
        cot[y] = 1.0
        cot[j_star] = -1.0
    return cot, margin


def ead(model, x, y, policy: ManipulationPolicy, config: AttackConfig):
    """Elastic-net attack: gradient steps on c*g + ||delta||_2^2 followed
    by an l1 proximal shrink of beta * step_size per iteration."""
    x = np.asarray(x, dtype=float)
    lr = config.step_size
    delta = np.zeros_like(x)
    rounded = project_to_m(x, x + delta, policy)
    if _misclassified(model, rounded, y):
        return _outcome(x, rounded, True, 0)
    steps = 0
    for _ in range(config.max_steps):
        cot, _ = _ead_margin_cotangent(model, x + delta, y, config.ead_kappa)
        g = config.ead_c * model.logit_cot_input_gradients(x + delta, cot) + 2.0 * delta
        z = delta - lr * g
        delta = np.sign(z) * np.maximum(np.abs(z) - config.ead_beta * lr, 0.0)
        delta = np.clip(x + delta, 0.0, 1.0) - x
        steps += 1
        rounded = project_to_m(x, x + delta, policy)
        if _misclassified(model, rounded, y):
            return _outcome(x, rounded, True, steps)
    x_adv = project_to_m(x, x + delta, policy)
    return _outcome(x, x_adv, _misclassified(model, x_adv, y), steps)


def fgsm_oracle(model, x, y, policy, config, benign_pool, rng) -> AttackOutcome:
    """Single signed-gradient step of size step_size, then projection."""
    y2 = np.array([y])
    g = attacks._loss_gradient(model, x, y2)
    x_cont = np.clip(x + config.step_size * np.sign(g), 0.0, 1.0)
    x_adv = data.project_to_m(x, x_cont, policy)
    return _outcome(x, x_adv, attacks._misclassified(model, x_adv, y2)[0], 1)


def fgsm(model, x, y, policy: ManipulationPolicy, config: AttackConfig):
    return fgsm_oracle(model, np.asarray(x, dtype=float), y, policy, config, None, None)


# larger steps than the defaults so that 20 steps cross the rounding threshold
OVERRIDES = {"pgd_linf": {"step_size": 0.1}, "pgd_adam": {"step_size": 0.1},
             "ead": {"step_size": 0.1, "ead_c": 20.0}}

ORACLE = {"random": random, "fgsm": fgsm, "grosse": grosse, "bga": bga, "bca": bca,
          "pgd_l1": pgd, "pgd_l2": pgd, "pgd_linf": pgd, "pgd_adam": pgd, "ead": ead}


# ---------------------------------------------------------------- cases

KINDS = ("mlp", "hardened", "ensemble")


def hardened_model(rng, dim, classes, activation):
    """A head behind a seeded feature subset, a DAE and thresholds."""
    view = int(rng.integers(dim // 2, dim + 1))
    subset = np.sort(rng.choice(dim, size=view, replace=False))
    latent = int(rng.integers(3, 9))
    dae = DenoisingAutoencoder.init(view, latent, activation, seed=rng)
    head = MlpClassifier.init([latent, int(rng.integers(4, 12)), classes], activation, seed=rng)
    head.weights = [3.0 * W for W in head.weights]
    return HardenedClassifier(head, dae, subset, np.full(view, 0.5), dim)


def random_case(seed, classes, kind="mlp"):
    """Seeded model of the kind, policy and binary example; about a third
    of the examples start out misclassified."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(6, 20))
    hidden = [int(h) for h in rng.integers(4, 12, size=int(rng.integers(1, 3)))]
    activation = ("relu", "elu")[seed % 2]
    if kind == "mlp":
        model = MlpClassifier.init([dim] + hidden + [classes], activation, seed=seed)
        model.weights = [3.0 * W for W in model.weights]  # margins the budgets can cross
    else:  # from a stream of their own, so every kind sees the same x and policy
        model_rng = np.random.default_rng([seed, 1])
        members = [hardened_model(model_rng, dim, classes, activation)
                   for _ in range(1 if kind == "hardened" else 3)]
        model = members[0] if kind == "hardened" else EnsembleClassifier(members)
    policy = ManipulationPolicy(rng.random(dim) < 0.7, rng.random(dim) < 0.5)
    x = (rng.random(dim) < 0.4).astype(float)
    predicted = int(model.predict(x))
    y = predicted if rng.random() < 0.65 else (predicted + 1) % classes
    return model, x, y, policy


def assert_same(out, ref):
    assert np.array_equal(out.x_adv, ref.x_adv)
    assert out.success == ref.success
    assert out.flips == ref.flips
    assert out.steps_used == ref.steps_used


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", sorted(ORACLE))
@pytest.mark.parametrize("classes", [2, 3])
@pytest.mark.parametrize("max_steps", [0, 1, 20])
def test_matches_oracle(kind, name, classes, max_steps):
    for seed in range(12):
        model, x, y, policy = random_case(seed, classes, kind)
        radii = [None]
        if name in ("pgd_l1", "pgd_l2", "pgd_linf"):
            radii += [0.3, 2.0]
        for radius in radii:
            cfg = AttackConfig.for_attack(name, max_steps=max_steps, epsilon_ball=radius,
                                          **OVERRIDES.get(name, {}))
            assert_same(run_single(model, x, y, policy, cfg), ORACLE[name](model, x, y, policy, cfg))


# step sizes at the rounding threshold: from x = 1, a step down of
# 0.5000000000000001 lands below 0.5, one of 0.49999999999999994 lands on
# 0.5 itself (1 - 0.49999999999999994 rounds to even), which rounds up
HALF = (0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.integers(0, 2**16), st.sampled_from(KINDS), st.sampled_from([2, 3]),
       st.one_of(st.sampled_from(HALF + (1.0,)), st.floats(1e-3, 2.0)),
       st.one_of(st.none(), st.floats(1e-3, 2.0)))
def test_fgsm_matches_its_clipped_projection(seed, kind, classes, step_size, epsilon_ball):
    """fgsm, the first box step of pgd_linf with no ball, rounded through
    the flip mask, equals the earlier clip and project_to_m bit for bit; an
    epsilon_ball changes neither."""
    model, x, y, policy = random_case(seed, classes, kind)
    cfg = AttackConfig.for_attack("fgsm", step_size=step_size, epsilon_ball=epsilon_ball)
    out, ref = run_single(model, x, y, policy, cfg), fgsm(model, x, y, policy, cfg)
    assert_same(out, ref)
    assert (out.l1, out.l2, out.linf) == (ref.l1, ref.l2, ref.linf) and out.steps_used == 1


@pytest.mark.parametrize("kind", KINDS)
def test_cases_cover_both_outcomes(kind):
    """The random cases reach successes from both start points and failures."""
    starts, hits, misses = set(), 0, 0
    for seed in range(12):
        model, x, y, policy = random_case(seed, 2, kind)
        starts.add(int(model.predict(x)) != y)
        out = run_single(model, x, y, policy, AttackConfig.for_attack("bca", max_steps=20))
        hits += out.success and out.steps_used > 0
        misses += not out.success
    assert starts == {False, True} and hits and misses


def test_random_runs_out_of_flips():
    """A model that predicts class 0 everywhere never leaves label 0, so
    random flips every admissible feature once and stops short of its
    budget."""
    model = MlpClassifier([np.zeros((8, 2))], [np.zeros(2)])
    policy = ManipulationPolicy(np.arange(8) < 3, np.arange(8) >= 6)
    x = np.array([0, 0, 0, 1, 0, 1, 1, 1], dtype=float)
    cfg = AttackConfig.for_attack("random", max_steps=20, seed=5)
    out = run_single(model, x, 0, policy, cfg)
    assert_same(out, random(model, x, 0, policy, cfg))
    assert out.steps_used == out.flips == 5 and not out.success


def oracle_grey_box_suite(victim, surrogate, X, y, policy, configs):
    """Each oracle attack searches on the surrogate, with the suite's
    per-example random stream, and its point is judged on the victim."""
    results = {}
    for cfg in configs:
        outs = []
        for i in range(len(X)):
            if cfg.name == "random":
                ref = random_attack(surrogate, X[i], y[i], policy, cfg, None,
                                    np.random.default_rng([cfg.seed, i]))
            else:
                ref = ORACLE[cfg.name](surrogate, X[i], y[i], policy, cfg)
            outs.append(_outcome(X[i], ref.x_adv, _misclassified(victim, ref.x_adv, y[i]),
                                 ref.steps_used))
        results[cfg.name] = outs
    return results


@pytest.mark.parametrize("classes", [2, 3])
def test_grey_box_suite_matches_oracle(classes):
    """An ensemble victim attacked through a hardened surrogate."""
    for seed in range(6):
        victim, x, _, policy = random_case(seed, classes, "ensemble")
        surrogate = random_case(seed, classes, "hardened")[0]
        rng = np.random.default_rng([seed, 2])
        X = np.vstack([x, (rng.random((3, len(x))) < 0.4).astype(float)])
        y = (surrogate.predict(X) + (rng.random(len(X)) < 0.35)) % classes
        configs = [AttackConfig.for_attack(name, max_steps=20, seed=seed + 5,
                                           **OVERRIDES.get(name, {})) for name in sorted(ORACLE)]
        got = run_attack_suite(victim, X, y, policy, configs, threat_model=GREY_BOX,
                               surrogate=surrogate)
        ref = oracle_grey_box_suite(victim, surrogate, X, y, policy, configs)
        assert list(got) == list(ref)
        for name in got:
            for out, expected in zip(got[name], ref[name], strict=True):
                assert_same(out, expected)


# ---------------------------------------------------------------- rounding

# continuous coordinates as the projected steps meet them, with ties at the
# rounding threshold, both signed zeros and points outside the unit box
coords = st.one_of(st.sampled_from([0.5, 0.0, -0.0, 1.0, np.nextafter(0.5, 0.0)]),
                   st.floats(-2.0, 3.0))


@st.composite
def rounding_cases(draw):
    """(x, x_cont, policy): a binary origin (its zeros of either sign), a
    batch of continuous points and a random policy over one dimension."""
    dim = draw(st.integers(1, 30))
    x = np.where(draw(arrays(bool, dim)), 1.0, np.where(draw(arrays(bool, dim)), -0.0, 0.0))
    x_cont = draw(arrays(float, (draw(st.integers(1, 3)), dim), elements=coords))
    return x, x_cont, ManipulationPolicy(draw(arrays(bool, dim)), draw(arrays(bool, dim)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rounding_cases())
def test_mask_rounding_matches_revert_formula(case):
    """On a binary origin, rounding through the flip mask equals the
    earlier revert formula, one vector or a batch at a time."""
    x, x_cont, policy = case
    for cont in (x_cont[0], x_cont):
        want = project_to_m(x, cont, policy)
        for got in (data.project_to_m(x, cont, policy),
                    data._round_flips(data._flippable(x, policy), x, cont)):
            assert got.dtype == want.dtype == np.float64
            assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("name", ["pgd_l1", "pgd_l2", "pgd_linf", "pgd_adam", "ead"])
def test_projected_run_builds_the_flip_mask_once(name, monkeypatch):
    calls, flippable = [], data._flippable

    def counting(x, policy):
        calls.append(x)
        return flippable(x, policy)
    for module in (attacks, data):  # project_to_m builds its mask through data's
        monkeypatch.setattr(module, "_flippable", counting)
    model, x, y, policy = random_case(0, 2)
    y = int(model.predict(x))  # correctly classified, so the loop runs
    out = run_single(model, x, y, policy, AttackConfig.for_attack(name, max_steps=7))
    assert out.steps_used > 1 and len(calls) == 1
