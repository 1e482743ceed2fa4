"""Evasion attacks over binary feature vectors.

Eleven attacks, all constrained to the discrete manipulation domain:
random, mimicry, fgsm, grosse, bga, bca, four PGD variants (l1 / l2 /
linf steepest-ascent steps and an Adam-driven variant), and ead (elastic
net with iterative shrinkage).  Gradient-based attacks maximize the
victim's cross-entropy loss (ead minimizes a logit-margin objective);
every attack emits a binary vector admissible under the policy.

fgsm and mimicry are one-shot: fgsm is the first step of pgd_linf with
no epsilon ball, judged once.  The nine iterative attacks share one
search loop: it judges each point an attack proposes, except a repeat of
the point judged just before, and stops at the first success, at the step
budget, or when nothing is left to propose.  Each family only proposes
points: random flips one admissible feature at a time; grosse, bca and
bga set to 1 the features a selection rule picks, from the gradient over
the forward that judged the current point; the four PGD variants and ead
round each step of _box_steps, the one projected-step loop (the inner
maximizer's too, which rounds once per trial), through the example's flip
mask, built once per run, as fgsm rounds its step and mimicry its guides.
run_single dispatches on the attack name through a table.

Checks sit at the edges: run_single checks its example once (one binary
vector as wide as the model and the policy) and its label; the suite
checks its pool's width against the attacking model and the victim, and
its labels, before any run.  Every point a step then judges is binary and
admissible by construction, and every gradient is taken at a point in
the unit box, so the judge (_misclassified) and the directions call the
model's private entries on one-row views, with the label as an array
built once per run, and check nothing.  An overflowing model still
raises, from the logits check of its forward.

An attack succeeds when the model it runs against no longer predicts the
true label.  Under the grey-box threat model the suite runs each attack
against a surrogate model and then judges success on the real victim.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import islice
from typing import Optional

import numpy as np

from .data import (_check_binary, _check_config_types, _check_labels, _check_policy,
                   _check_seed, _flippable, _round_flips)
from .data import project_to_m  # noqa: F401  (bench/spans.py traces it by module)
from .nn import MAXIMIZE, AdamState, _check_width, adam_step

WHITE_BOX = "white_box"
GREY_BOX = "grey_box"
OUTCOME_COLUMNS = ("attack", "example_id", "success", "flips", "l1", "l2", "linf", "steps_used")

# step sizes from the evaluation protocol; max_steps defaults to 100 everywhere
_DEFAULT_STEP = {
    "fgsm": 1.0,
    "pgd_l1": 1.0,
    "pgd_l2": 1.0,
    "pgd_linf": 0.01,
    "pgd_adam": 0.01,
    "ead": 0.01,
}


@dataclass
class AttackConfig:
    name: str
    max_steps: int = 100
    step_size: Optional[float] = None  # None = the attack's entry in _DEFAULT_STEP, else 0.01
    epsilon_ball: Optional[float] = None  # None = unconstrained
    ead_beta: float = 0.1
    ead_kappa: float = 64.0
    ead_c: float = 1.0
    mimicry_candidates: int = 10
    mimicry_selection: str = "nearest"  # or "random"
    seed: object = 0  # an int or a list of ints

    def __post_init__(self):
        if self.name not in ATTACK_NAMES:
            raise ValueError(f"unknown attack {self.name!r}")
        if self.step_size is None:
            self.step_size = _DEFAULT_STEP.get(self.name, 0.01)
        reals = ["step_size", "ead_beta", "ead_kappa", "ead_c"]
        if self.epsilon_ball is not None:
            reals.append("epsilon_ball")
        _check_config_types({k: getattr(self, k) for k in ("max_steps", "mimicry_candidates")},
                            {k: getattr(self, k) for k in reals})
        _check_seed(self.seed)
        if min(self.max_steps, self.ead_beta, self.ead_kappa) < 0:
            raise ValueError("max_steps, ead_beta and ead_kappa must be >= 0")
        for key in ("step_size", "ead_c"):
            if getattr(self, key) <= 0:
                raise ValueError(f"{key} must be positive")
        if self.epsilon_ball is not None and self.epsilon_ball <= 0:
            raise ValueError("epsilon_ball must be positive or None")
        if self.mimicry_candidates < 1:
            raise ValueError("mimicry_candidates must be >= 1")
        if self.mimicry_selection not in ("nearest", "random"):
            raise ValueError(f"unknown mimicry_selection {self.mimicry_selection!r}")

    @classmethod
    def for_attack(cls, name: str, **overrides) -> "AttackConfig":
        """The plain constructor, which fills in the per-attack step size."""
        return cls(name=name, **overrides)


@dataclass
class AttackOutcome:
    x_adv: np.ndarray
    success: bool
    flips: int
    l1: float
    l2: float
    linf: float
    steps_used: int


def _outcome(x, x_adv, success, steps) -> AttackOutcome:
    delta = x_adv - x
    return AttackOutcome(
        x_adv=x_adv,
        success=bool(success),
        flips=int(np.count_nonzero(delta)),
        l1=float(np.abs(delta).sum()),
        l2=float(np.sqrt((delta * delta).sum())),
        linf=float(np.max(np.abs(delta))) if delta.size else 0.0,
        steps_used=int(steps),
    )


def _misclassified(model, x, y2):
    """The one judge of an attack point: whether the model no longer
    predicts the run's label (y2, an array of one) at the point x, and a
    thunk for the loss input gradient at x over the same forward.  x is a
    binary admissible point of a checked run, so it is not checked again."""
    p, grad = model._loss_pullback(x[None])
    return p.argmax() != y2[0], lambda: grad(y2)[0]


def _loss_gradient(model, point, y2):
    """The loss input gradient at a point in the unit box an attack step
    built, unchecked like the judge's points."""
    return model._loss_pullback(point[None])[1](y2)[0]


def _check_pool(benign_pool, dim: int) -> np.ndarray:
    """The benign pool as a float batch, checked to be a non-empty binary
    2-d batch ``dim`` wide."""
    if benign_pool is None:
        raise ValueError("mimicry requires a benign pool")
    pool = np.asarray(benign_pool, dtype=float)
    if pool.ndim != 2 or pool.shape[1] != dim:
        raise ValueError(f"benign pool of shape {pool.shape} is no batch of width {dim}")
    if len(pool) == 0:
        raise ValueError("empty benign pool")
    _check_binary(pool, "benign pool")
    return pool


# Every attack below takes (model, x, y, policy, config, benign_pool, rng)
# with x a float vector, and each proposal generator of _search (model, x,
# y, policy, config, rng, grad); run_single dispatches through _ATTACKS.

def mimicry_attack(model, x, y, policy, config, benign_pool, rng) -> AttackOutcome:
    """Copy the admissible coordinates of guide examples onto x.

    Guides are the `mimicry_candidates` pool vectors nearest to x in l1
    distance (or a uniform random subset when `mimicry_selection` is
    "random").  Among candidates that evade the model the one with the
    smallest l1 perturbation is returned; otherwise the overall
    minimum-perturbation candidate with success False.
    """
    pool = _check_pool(benign_pool, len(x))
    rng = np.random.default_rng(config.seed if rng is None else rng)
    k = min(config.mimicry_candidates, len(pool))
    if config.mimicry_selection == "random":
        guide_idx = rng.choice(len(pool), size=k, replace=False)
    else:
        dists = np.abs(pool - x).sum(axis=1)
        guide_idx = np.argsort(dists, kind="stable")[:k]
    flip_ok, y2 = _flippable(x, policy), np.array([y])
    best = None  # ((success_rank, l1, order), candidate, success)
    for order, gi in enumerate(guide_idx):
        cand = _round_flips(flip_ok, x, pool[gi])
        l1 = float(np.abs(cand - x).sum())
        succ, _ = _misclassified(model, cand, y2)
        key = (0 if succ else 1, l1, order)
        if best is None or key < best[0]:
            best = (key, cand, succ)
    key, cand, succ = best
    return _outcome(x, cand, succ, len(guide_idx))


def fgsm(model, x, y, policy, config, benign_pool, rng) -> AttackOutcome:
    """The first step of pgd_linf with no epsilon ball, judged once."""
    y2 = np.array([y])
    delta = next(_box_steps(lambda point, delta: _sign_step(model, point, y2, delta, config),
                            x, np.zeros_like(x)))
    x_adv = _round_flips(_flippable(x, policy), x, x + delta)
    return _outcome(x, x_adv, _misclassified(model, x_adv, y2)[0], 1)


def _search(propose, model, x, y, policy, config, benign_pool, rng) -> AttackOutcome:
    """The loop of the nine iterative attacks: judge each array that
    ``propose(model, x, y, policy, config, rng, grad)`` yields until one
    succeeds, ``max_steps`` are proposed or none is left.  A proposal
    equal to the last judged point is a step with no judge: that point was
    not misclassified.  ``grad()`` is the loss input gradient at the last
    judged point, from its judge's forward.  A start point that is already
    misclassified succeeds after 0 steps."""
    x_adv, steps, y2 = x.copy(), 0, np.array([y])
    judged, (success, grad) = x, _misclassified(model, x, y2)
    if not success:
        # the lambda looks grad up when called, so it follows each judge
        for steps, x_adv in enumerate(islice(propose(model, x, y, policy, config, rng,
                                                     lambda: grad()), config.max_steps), 1):
            if not (x_adv == judged).all():
                judged, (success, grad) = x_adv, _misclassified(model, x_adv, y2)
                if success:
                    break
    return _outcome(x, x_adv, success, steps)


def _random_flips(model, x, y, policy, config, rng, grad):
    """random: flip one uniformly chosen admissible feature per step, each
    feature at most once."""
    rng = np.random.default_rng(config.seed if rng is None else rng)
    candidates = list(np.flatnonzero(_flippable(x, policy)))
    cur = x
    while candidates:
        j = candidates.pop(int(rng.integers(len(candidates))))
        cur = cur.copy()
        cur[j] = 1.0 - cur[j]
        yield cur


def _greedy_flips(select, model, x, y, policy, config, rng, grad):
    """grosse, bca and bga: set to 1 the features `select` picks among the
    addition-allowed zero features with a positive loss gradient, until
    nothing is picked; never removes a feature.  Each proposal differs
    from the point before, so ``grad()`` is always the gradient at cur."""
    cur, open_ = x, (x == 0.0) & policy.addition_allowed  # open_: addition-allowed zeros of cur
    while True:
        g = grad()
        picked = select(g, open_ & (g > 0.0))
        if len(picked) == 0:
            return
        cur = cur.copy()
        cur[picked], open_[picked] = 1.0, False
        yield cur


def _top_gradient(g, candidates):
    """grosse and bca: the candidate with the largest gradient (lowest
    index on ties).  For two classes the softmax saliency of Grosse et al.
    is a positive multiple of that gradient, so one rule serves both."""
    return [int(np.where(candidates, g, -np.inf).argmax())] if candidates.any() else []


def _gradient_threshold(g, candidates):
    """bga: every candidate whose gradient reaches ||g||_2 / sqrt(dim)."""
    return np.flatnonzero(candidates & (g >= float(np.linalg.norm(g)) / np.sqrt(g.shape[0])))


def _project_l1_ball(v: np.ndarray, radius: float) -> np.ndarray:
    if np.abs(v).sum() <= radius:
        return v
    u = np.sort(np.abs(v))[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, len(u) + 1)
    cond = u - (css - radius) / ks > 0
    rho = ks[cond][-1]
    tau = (css[rho - 1] - radius) / rho
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


def _box_steps(step, x, delta):
    """The projected-step loop, for one example x or an (n, dim) batch:
    yields each delta ``step(point, delta)`` returns (an array other than
    point, one buffer reused for x + delta), clipped in place so that
    x + delta lies in the unit box."""
    point = np.empty_like(x)
    while True:
        delta = step(np.add(x, delta, out=point), delta)
        np.add(x, delta, out=delta)
        delta.clip(0.0, 1.0, out=delta)
        delta -= x
        yield delta


def _projected_steps(direction, model, x, y, policy, config, rng, grad):
    """The pgd variants and ead: `direction` takes each box step of a
    delta that starts at 0, with the label as an array of one, and each
    proposal rounds x + delta through x's flip mask, built once (run_single
    checked x binary)."""
    adam = AdamState.zeros(x.shape, learning_rate=config.step_size)
    flippable, y2 = _flippable(x, policy), np.array([y])
    for delta in _box_steps(lambda point, delta: direction(model, point, y2, delta, config, adam),
                            x, np.zeros_like(x)):
        yield _round_flips(flippable, x, x + delta)


# Directions of the projected steps, each taken at point = x + delta with
# y2 the label as an array of one.  A finite epsilon_ball projects the l1 /
# l2 / linf steps into their norm ball; `adam` is the example's Adam state,
# used by pgd_adam only.

def _l1_direction(model, point, y2, delta, config, adam):
    """Move the steepest coordinate whose move is not clipped away."""
    g = _loss_gradient(model, point, y2)
    feasible = ((g > 0.0) & (point < 1.0)) | ((g < 0.0) & (point > 0.0))
    if feasible.any():
        j = int(np.where(feasible, np.abs(g), -np.inf).argmax())
        delta = delta.copy()  # a -0.0 kept here is made +0.0 by the box clip
        delta[j] += config.step_size * np.sign(g[j])
    return delta if config.epsilon_ball is None else _project_l1_ball(delta, config.epsilon_ball)


def _l2_direction(model, point, y2, delta, config, adam):
    """Step along the normalized gradient."""
    g = _loss_gradient(model, point, y2)
    n = float(np.linalg.norm(g))
    if n > 0.0:
        delta = delta + config.step_size * g / n
    radius = config.epsilon_ball
    if radius is None:
        return delta
    n = float(np.linalg.norm(delta))
    return delta if n <= radius else delta * (radius / n)


def _sign_step(model, point, y2, delta, config):
    """Step along the gradient sign: fgsm's one step, and pgd_linf's."""
    return delta + config.step_size * np.sign(_loss_gradient(model, point, y2))


def _linf_direction(model, point, y2, delta, config, adam):
    """_sign_step, then into a finite epsilon_ball."""
    delta, radius = _sign_step(model, point, y2, delta, config), config.epsilon_ball
    return delta if radius is None else delta.clip(-radius, radius)


def _adam_direction(model, point, y2, delta, config, adam):
    """Adam update in maximization mode, with no normalization."""
    return adam_step(adam, delta, _loss_gradient(model, point, y2), MAXIMIZE)


def _ead_margin_cotangent(z, y, kappa):
    """Gradient seed for g = max(Z_y - max_{j != y} Z_j, -kappa) at logits z."""
    z_other = z.copy()
    z_other[y] = -np.inf
    j_star = int(z_other.argmax())
    cot = np.zeros_like(z)
    if float(z[y] - z[j_star]) > -kappa:
        cot[y] = 1.0
        cot[j_star] = -1.0
    return cot


def _ead_direction(model, point, y2, delta, config, adam):
    """Elastic net: gradient step on c*g + ||delta||_2^2, then an l1 proximal
    shrink of beta * step_size; g and its gradient come from one _pullback."""
    logits, pull = model._pullback(point[None])
    cot = _ead_margin_cotangent(logits[0], y2[0], config.ead_kappa)
    g = config.ead_c * pull(cot[None])[0] + 2.0 * delta
    z = delta - config.step_size * g
    return np.sign(z) * np.maximum(np.abs(z) - config.ead_beta * config.step_size, 0.0)


_ATTACKS = {
    "random": partial(_search, _random_flips),
    "mimicry": mimicry_attack,
    "fgsm": fgsm,
    "grosse": partial(_search, partial(_greedy_flips, _top_gradient)),
    "bga": partial(_search, partial(_greedy_flips, _gradient_threshold)),
    "bca": partial(_search, partial(_greedy_flips, _top_gradient)),
    "pgd_l1": partial(_search, partial(_projected_steps, _l1_direction)),
    "pgd_l2": partial(_search, partial(_projected_steps, _l2_direction)),
    "pgd_linf": partial(_search, partial(_projected_steps, _linf_direction)),
    "pgd_adam": partial(_search, partial(_projected_steps, _adam_direction)),
    "ead": partial(_search, partial(_projected_steps, _ead_direction)),
}
ATTACK_NAMES = tuple(_ATTACKS)


def run_single(model, x, y, policy, config: AttackConfig,
               benign_pool=None, rng=None) -> AttackOutcome:
    """Run one attack against one binary example with a label of the model.

    The run's checks are made here, once: x is one binary example as wide
    as the model and the policy, and y one label of the model.  Every point
    the attack then builds is binary and admissible, or in the unit box, so
    no step checks it again."""
    x = np.asarray(x, dtype=float)
    _check_binary(x)
    _check_policy(policy, x)
    (y,) = _check_labels(y, 1, model.class_count)
    if x.ndim != 1:
        raise ValueError(f"run_single takes one example, got an input of shape {x.shape}")
    _check_width(len(x), model.input_dim)
    return _ATTACKS[config.name](model, x, y, policy, config, benign_pool, rng)


def run_attack_suite(victim, X, y, policy, configs, threat_model=WHITE_BOX,
                     surrogate=None, benign_pool=None):
    """Run every configured attack against every example.

    White-box attacks search on the victim itself; grey-box attacks search
    on the surrogate and success is then judged on the victim.  Returns
    {attack name: [AttackOutcome per example]} in example order.
    """
    if threat_model not in (WHITE_BOX, GREY_BOX):
        raise ValueError(f"unknown threat model {threat_model!r}")
    if threat_model == GREY_BOX and surrogate is None:
        raise ValueError("grey-box attacks need a surrogate model")
    if len({config.name for config in configs}) != len(configs):  # results are keyed by name
        raise ValueError("duplicate attack names in one suite")
    attack_model = victim if threat_model == WHITE_BOX else surrogate
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = _check_labels(y, len(X), victim.class_count)
    if benign_pool is not None:
        benign_pool = _check_pool(benign_pool, X.shape[1])
    _check_width(X.shape[-1], attack_model.input_dim)
    _check_width(X.shape[-1], victim.input_dim)  # the grey-box judge's model

    def one(config, i):
        rng = np.random.default_rng([config.seed, i])
        out = run_single(attack_model, X[i], y[i], policy, config,
                         benign_pool=benign_pool, rng=rng)
        if attack_model is not victim:
            out = _outcome(X[i], out.x_adv,
                           _misclassified(victim, out.x_adv, y[i:i + 1])[0], out.steps_used)
        return out

    return {config.name: [one(config, i) for i in range(len(X))] for config in configs}


def outcomes_to_rows(results) -> list[dict]:
    """Flatten suite results into one row per example x attack, keyed by
    OUTCOME_COLUMNS."""
    return [dict(zip(OUTCOME_COLUMNS, (name, i, int(out.success), out.flips, out.l1, out.l2,
                                       out.linf, out.steps_used)))
            for name, outs in results.items() for i, out in enumerate(outs)]
