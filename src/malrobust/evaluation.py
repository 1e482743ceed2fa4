"""Metrics and the threat-model experiment runner.

The evaluation report is a plain dict tree: per-defense blocks holding
clean-test metrics, no-attack metrics on the attacked example pool, and
one block per attack with metrics plus the harmonic mean pairing the
clean macro F1 with the under-attack macro F1.  Everything is derived
from the experiment seed (checked first, written as plain ints), so a
report replays exactly; report_rows reads each of its parts through
``_field``, naming any part that is missing or malformed.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .attacks import GREY_BOX, WHITE_BOX, run_attack_suite
from .data import Dataset, _check_config_types, _check_labels, _check_seed
from .defenses import DefenseConfig, train_ensemble, train_hardened
from .nn import MlpClassifier, _field, _object, _of_type, child_seed, train_supervised

# surrogate used by the grey-box threat model
SURROGATE_PROFILE = {"hidden": (200, 200), "activation": "relu",
                     "epochs": 30, "batch_size": 128, "lr": 0.001}


def binary_metrics(y_true, y_pred, positive_class=1):
    """(FNR, FPR, accuracy) with the given class treated as positive.

    Both vectors hold two-class labels; empty denominators yield 0 with a
    warning.
    """
    _check_config_types({"positive_class": positive_class}, {})
    if positive_class not in (0, 1):
        raise ValueError(f"positive_class must be 0 or 1, got {positive_class!r}")
    if np.size(y_true) != np.size(y_pred):
        raise ValueError("label vector lengths differ")
    y_true, y_pred = (_check_labels(y, np.size(y), 2) for y in (y_true, y_pred))
    pos, flagged = y_true == positive_class, y_pred == positive_class
    accuracy = float(np.mean(y_true == y_pred)) if len(y_true) else 0.0
    return (_error_rate(pos, ~flagged, "no positive examples; FNR set to 0"),
            _error_rate(~pos, flagged, "no negative examples; FPR set to 0"), accuracy)


def _error_rate(rows, wrong, empty_warning):
    """The share of the selected rows that are wrong; 0 with a warning
    when no row is selected."""
    if not rows.any():
        warnings.warn(empty_warning, RuntimeWarning)
        return 0.0
    return int(np.sum(rows & wrong)) / int(np.sum(rows))


def macro_f1(y_true, y_pred, class_count: int) -> float:
    """Unweighted mean of the per-class F1 scores.

    A class with precision + recall = 0 (including classes absent from
    both vectors) contributes F1 = 0.
    """
    if np.size(y_true) != np.size(y_pred):
        raise ValueError("label vector lengths differ")
    y_true, y_pred = (_check_labels(y, np.size(y), class_count) for y in (y_true, y_pred))
    f1s = []
    for c in range(class_count):
        tp = int(np.sum((y_true == c) & (y_pred == c)))
        fp = int(np.sum((y_true != c) & (y_pred == c)))
        fn = int(np.sum((y_true == c) & (y_pred != c)))
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        if precision + recall == 0.0:
            f1s.append(0.0)
        else:
            f1s.append(2.0 * precision * recall / (precision + recall))
    return float(np.mean(f1s))


def harmonic_mean(a1: float, a2: float) -> float:
    """2*a1*a2 / (a1 + a2); 0 when both terms are 0."""
    if a1 + a2 == 0.0:
        return 0.0
    return 2.0 * a1 * a2 / (a1 + a2)


@dataclass
class DefenseSpec:
    """One defense to train and evaluate."""

    label: str
    kind: str = "plain"  # plain | hardened | ensemble
    config: DefenseConfig = field(default_factory=DefenseConfig)
    use_dae: bool = False
    use_binarization: bool = False
    known_manipulation_set: bool = True

    def __post_init__(self):
        if self.kind not in ("plain", "hardened", "ensemble"):
            raise ValueError(f"unknown defense kind {self.kind!r}")
        defaults = {f.name: f.default for f in fields(self)}
        for key in ("use_dae", "use_binarization", "known_manipulation_set"):
            value = getattr(self, key)
            if not isinstance(value, bool):
                raise ValueError(f"{key} must be true or false, got {value!r}")
            if self.kind == "plain" and value != defaults[key]:
                raise ValueError(f"{key}={value} applies to hardened and ensemble "
                                 f"defenses only, not to plain {self.label!r}")


def train_defense(spec: DefenseSpec, train_set: Dataset, policy, seed=None):
    """Train one defense; returns (classifier, training trace).  A plain
    defense is a softmax MLP trained on the cross-entropy loss."""
    cfg = spec.config if seed is None else replace(spec.config, seed=seed)
    if spec.kind == "plain":
        sizes = [train_set.dim] + list(cfg.hidden) + [train_set.class_count]
        model = MlpClassifier.init(sizes, cfg.activation, seed=child_seed(cfg.seed, 0))
        return train_supervised(model, train_set, cfg.epochs, cfg.batch_size, cfg.lr,
                                seed=child_seed(cfg.seed, 1))
    # the defender knows the manipulation set through the policy it trains with
    train = train_hardened if spec.kind == "hardened" else train_ensemble
    return train(train_set, policy if spec.known_manipulation_set else None, cfg,
                 use_dae=spec.use_dae, use_binarization=spec.use_binarization)


def _surrogate_spec(profile) -> DefenseSpec:
    """The grey-box surrogate as a plain defense: SURROGATE_PROFILE with
    the keys of ``profile`` over it, checked by the rules of a defense's
    MLP settings."""
    settings = {**SURROGATE_PROFILE, **(profile or {})}
    unknown = set(settings) - set(SURROGATE_PROFILE)
    if unknown:
        raise ValueError(f"surrogate profile: unknown keys {sorted(unknown)}")
    try:
        return DefenseSpec("surrogate", "plain", DefenseConfig(**settings))
    except ValueError as exc:
        raise ValueError(f"surrogate profile: {exc}") from None


def train_surrogate(train_set: Dataset, seed, profile=None) -> MlpClassifier:
    """Plain classifier standing in for the grey-box attacker's model;
    ``profile`` overrides keys of SURROGATE_PROFILE."""
    return train_defense(_surrogate_spec(profile), train_set, None, seed)[0]


def train_models(specs, train_set: Dataset, policy, seed, threat_model=WHITE_BOX,
                 surrogate_profile=None):
    """Train defense k on child_seed(seed, k) and, under grey-box, the
    surrogate on child_seed(seed, 999).  Returns ({label: classifier},
    {label: training trace}, surrogate or None)."""
    if threat_model == GREY_BOX:
        _surrogate_spec(surrogate_profile)  # a bad profile fails before any training
    models, traces = {}, {}
    for k, spec in enumerate(specs):
        models[spec.label], traces[spec.label] = train_defense(
            spec, train_set, policy, seed=child_seed(seed, k))
    surrogate = None
    if threat_model == GREY_BOX:
        surrogate = train_surrogate(train_set, child_seed(seed, 999), surrogate_profile)
    return models, traces, surrogate


def select_attack_pool(test_set: Dataset, positive_class: int, cap: int, seed):
    """Seeded choice of up to `cap` positive-class test examples."""
    _check_config_types({"attack_pool": cap, "positive_class": positive_class}, {})
    if cap < 1:
        raise ValueError(f"attack_pool must be >= 1, got {cap}")
    positives = np.flatnonzero(test_set.y == positive_class)
    if len(positives) == 0:
        raise ValueError("no positive-class examples to attack")
    rng = np.random.default_rng(seed)
    take = min(cap, len(positives))
    chosen = np.sort(rng.choice(positives, size=take, replace=False))
    return chosen


def attack_inputs(train_set: Dataset, test_set: Dataset, seed, attack_pool=800,
                  positive_class=1):
    """(X, y) of the attacked pool, drawn on child_seed(seed, 777), and the
    benign training examples mimicry draws from."""
    idx = select_attack_pool(test_set, positive_class, attack_pool, child_seed(seed, 777))
    return test_set.X[idx], test_set.y[idx], train_set.X[train_set.y != positive_class]


def _metric_block(y_true, y_pred, class_count, positive_class):
    block = {
        "accuracy": float(np.mean(np.asarray(y_true) == np.asarray(y_pred))),
        "macro_f1": macro_f1(y_true, y_pred, class_count),
    }
    if class_count == 2:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            fnr, fpr, _ = binary_metrics(y_true, y_pred, positive_class)
        block["fnr"] = fnr
        block["fpr"] = fpr
    return block


def evaluate_models(models: dict, train_set: Dataset, test_set: Dataset, policy,
                    attack_configs, threat_model=WHITE_BOX, seed=0,
                    surrogate=None, attack_pool=800, positive_class=1) -> dict:
    """Attack every model and compute clean and per-attack metrics.

    Attack metrics are measured on the attacked pool only; the clean-test
    block covers the full test set and supplies the clean macro F1 that
    each attack's harmonic mean pairs with.
    """
    _check_seed(seed)
    if threat_model == GREY_BOX and surrogate is None:
        raise ValueError("grey-box evaluation needs a surrogate model")
    Xp, yp, benign_pool = attack_inputs(train_set, test_set, seed, attack_pool,
                                        positive_class)
    o = test_set.class_count

    defenses_block = {}
    for label, clf in models.items():
        clean_pred = clf.predict(test_set.X)
        clean_test = _metric_block(test_set.y, clean_pred, o, positive_class)
        no_attack = _metric_block(yp, clf.predict(Xp), o, positive_class)
        results = run_attack_suite(clf, Xp, yp, policy, attack_configs,
                                   threat_model=threat_model, surrogate=surrogate,
                                   benign_pool=benign_pool)
        attack_blocks = {}
        for name, outs in results.items():
            X_adv = np.stack([out.x_adv for out in outs])
            y_pred = np.atleast_1d(clf.predict(X_adv))
            block = _metric_block(yp, y_pred, o, positive_class)
            block["harmonic_mean"] = harmonic_mean(clean_test["macro_f1"],
                                                   block["macro_f1"])
            block["success_rate"] = float(np.mean([out.success for out in outs]))
            block["mean_flips"] = float(np.mean([out.flips for out in outs]))
            block["mean_steps"] = float(np.mean([out.steps_used for out in outs]))
            attack_blocks[name] = block
        defenses_block[label] = {
            "clean_test": clean_test,
            "no_attack": no_attack,
            "attacks": attack_blocks,
        }

    report = {
        "metadata": {
            "seed": _jsonable(seed),
            "threat_model": threat_model,
            "positive_class": int(positive_class),
            "pool_size": int(len(yp)),
            "train_size": int(len(train_set)),
            "test_size": int(len(test_set)),
            "class_count": int(o),
            "attacks": [_jsonable(asdict(c)) for c in attack_configs],
        },
        "defenses": defenses_block,
    }
    return report


def run_experiment(train_set: Dataset, test_set: Dataset, policy,
                   defense_specs, attack_configs, threat_model=WHITE_BOX,
                   seed=0, surrogate_profile=None, attack_pool=800,
                   positive_class=1) -> dict:
    """Train the requested defenses (and the surrogate under grey-box),
    then evaluate them; fully determined by the seed."""
    _check_seed(seed)
    models, _, surrogate = train_models(defense_specs, train_set, policy, seed,
                                        threat_model, surrogate_profile)
    report = evaluate_models(models, train_set, test_set, policy,
                             attack_configs, threat_model=threat_model,
                             seed=seed, surrogate=surrogate,
                             attack_pool=attack_pool,
                             positive_class=positive_class)
    report["metadata"]["defenses"] = [_jsonable(asdict(s)) for s in defense_specs]
    if surrogate_profile is not None:
        report["metadata"]["surrogate_profile"] = _jsonable(dict(surrogate_profile))
    return report


def _jsonable(obj):
    """Recursively convert numpy scalars/arrays and tuples for JSON."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def report_rows(report: dict) -> tuple[list, list]:
    """(defense labels, rows) of the accuracy table: one row per clean
    block and per attack, each (name, [accuracy or None per defense]).
    Labels and attack names are sorted, so a report in memory and the same
    report read back from sorted JSON give the same table."""
    clean = ("clean_test", "no_attack")

    def accuracy(block):
        return _field(block, "accuracy", _of_type(float))

    def each(read):  # a JSON object's entries, each read through _field
        return lambda record: {key: _field(record, key, read) for key in _object(record)}

    def defense(block):
        return {**{key: _field(block, key, accuracy) for key in clean},
                "attacks": _field(block, "attacks", each(accuracy))}

    defenses = _field(report, "defenses", each(defense))
    labels = sorted(defenses)
    attacks = sorted({name for block in defenses.values() for name in block["attacks"]})
    rows = [(name, [defenses[lab][name] for lab in labels]) for name in clean]
    rows += [(name, [defenses[lab]["attacks"].get(name) for lab in labels]) for name in attacks]
    return labels, rows


def report_table(report: dict) -> str:
    """Flat accuracy table: rows are attacks, columns are defenses; each
    column is as wide as its label, at least 13 characters."""
    labels, rows = report_rows(report)
    width = max([len(name) for name, _ in rows] + [10])
    cols = [max(13, len(lab)) for lab in labels]
    lines = [" ".join(["attack".ljust(width)] + [lab.rjust(w) for lab, w in zip(labels, cols)])]
    for name, accs in rows:
        cells = ["-".rjust(w) if acc is None else f"{100.0 * acc:>{w}.2f}"
                 for acc, w in zip(accs, cols)]
        lines.append(" ".join([name.ljust(width)] + cells))
    return "\n".join(lines)
