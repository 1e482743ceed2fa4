"""Command-line entry point: gen / train / attack / evaluate / report.

One experiment is one JSON config file; a few flags can override single
keys.  Every command derives all randomness from the config seed, so
rerunning a config reproduces its outputs byte for byte.  Outputs land in
a fresh run directory named by the config hash and a timestamp.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time
from dataclasses import fields

import numpy as np

from . import data, defenses, evaluation, nn
from .attacks import GREY_BOX, WHITE_BOX, AttackConfig, outcomes_to_rows, run_attack_suite


_TOP_KEYS = {"seed", "output_dir", "dataset", "model", "defenses", "attacks",
             "threat_model", "surrogate", "evaluation"}
_DATASET_KEYS = {"synthetic", "paths", "split"}
_SYNTH_KEYS = {"dim", "classes", "per_class", "flip_noise", "seed", "class_densities"}
_PATH_KEYS = {"train", "val", "test", "policy"}
_MODEL_KEYS = set(evaluation.SURROGATE_PROFILE)
_DEFENSE_KEYS = {"label", "kind", "flags", "config"}
_FLAG_KEYS = {f.name for f in fields(evaluation.DefenseSpec)} - _DEFENSE_KEYS
_DEFENSE_CFG_KEYS = {f.name for f in fields(defenses.DefenseConfig)} - {"seed"}
_ATTACK_KEYS = {f.name for f in fields(AttackConfig)}
_EVAL_KEYS = {"attack_pool", "positive_class"}
# a defense label names its checkpoint <label>.json, beside these two files
_RESERVED_LABELS = {"surrogate", "trace"}


def _check_keys(section, allowed, where):
    if not isinstance(section, dict):
        raise ValueError(f"{where} must be a JSON object, got {section!r}")
    unknown = set(section) - allowed
    if unknown:
        raise ValueError(f"unknown keys in {where}: {sorted(unknown)}")


def _check_label(label, where):
    if not isinstance(label, str) or label in ("", ".", "..") or \
            any(sep and sep in label for sep in ("/", os.sep, os.altsep)):
        raise ValueError(f"{where}: label {label!r} is not a plain file name")
    if label in _RESERVED_LABELS:
        raise ValueError(f"{where}: label {label!r} is reserved for the models "
                         f"directory's {label}.json")


def _check_list(section, key, where):
    """section[key], a JSON list when present; [] when absent."""
    value = section.get(key, [])
    if not isinstance(value, list):
        raise ValueError(f"{where} must be a list, got {value!r}")
    return value


def validate_config(cfg: dict) -> dict:
    _check_keys(cfg, _TOP_KEYS, "config")
    cfg.setdefault("seed", 0)
    cfg.setdefault("output_dir", "runs")
    cfg.setdefault("threat_model", WHITE_BOX)
    data._check_seed(cfg["seed"], "seed")
    if not isinstance(cfg["output_dir"], str):
        raise ValueError(f"output_dir must be a string, got {cfg['output_dir']!r}")
    if cfg["threat_model"] not in (WHITE_BOX, GREY_BOX):
        raise ValueError(f"unknown threat_model {cfg['threat_model']!r}")
    ds = cfg.get("dataset", {})
    _check_keys(ds, _DATASET_KEYS, "dataset")
    split = _check_list(ds, "split", "dataset.split")
    data._check_config_types({}, {f"dataset.split[{i}]": f for i, f in enumerate(split)})
    if "synthetic" in ds:
        _check_keys(ds["synthetic"], _SYNTH_KEYS, "dataset.synthetic")
        data._check_seed(ds["synthetic"].get("seed", 0), "dataset.synthetic.seed")
    if "paths" in ds:
        _check_keys(ds["paths"], _PATH_KEYS, "dataset.paths")
        for key, value in ds["paths"].items():
            if not isinstance(value, str):
                raise ValueError(f"dataset.paths.{key} must be a string, got {value!r}")
    if "model" in cfg:
        _check_keys(cfg["model"], _MODEL_KEYS, "model")
    for i, entry in enumerate(_check_list(cfg, "defenses", "defenses")):
        _check_keys(entry, _DEFENSE_KEYS, f"defenses[{i}]")
        if "label" not in entry:
            raise ValueError(f"defenses[{i}] needs a label")
        _check_label(entry["label"], f"defenses[{i}]")
        _check_keys(entry.get("flags", {}), _FLAG_KEYS, f"defenses[{i}].flags")
        _check_keys(entry.get("config", {}), _DEFENSE_CFG_KEYS, f"defenses[{i}].config")
    labels = [e["label"] for e in cfg.get("defenses", [])]
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate defense labels")
    for i, entry in enumerate(_check_list(cfg, "attacks", "attacks")):
        _check_keys(entry, _ATTACK_KEYS, f"attacks[{i}]")
        data._check_seed(entry.get("seed", 0), f"attacks[{i}].seed")
        if "name" not in entry:
            raise ValueError(f"attacks[{i}] needs a name")
    if "surrogate" in cfg:
        _check_keys(cfg["surrogate"], _MODEL_KEYS, "surrogate")
    if "evaluation" in cfg:
        _check_keys(cfg["evaluation"], _EVAL_KEYS, "evaluation")
    return cfg


def load_config(path, overrides=None) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config is not valid JSON: {exc}")
    if isinstance(cfg, dict):  # the flags' values are checked with the rest
        cfg.update({key: value for key, value in (overrides or {}).items() if value is not None})
    return validate_config(cfg)


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True).encode("utf-8")
    return hashlib.sha256(canon).hexdigest()[:12]


def make_run_dir(cfg: dict, command: str, out_dir=None) -> str:
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        return out_dir
    stamp = time.strftime("%Y%m%d-%H%M%S")
    base = os.path.join(cfg["output_dir"], f"{command}-{config_hash(cfg)}-{stamp}")
    path = base
    n = 1
    while os.path.exists(path):
        path = f"{base}-{n}"
        n += 1
    os.makedirs(path)
    return path


def _load_dataset_files(cfg, *splits):
    """The named splits, then the policy, checked against the first split."""
    paths = cfg.get("dataset", {}).get("paths")
    if not paths:
        raise ValueError("dataset.paths required for this command")
    for key in (*splits, "policy"):
        if key not in paths:
            raise ValueError(f"dataset.paths.{key} missing")
        if not os.path.exists(paths[key]):
            raise ValueError(f"dataset file not found: {paths[key]}")
    datasets = [data.read_sparse(paths[key]) for key in splits]
    policy = data.read_policy(paths["policy"])
    data._check_policy(policy, datasets[0].X)
    return (*datasets, policy)


def _defense_specs(cfg):
    entries = cfg.get("defenses") or [{"label": "basic", "kind": "plain"}]
    specs = []
    for entry in entries:
        # the "model" section holds defaults for each defense's config
        raw = {**cfg.get("model", {}), **entry.get("config", {})}
        if isinstance(raw.get("hidden"), list):
            raw["hidden"] = tuple(raw["hidden"])
        dc = defenses.DefenseConfig(seed=cfg["seed"], **raw)
        specs.append(evaluation.DefenseSpec(entry["label"], entry.get("kind", "plain"),
                                            dc, **entry.get("flags", {})))
    return specs


def _attack_configs(cfg):
    configs = []
    for entry in cfg.get("attacks", []):
        kwargs = {k: v for k, v in entry.items() if k != "name"}
        kwargs.setdefault("seed", cfg["seed"])
        configs.append(AttackConfig.for_attack(entry["name"], **kwargs))
    return configs


def cmd_gen(cfg: dict, out_dir=None) -> str:
    synth = cfg.get("dataset", {}).get("synthetic")
    if not synth:
        raise ValueError("dataset.synthetic required for gen")
    dataset, policy = data.generate_synthetic(
        dim=synth.get("dim", 200), classes=synth.get("classes", 2),
        per_class=synth.get("per_class", 500),
        flip_noise=synth.get("flip_noise", 0.05),
        seed=synth.get("seed", cfg["seed"]),
        class_densities=synth.get("class_densities"))
    fractions = cfg.get("dataset", {}).get("split", [0.6, 0.2, 0.2])
    train, val, test = data.split(dataset, fractions, seed=nn.child_seed(cfg["seed"], 3))
    run_dir = make_run_dir(cfg, "gen", out_dir)
    data.write_sparse(os.path.join(run_dir, "train.txt"), train)
    data.write_sparse(os.path.join(run_dir, "val.txt"), val)
    data.write_sparse(os.path.join(run_dir, "test.txt"), test)
    data.write_policy(os.path.join(run_dir, "policy.txt"), policy)
    print(f"dim={dataset.dim} classes={dataset.class_count}")
    for name, part in (("train", train), ("val", val), ("test", test)):
        counts = np.bincount(part.y, minlength=part.class_count).tolist()
        print(f"{name}: n={len(part)} class_counts={counts}")
    print(run_dir)
    return run_dir


# defense kind -> module, saver and loader; every model is <label>.json
_CHECKPOINTS = {
    "plain": (nn, "save_model", "load_model"),
    "hardened": (defenses, "save_hardened", "load_hardened"),
    "ensemble": (defenses, "save_ensemble", "load_ensemble"),
}
_SURROGATE = evaluation._surrogate_spec(None)  # a plain checkpoint, surrogate.json


def _save_checkpoint(models_dir, spec, model) -> None:
    module, save, _ = _CHECKPOINTS[spec.kind]
    getattr(module, save)(os.path.join(models_dir, f"{spec.label}.json"), model)


def _load_checkpoint(models_dir, spec):
    module, _, load = _CHECKPOINTS[spec.kind]
    path = os.path.join(models_dir, f"{spec.label}.json")
    if not os.path.exists(path):
        raise ValueError(f"missing checkpoint of {spec.label!r}: {path}")
    return getattr(module, load)(path)


def cmd_train(cfg: dict, out_dir=None) -> str:
    train, policy = _load_dataset_files(cfg, "train")
    specs = _defense_specs(cfg)
    evaluation._surrogate_spec(cfg.get("surrogate"))  # checked before anything is written
    run_dir = make_run_dir(cfg, "train", out_dir)
    models, traces, surrogate = evaluation.train_models(
        specs, train, policy, cfg["seed"], cfg["threat_model"], cfg.get("surrogate"))
    for spec in specs:
        _save_checkpoint(run_dir, spec, models[spec.label])
        print(f"trained {spec.label} ({spec.kind})")
    if surrogate is not None:
        _save_checkpoint(run_dir, _SURROGATE, surrogate)
        print("trained surrogate")
    with data.atomic_write(os.path.join(run_dir, "trace.json")) as fh:
        json.dump(traces, fh, sort_keys=True, indent=2)
    print(run_dir)
    return run_dir


def _load_trained(cfg, models_dir):
    models = {spec.label: _load_checkpoint(models_dir, spec) for spec in _defense_specs(cfg)}
    surrogate = None
    if cfg["threat_model"] == GREY_BOX:
        surrogate = _load_checkpoint(models_dir, _SURROGATE)
    return models, surrogate


def cmd_attack(cfg: dict, models_dir, out_dir=None) -> str:
    train, test, policy = _load_dataset_files(cfg, "train", "test")
    models, surrogate = _load_trained(cfg, models_dir)
    configs = _attack_configs(cfg)
    if not configs:
        raise ValueError("no attacks configured")
    Xp, yp, benign_pool = evaluation.attack_inputs(train, test, cfg["seed"],
                                                   **cfg.get("evaluation", {}))
    run_dir = make_run_dir(cfg, "attack", out_dir)
    for label, clf in models.items():
        results = run_attack_suite(clf, Xp, yp, policy, configs,
                                   threat_model=cfg["threat_model"],
                                   surrogate=surrogate, benign_pool=benign_pool)
        rows = outcomes_to_rows(results)
        path = os.path.join(run_dir, f"attacks_{label}.csv")
        with data.atomic_write(path, newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=["attack", "example_id",
                                                    "success", "flips", "l1",
                                                    "l2", "linf", "steps_used"])
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {path} ({len(rows)} rows)")
    print(run_dir)
    return run_dir


def cmd_evaluate(cfg: dict, models_dir, out_dir=None) -> str:
    train, test, policy = _load_dataset_files(cfg, "train", "test")
    models, surrogate = _load_trained(cfg, models_dir)
    report = evaluation.evaluate_models(
        models, train, test, policy, _attack_configs(cfg),
        threat_model=cfg["threat_model"], seed=cfg["seed"], surrogate=surrogate,
        **cfg.get("evaluation", {}))
    report["metadata"]["config_hash"] = config_hash(cfg)
    run_dir = make_run_dir(cfg, "evaluate", out_dir)
    report_path = os.path.join(run_dir, "report.json")
    with data.atomic_write(report_path) as fh:
        json.dump(evaluation._jsonable(report), fh, sort_keys=True, indent=2)
    table = evaluation.report_table(report)
    with data.atomic_write(os.path.join(run_dir, "report_table.txt")) as fh:
        fh.write(table + "\n")
    print(table)
    print(run_dir)
    return run_dir


def cmd_report(report_path, csv_path=None) -> None:
    with open(report_path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    table = evaluation.report_table(report)
    print(table)
    if csv_path:
        labels, rows = evaluation.report_rows(report)
        with data.atomic_write(csv_path, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["attack"] + labels)
            for name, accs in rows:
                writer.writerow([name] + ["" if acc is None else acc for acc in accs])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="malrobust",
                                     description="evasion attacks and hardened "
                                                 "training for binary feature vectors")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("-c", "--config", required=True, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--output-dir", default=None, help="override output_dir")
        p.add_argument("--threat-model", default=None,
                       choices=[WHITE_BOX, GREY_BOX], help="override threat model")
        p.add_argument("--out", default=None, help="exact output directory")

    p_gen = sub.add_parser("gen", help="generate synthetic dataset + policy files")
    add_common(p_gen)
    p_train = sub.add_parser("train", help="train configured defenses")
    add_common(p_train)
    for name, helptext in (("attack", "run the attack suite against checkpoints"),
                           ("evaluate", "full metrics report")):
        p = sub.add_parser(name, help=helptext)
        add_common(p)
        p.add_argument("--models", required=True, help="directory holding checkpoints")
    p_rep = sub.add_parser("report", help="render a saved report")
    p_rep.add_argument("report", help="report.json path")
    p_rep.add_argument("--csv", default=None, help="also write a CSV table")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            cmd_report(args.report, args.csv)
            return 0
        overrides = {"seed": args.seed, "output_dir": args.output_dir,
                     "threat_model": args.threat_model}
        cfg = load_config(args.config, overrides)
        if args.command == "gen":
            cmd_gen(cfg, out_dir=args.out)
        elif args.command == "train":
            cmd_train(cfg, out_dir=args.out)
        elif args.command == "attack":
            cmd_attack(cfg, args.models, out_dir=args.out)
        elif args.command == "evaluate":
            cmd_evaluate(cfg, args.models, out_dir=args.out)
        return 0
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
