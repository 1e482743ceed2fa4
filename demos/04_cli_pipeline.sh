#!/usr/bin/env bash
# The full command-line pipeline on a scratch experiment:
# generate data, train defenses, attack, evaluate, render the report.
set -euo pipefail

# the installed console script, or the package in this checkout's src/
if ! command -v malrobust >/dev/null; then
  export PYTHONPATH="$(cd "$(dirname "$0")/.." && pwd)/src${PYTHONPATH:+:$PYTHONPATH}"
  malrobust() { python -m malrobust.cli "$@"; }
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

cat > experiment.json <<'JSON'
{
  "seed": 5,
  "output_dir": "runs",
  "dataset": {
    "synthetic": {"dim": 80, "classes": 2, "per_class": 200, "flip_noise": 0.05},
    "split": [0.6, 0.2, 0.2],
    "paths": {"train": "data/train.txt", "val": "data/val.txt",
              "test": "data/test.txt", "policy": "data/policy.txt"}
  },
  "model": {"hidden": [80, 80], "epochs": 25, "batch_size": 64, "lr": 0.005},
  "defenses": [
    {"label": "basic", "kind": "plain"},
    {"label": "at", "kind": "hardened",
     "config": {"inner_lr": 0.02, "inner_steps": 25, "epochs": 12,
                "batch_size": 64, "lr": 0.005, "hidden": [80, 80]}},
    {"label": "ens", "kind": "ensemble", "flags": {"use_dae": true},
     "config": {"ensemble_size": 2, "subspace_ratio": 0.5, "latent_dim": 32,
                "inner_lr": 0.02, "inner_steps": 25, "epochs": 8,
                "batch_size": 64, "lr": 0.005, "hidden": [80, 80]}}
  ],
  "attacks": [
    {"name": "fgsm"},
    {"name": "bca", "max_steps": 60},
    {"name": "pgd_l1", "max_steps": 60},
    {"name": "ead", "ead_c": 20.0, "max_steps": 60},
    {"name": "mimicry"}
  ],
  "threat_model": "white_box",
  "evaluation": {"attack_pool": 40}
}
JSON

echo "== gen =="
malrobust gen -c experiment.json --out data

echo "== train =="
malrobust train -c experiment.json --out models
ls models  # one checkpoint file per defense, the ensemble included

echo "== attack =="
malrobust attack -c experiment.json --models models --out attacks
head -3 attacks/attacks_at.csv

echo "== evaluate =="
malrobust evaluate -c experiment.json --models models --out evaluation

echo "== report =="
malrobust report evaluation/report.json --csv table.csv
