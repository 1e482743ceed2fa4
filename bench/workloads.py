"""The benchmark's workloads, each driving the library's public API.

Every workload builds its inputs from the benchmark seed alone and exposes:

* ``setup()`` - build the inputs (and, on ``attack``, train the models);
  it is repeated between passes and must rebuild the same inputs.
* ``run_pass(probe)`` - one closed-loop pass of the timed work.
* ``check(out, checks)`` - correctness checks on a pass's outputs.
* ``quality(checks)`` - robustness figures, for the traced run.
* ``op`` - the function whose calls are the workload's repeated operation,
  ``tail_pct`` - the tail percentile reported for it, ``cuts`` - functions
  whose calls start a timed segment that is not an operation.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
from dataclasses import replace

import numpy as np

from malrobust import attacks, cli, data, defenses, evaluation, nn
from malrobust.attacks import GREY_BOX, WHITE_BOX, AttackConfig
from malrobust.defenses import DefenseConfig

ITERATIVE = ("grosse", "bga", "bca", "pgd_l1", "pgd_l2", "pgd_linf", "pgd_adam", "ead")


class Checks:
    """Tally of correctness checks; a failed check names what broke."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @property
    def failed(self):
        return len(self.failures)


def sha256(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def model_digest(*models) -> str:
    """Digest of every parameter array reachable from the models."""
    arrays = []
    for m in models:
        mlp = getattr(m, "mlp", m)
        arrays += mlp.weights + mlp.biases
    return sha256(*arrays)


def accuracy(model, X, y) -> float:
    return float(np.mean(np.atleast_1d(model.predict(X)) == y))


def check_outcomes(checks, victim, X, y, policy, outcomes, label):
    """Each output is binary and admissible, and its success flag equals
    the victim's misprediction on it."""
    X_adv = np.stack([o.x_adv for o in outcomes])
    mispredicted = np.atleast_1d(victim.predict(X_adv)) != y
    for i, out in enumerate(outcomes):
        try:
            ok = data.admissible(X[i], out.x_adv, policy)
        except ValueError:  # raised for a non-binary vector
            ok = False
        checks.expect(ok, f"{label} example {i}: output not binary and admissible")
        checks.expect(out.success == bool(mispredicted[i]),
                      f"{label} example {i}: success flag disagrees with the victim")


def outcome_digest(name, outcomes) -> str:
    rows = attacks.outcomes_to_rows({name: outcomes})
    return sha256(json.dumps(rows, sort_keys=True).encode())


def task200(seed, per_class):
    """The acceptance task: dense benign class, sparse malware class,
    additions-only policy, 60/20/20 split; the attacked pool is the
    positive class of the test split."""
    ds, _ = data.generate_synthetic(200, 2, per_class, 0.05, seed=[seed, 0],
                                    class_densities=[0.90, 0.15])
    policy = data.ManipulationPolicy.additions_only(200)
    train, _, test = data.split(ds, (0.6, 0.2, 0.2), seed=[seed, 1])
    return train, test, policy


def hardened200_config(epochs, inner_steps=50):
    return DefenseConfig(inner_lr=0.02, inner_steps=inner_steps, restarts=1,
                         noise_ratio_max=0.25, epochs=epochs, batch_size=128,
                         lr=0.001, hidden=(160, 160), seed=77)


class Harden:
    """train_hardened on the task200 recipe: 840 training examples, dim 200,
    hidden (160, 160), batch 128, 50 inner Adam steps, one restart."""

    name = "harden"
    op = (defenses, "inner_maximize")  # one call per mini-batch
    tail_pct = 90  # 7 steps a pass: between the two slowest
    cuts = ((defenses, "adam_step"),)  # each inner step and head update

    def __init__(self, seed, tiny=False):
        self.seed = seed
        self.per_class = 40 if tiny else 700
        self.config = hardened200_config(epochs=1, inner_steps=3 if tiny else 50)
        self.quality_epochs = 1 if tiny else 5
        self.model = self.model_digest = None

    def setup(self):
        self.train, self.test, self.policy = task200(self.seed, self.per_class)
        pool = np.flatnonzero(self.test.y == 1)
        self.Xp, self.yp = self.test.X[pool], self.test.y[pool]

    def fingerprint(self):
        return sha256(self.train.X, self.train.y, self.test.X, self.test.y)

    def run_pass(self, probe):
        return defenses.train_hardened(self.train, self.policy, self.config)

    def examples(self, out):
        return len(self.train) * self.config.epochs

    def check(self, out, checks):
        clf, losses = out
        checks.expect(len(losses) == self.config.epochs and np.all(np.isfinite(losses)),
                      "training losses are finite")
        digest = model_digest(clf)
        checks.expect(self.model_digest in (None, digest), "passes train identical models")
        self.model, self.model_digest = clf, digest

    def clean_acc(self):
        return accuracy(self.model, self.test.X, self.test.y)

    def quality(self, checks):
        """White-box pgd_l1 and bca on the pool against a model trained,
        untimed, for ``quality_epochs``; robust accuracy is the worse of the
        two.  After the one epoch of a pass it is near 0 whatever the
        inner maximizer does."""
        model, _ = defenses.train_hardened(self.train, self.policy,
                                           replace(self.config, epochs=self.quality_epochs))
        accs, successes = [], []
        for name in ("pgd_l1", "bca"):
            cfg = AttackConfig.for_attack(name, max_steps=100, seed=3)
            outs = attacks.run_attack_suite(model, self.Xp, self.yp, self.policy,
                                            [cfg])[name]
            check_outcomes(checks, model, self.Xp, self.yp, self.policy, outs,
                           f"white_box/{name}")
            accs.append(accuracy(model, np.stack([o.x_adv for o in outs]), self.yp))
            successes += [o.success for o in outs]
        return {"robust_acc": min(accs), "evasion_rate": float(np.mean(successes))}

    def digests(self):
        return {"model": self.model_digest}


class Attack:
    """The eight iterative attacks at max_steps 100, white-box and grey-box,
    against a hardened200-recipe victim; the grey-box attacker searches on
    the default surrogate.

    The task and both models are the same for every seed; the seed picks
    the attacked examples.  How long an attack runs depends mostly on the
    victim's robustness, which would otherwise swing with the seed.
    """

    TASK_SEED = 0

    name = "attack"
    op = (attacks, "run_single")  # one call per (attack, threat, example)
    tail_pct = 84  # 64 runs a pass: 10.2 beyond it
    cuts = ((attacks, "_misclassified"),)  # each attack step

    def __init__(self, seed, tiny=False):
        self.seed = seed
        self.per_class = 40 if tiny else 700
        self.pool_cap = 4
        self.max_steps = 5 if tiny else 100
        self.victim_config = hardened200_config(epochs=1 if tiny else 3,
                                                inner_steps=3 if tiny else 50)
        self.surrogate_profile = {"epochs": 2} if tiny else None
        self.results = self.first_digests = None

    def setup(self):
        self.train, self.test, self.policy = task200(self.TASK_SEED, self.per_class)
        self.victim, _ = defenses.train_hardened(self.train, self.policy, self.victim_config)
        self.surrogate = evaluation.train_surrogate(self.train, [5, 999],
                                                    self.surrogate_profile)
        pool = evaluation.select_attack_pool(self.test, 1, self.pool_cap, [self.seed, 777])
        self.Xp, self.yp = self.test.X[pool], self.test.y[pool]
        self.configs = [AttackConfig.for_attack(n, max_steps=self.max_steps, seed=3,
                                                **({"ead_c": 20.0} if n == "ead" else {}))
                        for n in ITERATIVE]

    def fingerprint(self):
        return sha256(self.Xp, model_digest(self.victim, self.surrogate).encode())

    def run_pass(self, probe):
        results = {}
        for threat in (WHITE_BOX, GREY_BOX):
            res = attacks.run_attack_suite(self.victim, self.Xp, self.yp, self.policy,
                                           self.configs, threat_model=threat,
                                           surrogate=self.surrogate)
            probe.boundary()
            for name, outs in res.items():
                results[f"{threat}/{name}"] = outs
        return results

    def examples(self, out):
        return sum(len(outs) for outs in out.values())

    def check(self, out, checks):
        digests = {}
        for key, outs in out.items():
            check_outcomes(checks, self.victim, self.Xp, self.yp, self.policy, outs, key)
            digests[key] = outcome_digest(key.split("/")[1], outs)
        checks.expect(self.first_digests in (None, digests),
                      "passes give identical outcome tables")
        self.first_digests = self.first_digests or digests
        self.results = out

    def clean_acc(self):
        return accuracy(self.victim, self.test.X, self.test.y)

    def quality(self, checks):
        accs = [accuracy(self.victim, np.stack([o.x_adv for o in self.results[k]]), self.yp)
                for k in ("white_box/pgd_l1", "white_box/bca")]
        successes = [o.success for outs in self.results.values() for o in outs]
        return {"robust_acc": min(accs), "evasion_rate": float(np.mean(successes))}

    def digests(self):
        return dict(self.first_digests or {})


class CliWide:
    """In-process ``malrobust`` gen -> train -> attack -> evaluate -> report
    on a sparse dim-2000 config with a plain, a hardened and a 2-member DAE
    ensemble defense."""

    name = "cli_wide"
    op = (attacks, "run_single")
    tail_pct = 88  # 90 runs a pass: 10.8 beyond it
    # each Adam step of training, each attack step and each checkpoint save
    # or load starts a segment
    cuts = ((attacks, "_misclassified"),
            (evaluation, "train_defense"), (defenses, "inner_maximize"),
            (defenses, "adam_step"), (nn, "adam_step"),
            (nn, "save_model"), (nn, "load_model"),
            (defenses, "save_hardened"), (defenses, "load_hardened"),
            (defenses, "save_ensemble"), (defenses, "load_ensemble"))
    LABELS = ("plain", "hardened", "dae_ens")
    ATTACKS = ("fgsm", "bca", "pgd_l1", "pgd_linf", "mimicry")

    def __init__(self, seed, tiny=False, work_dir="bench/out/cli_wide"):
        self.seed = seed
        self.work_dir = os.path.abspath(os.path.join(work_dir, f"seed{seed}"))
        dim = 300 if tiny else 2000
        per_class = 30 if tiny else 120
        epochs, inner, steps, hidden, latent = (1, 2, 3, 16, 8) if tiny else (5, 5, 15, 32, 32)
        self.config = {
            "seed": seed,
            "dataset": {
                "synthetic": {"dim": dim, "classes": 2, "per_class": per_class,
                              "flip_noise": 0.01, "class_densities": [0.08, 0.03],
                              "seed": seed},
                "split": [0.6, 0.2, 0.2],
                "paths": {k: f"data/{k}.txt" for k in ("train", "val", "test", "policy")},
            },
            "model": {"hidden": [hidden, hidden], "epochs": epochs, "batch_size": 64,
                      "lr": 0.01},
            "defenses": [
                {"label": "plain", "kind": "plain"},
                {"label": "hardened", "kind": "hardened",
                 "config": {"inner_steps": inner, "inner_lr": 0.15}},
                # at inner_lr 0.15 the DAE ensemble collapses to one class on
                # about a quarter of the seeds, at latent 16 on 1 of 20
                {"label": "dae_ens", "kind": "ensemble", "flags": {"use_dae": True},
                 "config": {"inner_steps": inner, "inner_lr": 0.05, "ensemble_size": 2,
                            "subspace_ratio": 0.5, "latent_dim": latent}},
            ],
            "attacks": [{"name": "fgsm"}, {"name": "bca", "max_steps": steps},
                        {"name": "pgd_l1", "max_steps": steps},
                        {"name": "pgd_linf", "max_steps": steps}, {"name": "mimicry"}],
            "threat_model": WHITE_BOX,
            "evaluation": {"attack_pool": 4 if tiny else 3},
        }
        self.passes = 0
        self.report = self.first_digest = None

    def setup(self):
        """Write the experiment config, load it back through the CLI's own
        validation, and generate in memory the dataset that ``gen`` must
        write."""
        shutil.rmtree(self.work_dir, ignore_errors=True)  # leftovers of a crashed run
        os.makedirs(self.work_dir)
        self.config_path = os.path.join(self.work_dir, "experiment.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(self.config, fh, sort_keys=True, indent=2)
        cli.load_config(self.config_path)
        self.dataset, self.policy = data.generate_synthetic(
            **self.config["dataset"]["synthetic"])

    def fingerprint(self):
        with open(self.config_path, "rb") as fh:
            return sha256(fh.read(), self.dataset.X, self.dataset.y)

    def run_pass(self, probe):
        # relative paths inside a fresh directory keep report.json
        # independent of where the checkout lives
        self.passes += 1
        pass_dir = os.path.join(self.work_dir, f"pass{self.passes}")
        os.makedirs(pass_dir)
        c = self.config_path
        stages = (("gen", ["gen", "-c", c, "--out", "data"]),
                  ("train", ["train", "-c", c, "--out", "models"]),
                  ("attack", ["attack", "-c", c, "--models", "models", "--out", "attacks"]),
                  ("evaluate", ["evaluate", "-c", c, "--models", "models",
                                "--out", "evaluation"]),
                  ("report", ["report", "evaluation/report.json", "--csv", "table.csv"]))
        codes = {}
        cwd = os.getcwd()
        os.chdir(pass_dir)
        try:
            for stage, argv in stages:
                with probe.span("cli." + stage), contextlib.redirect_stdout(io.StringIO()):
                    codes[stage] = cli.main(argv)
                if stage in ("attack", "evaluate"):
                    probe.boundary()
        finally:
            os.chdir(cwd)
        return pass_dir, codes

    def examples(self, out):
        meta = self.report["metadata"]
        return 2 * meta["pool_size"] * len(meta["attacks"]) * len(self.report["defenses"])

    def check(self, out, checks):
        pass_dir, codes = out
        for stage, code in codes.items():
            checks.expect(code == 0, f"cli {stage} returned {code}")
        parts = [data.read_sparse(os.path.join(pass_dir, "data", f"{k}.txt"))
                 for k in ("train", "val", "test")]
        written = np.column_stack([np.concatenate([p.y for p in parts]),
                                   np.concatenate([p.X for p in parts])])
        generated = np.column_stack([self.dataset.y, self.dataset.X])
        checks.expect(sorted(r.tobytes() for r in written) ==
                      sorted(r.tobytes() for r in generated),
                      "gen wrote exactly the generated examples")
        policy = data.read_policy(os.path.join(pass_dir, "data", "policy.txt"))
        checks.expect(np.array_equal(policy.addition_allowed, self.policy.addition_allowed)
                      and np.array_equal(policy.removal_allowed, self.policy.removal_allowed),
                      "gen wrote the generated policy")
        with open(os.path.join(pass_dir, "evaluation", "report.json"), "rb") as fh:
            raw = fh.read()
        report = json.loads(raw)
        blocks = report["defenses"]
        checks.expect(sorted(blocks) == sorted(self.LABELS), "report has one block per defense")
        for label in self.LABELS:
            names = blocks.get(label, {}).get("attacks", {})
            for name in self.ATTACKS:
                checks.expect(name in names, f"report block {label} x {name}")
            checks.expect(len(names) == len(self.ATTACKS), f"report block {label} has extras")
        with open(os.path.join(pass_dir, "models", "trace.json"), encoding="utf-8") as fh:
            traces = json.load(fh)
        for label, trace in traces.items():
            checks.expect(np.all(np.isfinite(np.asarray(trace, dtype=float))),
                          f"training losses of {label} are finite")
        digest = sha256(raw)
        checks.expect(self.first_digest in (None, digest), "passes write identical reports")
        self.first_digest = self.first_digest or digest
        self.report = report
        shutil.rmtree(pass_dir)

    def clean_acc(self):
        return self.report["defenses"]["dae_ens"]["clean_test"]["accuracy"]

    def quality(self, checks):
        blocks = self.report["defenses"]
        dae = blocks["dae_ens"]["attacks"]
        rates = [b["success_rate"] for d in blocks.values() for b in d["attacks"].values()]
        return {"robust_acc": min(dae["pgd_l1"]["accuracy"], dae["bca"]["accuracy"]),
                "evasion_rate": float(np.mean(rates))}

    def digests(self):
        return {"report.json": self.first_digest}


WORKLOADS = {w.name: w for w in (Harden, Attack, CliWide)}
