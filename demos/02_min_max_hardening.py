"""
Min-max adversarial training
============================

Harden a classifier with the inner-maximizer training loop and compare it
against the plain model under white-box attacks.  Two hardened flavors:

* adversarial training (AT): the defender knows the manipulation set, so
  the inner maximizer projects into it;
* adversarial regularization (AR): no manipulation-set knowledge, so it
  trains with no policy and the search is box-only with salt-and-pepper
  restarts.
"""

import numpy as np

import malrobust as mr
from malrobust.defenses import DefenseConfig

# a dense benign class and a sparse malware class: reaching a benign-like
# superset from malware takes more additions than the attack budgets allow,
# so a defender who covers the reachable cone can actually win
dataset, _ = mr.generate_synthetic(dim=200, classes=2, per_class=500,
                                   flip_noise=0.05, seed=11,
                                   class_densities=[0.9, 0.15])
# the threat: any feature may be added, none removed
policy = mr.ManipulationPolicy.additions_only(dataset.dim)
train, val, test = mr.split(dataset, (0.6, 0.2, 0.2), seed=11)

plain = mr.MlpClassifier.init([dataset.dim, 160, 160, 2], seed=[11, 0])
plain, _ = mr.train_supervised(plain, train, epochs=30, batch_size=128,
                               lr=0.001, seed=[11, 1])

at_cfg = DefenseConfig.adversarial_training_profile(
    inner_steps=50, restarts=1, noise_ratio_max=0.25,
    epochs=25, batch_size=128, lr=0.001, seed=11)
at_model, _ = mr.train_hardened(train, policy, at_cfg)

ar_cfg = DefenseConfig.adversarial_regularization_profile(
    restarts=2, noise_ratio_max=0.1,
    epochs=20, batch_size=128, lr=0.001, seed=11)
ar_model, _ = mr.train_hardened(train, None, ar_cfg)  # no policy: box-only search

models = {"plain": plain, "AT": at_model, "AR": ar_model}
for label, m in models.items():
    acc = np.mean(m.predict(test.X) == test.y)
    print(f"{label:6s} clean accuracy {acc:.3f}")

pool_idx = np.flatnonzero(test.y == 1)
Xp, yp = test.X[pool_idx], test.y[pool_idx]
attacks = ["fgsm", "grosse", "bca", "pgd_l1", "pgd_linf", "pgd_adam"]

print(f"\nwhite-box attacked-pool accuracy ({len(Xp)} malware examples)")
print(f"{'attack':10s}" + "".join(f"{label:>8s}" for label in models))
for name in attacks:
    cfg = mr.AttackConfig.for_attack(name, seed=11)
    row = f"{name:10s}"
    for label, m in models.items():
        res = mr.run_attack_suite(m, Xp, yp, policy, [cfg])
        X_adv = np.stack([o.x_adv for o in res[name]])
        row += f"{np.mean(m.predict(X_adv) == yp):8.3f}"
    print(row)

print("\nknowing the manipulation set is what makes the difference: AT "
      "covers the attacker's reachable cone and holds, while AR, which "
      "never saw the manipulation set, mostly falls with the plain model "
      "against the sparse discrete attacks.")
