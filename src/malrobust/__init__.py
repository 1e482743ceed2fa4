"""Evasion attacks and hardened training for binary malware-style feature vectors."""

from .data import (Dataset, ManipulationPolicy, admissible, binarize,
                   generate_synthetic, oversample, project_to_m, read_policy,
                   read_sparse, split, write_policy, write_sparse)
from .nn import (AdamState, GradientBundle, MlpClassifier, adam_step, backward,
                 cross_entropy, forward, load_model, logits, save_model,
                 softmax, train_supervised)
from .attacks import (ATTACK_NAMES, GREY_BOX, WHITE_BOX, AttackConfig,
                      AttackOutcome, run_attack_suite, run_single)
from .defenses import (DefenseConfig, DenoisingAutoencoder, EnsembleClassifier,
                       HardenedClassifier, inner_maximize, load_ensemble,
                       load_hardened, save_ensemble, save_hardened,
                       train_ensemble, train_hardened)
from .evaluation import (DefenseSpec, binary_metrics, evaluate_models,
                         harmonic_mean, macro_f1, report_table, run_experiment,
                         train_models)

__version__ = "0.1.0"
