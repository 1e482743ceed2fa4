"""Feature vectors, datasets, manipulation policies, and synthetic data.

Feature vectors are plain numpy float arrays with entries in [0, 1]
(binary after thresholding).  A manipulation policy records, per feature,
whether the attacker may add it (flip 0 to 1) or remove it (flip 1 to 0);
the set of vectors reachable from x under a policy is the discrete domain
all attacks must land in.  Every file the package writes goes through
:func:`atomic_write`, so a crashed writer never leaves a partial file.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import os
from dataclasses import dataclass

import numpy as np


def _check_config_types(counts: dict, reals: dict) -> None:
    """Reject a count that is no integer (a bool included) and a rate or
    ratio that is no real number (NaN included), naming the field."""
    for key, value in counts.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{key} must be an integer, got {value!r}")
    for key, value in reals.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Real) or value != value:
            raise ValueError(f"{key} must be a real number, got {value!r}")


def _check_labels(y, rows: int, class_count: int) -> np.ndarray:
    """y as one int label per row of a batch, each in [0, class_count): the
    library's one label rule, so a bool or a float is no label."""
    y2 = np.atleast_1d(np.asarray(y))
    if y2.ndim != 1:
        raise ValueError(f"labels must be one per row, got shape {y2.shape}")
    if len(y2) != rows:
        raise ValueError(f"{len(y2)} labels for {rows} input rows")
    if not rows:
        return y2.astype(int)  # an empty list reads as float
    if y2.dtype.kind not in "iu":  # signed or unsigned ints only, no bools
        raise ValueError(f"labels must be integers, got {y2.dtype}")
    # one label (each attack step) is cheaper in Python, a batch in numpy
    lo, hi = (y2.item(),) * 2 if rows == 1 else (y2.min(), y2.max())
    if lo < 0 or hi >= class_count:
        raise ValueError(f"label out of range [0, {class_count})")
    return y2.astype(int, copy=False)


@dataclass
class ManipulationPolicy:
    """Per-feature addition / removal permissions."""

    addition_allowed: np.ndarray  # bool, shape (dim,)
    removal_allowed: np.ndarray   # bool, shape (dim,)

    def __post_init__(self):
        self.addition_allowed = np.asarray(self.addition_allowed, dtype=bool)
        self.removal_allowed = np.asarray(self.removal_allowed, dtype=bool)
        shapes = (self.addition_allowed.shape, self.removal_allowed.shape)
        if len(shapes[0]) != 1 or shapes[0] != shapes[1]:
            raise ValueError(f"policy flags must be two 1-d arrays of one length, got {shapes}")

    @property
    def dim(self) -> int:
        return self.addition_allowed.shape[0]

    def restrict(self, subset: np.ndarray) -> "ManipulationPolicy":
        """Policy over a feature-index subset (for subspace classifiers)."""
        return ManipulationPolicy(self.addition_allowed[subset],
                                  self.removal_allowed[subset])

    @classmethod
    def additions_only(cls, dim: int) -> "ManipulationPolicy":
        return cls(np.ones(dim, dtype=bool), np.zeros(dim, dtype=bool))


def _check_policy(policy: ManipulationPolicy, x) -> None:
    """Reject a policy whose width differs from that of the example or
    batch x: the library's one policy rule, checked where a policy enters."""
    if np.shape(x)[-1:] != (policy.dim,):
        raise ValueError(f"policy of width {policy.dim} for examples of shape {np.shape(x)}")


@dataclass
class Dataset:
    """Examples (n, dim) with labels in {0..class_count-1}."""

    X: np.ndarray
    y: np.ndarray
    class_count: int

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        if self.X.ndim != 2:
            raise ValueError("X must be 2-d (n, dim)")
        _check_config_types({"class_count": self.class_count}, {})
        if self.class_count < 1:
            raise ValueError("class_count must be >= 1")
        self.y = _check_labels(self.y, len(self.X), self.class_count)

    def __len__(self) -> int:
        return len(self.y)

    @property
    def dim(self) -> int:
        return self.X.shape[1]


def _check_binary(x: np.ndarray, name: str = "x") -> None:
    if not np.all((x == 0.0) | (x == 1.0)):
        raise ValueError(f"{name} is not binary")


def binarize(x: np.ndarray, theta) -> np.ndarray:
    """Threshold each feature: 0 when x[i] < theta[i], else 1 (ties map up)."""
    x = np.asarray(x, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if theta.ndim == 1 and theta.shape[0] != x.shape[-1]:
        raise ValueError("threshold length does not match feature dimension")
    return (x >= theta).astype(float)


def admissible(x: np.ndarray, x_adv: np.ndarray, policy: ManipulationPolicy) -> bool:
    """True iff every 0->1 flip is addition-allowed and every 1->0 flip is removal-allowed."""
    x = np.asarray(x, dtype=float)
    x_adv = np.asarray(x_adv, dtype=float)
    if x.shape != x_adv.shape:
        raise ValueError("shape mismatch")
    _check_policy(policy, x)
    _check_binary(x, "x")
    _check_binary(x_adv, "x_adv")
    added = (x == 0.0) & (x_adv == 1.0)
    removed = (x == 1.0) & (x_adv == 0.0)
    ok_add = np.all(~added | policy.addition_allowed)
    ok_rem = np.all(~removed | policy.removal_allowed)
    return bool(ok_add and ok_rem)


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


def oversample(dataset: Dataset, ratio: float, seed=0) -> Dataset:
    """Replicate minority-class examples until every class holds at least
    ceil(ratio * majority count) examples.

    Replicas are exact copies drawn with replacement from the original
    class; originals are all retained.
    """
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    if not 0.0 < ratio <= 1.0:
        raise ValueError("ratio must be in (0, 1]")
    counts = np.bincount(dataset.y, minlength=dataset.class_count)
    if np.any(counts == 0):
        raise ValueError("every class needs at least one example")
    floor = math.ceil(ratio * counts.max())
    rng = np.random.default_rng(seed)
    extra_X, extra_y = [], []
    for c in range(dataset.class_count):
        short = floor - counts[c]
        if short <= 0:
            continue
        idx = np.flatnonzero(dataset.y == c)
        picks = rng.choice(idx, size=short, replace=True)
        extra_X.append(dataset.X[picks])
        extra_y.append(np.full(short, c, dtype=int))
    if not extra_X:
        return dataset
    X = np.concatenate([dataset.X] + extra_X, axis=0)
    y = np.concatenate([dataset.y] + extra_y)
    return Dataset(X, y, dataset.class_count)


def _largest_remainder(n: int, fractions) -> list[int]:
    raw = [n * f for f in fractions]
    base = [int(math.floor(r)) for r in raw]
    left = n - sum(base)
    order = sorted(range(len(raw)), key=lambda i: raw[i] - base[i], reverse=True)
    for i in order[:left]:
        base[i] += 1
    return base


def split(dataset: Dataset, fractions, seed=0) -> tuple[Dataset, Dataset, Dataset]:
    """Stratified train/val/test split; parts are disjoint and exhaustive."""
    fractions = list(fractions)
    if len(fractions) != 3 or any(f <= 0 for f in fractions):
        raise ValueError("three positive fractions required")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("fractions must sum to 1")
    rng = np.random.default_rng(seed)
    parts: list[list[int]] = [[], [], []]
    for c in range(dataset.class_count):
        idx = np.flatnonzero(dataset.y == c)
        idx = rng.permutation(idx)
        sizes = _largest_remainder(len(idx), fractions)
        start = 0
        for p, s in enumerate(sizes):
            parts[p].extend(idx[start:start + s].tolist())
            start += s
    out = []
    for p in parts:
        sel = np.array(sorted(p), dtype=int)
        out.append(Dataset(dataset.X[sel], dataset.y[sel], dataset.class_count))
    return out[0], out[1], out[2]


def generate_synthetic(dim: int, classes: int, per_class, flip_noise: float,
                       seed=0, class_densities=None) -> tuple[Dataset, ManipulationPolicy]:
    """Desk-scale binary dataset: one random prototype per class, examples
    flip each prototype bit independently with probability flip_noise.

    ``per_class`` is an int or a per-class sequence of counts.
    ``class_densities`` optionally sets each prototype's expected fraction
    of 1-bits (default 0.5 for every class).  The returned policy marks a
    seeded random ~75% of features addition-allowed and ~50%
    removal-allowed.
    """
    _check_config_types({"dim": dim, "classes": classes}, {"flip_noise": flip_noise})
    if dim < 2 or classes < 2:
        raise ValueError("need dim >= 2 and classes >= 2")
    if isinstance(per_class, numbers.Integral):
        per_class = [per_class] * classes
    if class_densities is None:
        class_densities = [0.5] * classes
    for key, values in (("per_class", per_class), ("class_densities", class_densities)):
        if np.ndim(values) != 1 or len(values) != classes:
            raise ValueError(f"{key} must be one value per class, got {values!r}")
    _check_config_types({f"per_class[{c}]": n for c, n in enumerate(per_class)},
                        {f"class_densities[{c}]": d for c, d in enumerate(class_densities)})
    if min(per_class) < 0:
        raise ValueError(f"per_class counts must be >= 0, got {per_class!r}")
    rng = np.random.default_rng(seed)
    X_parts, y_parts = [], []
    for c in range(classes):
        proto = (rng.random(dim) < class_densities[c]).astype(float)
        n = per_class[c]
        flips = rng.random((n, dim)) < flip_noise
        Xc = np.where(flips, 1.0 - proto, proto)
        X_parts.append(Xc)
        y_parts.append(np.full(n, c, dtype=int))
    X = np.concatenate(X_parts, axis=0)
    y = np.concatenate(y_parts)
    policy = ManipulationPolicy(rng.random(dim) < 0.75, rng.random(dim) < 0.50)
    return Dataset(X, y, classes), policy


@contextlib.contextmanager
def atomic_write(path, newline=None):
    """Open a text file that replaces ``path`` only once the block ends.

    The text goes to a temporary file beside ``path`` that ``os.replace``
    moves over it on success; on any exception the temporary file is
    removed and ``path`` is left as it was.  There is no fsync: this
    guards against a crashed process, not against power loss.
    """
    path = os.fspath(path)
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.urandom(4).hex()}.tmp")
    fh = open(tmp, "x", encoding="utf-8", newline=newline)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def _format_value(v: float) -> str:
    if v == int(v):
        return str(int(v))
    return repr(float(v))


def write_sparse(path, dataset: Dataset) -> None:
    """Write `label idx:val ...` lines (ascending indices) with a header
    comment recording dim and class count."""
    with atomic_write(path) as fh:
        fh.write(f"# dim={dataset.dim} classes={dataset.class_count}\n")
        for x, label in zip(dataset.X, dataset.y):
            nz = np.flatnonzero(x != 0.0)
            cells = " ".join(f"{j}:{_format_value(x[j])}" for j in nz)
            fh.write(f"{label} {cells}".rstrip() + "\n")


def read_sparse(path, dim: int | None = None, class_count: int | None = None) -> Dataset:
    """Read the sparse text format written by :func:`write_sparse`.

    `#` lines are comments; a `# dim=.. classes=..` header, when present,
    supplies the dimensions so the round trip is exact.  Errors name the
    file line: bad cells, non-finite values, negative or repeated indices,
    and indices or labels out of range.
    """
    rows = []  # (file line, label, {index: value})
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for token in line[1:].split():
                    if token.startswith("dim=") and dim is None:
                        dim = int(token[4:])
                    elif token.startswith("classes=") and class_count is None:
                        class_count = int(token[8:])
                continue
            parts = line.split()
            try:
                label = int(parts[0])
            except ValueError:
                raise ValueError(f"line {lineno}: bad label {parts[0]!r}")
            if label < 0:
                raise ValueError(f"line {lineno}: label {label} out of range")
            feats = {}
            for cell in parts[1:]:
                if ":" not in cell:
                    raise ValueError(f"line {lineno}: malformed cell {cell!r}")
                idx_s, val_s = cell.split(":", 1)
                try:
                    idx, val = int(idx_s), float(val_s)
                except ValueError:
                    raise ValueError(f"line {lineno}: malformed cell {cell!r}")
                if not math.isfinite(val):
                    raise ValueError(f"line {lineno}: non-finite value {val_s!r}")
                if idx < 0:
                    raise ValueError(f"line {lineno}: negative index {idx}")
                if idx in feats:
                    raise ValueError(f"line {lineno}: duplicate index {idx}")
                if dim is not None and idx >= dim:
                    raise ValueError(f"line {lineno}: index {idx} out of range (dim={dim})")
                feats[idx] = val
            rows.append((lineno, label, feats))
    if dim is None:
        dim = 1 + max((idx for _, _, feats in rows for idx in feats), default=-1)
    if class_count is None:
        class_count = 1 + max((label for _, label, _ in rows), default=0)
    X = np.zeros((len(rows), dim))
    for i, (lineno, label, feats) in enumerate(rows):
        if label >= class_count:
            raise ValueError(f"line {lineno}: label {label} out of range "
                             f"(classes={class_count})")
        for idx, val in feats.items():
            if idx >= dim:
                raise ValueError(f"line {lineno}: index {idx} out of range (dim={dim})")
            X[i, idx] = val
    return Dataset(X, np.array([label for _, label, _ in rows], dtype=int), class_count)


def write_policy(path, policy: ManipulationPolicy) -> None:
    """One line per feature: `idx add_flag remove_flag` with 0/1 flags."""
    with atomic_write(path) as fh:
        for i in range(policy.dim):
            fh.write(f"{i} {int(policy.addition_allowed[i])} {int(policy.removal_allowed[i])}\n")


def read_policy(path) -> ManipulationPolicy:
    flags = {}  # feature index -> (add, remove)
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: expected `idx add remove`")
            try:
                idx, a, r = int(parts[0]), int(parts[1]), int(parts[2])
            except ValueError:
                raise ValueError(f"line {lineno}: non-integer field")
            if a not in (0, 1) or r not in (0, 1):
                raise ValueError(f"line {lineno}: flags must be 0/1")
            if idx < 0:
                raise ValueError(f"line {lineno}: negative index {idx}")
            if idx in flags:
                raise ValueError(f"line {lineno}: duplicate index {idx}")
            flags[idx] = (a, r)
    dim = 1 + max(flags, default=-1)
    if len(flags) != dim:
        raise ValueError(f"policy file missing feature {min(set(range(dim)) - set(flags))}")
    pairs = np.array([flags[i] for i in range(dim)], dtype=bool).reshape(dim, 2)
    return ManipulationPolicy(pairs[:, 0], pairs[:, 1])
