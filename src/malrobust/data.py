"""Feature vectors, datasets, manipulation policies, and synthetic data.

Feature vectors are plain numpy float arrays with entries in [0, 1]
(binary after thresholding).  A manipulation policy records, per feature,
whether the attacker may add it (flip 0 to 1) or remove it (flip 1 to 0);
the set of vectors reachable from a binary origin x under a policy is the
discrete domain all attacks must land in.  Projection rounds a continuous
point at 0.5 through x's flip mask, the features the policy lets x change;
a non-binary origin is rejected.  Every file the package writes goes through
:func:`atomic_write`, so a crashed writer never leaves a partial file.

Datasets are stored as sparse text, `label idx:val ...` lines under a
`# dim=.. classes=..` header, and policies as `idx add remove` lines.  The
readers take any whitespace between fields, `\n`, `\r\n` or `\r` line ends,
`#` comment and blank lines anywhere, labels, indices and flags as int()
reads them and values as float() reads them.  Each reads the whole file and
converts a file in the form the writers emit (an optional `#` header first,
then ASCII-digit fields, sparse cells in ascending index order, spaces and
tabs) with array operations; any other file, valid or not, is read again
line by line, exactly but slower, and that loop raises at the first fault
in file order, naming its line.  A label, cell or header value that does
not parse, a non-finite value, a negative, repeated or out-of-range index,
a label out of range, a policy line without three integer fields and a
flag other than 0 or 1 are faults; a policy that skips a feature names the
first it skips.
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
    ratio that is no real number (NaN and +-inf included), naming the field."""
    for key, value in counts.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{key} must be an integer, got {value!r}")
    for key, value in reals.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Real) or value != value \
                or abs(value) == math.inf:
            raise ValueError(f"{key} must be a real number, got {value!r}")


def _check_seed(seed, key: str = "seed") -> None:
    """Reject a seed that is neither a non-negative integer (a bool is
    none) nor a list or tuple of them, naming the field."""
    for s in seed if isinstance(seed, (list, tuple)) else [seed]:
        # a plain int skips the abstract-class checks, which cost microseconds
        if type(s) is not int and (isinstance(s, bool) or not isinstance(s, numbers.Integral)) \
                or s < 0:
            raise ValueError(f"{key} must be a non-negative integer or a list of them, "
                             f"got {seed!r}")


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
    if y2.min() < 0 or y2.max() >= class_count:
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
    return bool(np.all(_flippable(x, policy) | (x == x_adv)))


def _flippable(x: np.ndarray, policy: ManipulationPolicy) -> np.ndarray:
    """The one flip rule: where the policy lets binary x change (add a 0, remove a 1)."""
    return np.where(x == 0.0, policy.addition_allowed, policy.removal_allowed)


def _round_flips(flippable: np.ndarray, x: np.ndarray, x_cont: np.ndarray) -> np.ndarray:
    """x_cont rounded at 0.5 (ties up) where x may flip, x elsewhere."""
    return np.where(flippable, x_cont >= 0.5, x)


def project_to_m(x: np.ndarray, x_cont: np.ndarray, policy: ManipulationPolicy) -> np.ndarray:
    """Round a continuous vector at 0.5 (ties up) through the policy.

    x is the binary origin point (a non-binary one is rejected); each
    feature x may flip takes the rounding, every other keeps x's value, so
    the result is always admissible relative to x.  Works on single
    vectors or (n, dim) batches.
    """
    x = np.asarray(x, dtype=float)
    _check_policy(policy, x)
    _check_binary(x, "x")
    return _round_flips(_flippable(x, policy), x, np.asarray(x_cont, dtype=float))


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
    if not 0.0 <= flip_noise <= 1.0:
        raise ValueError(f"flip_noise must be in [0, 1], got {flip_noise!r}")
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
    for c, d in enumerate(class_densities):
        if not 0.0 <= d <= 1.0:
            raise ValueError(f"class_densities[{c}] must be in [0, 1], got {d!r}")
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
    comment recording dim and class count.  A non-finite value, which
    read_sparse rejects, is refused before any file is touched."""
    bad = np.flatnonzero(~np.isfinite(dataset.X).all(axis=1))
    if len(bad):
        raise ValueError(f"row {bad[0]}: non-finite value")
    X = dataset.X
    flat = np.flatnonzero(X != 0.0)
    rows, cols = np.divmod(flat, X.shape[1])
    ends = np.cumsum(np.bincount(rows, minlength=len(X))).tolist()
    with atomic_write(path) as fh:
        # each distinct value, then each distinct (index, value) pair, is formatted once
        values, value_of = np.unique(X.reshape(-1)[flat], return_inverse=True)
        value_text = [_format_value(v) for v in values.tolist()]
        n = len(values)
        pairs, pair_of = np.unique(cols * n + value_of, return_inverse=True)
        pair_text = [f" {p // n}:{value_text[p % n]}" for p in pairs.tolist()]
        cells = np.array(pair_text, dtype=object)[pair_of].tolist()
        lines, start = [f"# dim={dataset.dim} classes={dataset.class_count}\n"], 0
        for label, end in zip(dataset.y.tolist(), ends):
            lines.append(f"{label}{''.join(cells[start:end])}\n")
            start = end
        fh.write("".join(lines))


def write_policy(path, policy: ManipulationPolicy) -> None:
    """One line per feature: `idx add_flag remove_flag` with 0/1 flags."""
    features = np.arange(policy.dim)  # a flag array shorter than dim is an IndexError
    add = np.asarray(policy.addition_allowed)[features].astype(int).tolist()
    remove = np.asarray(policy.removal_allowed)[features].astype(int).tolist()
    with atomic_write(path) as fh:
        fh.write("".join([f"{i} {a} {r}\n" for i, a, r in zip(range(policy.dim), add, remove)]))


# The readers take a whole file at once: a bulk pass converts a file in the
# form the writers emit (an optional `#` header as the first line, then ASCII
# digits, `idx:digits` cells in ascending order, spaces and tabs) with array
# operations and raises _Irregular at anything else, valid or not.  The line
# loop then reads the file again, one line at a time: it accepts every file
# the bulk pass does, with the same result, and more (comments, unsorted
# cells, float values, a label `+1`, digits of other scripts, `1_0`, other
# whitespace), and names the first fault in file order.  So every file the
# writers produce is read without the line loop.

class _Irregular(Exception):
    """A file the bulk pass leaves to the line loop."""


def _read_text(path) -> str:
    # text mode reads `\r\n` and `\r` as `\n`, as iterating the file did
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _tokens(text: str):
    """The bytes of text framed by newlines; the start and end (exclusive)
    of each token, a run of bytes other than space, tab and newline; and
    which tokens are the first on their line.  Any byte but these, digits
    and colons is irregular."""
    if not text.isascii():
        raise _Irregular
    data = f"\n{text}\n".encode("ascii")
    if data.translate(None, b"0123456789: \t\n"):
        raise _Irregular
    raw = np.frombuffer(data, dtype=np.uint8)
    word = raw > ord(" ")  # the blanks left are the only bytes at or below a space
    edges = np.flatnonzero(word[1:] != word[:-1]) + 1
    starts, ends = edges[0::2], edges[1::2]
    # the token after a newline is the first on its line (the last newline has none)
    first = np.zeros(len(starts) + 1, dtype=bool)
    first[np.searchsorted(starts, np.flatnonzero(raw == ord("\n")))] = True
    return raw, starts, ends, first[:-1]


def _uints(raw, starts, ends) -> np.ndarray:
    """The integers the ASCII digit runs raw[starts:ends] spell, of 1 to 18 digits."""
    lengths = ends - starts
    width = lengths.max(initial=0)
    if width > 18:
        raise _Irregular
    out = np.zeros(len(starts), dtype=np.int64)
    for k in range(width):  # the k-th digit from the right, where a run has one
        digit = raw[ends - 1 - k].astype(np.int64) - ord("0")
        out += np.where(lengths > k, digit, 0) * 10 ** k
    return out


def _sparse_bulk(text: str, dim, class_count):
    """(X, labels, class_count) of a valid sparse file in the writers' form."""
    if text.startswith("#"):  # a faulty header is line 1's fault, as the line loop says
        header, _, text = text.partition("\n")
        dim, class_count = _apply_header(header[1:], 1, dim, class_count)
    raw, starts, ends, first = _tokens(text)
    colon = np.flatnonzero(raw == ord(":"))
    c0, c1 = starts[~first], ends[~first]
    # the k-th colon splits the k-th cell in two non-empty parts, so no label has one
    if len(colon) != len(c0) or np.any((colon <= c0) | (colon >= c1 - 1)):
        raise _Irregular
    labels, idx = _uints(raw, starts[first], ends[first]), _uints(raw, c0, colon)
    values = _uints(raw, colon + 1, c1)  # int64 to float64 rounds as float() does
    if class_count is None:
        class_count = int(labels.max()) + 1 if len(labels) else 1
    elif len(labels) and labels.max() >= class_count:
        raise _Irregular
    if dim is None:
        dim = int(idx.max()) + 1 if len(idx) else 0
    elif len(idx) and idx.max() >= dim:
        raise _Irregular
    X = np.zeros((len(labels), dim))  # first, as the line loop fails on a dim too large
    label_at = np.flatnonzero(first)
    rows = np.repeat(np.arange(len(labels)), np.diff(label_at, append=len(first)) - 1)
    flat = rows * dim + idx
    if np.any(flat[1:] <= flat[:-1]):  # a row repeats or reorders indices
        raise _Irregular
    X.reshape(-1)[flat] = values
    return X, labels, class_count


def _header_count(token: str, lineno: int) -> int:
    """The non-negative integer of a ``key=value`` header token."""
    key, value = token.split("=", 1)
    if not (value.isascii() and value.isdigit()):
        raise ValueError(f"line {lineno}: header {key} must be a non-negative "
                         f"integer, got {value!r}")
    return int(value)


def _apply_header(comment: str, lineno: int, dim, class_count):
    """dim and class_count after a comment line: the first `dim=` and
    `classes=` tokens set what is still None."""
    for token in comment.split():
        if token.startswith("dim=") and dim is None:
            dim = _header_count(token, lineno)
        elif token.startswith("classes=") and class_count is None:
            class_count = _header_count(token, lineno)
    return dim, class_count


def _sparse_by_line(text: str, dim, class_count):
    """(X, labels, class_count) of a valid sparse file, or the first fault."""
    rows = []  # (file line, label, {index: value})
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            dim, class_count = _apply_header(line[1:], lineno, dim, class_count)
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
    return X, np.array([label for _, label, _ in rows], dtype=int), class_count


def read_sparse(path, dim: int | None = None, class_count: int | None = None) -> Dataset:
    """Read the sparse text format written by :func:`write_sparse`.

    `#` lines are comments; a `# dim=.. classes=..` header, when present,
    supplies the dimensions so the round trip is exact.  Errors name the
    file line: header values that are no non-negative integer, bad cells,
    non-finite values, negative or repeated indices, and indices or labels
    out of range.
    """
    text = _read_text(path)
    try:
        X, y, class_count = _sparse_bulk(text, dim, class_count)
    except _Irregular:
        X, y, class_count = _sparse_by_line(text, dim, class_count)
    return Dataset(X, y, class_count)


def _policy_bulk(text: str):
    """The (index, add, remove) columns of a valid policy file in the
    writers' form, one line a feature in ascending order."""
    raw, starts, ends, first = _tokens(text)
    # three digit tokens a line
    if np.any(raw == ord(":")) or len(first) % 3 \
            or not np.array_equal(first, np.arange(len(first)) % 3 == 0):
        raise _Irregular
    idx, add, remove = _uints(raw, starts, ends).reshape(-1, 3).T
    if np.any(add > 1) or np.any(remove > 1) or np.any(np.diff(idx) <= 0):
        raise _Irregular
    return idx, add, remove


def _policy_by_line(text: str):
    """The (index, add, remove) columns of the lines of a policy file, sorted
    by index, or the first fault of a line."""
    flags = {}  # feature index -> (add, remove)
    for lineno, line in enumerate(text.split("\n"), start=1):
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
    idx = sorted(flags)
    return (np.array(idx), np.array([flags[i][0] for i in idx], dtype=int),
            np.array([flags[i][1] for i in idx], dtype=int))


def read_policy(path) -> ManipulationPolicy:
    """Read the `idx add_flag remove_flag` lines :func:`write_policy`
    writes, in any order; `#` lines are comments.  Errors name the file
    line, or the first feature no line names."""
    text = _read_text(path)
    try:
        idx, add, remove = _policy_bulk(text)
    except _Irregular:
        idx, add, remove = _policy_by_line(text)
    # idx is sorted and repeats no index, so the first gap is the first missing feature
    gaps = np.flatnonzero(idx != np.arange(len(idx)))
    if len(gaps):
        raise ValueError(f"policy file missing feature {gaps[0]}")
    return ManipulationPolicy(add == 1, remove == 1)
