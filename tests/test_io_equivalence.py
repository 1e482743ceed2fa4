"""The whole-file readers and writers of sparse datasets and policies
against the line-at-a-time functions they replaced.

The oracle below keeps the former ``write_sparse``, ``read_sparse``,
``write_policy`` and ``read_policy`` verbatim.  Every property compares the
package's function to its oracle: the bytes written, the arrays read back
bit for bit, and the exact message of each error, over valid files in many
spellings (comments, blank lines, tabs, CRLF, late headers, signs, leading
zeros, other whitespace and other digits) and over files with one fault.
Integral files as the writers emit them are read by the bulk pass alone.
"""

import math
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from malrobust import data
from malrobust.data import Dataset, ManipulationPolicy, atomic_write

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)


# ---------------------------------------------------------------- oracle

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
    with atomic_write(path) as fh:
        fh.write(f"# dim={dataset.dim} classes={dataset.class_count}\n")
        for x, label in zip(dataset.X, dataset.y):
            nz = np.flatnonzero(x != 0.0)
            cells = " ".join(f"{j}:{_format_value(x[j])}" for j in nz)
            fh.write(f"{label} {cells}".rstrip() + "\n")


def _header_count(token: str, lineno: int) -> int:
    """The non-negative integer of a ``key=value`` header token."""
    key, value = token.split("=", 1)
    if not (value.isascii() and value.isdigit()):
        raise ValueError(f"line {lineno}: header {key} must be a non-negative "
                         f"integer, got {value!r}")
    return int(value)


def read_sparse(path, dim: int | None = None, class_count: int | None = None) -> Dataset:
    """Read the sparse text format written by :func:`write_sparse`.

    `#` lines are comments; a `# dim=.. classes=..` header, when present,
    supplies the dimensions so the round trip is exact.  Errors name the
    file line: header values that are no non-negative integer, bad cells,
    non-finite values, negative or repeated indices, and indices or labels
    out of range.
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
                        dim = _header_count(token, lineno)
                    elif token.startswith("classes=") and class_count is None:
                        class_count = _header_count(token, lineno)
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


# ---------------------------------------------------------------- helpers

def sparse_outcome(read, path, *args):
    """What a reader makes of a file: its arrays bit for bit, or its message."""
    try:
        ds = read(path, *args)
    except ValueError as e:
        return "error", str(e)
    return "ok", ds.X.shape, ds.X.tobytes(), ds.y.dtype, ds.y.tolist(), ds.class_count


def policy_outcome(read, path):
    try:
        policy = read(path)
    except ValueError as e:
        return "error", str(e)
    return "ok", policy.addition_allowed.tolist(), policy.removal_allowed.tolist()


def written(writer, obj) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.txt")
        writer(path, obj)
        with open(path, "rb") as fh:
            return fh.read().decode("utf-8")


def both(outcome, text: str, *args):
    """The package's and the oracle's outcome on a file holding text as is."""
    readers = {sparse_outcome: (data.read_sparse, read_sparse),
               policy_outcome: (data.read_policy, read_policy)}[outcome]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.txt")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        return [outcome(read, path, *args) for read in readers]


EDGE_VALUES = [1.0, -1.0, 0.5, 0.25, 1.0 / 3.0, -0.0, 2.0, 1e-7, 5e-324, 1e16, 2.0 ** 53,
               2.0 ** 63, 123456789012345.0, 1234567890123456.0, 1e300, -1e300,
               np.finfo(float).max]
values = st.one_of(st.sampled_from(EDGE_VALUES), st.integers(-10 ** 20, 10 ** 20).map(float),
                   st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def datasets(draw, min_rows=0):
    """Finite datasets: empty rows, rows without a nonzero, non-integral and
    large integral values."""
    n = draw(st.integers(min_rows, 6))
    dim = draw(st.integers(1, 12))
    classes = draw(st.integers(1, 4))
    kept = draw(arrays(bool, (n, dim)))
    X = np.where(kept, draw(arrays(float, (n, dim), elements=values)), 0.0)
    y = draw(arrays(np.int64, n, elements=st.integers(0, classes - 1)))
    return Dataset(X, y, classes)


def data_lines(lines):
    return [i for i, line in enumerate(lines) if line and not line.startswith("#")]


# ---------------------------------------------------------------- writers

@SETTINGS
@given(datasets())
def test_write_sparse_writes_the_oracles_bytes(ds):
    assert written(data.write_sparse, ds) == written(write_sparse, ds)


@SETTINGS
@given(st.integers(0, 40).flatmap(lambda d: st.tuples(arrays(bool, d), arrays(bool, d))))
def test_write_policy_writes_the_oracles_bytes(flags):
    policy = ManipulationPolicy(*flags)
    assert written(data.write_policy, policy) == written(write_policy, policy)


# ---------------------------------------------------------------- valid files

COMMENTS = ["#", "# a remark", "  # dim=50 classes=9", "#classes=7", "#\tdim=3",
            "# dim=x", "# classes=", "\t"]
SPACES = [" ", "\t", "  ", " \t ", "\x0c", "\xa0"]


def respell_number(draw, token):
    """A non-negative integer token spelt another way int() reads alike."""
    return draw(st.sampled_from([token, "0" + token, "+" + token, token[:1] + "_" + token[1:]
                                 if len(token) > 1 else token,
                                 token.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"))]))


def respell_value(draw, token):
    """A value token spelt another way float() reads alike."""
    spellings = [token, token.upper()]
    if token.lstrip("-").isdigit():
        spellings += [token + ".0", token + "e0", token + "0e-1"]
    if not token.startswith("-"):
        spellings.append("+" + token)
    return draw(st.sampled_from(spellings))


@SETTINGS
@given(datasets(), st.data())
def test_read_sparse_matches_the_oracle(ds, draw_from):
    draw = draw_from.draw
    lines = written(write_sparse, ds).split("\n")
    if draw(st.booleans()):  # a late header
        lines.append(lines.pop(0))
    for i in data_lines(lines):
        if draw(st.booleans()):
            label, *cells = lines[i].split(" ")
            cells = [respell_number(draw, j) + ":" + respell_value(draw, v)
                     for j, v in (c.split(":") for c in cells)]
            lines[i] = draw(st.sampled_from(SPACES[:4])).join([respell_number(draw, label)]
                                                              + cells)
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(COMMENTS + [""])))
    if draw(st.booleans()):
        pad = st.sampled_from(["", " ", "\t", "  \t"])
        lines = [draw(pad) + line + draw(pad) for line in lines]
    text = draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines)
    if draw(st.booleans()):
        text = text.replace(" ", draw(st.sampled_from(SPACES)))
    dim = draw(st.sampled_from([None, ds.dim, ds.dim + 3, ds.dim - 1]))
    class_count = draw(st.sampled_from([None, ds.class_count, ds.class_count + 1,
                                        ds.class_count - 1]))
    new, old = both(sparse_outcome, text, dim, class_count)
    assert new == old


@SETTINGS
@given(st.integers(0, 30).flatmap(lambda d: st.tuples(arrays(bool, d), arrays(bool, d))),
       st.data())
def test_read_policy_matches_the_oracle(flags, draw_from):
    draw = draw_from.draw
    lines = written(write_policy, ManipulationPolicy(*flags)).split("\n")
    lines = draw(st.permutations(lines))
    for i, line in enumerate(lines):
        if line and draw(st.booleans()):
            lines[i] = draw(st.sampled_from(SPACES[:4])).join(
                respell_number(draw, token) for token in line.split(" "))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(COMMENTS + [""])))
    text = draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines)
    if draw(st.booleans()):
        text = text.replace(" ", draw(st.sampled_from(SPACES)))
    new, old = both(policy_outcome, text)
    assert new == old


# ---------------------------------------------------------------- faults

SPARSE_FAULTS = ["bad label", "no colon", "two colons", "empty part", "bad number",
                 "non-finite value", "negative index", "repeated index", "index out of range",
                 "label out of range", "negative label", "bad header"]


def out_of_range(n):
    """Integers from n up, some of which wrap to below n in 64 bits."""
    return st.one_of(st.integers(n, 10 ** 20), st.integers(0, n - 1).map(lambda j: 2 ** 64 + j))


@SETTINGS
@given(datasets(min_rows=1), st.sampled_from(SPARSE_FAULTS), st.data())
def test_each_sparse_fault_raises_the_oracles_message(ds, fault, draw_from):
    draw = draw_from.draw
    lines = written(write_sparse, ds).split("\n")
    i = draw(st.sampled_from(data_lines(lines)))
    label, *cells = lines[i].split(" ")
    if fault == "bad label":
        label = draw(st.sampled_from(["x", "1.5", "0x1", "1e3", "1:1"]))
    elif fault == "no colon":
        cells.append(draw(st.sampled_from(["7", "x", "1.5"])))
    elif fault == "two colons":
        cells.append(draw(st.sampled_from(["1:2:3", "0::1", "1:1:"])))
    elif fault == "empty part":  # in place of the cells, so the index repeats none
        cells = [draw(st.sampled_from([f"{ds.dim - 1}:", ":1", ":"]))]
    elif fault == "bad number":
        cells.append(draw(st.sampled_from(["x:1", "1.0:1", "1:x", "1:1e", "1:--1", "1:.",
                                           "1:0x1", "1:1-2", "1:1e5e5"])))
    elif fault == "non-finite value":
        value = draw(st.sampled_from(["nan", "inf", "-inf", "1e999", "NaN", "-Infinity"]))
        cells.append(f"{ds.dim - 1}:{value}")
    elif fault == "negative index":
        cells.append(draw(st.sampled_from(["-3:1", "-10:1", "-1:0.5"])))
    elif fault == "repeated index":
        cells += cells[:1] if cells else ["0:1", "0:2"]
    elif fault == "index out of range":
        cells.append(f"{draw(out_of_range(ds.dim))}:1")
    elif fault == "label out of range":
        label = str(draw(out_of_range(ds.class_count)))
    elif fault == "negative label":
        label = draw(st.sampled_from(["-1", "-12"]))
    else:
        i, label, cells = 0, "#", [draw(st.sampled_from(["dim=abc", "dim=-2", "classes=2.5",
                                                         "classes=", "dim=٣"]))]
    lines[i] = " ".join([label] + cells)
    if draw(st.booleans()):  # a late header
        lines.append(lines.pop(0))
    new, old = both(sparse_outcome, "\n".join(lines))
    assert new[0] == "error" and new == old


POLICY_FAULTS = ["flag", "field", "field count", "negative index", "repeated index",
                 "missing feature"]


@SETTINGS
@given(st.integers(1, 30).flatmap(lambda d: st.tuples(arrays(bool, d), arrays(bool, d))),
       st.sampled_from(POLICY_FAULTS), st.data())
def test_each_policy_fault_raises_the_oracles_message(flags, fault, draw_from):
    draw = draw_from.draw
    lines = [line for line in written(write_policy, ManipulationPolicy(*flags)).split("\n")
             if line]
    i = draw(st.integers(0, len(lines) - 1))
    idx, add, remove = lines[i].split(" ")
    if fault == "flag":
        add = draw(st.sampled_from(["2", "-1", "10"]))
    elif fault == "field":
        remove = draw(st.sampled_from(["x", "1.0", "0x1", "1:1"]))
    elif fault == "field count":
        lines[i] = draw(st.sampled_from([f"{idx} {add}", f"{idx} {add} {remove} 0", idx]))
    elif fault == "negative index":
        idx = str(-1 - int(idx))
    elif fault == "repeated index":
        lines.append(lines[i])
    if fault == "missing feature":
        del lines[i]
        if i == len(lines):  # the last feature gone leaves a smaller valid policy
            lines.append(f"{i + 1} 0 1")
    elif fault != "field count":
        lines[i] = " ".join([idx, add, remove])
    new, old = both(policy_outcome, "\n".join(draw(st.permutations(lines))))
    assert new[0] == "error" and new == old


# ---------------------------------------------------------------- the bulk pass

@pytest.mark.parametrize("newline", ["\n", "\r\n"])
@pytest.mark.parametrize("space", [" ", "\t", " \t "])
def test_other_spellings_read_as_the_oracle_reads(newline, space):
    """Comments, blank lines, tabs, CRLF, unsorted cells and float values
    of every spelling float() reads, which the line loop reads."""
    sparse = (f"# a remark{newline}0 3:1 1:0.25 2:-1e-3{newline}{newline}"
              f"  1 0:+.5 4:007 5:1.{newline}\t2{newline}# dim=7 classes=3{newline}")
    sparse = sparse.replace(" ", space)
    policy = f"# remark{newline}1 0 1{newline}{newline}0 1 1{newline}  2 01 0{newline}"
    policy = policy.replace(" ", space)
    new, old = both(sparse_outcome, sparse)
    assert new == old and new[0] == "ok"
    new_policy, old_policy = both(policy_outcome, policy)
    assert new_policy == old_policy and new_policy[0] == "ok"


INTEGRAL = st.one_of(st.sampled_from([1.0, 2.0 ** 53, 1e17, 1e18 - 128]),
                     st.integers(1, 10 ** 18 - 128).map(float))  # at most 18 digits


@st.composite
def integral_datasets(draw):
    """Datasets of what the benchmarked files hold: zero rows, empty rows,
    wide dims and integral values of up to 18 digits."""
    n = draw(st.integers(0, 6))
    dim = draw(st.one_of(st.integers(1, 12), st.just(2000)))
    classes = draw(st.integers(1, 4))
    X = np.zeros((n, dim))
    cells = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, dim - 1))
    for i, j in draw(st.sets(cells, max_size=40 if n else 0)):
        X[i, j] = draw(INTEGRAL)
    y = draw(arrays(np.int64, n, elements=st.integers(0, classes - 1)))
    return Dataset(X, y, classes)


@SETTINGS
@given(integral_datasets(),
       st.one_of(st.integers(0, 40), st.just(2000)).flatmap(
           lambda d: st.tuples(arrays(bool, d), arrays(bool, d))))
def test_writer_output_never_runs_the_line_loop(ds, flags):
    sparse = written(data.write_sparse, ds)
    policy = written(data.write_policy, ManipulationPolicy(*flags))
    with mock.patch.object(data, "_sparse_by_line", side_effect=AssertionError), \
            mock.patch.object(data, "_policy_by_line", side_effect=AssertionError):
        new, old = both(sparse_outcome, sparse)
        new_policy, old_policy = both(policy_outcome, policy)
    assert new == old and new[0] == "ok"
    assert new_policy == old_policy and new_policy[0] == "ok"
