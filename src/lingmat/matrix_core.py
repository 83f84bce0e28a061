"""Labeled word matrices, ensembles, permutation actions, and file I/O.

All types are immutable after construction (arrays are locked) and every
operation is a pure function, so values can be shared freely across
threads.  An ensemble is its labels plus one (N, D, D) stack, in memory
as on disk; `Ensemble.members` builds WordMatrix copies only on request.
"""

from __future__ import annotations

import ast
import contextlib
import json
import math
import numbers
import os
from dataclasses import dataclass

import numpy as np


class ParseError(ValueError):
    """Malformed matrix, vector, stack or label file; the message names
    the path (and the line, for text files)."""


def _at(path, lineno, msg):
    return ParseError(f"{path}:{lineno}: {msg}")


@contextlib.contextmanager
def atomic_open(path, mode: str = "w"):
    """A UTF-8 text (or ``"wb"`` byte) handle on ``path.tmp``, flushed, fsynced
    and moved onto ``path`` (a symlink's target) on a clean exit, removed on
    any exception.  The directory is not fsynced, so a power cut may leave
    either version.  A ``path`` that is not a regular file raises ValueError."""
    if os.path.exists(path) and not os.path.isfile(path):
        raise ValueError(f"{path}: not a regular file; refusing to replace it")
    path = os.path.realpath(path)
    tmp = f"{path}.tmp"
    fh = open(tmp, mode, encoding=None if "b" in mode else "utf-8")
    try:
        with fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def check_int(name: str, value) -> int:
    """``value`` as an int, for the integer fields of the config classes;
    anything else, a bool or an integral float included, raises a
    ValueError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_seed(value) -> int:
    """``value`` as an int, for every seed: an integer (`check_int`) in
    [0, 2**64), or a ValueError."""
    value = check_int("seed", value)
    if not 0 <= value < 2 ** 64:
        raise ValueError("seed must be a 64-bit unsigned integer")
    return value


def check_real(name: str, value) -> float:
    """``value`` as a float, for the real fields read from JSON; a bool, a
    string or a number that is not finite raises a ValueError naming
    ``name``."""
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        with contextlib.suppress(OverflowError):  # an int beyond float range
            if math.isfinite(value):
                return float(value)
    raise ValueError(f"{name} must be a finite number, got {value!r}")


@dataclass(frozen=True, eq=False)
class WordMatrix:
    """A D x D real matrix learned for one word; entry (i, j) is M_ij."""

    label: str
    values: np.ndarray

    def __post_init__(self):
        if not self.label:
            raise ValueError("word matrix label must be nonempty")
        v = np.array(self.values, dtype=np.float64, order="C")
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError(f"matrix values must be square, got shape {v.shape}")
        if v.shape[0] < 1:
            raise ValueError("matrix dimension must be >= 1")
        if not np.isfinite(v).all():
            raise ValueError(f"matrix {self.label!r} has non-finite entries")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.shape[0]


def values_of(m) -> np.ndarray:
    """The values of a `WordMatrix`, or `m` as a C-contiguous float64 array."""
    if isinstance(m, WordMatrix):
        return m.values
    return np.ascontiguousarray(m, dtype=np.float64)


@dataclass(frozen=True, eq=False, init=False)
class Ensemble:
    """Labels plus one locked, C-contiguous float64 (N, D, D) stack whose
    row k is the matrix of label k, the layout of ``members.npy``; such an
    array is taken without a copy and locked in place."""

    _labels: tuple[str, ...]
    values: np.ndarray

    def __init__(self, labels, values):
        labels = tuple(labels)
        v = np.ascontiguousarray(values, dtype=np.float64)
        if v.ndim != 3 or v.shape[1] != v.shape[2] or 0 in v.shape:
            raise ValueError(f"ensemble must be a nonempty (N, D, D) stack, got shape {v.shape}")
        if len(labels) != len(v):
            raise ValueError(f"{len(labels)} labels for {len(v)} matrices")
        if not all(isinstance(x, str) and x for x in labels):
            raise ValueError("ensemble labels must be nonempty strings")
        if not (np.isfinite(v.min()) and np.isfinite(v.max())):  # no (N, D, D) mask
            raise ValueError("ensemble has non-finite entries")
        v.setflags(write=False)
        object.__setattr__(self, "_labels", labels)
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def members(self) -> tuple[WordMatrix, ...]:
        """One WordMatrix copy per member, built on each access."""
        return tuple(map(WordMatrix, self._labels, self.values))

    def __len__(self):
        return len(self.values)

    def labels(self) -> list[str]:
        return list(self._labels)


@dataclass(frozen=True, eq=False)
class PermutationMap:
    """A bijection on {0, ..., D-1}, stored as its image array."""

    image: np.ndarray

    def __post_init__(self):
        img = np.array(self.image, dtype=np.intp)
        if img.ndim != 1 or img.size < 1:
            raise ValueError("permutation image must be a nonempty 1-d array")
        d = img.size
        seen = np.zeros(d, dtype=bool)
        for x in img:
            if x < 0 or x >= d or seen[x]:
                raise ValueError("permutation image is not a bijection on {0..D-1}")
            seen[x] = True
        img.setflags(write=False)
        object.__setattr__(self, "image", img)

    @property
    def dim(self) -> int:
        return self.image.size

    @classmethod
    def identity(cls, dim: int) -> "PermutationMap":
        return cls(np.arange(dim))

    def compose(self, other: "PermutationMap") -> "PermutationMap":
        """self after other: (self.compose(other))(i) = self(other(i))."""
        if self.dim != other.dim:
            raise ValueError("cannot compose permutations of different dimensions")
        return PermutationMap(self.image[other.image])

    def inverse(self) -> "PermutationMap":
        inv = np.empty(self.dim, dtype=np.intp)
        inv[self.image] = np.arange(self.dim)
        return PermutationMap(inv)


def symmetric_part(m: WordMatrix) -> WordMatrix:
    """S with S_ij = (M_ij + M_ji) / 2."""
    return WordMatrix(m.label, (m.values + m.values.T) / 2.0)


def antisymmetric_part(m: WordMatrix) -> WordMatrix:
    """A with A_ij = (M_ij - M_ji) / 2; M = S + A entrywise."""
    return WordMatrix(m.label, (m.values - m.values.T) / 2.0)


def apply_permutation(m: WordMatrix, sigma: PermutationMap) -> WordMatrix:
    """Relabel basis indices: result[sigma(i), sigma(j)] = M[i, j]."""
    if sigma.dim != m.dim:
        raise ValueError(
            f"permutation dimension {sigma.dim} does not match matrix dimension {m.dim}"
        )
    out = np.empty_like(m.values)
    out[np.ix_(sigma.image, sigma.image)] = m.values
    return WordMatrix(m.label, out)


# ---------------------------------------------------------------------------
# text formats
#
# Matrix file:  line 1 "label <word>", line 2 "dim <D>", then D rows of D
# space-separated decimals.  Vector file: same header with a single row.
# Numbers use Python repr (shortest round-trip), so write-then-read is
# bit-exact.  These single-item files are for export; ensembles and vector
# sets are written as binary stacks (`write_stack`).
# ---------------------------------------------------------------------------

def _format_row(row) -> str:
    return " ".join(map(repr, row.tolist()))


def _read_header(lines, path):
    if len(lines) < 2:
        raise _at(path, 1, "file too short; expected 'label <word>' and 'dim <D>' header")
    if not lines[0].startswith("label "):
        raise _at(path, 1, f"expected 'label <word>', got {lines[0]!r}")
    label = lines[0][len("label "):].strip()
    if not label:
        raise _at(path, 1, "empty label")
    if not lines[1].startswith("dim "):
        raise _at(path, 2, f"expected 'dim <D>', got {lines[1]!r}")
    try:
        dim = int(lines[1][len("dim "):].strip())
    except ValueError:
        raise _at(path, 2, f"dimension is not an integer: {lines[1]!r}") from None
    if dim < 1:
        raise _at(path, 2, f"dimension must be >= 1, got {dim}")
    return label, dim


def _parse_row(line, lineno, dim, path):
    parts = line.split()
    if len(parts) != dim:
        raise _at(path, lineno, f"expected {dim} entries, got {len(parts)}")
    row = np.empty(dim)
    for k, p in enumerate(parts):
        try:
            row[k] = float(p)
        except ValueError:
            raise _at(path, lineno, f"non-numeric entry {p!r}") from None
    if not np.isfinite(row).all():
        raise _at(path, lineno, "non-finite entry")
    return row


def _content_lines(path):
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        raw = fh.read().split("\n")
    for lineno, line in enumerate(raw, start=1):
        if not line.isascii() and any("\udc80" <= c <= "\udcff" for c in line):
            raise _at(path, lineno, "invalid UTF-8")
    while raw and raw[-1].strip() == "":
        raw.pop()
    return raw


def _write_text(label, dim, rows, path) -> None:
    with atomic_open(path) as fh:
        fh.write(f"label {label}\ndim {dim}\n")
        fh.writelines(_format_row(row) + "\n" for row in rows)


def _read_text(path, n_rows=None) -> tuple[str, np.ndarray]:
    """Label and rows of a text file; `n_rows` None means D rows."""
    lines = _content_lines(path)
    if not lines:
        raise _at(path, 1, "empty file")
    label, dim = _read_header(lines, path)
    n = dim if n_rows is None else n_rows
    if len(lines) != 2 + n:
        raise _at(path, min(len(lines), 2 + n) + 1,
                  f"expected {n} rows of {dim} entries, found {len(lines) - 2}")
    return label, np.array([_parse_row(lines[2 + i], 3 + i, dim, path) for i in range(n)])


def write_matrix(m: WordMatrix, path) -> None:
    _write_text(m.label, m.dim, m.values, path)


def read_matrix(path) -> WordMatrix:
    return WordMatrix(*_read_text(path))


def write_vector(label: str, values, path) -> None:
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError("vector values must be one-dimensional")
    _write_text(label, v.size, [v], path)


def read_vector(path) -> tuple[str, np.ndarray]:
    label, rows = _read_text(path, 1)
    return label, rows[0]


# ---------------------------------------------------------------------------
# stack directories: an ensemble or a vector set is one float64 ``.npy``
# stack, row k holding item k, plus a label manifest
# ---------------------------------------------------------------------------

#: Label manifest: a JSON array of the labels in row order, so every
#: nonempty string round-trips exactly.
LABELS_NAME = "labels.json"

#: Stack of an ensemble directory, shape (N, D, D).
MEMBERS_NAME = "members.npy"


def write_stack(items, dirpath, name: str) -> list[str]:
    """Write ``(label, values)`` items as the stack ``name`` plus the label
    manifest, each through `atomic_open`; returns the labels.  No items
    give a (0, 0) stack.  Rows are streamed, and the ``.npy`` header, whose
    shape field numpy pads to a fixed width, is rewritten at the end.

    Both files are written and fsynced before the old manifest is removed,
    so a failed write leaves the previous directory as it was.  A failure
    between the two moves on exit, stack first, leaves no manifest, which
    `read_stack` reports, never new rows under old labels.
    """
    os.makedirs(dirpath, exist_ok=True)
    stack_path = os.path.join(dirpath, name)
    labels_path = os.path.join(dirpath, LABELS_NAME)
    header = {"descr": "<f8", "fortran_order": False, "shape": (0, 0)}
    data_start = None
    labels = []
    with atomic_open(labels_path) as lf, atomic_open(stack_path, "wb") as fh:
        for label, values in items:
            row = np.ascontiguousarray(values, dtype="<f8")
            if data_start is None:
                header["shape"] = (0, *row.shape)
                np.lib.format.write_array_header_1_0(fh, header)
                data_start = fh.tell()
            elif row.shape != header["shape"][1:]:
                raise ValueError(f"row {label!r} has shape {row.shape}, "
                                 f"expected {header['shape'][1:]}")
            fh.write(row.data)
            labels.append(label)
        header["shape"] = (len(labels), *header["shape"][1:])
        fh.seek(0)
        np.lib.format.write_array_header_1_0(fh, header)
        if data_start is not None and fh.tell() != data_start:
            raise ValueError(f"{stack_path}: shape {header['shape']} "
                             "does not fit the header written first")
        lf.write(json.dumps(labels, indent=0, allow_nan=False) + "\n")
        for f in (fh, lf):
            f.flush()
            os.fsync(f.fileno())
        if os.path.exists(labels_path):
            os.remove(labels_path)
    return labels


def _read_npy(fh, path, ndim: int) -> np.ndarray:
    """The stack in the open ``.npy`` file ``fh``.  Its header must be format
    1.0 (what `write_stack` and ``np.save`` write for such a stack) and
    describe a C-order float64 array of rank ``ndim`` whose data fill the
    rest of the file exactly; this is checked before the data are
    allocated, and anything else raises a ParseError naming ``path``."""
    head = fh.read(10)
    if head[:8] != b"\x93NUMPY\x01\x00" or len(head) < 10:
        raise ParseError(f"{path}: not a format 1.0 .npy file")
    text = fh.read(int.from_bytes(head[8:], "little")).decode("latin1")
    try:
        header = ast.literal_eval(text)
    except (SyntaxError, ValueError, TypeError, MemoryError, RecursionError):
        raise ParseError(f"{path}: unreadable .npy header {text!r}") from None
    shape = header.get("shape") if isinstance(header, dict) else None
    if (header != {"descr": "<f8", "fortran_order": False, "shape": shape}
            or not isinstance(shape, tuple) or len(shape) != ndim
            or not all(type(n) is int and n >= 0 for n in shape)):
        raise ParseError(f"{path}: expected a C-order float64 stack of rank {ndim}, "
                         f"got the .npy header {header!r}")
    size, left = 8 * math.prod(shape), os.fstat(fh.fileno()).st_size - fh.tell()
    if size != left:
        raise ParseError(f"{path}: the .npy header's shape {shape} needs {size} bytes "
                         f"of data, the file holds {left}")
    values = np.empty(shape, dtype="<f8")
    if fh.readinto(values.data) != size:
        raise ParseError(f"{path}: the file shrank while it was read")
    return values


def read_stack(dirpath, name: str, ndim: int) -> tuple[list[str], np.ndarray]:
    """Labels and the stack written by `write_stack`; the caller checks the
    values.  A missing or unreadable file, a manifest that is not a list of
    nonempty strings, a stack that `_read_npy` refuses (a truncated file
    counts), or a row count that differs from the label count raises a
    ParseError naming the file."""
    labels_path = os.path.join(dirpath, LABELS_NAME)
    try:
        with open(labels_path, encoding="utf-8") as fh:
            labels = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(f"{labels_path}: unreadable label manifest: {exc}") from None
    if not (isinstance(labels, list) and all(isinstance(x, str) and x for x in labels)):
        raise ParseError(f"{labels_path}: expected a JSON array of nonempty strings")
    path = os.path.join(dirpath, name)
    try:
        with open(path, "rb") as fh:
            values = _read_npy(fh, path, ndim)
    except OSError as exc:
        raise ParseError(f"{path}: unreadable stack: {exc}") from None
    if len(values) != len(labels):
        raise ParseError(f"{path}: {len(values)} rows for {len(labels)} labels "
                         f"in {labels_path}")
    return labels, values


def write_ensemble(ensemble: Ensemble, dirpath) -> list[str]:
    """Write the ensemble as ``members.npy``, shape (N, D, D), plus the label
    manifest (see `write_stack`); returns the labels.  Other files in the
    directory are left alone."""
    return write_stack(zip(ensemble.labels(), ensemble.values), dirpath, MEMBERS_NAME)


def read_ensemble(dirpath) -> Ensemble:
    """The ensemble of `write_ensemble`; wraps the loaded stack, no copy."""
    labels, values = read_stack(dirpath, MEMBERS_NAME, 3)
    try:
        return Ensemble(labels, values)
    except ValueError as exc:
        raise ParseError(f"{os.path.join(dirpath, MEMBERS_NAME)}: {exc}") from None
