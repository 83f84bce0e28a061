"""Labeled word matrices, ensembles, permutation actions, and text I/O.

All types are immutable after construction (arrays are locked) and every
operation is a pure function, so values can be shared freely across
threads.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

import numpy as np


class ParseError(ValueError):
    """Malformed matrix/vector/manifest file; message carries path:line."""


def _at(path, lineno, msg):
    return ParseError(f"{path}:{lineno}: {msg}")


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


@dataclass(frozen=True, eq=False)
class Ensemble:
    """An ordered, nonempty collection of word matrices of one dimension."""

    members: tuple[WordMatrix, ...]

    def __post_init__(self):
        members = tuple(self.members)
        if not members:
            raise ValueError("ensemble must be nonempty")
        d = members[0].dim
        for m in members:
            if m.dim != d:
                raise ValueError(
                    f"ensemble members disagree on dimension: {d} vs {m.dim} ({m.label!r})"
                )
        object.__setattr__(self, "members", members)

    @property
    def dim(self) -> int:
        return self.members[0].dim

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def labels(self) -> list[str]:
        return [m.label for m in self.members]


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
# bit-exact.  Manifest and pairs files may contain '#' comment lines.
# ---------------------------------------------------------------------------

def format_float(x: float) -> str:
    return repr(float(x))


def _format_row(row) -> str:
    return " ".join(format_float(x) for x in row)


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
    with open(path, encoding="utf-8") as fh:
        raw = fh.read().split("\n")
    while raw and raw[-1].strip() == "":
        raw.pop()
    return raw


def write_matrix(m: WordMatrix, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"label {m.label}\n")
        fh.write(f"dim {m.dim}\n")
        for row in m.values:
            fh.write(_format_row(row) + "\n")


def read_matrix(path) -> WordMatrix:
    lines = _content_lines(path)
    if not lines:
        raise _at(path, 1, "empty file")
    label, dim = _read_header(lines, path)
    if len(lines) != 2 + dim:
        raise _at(path, len(lines) + 1 if len(lines) < 2 + dim else 2 + dim + 1,
                  f"expected {dim} matrix rows, found {len(lines) - 2}")
    values = np.empty((dim, dim))
    for i in range(dim):
        values[i] = _parse_row(lines[2 + i], 3 + i, dim, path)
    return WordMatrix(label, values)


def write_vector(label: str, values, path) -> None:
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError("vector values must be one-dimensional")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"label {label}\n")
        fh.write(f"dim {v.size}\n")
        fh.write(_format_row(v) + "\n")


def read_vector(path) -> tuple[str, np.ndarray]:
    lines = _content_lines(path)
    if not lines:
        raise _at(path, 1, "empty file")
    label, dim = _read_header(lines, path)
    if len(lines) != 3:
        raise _at(path, 4, f"expected a single row of {dim} entries")
    return label, _parse_row(lines[2], 3, dim, path)


def slug(label: str) -> str:
    """Filesystem-safe name for a word or compound label."""
    return "".join(ch if ch.isalnum() or ch in "-." else "_" for ch in label)


MANIFEST_NAME = "manifest.txt"

#: Member file names written by `write_ensemble`: index, then label slug.
_MEMBER_FILE = re.compile(r"\d{6,}_.*\.txt")


def read_manifest(dirpath) -> list[str]:
    path = os.path.join(dirpath, MANIFEST_NAME)
    if not os.path.exists(path):
        raise ParseError(f"{path}: manifest not found")
    names = []
    for line in _content_lines(path):
        line = line.strip()
        if line and not line.startswith("#"):
            names.append(line)
    return names


def write_ensemble(ensemble, dirpath) -> list[str]:
    """Write one matrix file per member plus an ordered manifest.

    Accepts an Ensemble or any iterable of WordMatrix (streamed; the whole
    collection is never required in memory).  Member files left in the
    directory by an earlier ensemble and not in the new manifest are
    removed.  Returns the filenames.
    """
    os.makedirs(dirpath, exist_ok=True)
    names = []
    for i, m in enumerate(ensemble):
        name = f"{i:06d}_{slug(m.label)}.txt"
        write_matrix(m, os.path.join(dirpath, name))
        names.append(name)
    if not names:
        raise ValueError("refusing to write an empty ensemble")
    for name in set(filter(_MEMBER_FILE.fullmatch, os.listdir(dirpath))) - set(names):
        os.remove(os.path.join(dirpath, name))
    with open(os.path.join(dirpath, MANIFEST_NAME), "w", encoding="utf-8") as fh:
        for name in names:
            fh.write(name + "\n")
    return names


def read_ensemble(dirpath) -> Ensemble:
    names = read_manifest(dirpath)
    members = tuple(read_matrix(os.path.join(dirpath, n)) for n in names)
    return Ensemble(members)
