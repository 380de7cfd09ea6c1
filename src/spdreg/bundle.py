"""Labeled covariance collections and the package's plain-text files.

A bundle is one read-only ``(n, p, p)`` array of symmetric PSD matrices,
a real label per matrix, and a nominal rank bound. Files use the
``COVB v3`` layout: a ``COVB v3 <n> <p> <rank>`` header, then per sample
a ``y <label>`` line and one line holding the RFC 4648 base64 of the
``p(p+1)/2`` upper-triangle entries as little-endian float64, in row-major
``np.triu_indices(p)`` order. A stored matrix is exactly symmetric, so its
triangle is lossless, and the binary entries round-trip bit for bit.

Every other number in a text file (COVB headers and labels, MODEL,
LEADFIELD, command outputs) is decimal, written one ``%``-template per
line or sample with 17 significant digits (lossless for float64), and read
by :class:`LineReader`, one pass per line, through :func:`number`, the one
number rule that option and config values share. A bundle read from a file
is validated and symmetrized by its constructor.
"""

from __future__ import annotations

import base64
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .symmat import SymMat, _as_stack

FLOAT_FMT = "%.17g"

# Entries above this overflow the symmetrization (a + a^T) / 2.
HALF_MAX = np.finfo(np.float64).max / 2


def row_format(count: int, *words: str) -> str:
    """``%``-template of one line: ``words``, then ``count`` lossless floats."""
    return " ".join([*words, *[FLOAT_FMT] * count]) + "\n"


def write_rows(fh, rows, *words: str) -> None:
    """Write each row of ``rows`` (a 1-d array is one row) as one line, after ``words``."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    line = row_format(rows.shape[1], *words)
    for row in rows.tolist():
        fh.write(line % tuple(row))


@dataclass
class CovarianceBundle:
    """``n`` labeled covariance matrices of shared dimension ``p``.

    ``matrices`` is any finite ``(n, p, p)`` array-like (a list of ``(p, p)``
    arrays too), stored by :func:`~spdreg.symmat.SymMat` as one read-only,
    C-contiguous float64 array ``(a + a^T) / 2``.
    ``nominal_rank`` is an upper bound on the numerical rank of every
    matrix (equal to it for generated data).
    """

    matrices: np.ndarray
    labels: np.ndarray
    nominal_rank: int

    def __post_init__(self):
        self.matrices = SymMat(_as_stack(self.matrices))
        p = self.dim
        self.labels = np.asarray(self.labels, dtype=np.float64)
        if self.labels.shape != (self.n,):
            raise ValueError(f"expected {self.n} labels, got shape {self.labels.shape}")
        if not np.all(np.isfinite(self.labels)):
            raise ValueError("labels must be finite")
        if not 1 <= self.nominal_rank <= p:
            raise ValueError(f"nominal rank must be in [1, {p}], got {self.nominal_rank}")

    @property
    def n(self) -> int:
        return self.matrices.shape[0]

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]


def write_covb(path, bundle: CovarianceBundle) -> None:
    """Write a bundle as a COVB v3 file, one write per sample."""
    p = bundle.dim
    iu, ju = np.triu_indices(p)
    label = row_format(1, "y")
    with open(path, "w") as fh:
        fh.write(f"COVB v3 {bundle.n} {p} {bundle.nominal_rank}\n")
        for mat, y in zip(bundle.matrices, bundle.labels.tolist()):
            tri = base64.b64encode(mat[iu, ju].astype("<f8", copy=False)).decode("ascii")
            fh.write(label % y + tri + "\n")


def read_covb(path) -> CovarianceBundle:
    """Read a COVB v3 file, one sample at a time: each label is parsed and
    each triangle line decoded and checked as it is read, so memory holds
    binary rows, not text, and nothing is allocated from the header's counts."""
    path = Path(path)
    with open(path, "rb") as fh:
        src = LineReader(path, fh)
        _, version, *counts = src.words("COVB <version> <n> <p> <rank>")
        if version != "v3":
            raise src.error(f"COVB {version} is not read, only COVB v3; regenerate the bundle "
                            "with 'spdreg simulate', which gives the same matrices from the "
                            "same seed")
        n, p, rank = [src.count(w) for w in counts]
        if rank > p:
            raise src.error(f"nominal rank must be in [1, {p}], got {rank}")
        k = p * (p + 1) // 2
        labels, rows = [], bytearray()
        for i in range(n):
            where = f"sample {i}: "
            labels.append(src.floats(src.words("y <label>", where)[1:], 1, where)[0])
            text = src.line("its triangle line", where).strip()
            try:
                raw = base64.b64decode(text, validate=True)
            except ValueError as exc:
                raise src.error(f"{where}bad base64 triangle line: {exc}") from None
            row = np.frombuffer(raw, "<f8", count=len(raw) // 8)
            finite = np.isfinite(row)
            if not finite.all():  # a bad number is named before a wrong count
                raise src.error(f"{where}non-finite number {row[~finite][0]}")
            huge = np.abs(row) > HALF_MAX
            if huge.any():
                raise src.error(f"{where}entry {row[huge][0]} overflows the symmetrization "
                                "(a + a^T) / 2")
            if len(raw) != 8 * k:
                got = len(raw) // 8 if len(raw) % 8 == 0 else f"{len(raw)} bytes"
                raise src.error(f"{where}expected {k} numbers, got {got}")
            rows += raw
        src.end()
    iu, ju = np.triu_indices(p)  # after the rows, which confirm p
    mats = np.empty((n, p, p))
    mats[:, iu, ju] = mats[:, ju, iu] = np.frombuffer(rows, "<f8").reshape(n, k)
    del rows  # the constructor's copy need not sit beside the triangles
    return CovarianceBundle(mats, labels, nominal_rank=rank)


def number(word: str, kind: type = float, finite: bool = True):
    """``word`` as a ``kind`` (``float`` or ``int``) by the one number rule of
    every file, option and config value: ASCII with no digit-group ``_``
    (which Python's parsers take), then ``kind``'s parser, then finite
    unless ``finite`` is false. A word it refuses is a ``ValueError``:
    ``bad number '<w>'`` or ``non-finite number '<w>'``."""
    try:
        if "_" in word or not word.isascii():
            raise ValueError
        value = kind(word)
    except ValueError:
        raise ValueError(f"bad number {word[:40]!r}") from None
    if finite and not math.isfinite(value):
        raise ValueError(f"non-finite number {word!r}")
    return value


class LineReader:
    """Non-blank lines of a file opened in binary mode, numbered by physical
    line and each read once. A line is ASCII text (else an error at it), and
    every number in it goes through :func:`number`.

    Errors read ``<path>:<line>: [sample <i>: ]<message>`` (``ConfigError``).
    """

    def __init__(self, path, fh):
        self.path, self.lineno = path, 0
        self._lines = ((i, raw) for i, raw in enumerate(fh, 1) if raw.strip())

    def error(self, message: str) -> ConfigError:
        return ConfigError(f"{self.path}:{self.lineno}: {message}")

    def line(self, what: str, where: str = "") -> str:
        """The next non-blank line; ``what`` names it if the file ends or the
        line holds a byte outside ASCII."""
        for self.lineno, raw in self._lines:
            if not raw.isascii():
                raise self.error(f"{where}non-ASCII byte in {what}")
            return raw.decode("ascii")
        raise self.error(f"{where}file ends before {what}")

    def words(self, layout: str, where: str = "") -> list[str]:
        """The next line's words, matched against ``layout``: ``<x>`` is any
        one word and a final ``...`` any number more."""
        want, text = layout.split(), self.line(f"'{layout}'", where)
        got = text.split()
        if (len(got) != len(want) and want[-1] != "...") or any(
            w != g for w, g in zip(want, got) if w[0] != "<" and w != "..."
        ):
            raise self.error(f"{where}expected '{layout}', got {text.strip()[:40]!r}")
        return got

    def count(self, word: str, low: int = 1) -> int:
        """``word`` of the current line as a decimal count of at least ``low``
        (of at most 20 digits: ``int`` refuses thousands with its own error)."""
        if not (word.isascii() and word.isdigit()) or len(word) > 20 or int(word) < low:
            raise self.error(f"expected a count of at least {low}, got {word[:40]!r}")
        return int(word)

    def floats(self, words, count: int | None = None, where: str = "") -> np.ndarray:
        """Finite floats from ``words`` of the current line (a bad word is named
        before a wrong count), ``count`` if given."""
        try:
            values = [number(word) for word in words]
        except ValueError as exc:
            raise self.error(f"{where}{exc}") from None
        if count not in (None, len(words)):
            raise self.error(f"{where}expected {count} numbers, got {len(words)}")
        return np.array(values, dtype=np.float64)

    def block(self, count: int, ncols: int) -> np.ndarray:
        """``count`` lines of ``ncols`` floats, as rows; a missing line is
        named ``row <i> of <count>``."""
        return np.array([self.floats(self.line(f"row {i + 1} of {count}").split(), ncols)
                         for i in range(count)])

    def end(self) -> None:
        for self.lineno, raw in self._lines:
            text = raw.decode("ascii", "replace").strip()
            raise self.error(f"expected end of file, got {text[:40]!r}")
