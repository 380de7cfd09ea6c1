"""Labeled covariance collections and the package's plain-text files.

A bundle is one read-only ``(n, p, p)`` array of symmetric PSD matrices,
a real label per matrix, and a nominal rank bound. Files use the
``COVB v1`` layout: a ``COVB v1 <n> <p> <rank>`` header, then per sample
a ``y <label>`` line and ``p`` rows of ``p`` decimals.

Every text file (COVB, MODEL, LEADFIELD, command outputs) is written one
``%``-template per line or sample, with 17 significant digits (lossless
for float64), and read by :class:`LineReader` with numpy's float parser.
A bundle read from a file is symmetrized by its constructor.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import ConfigError

FLOAT_FMT = "%.17g"


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

    ``matrices`` is any finite ``(n, p, p)`` array-like (a list of
    :class:`~spdreg.symmat.SymMat` too), stored as one read-only,
    C-contiguous float64 array ``(a + a^T) / 2``, as SymMat stores each.
    ``nominal_rank`` is an upper bound on the numerical rank of every
    matrix (equal to it for generated data); ``provenance`` records the
    generating config or source file path.
    """

    matrices: np.ndarray
    labels: np.ndarray
    nominal_rank: int
    provenance: object = None

    def __post_init__(self):
        a = np.asarray(self.matrices, dtype=np.float64)
        if a.ndim != 3 or a.shape[1] != a.shape[2] or 0 in a.shape:
            raise ValueError(f"expected a nonempty (n, p, p) stack, got shape {a.shape}")
        p = a.shape[1]
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        a = np.add(a, a.swapaxes(1, 2), order="C")
        a /= 2.0
        a.flags.writeable = False
        self.matrices = a
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

    def subset(self, indices) -> "CovarianceBundle":
        """Bundle restricted to the given sample indices (order kept)."""
        return CovarianceBundle(
            matrices=self.matrices[indices],
            labels=self.labels[indices],
            nominal_rank=self.nominal_rank,
            provenance=self.provenance,
        )


def write_covb(path, bundle: CovarianceBundle) -> None:
    """Write a bundle as a COVB v1 text file, one formatted write per sample."""
    p = bundle.dim
    sample = row_format(1, "y") + row_format(p) * p
    with open(path, "w") as fh:
        fh.write(f"COVB v1 {bundle.n} {p} {bundle.nominal_rank}\n")
        for mat, label in zip(bundle.matrices, bundle.labels.tolist()):
            fh.write(sample % (label, *mat.ravel().tolist()))


def read_covb(path) -> CovarianceBundle:
    """Read a COVB v1 text file, streaming every matrix row through one
    ``np.loadtxt`` call (memory holds arrays, not text)."""
    path = Path(path)
    with open(path) as fh:
        src = LineReader(path, fh)
        n, p, rank = [src.count(w) for w in src.words("COVB v1 <n> <p> <rank>")[2:]]
        if rank > p:
            raise src.error(f"nominal rank must be in [1, {p}], got {rank}")
        rows, labels = src.block(n, p, p, tag="y")
        src.end()
    return CovarianceBundle(rows.reshape(n, p, p), labels, nominal_rank=rank,
                            provenance=str(path))


def _loadtxt(lines) -> np.ndarray:
    """Whitespace-separated float rows by numpy's parser, as a 2-d array."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # numpy warns on empty input
        return np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=2)


def _numbered(fh, after: int = 0):
    """``(physical line number, text)`` of the non-blank lines past ``after``."""
    return ((i, text) for i, text in enumerate(fh, 1) if i > after and text.strip())


class LineReader:
    """Non-blank lines of an open text file, numbered by physical line.

    Errors read ``<path>:<line>: [sample <i>: ]<message>`` (``ConfigError``).
    A block of number rows is one ``np.loadtxt`` call over the line stream;
    only when that fails is the block read again line by line to find the
    line to name.
    """

    def __init__(self, path, fh):
        self.path, self.lineno, self._lines = path, 0, _numbered(fh)

    def error(self, message: str) -> ConfigError:
        return ConfigError(f"{self.path}:{self.lineno}: {message}")

    def line(self, what: str, where: str = "") -> str:
        """The next non-blank line; ``what`` names it if the file ends."""
        for self.lineno, text in self._lines:
            return text
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
        """``word`` of the current line as a decimal count of at least ``low``."""
        if not (word.isascii() and word.isdigit()) or int(word) < low:
            raise self.error(f"expected a count of at least {low}, got {word!r}")
        return int(word)

    def floats(self, words, count: int | None = None, where: str = "") -> np.ndarray:
        """Finite floats from ``words`` of the current line, ``count`` if given."""
        if count not in (None, len(words)):
            raise self.error(f"{where}expected {count} numbers, got {len(words)}")
        try:
            values = _loadtxt([" ".join(words)])[0] if words else np.empty(0)
        except ValueError:
            if len(words) > 1:  # name the first word that fails on its own
                for word in words:
                    self.floats([word], 1, where)
            raise self.error(f"{where}bad number {words[0][:40]!r}") from None
        if not np.all(np.isfinite(values)):
            bad = words[int(np.argmin(np.isfinite(values)))]
            raise self.error(f"{where}non-finite number {bad!r}")
        return values

    def block(self, groups: int, nrows: int, ncols: int, tag: str | None = None):
        """``groups`` groups of ``nrows`` lines of ``ncols`` floats, as rows,
        and with ``tag`` the labels of the ``<tag> <label>`` line opening
        each group (a sample)."""
        start, labels = self.lineno, []

        def feed():
            for _ in range(groups):
                if tag:
                    labels.append(self.words(f"{tag} <label>")[1:])
                for self.lineno, text in islice(self._lines, nrows):
                    yield text

        try:
            rows = _loadtxt(feed())
            values = _loadtxt(w[0] for w in labels)[:, 0]
            finite = np.all(np.isfinite(rows)) and np.all(np.isfinite(values))
            if rows.shape == (groups * nrows, ncols) and finite:
                return rows, values
        except (ValueError, ConfigError):
            pass
        with open(self.path) as fh:  # the parse failed: find the line to name
            self.lineno, self._lines = start, _numbered(fh, start)
            for i in range(groups):
                where = f"sample {i}: " if tag else ""
                if tag:
                    self.floats(self.words(f"{tag} <label>", where)[1:], 1, where)
                for j in range(nrows):
                    self.floats(self.line(f"row {j + 1} of {nrows}", where).split(), ncols, where)
        raise self.error("malformed numbers")

    def end(self) -> None:
        for self.lineno, text in self._lines:
            raise self.error(f"expected end of file, got {text.strip()[:40]!r}")
