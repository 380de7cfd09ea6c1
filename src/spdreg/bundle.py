"""Labeled covariance collections and their plain-text file format.

A bundle is ``n`` symmetric PSD matrices sharing dimension ``p``, a real
label per matrix, and a nominal rank bound. Files use the ``COVB v1``
layout::

    COVB v1 <n> <p> <rank>
    y <label_1>
    <p rows of p decimals>
    y <label_2>
    ...

Writers emit 17 significant digits (lossless for float64); readers
re-symmetrize each matrix on load.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DimensionMismatch
from .symmat import SymMat

FLOAT_FMT = "%.17g"


def fmt_float(x: float) -> str:
    """Lossless 17-significant-digit decimal of a float."""
    return FLOAT_FMT % x


@dataclass
class CovarianceBundle:
    """``n`` labeled covariance matrices of shared dimension ``p``.

    ``nominal_rank`` is an upper bound on the numerical rank of every
    matrix (equal to it for generated data); ``provenance`` records the
    generating config or source file path.
    """

    matrices: list[SymMat]
    labels: np.ndarray
    nominal_rank: int
    provenance: object = None

    def __post_init__(self):
        if len(self.matrices) == 0:
            raise ValueError("bundle must contain at least one matrix")
        p = self.matrices[0].dim
        for m in self.matrices:
            if m.dim != p:
                raise DimensionMismatch(
                    f"bundle mixes dimensions {p} and {m.dim}"
                )
        self.labels = np.asarray(self.labels, dtype=np.float64)
        if self.labels.shape != (len(self.matrices),):
            raise ValueError(
                f"expected {len(self.matrices)} labels, got shape {self.labels.shape}"
            )
        if not np.all(np.isfinite(self.labels)):
            raise ValueError("labels must be finite")
        if not 1 <= self.nominal_rank <= p:
            raise ValueError(f"nominal rank must be in [1, {p}], got {self.nominal_rank}")

    @property
    def n(self) -> int:
        return len(self.matrices)

    @property
    def dim(self) -> int:
        return self.matrices[0].dim

    def subset(self, indices) -> "CovarianceBundle":
        """Bundle restricted to the given sample indices (order kept)."""
        idx = list(indices)
        return CovarianceBundle(
            matrices=[self.matrices[i] for i in idx],
            labels=self.labels[idx],
            nominal_rank=self.nominal_rank,
            provenance=self.provenance,
        )


def write_covb(path, bundle: CovarianceBundle) -> None:
    """Write a bundle as a COVB v1 text file."""
    p = bundle.dim
    lines = [f"COVB v1 {bundle.n} {p} {bundle.nominal_rank}"]
    for mat, label in zip(bundle.matrices, bundle.labels):
        lines.append("y " + fmt_float(label))
        for row in mat.data:
            lines.append(" ".join(fmt_float(x) for x in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_covb(path) -> CovarianceBundle:
    """Read a COVB v1 text file; matrices are symmetrized on load."""
    path = Path(path)
    lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    if not lines:
        raise ConfigError(f"{path}: empty bundle file")
    head = lines[0].split()
    if len(head) != 5 or head[0] != "COVB" or head[1] != "v1":
        raise ConfigError(f"{path}: expected header 'COVB v1 N P R', got {lines[0]!r}")
    try:
        n, p, rank = int(head[2]), int(head[3]), int(head[4])
    except ValueError as exc:
        raise ConfigError(f"{path}: bad header counts in {lines[0]!r}") from exc
    expected = 1 + n * (p + 1)
    if len(lines) != expected:
        raise ConfigError(
            f"{path}: expected {expected} non-blank lines for n={n}, p={p}, got {len(lines)}"
        )
    matrices: list[SymMat] = []
    labels = np.empty(n)
    pos = 1
    for i in range(n):
        tag = lines[pos].split()
        if len(tag) != 2 or tag[0] != "y":
            raise ConfigError(f"{path}: expected 'y <label>' at line {pos + 1}")
        try:
            labels[i] = float(tag[1])
            rows = [
                [float(x) for x in lines[pos + 1 + j].split()] for j in range(p)
            ]
        except ValueError as exc:
            raise ConfigError(f"{path}: bad number near line {pos + 1}") from exc
        if any(len(r) != p for r in rows):
            raise ConfigError(f"{path}: matrix {i} is not {p}x{p}")
        matrices.append(SymMat(rows))
        pos += p + 1
    try:
        return CovarianceBundle(
            matrices=matrices, labels=labels, nominal_rank=rank, provenance=str(path)
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
