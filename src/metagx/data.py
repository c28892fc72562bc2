"""Expression-profile datasets: file formats, gene selection, scaling, folds.

The on-disk expression format is a strict TSV: header row
``sample_id<TAB>gene...<TAB>label``, one sample per row, float expression
values, labels exactly 0 or 1, UTF-8, Unix newlines. Interaction files list
one gene pair per line (two tab-separated symbols, ``#`` starts a comment);
only the set of genes they name is kept.

Gene selection, normalization, and fold construction are all deterministic
pure functions so that a pipeline run is reproducible from its seed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ParseError, ScaleError, SelectionError, SplitError

Array = np.ndarray

_DEGENERATE_REL_TOL = 1e-12


def _frozen(arr: Array) -> Array:
    out = np.array(arr, dtype=np.float64)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class ExpressionDataset:
    """One cohort: an [n_samples, n_genes] expression matrix with 0/1 labels."""

    name: str
    gene_ids: tuple[str, ...]
    matrix: Array
    labels: Array

    def __post_init__(self):
        if not self.name:
            raise ValueError("dataset name must be non-empty")
        genes = tuple(self.gene_ids)
        if len(set(genes)) != len(genes):
            raise ValueError("gene_ids contain duplicates")
        matrix = _frozen(self.matrix)
        labels = _frozen(self.labels)
        if matrix.ndim != 2:
            raise ValueError(f"matrix must be 2-D, got shape {matrix.shape}")
        if labels.ndim != 1 or labels.shape[0] != matrix.shape[0]:
            raise ValueError(
                f"labels shape {labels.shape} does not match {matrix.shape[0]} samples"
            )
        if matrix.shape[1] != len(genes):
            raise ValueError(
                f"matrix has {matrix.shape[1]} columns but {len(genes)} gene ids"
            )
        if matrix.size and not np.all(np.isfinite(matrix)):
            raise ValueError("expression matrix contains non-finite values")
        if labels.size and not np.all((labels == 0.0) | (labels == 1.0)):
            raise ValueError("labels must be exactly 0 or 1")
        object.__setattr__(self, "gene_ids", genes)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "labels", labels)

    @property
    def n_samples(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_genes(self) -> int:
        return self.matrix.shape[1]

    def take(self, indices: Array) -> "ExpressionDataset":
        """Row-subset view as a new dataset (same name and genes)."""
        idx = np.asarray(indices, dtype=np.intp)
        return ExpressionDataset(self.name, self.gene_ids, self.matrix[idx], self.labels[idx])

    def with_matrix(self, matrix: Array) -> "ExpressionDataset":
        """Same samples and labels over a transformed matrix."""
        return ExpressionDataset(self.name, self.gene_ids, matrix, self.labels)


@dataclass(frozen=True)
class NormalizationStats:
    """Per-gene location/scale fitted on one matrix (population statistics)."""

    mean: Array
    std: Array

    def __post_init__(self):
        mean = _frozen(self.mean)
        std = _frozen(self.std)
        if mean.ndim != 1 or std.shape != mean.shape:
            raise ValueError(f"mean/std must be matching 1-D arrays, got {mean.shape}/{std.shape}")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(std))):
            raise ValueError("mean and std entries must be finite")
        if np.any(std <= 0):
            raise ValueError("std entries must be strictly positive")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)

    @property
    def n_genes(self) -> int:
        return self.mean.shape[0]


# ---------------------------------------------------------------------------
# file formats


def _read_lines(path: Path | str, what: str) -> list[str]:
    try:
        # newline="" keeps \r as read, so that it can be reported below
        with open(path, encoding="utf-8", newline="") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{what} file {path} is not valid UTF-8 ({exc.reason})") from None
    cr = text.find("\r")
    if cr >= 0:
        line = text.count("\n", 0, cr) + 1
        raise ParseError(
            f"{path}:{line}: carriage return (\\r) in {what} file; "
            "lines must end in a Unix newline (\\n) only"
        )
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ParseError(f"{what} file {path} is empty")
    return lines


def load_expression_tsv(path: Path | str) -> ExpressionDataset:
    """Parse one expression TSV; the dataset is named after the file stem.

    Raises ParseError with a 1-based line number for any structural problem:
    bad header, ragged rows, unparseable or non-finite values, labels other
    than 0/1, duplicate gene columns, or a file with no sample rows.
    """
    path = Path(path)
    lines = _read_lines(path, "expression")
    header = lines[0].split("\t")
    if len(header) < 3 or header[0] != "sample_id" or header[-1] != "label":
        raise ParseError(
            f"{path}:1: header must be 'sample_id<TAB>gene...<TAB>label', got {len(header)} columns"
        )
    genes = header[1:-1]
    seen: set[str] = set()
    for g in genes:
        if not g or g in ("sample_id", "label"):
            raise ParseError(f"{path}:1: invalid gene column name {g!r}")
        if g in seen:
            raise ParseError(f"{path}:1: duplicate gene column {g!r}")
        seen.add(g)
    if len(lines) == 1:
        raise ParseError(f"{path}: no sample rows")

    n_cols = len(header)
    rows = np.empty((len(lines) - 1, len(genes)), dtype=np.float64)
    labels = np.empty(len(lines) - 1, dtype=np.float64)
    for i, line in enumerate(lines[1:], start=2):
        cells = line.split("\t")
        if len(cells) != n_cols:
            raise ParseError(f"{path}:{i}: expected {n_cols} columns, got {len(cells)}")
        values = cells[1:-1]
        try:
            rows[i - 2] = list(map(float, values))
        except ValueError:
            raise _bad_cell(path, i, genes, values) from None
        if not np.isfinite(rows[i - 2]).all():
            raise _bad_cell(path, i, genes, values)
        if cells[-1] not in ("0", "1"):
            raise ParseError(f"{path}:{i}: label must be 0 or 1, got {cells[-1]!r}")
        labels[i - 2] = float(cells[-1])
    return ExpressionDataset(path.stem, tuple(genes), rows, labels)


def _bad_cell(path: Path, line_no: int, genes: list[str], cells: list[str]) -> ParseError:
    """The error for the leftmost cell of a row that ``float()`` rejects or
    parses to a non-finite value; the row must hold such a cell."""
    for gene, cell in zip(genes, cells):
        try:
            value = float(cell)
        except ValueError:
            return ParseError(f"{path}:{line_no}: column {gene!r} has non-numeric value {cell!r}")
        if not np.isfinite(value):
            return ParseError(f"{path}:{line_no}: column {gene!r} has non-finite value {cell!r}")
    raise AssertionError(f"{path}:{line_no}: row has no bad cell")


def write_expression_tsv(dataset: ExpressionDataset, path: Path | str) -> None:
    """Write a dataset in the expression TSV format (row ids are synthetic)."""
    path = Path(path)
    out = ["sample_id\t" + "\t".join(dataset.gene_ids) + "\tlabel"]
    for i in range(dataset.n_samples):
        cells = [f"s{i:04d}"]
        cells.extend(repr(v) for v in dataset.matrix[i].tolist())
        cells.append(str(int(dataset.labels[i])))
        out.append("\t".join(cells))
    path.write_text("\n".join(out) + "\n", encoding="utf-8")


def load_interactions_tsv(path: Path | str) -> frozenset[str]:
    """Parse a gene-interaction TSV into the set of genes named in some pair.

    Each line holds two tab-separated symbols. Blank lines and lines starting
    with ``#`` are skipped; anything else with a field count other than two is
    a ParseError naming the line.
    """
    path = Path(path)
    genes: set[str] = set()
    for i, line in enumerate(_read_lines(path, "interaction"), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 2 or not fields[0].strip() or not fields[1].strip():
            raise ParseError(f"{path}:{i}: expected two tab-separated gene symbols")
        genes.update(f.strip() for f in fields)
    return frozenset(genes)


# ---------------------------------------------------------------------------
# gene selection


def select_common_genes(datasets: Sequence[ExpressionDataset]) -> tuple[str, ...]:
    """Lexicographically sorted intersection of the datasets' gene sets."""
    if not datasets:
        raise ValueError("select_common_genes requires at least one dataset")
    common = set(datasets[0].gene_ids)
    for ds in datasets[1:]:
        common &= set(ds.gene_ids)
    if not common:
        raise SelectionError(
            "empty intersection: datasets share no genes ("
            + ", ".join(ds.name for ds in datasets)
            + ")"
        )
    return tuple(sorted(common))


def filter_by_interactions(
    genes: Sequence[str], interactions: frozenset[str]
) -> tuple[str, ...]:
    """Keep genes that appear in at least one interaction pair, order preserved."""
    kept = tuple(g for g in genes if g in interactions)
    if not kept:
        raise SelectionError("no gene appears in any interaction pair")
    return kept


def project(dataset: ExpressionDataset, genes: Sequence[str]) -> ExpressionDataset:
    """Restrict a dataset to the given genes, in the given column order."""
    positions = {g: i for i, g in enumerate(dataset.gene_ids)}
    idx = []
    for g in genes:
        if g not in positions:
            raise SelectionError(f"dataset {dataset.name!r} lacks gene {g!r}")
        idx.append(positions[g])
    return ExpressionDataset(
        dataset.name, tuple(genes), dataset.matrix[:, idx], dataset.labels
    )


# ---------------------------------------------------------------------------
# normalization


def fit_normalization(dataset: ExpressionDataset) -> NormalizationStats:
    """Per-gene mean and population standard deviation of a dataset's matrix.

    Genes whose spread is zero up to floating-point noise (relative to the
    gene's mean) get scale 1 so they normalize to exact zeros instead of
    amplified rounding error.
    """
    matrix = dataset.matrix
    if matrix.shape[0] == 0:
        raise ScaleError("cannot fit normalization on an empty matrix")
    # finite values near +-1.8e308 overflow the column sums: report the gene
    # instead of letting numpy warn
    with np.errstate(over="ignore", invalid="ignore"):
        mean = matrix.mean(axis=0)
        std = matrix.std(axis=0)
    overflowed = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(std)))
    if overflowed.size:
        raise ScaleError(
            f"cannot normalize gene {dataset.gene_ids[overflowed[0]]!r} of {dataset.name}: "
            "its mean or standard deviation overflows float64"
        )
    cutoff = _DEGENERATE_REL_TOL * np.maximum(1.0, np.abs(mean))
    std = np.where(std <= cutoff, 1.0, std)
    return NormalizationStats(mean, std)


def apply_normalization(matrix: Array, stats: NormalizationStats) -> Array:
    """Center and scale columns by previously fitted statistics."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[1] != stats.n_genes:
        raise ScaleError(
            f"matrix shape {matrix.shape} does not match {stats.n_genes} fitted genes"
        )
    return (matrix - stats.mean) / stats.std


# ---------------------------------------------------------------------------
# folds and batches


def stratified_kfold(labels: Array, k: int, seed: int) -> tuple[Array, ...]:
    """Deterministic stratified k-fold split: the k folds' sorted test indices.

    Each class is shuffled with the seed and dealt into folds so that every
    fold's class count is within one of exact proportion and total fold sizes
    differ by at most one. A class with fewer members than folds triggers a
    warning (some folds then miss that class entirely).
    """
    labels = np.asarray(labels, dtype=np.float64)
    n = labels.shape[0]
    if k < 2:
        raise SplitError(f"k must be >= 2, got {k}")
    if k > n:
        raise SplitError(f"k={k} exceeds the {n} available samples")
    rng = np.random.default_rng(seed)
    buckets: list[list[int]] = [[] for _ in range(k)]
    offset = 0
    for cls in sorted(np.unique(labels).tolist()):
        members = np.flatnonzero(labels == cls)
        rng.shuffle(members)
        n_c = members.shape[0]
        if n_c < k:
            warnings.warn(
                f"class {int(cls)} has {n_c} members for {k} folds; "
                "some folds will not contain it",
                stacklevel=2,
            )
        base, rem = divmod(n_c, k)
        start = 0
        for j in range(k):
            extra = 1 if (j - offset) % k < rem else 0
            take = base + extra
            buckets[j].extend(members[start : start + take].tolist())
            start += take
        offset = (offset + rem) % k
    return tuple(np.sort(np.asarray(b, dtype=np.intp)) for b in buckets)


def sample_batch(
    matrix: Array, labels: Array, size: int, rng: np.random.Generator
) -> tuple[Array, Array]:
    """Uniform batch draw; sampling is without replacement unless size > n."""
    matrix = np.asarray(matrix, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    n = matrix.shape[0]
    if n == 0:
        raise ValueError("cannot sample from an empty dataset")
    if size < 1:
        raise ValueError(f"batch size must be >= 1, got {size}")
    idx = rng.choice(n, size=size, replace=size > n)
    return matrix[idx], labels[idx]
