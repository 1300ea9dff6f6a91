"""Weighted point sets: ingestion, preprocessing, and partitioning.

Datasets are CSV files with a header row.  Numeric columns become feature
coordinates, an optional weight column carries per-point weights, and an
optional label column (categorical) is encoded into one extra numeric
coordinate so that labeled data can be treated as plain points in R^d.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

DEFAULT_WEIGHT_COLUMN = "weight"


@dataclass(frozen=True)
class LabelEncoding:
    """Mapping from categorical labels to spaced numeric values.

    The l-th label (sorted lexicographically) maps to (l-1)*tau with
    tau = ceil(sqrt(d-1)) for final dimension d.  The spacing guarantees
    that two points with different labels are at least as far apart as any
    two same-label points whose features lie in the unit box.
    """

    labels: tuple[str, ...]
    tau: int

    @property
    def num_labels(self) -> int:
        return len(self.labels)

    def value_of(self, label: str) -> float:
        try:
            return float(self.labels.index(str(label)) * self.tau)
        except ValueError:
            raise ValidationError(f"unknown label {label!r}; known: {list(self.labels)}")

    def values(self) -> np.ndarray:
        return np.arange(self.num_labels, dtype=float) * self.tau


@dataclass(frozen=True)
class WeightedPointSet:
    """Immutable weighted point set.

    points has shape (n, d) and weights shape (n,) with strictly positive
    entries.  When ``encoding`` is set, the last coordinate holds encoded
    labels and is excluded from feature normalization.

    A set keeps the clustering runs made on it, one recursion per cost
    exponent z, for as long as it lives (see ``clustering._recursion_of``):
    every later clustering of the same set reads them.  So the set takes
    its own read-only copy of the points and weights it is built from:
    writing into the caller's arrays afterwards leaves the set unchanged,
    and writing into the set's raises ValueError; derive a new set instead.
    """

    points: np.ndarray
    weights: np.ndarray
    encoding: LabelEncoding | None = None
    # z -> the clustering recursion on this set's arrays
    _recursions: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        points = np.array(self.points, dtype=float)
        weights = np.array(self.weights, dtype=float)
        if points.ndim != 2:
            raise ValidationError(f"points must be 2-d, got shape {points.shape}")
        if points.shape[0] == 0:
            raise ValidationError("point set must contain at least one point")
        if weights.shape != (points.shape[0],):
            raise ValidationError(
                f"weights shape {weights.shape} does not match {points.shape[0]} points"
            )
        if not np.all(np.isfinite(points)):
            raise ValidationError("points contain non-finite values")
        if not np.all(np.isfinite(weights)) or np.any(weights <= 0):
            raise ValidationError("weights must be finite and strictly positive")
        points.flags.writeable = weights.flags.writeable = False
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def w_min(self) -> float:
        return float(self.weights.min())

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())

    def subset(self, indices) -> "WeightedPointSet":
        indices = np.asarray(indices)
        return WeightedPointSet(self.points[indices], self.weights[indices], self.encoding)

    def feature_matrix(self) -> np.ndarray:
        """Feature coordinates only (drops the encoded label column if any)."""
        return self.points[:, :-1] if self.encoding is not None else self.points

    def label_values(self) -> np.ndarray:
        if self.encoding is None:
            raise ValidationError("point set carries no label encoding")
        return self.points[:, -1]


@dataclass(frozen=True)
class ShardSpec:
    """How to distribute a dataset over n nodes.

    scheme 'uniform' shuffles points into n near-equal shards, 'specialized'
    gives each node exactly one label class (requires n == number of labels),
    and 'hybrid' makes the first n0 nodes specialized and scatters the
    remaining points uniformly over the rest.
    """

    scheme: str
    n: int
    n0: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.scheme not in ("uniform", "specialized", "hybrid"):
            raise ValidationError(f"unknown distribution scheme {self.scheme!r}")
        if self.n < 1:
            raise ValidationError("number of nodes must be >= 1")


def _parse_float(text: str, path: str, line: int, column: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValidationError(
            f"{path}:{line}: column {column!r} has non-numeric value {text!r}"
        )


def _is_numeric_column(values: list[str]) -> bool:
    for v in values:
        try:
            float(v)
        except ValueError:
            return False
    return True


def _read_columns(path: str) -> tuple[list[str], dict[str, list[str]], tuple]:
    """Header, stripped cells per column and the file line of each data row.

    Blank rows are skipped; the line numbers still count them.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = [
            (reader.line_num, row)
            for row in reader
            if row and any(cell.strip() for cell in row)
        ]
    if len(rows) < 2:
        raise ValidationError(f"{path}: need a header row and at least one data row")
    header = [h.strip() for h in rows[0][1]]
    if len(set(header)) != len(header):
        raise ValidationError(f"{path}: duplicate column names in header")
    lines, data_rows = zip(*rows[1:])
    for line, row in rows[1:]:
        if len(row) != len(header):
            raise ValidationError(
                f"{path}:{line}: row has {len(row)} cells, header has {len(header)}"
            )
    columns = {name: [row[j].strip() for row in data_rows] for j, name in enumerate(header)}
    return header, columns, lines


def _parse_column(values: list[str], lines: tuple, path: str, column: str) -> np.ndarray:
    return np.array([_parse_float(v, path, line, column) for v, line in zip(values, lines)])


def load_dataset(
    path: str,
    weight_column: str | None = DEFAULT_WEIGHT_COLUMN,
    label_column: str | None = None,
) -> WeightedPointSet:
    """Load a CSV dataset into a WeightedPointSet.

    Args:
        path: CSV file with a header row.
        weight_column: name of the per-point weight column; if the column is
            absent all weights default to 1.  Pass None to force unit weights
            even if a column of that name exists.
        label_column: name of the categorical label column.  When None, a
            single non-numeric column (if any) is auto-detected as the label.

    Returns:
        WeightedPointSet with features in column order; if a label column is
        present it is encoded and appended as the last coordinate.
    """
    header, columns, lines = _read_columns(path)

    weight_name = None
    if weight_column is not None and weight_column in columns:
        weight_name = weight_column

    if label_column is not None:
        if label_column not in columns:
            raise ValidationError(f"{path}: no column named {label_column!r}")
        label_name = label_column
    else:
        non_numeric = [
            name for name in header
            if name != weight_name and not _is_numeric_column(columns[name])
        ]
        if len(non_numeric) > 1:
            raise ValidationError(
                f"{path}: multiple non-numeric columns {non_numeric}; "
                "pass label_column to pick one"
            )
        label_name = non_numeric[0] if non_numeric else None

    feature_names = [h for h in header if h not in (weight_name, label_name)]
    if not feature_names:
        raise ValidationError(f"{path}: no feature columns found")

    features = np.column_stack(
        [_parse_column(columns[name], lines, path, name) for name in feature_names]
    )
    if weight_name is not None:
        weights = _parse_column(columns[weight_name], lines, path, weight_name)
    else:
        weights = np.ones(features.shape[0])

    if label_name is not None:
        encoding = encode_labels(columns[label_name], features.shape[1])
        encoded = np.array([encoding.value_of(v) for v in columns[label_name]])
        points = np.hstack([features, encoded[:, None]])
        return WeightedPointSet(points, weights, encoding)
    return WeightedPointSet(features, weights)


def save_pointset(pointset, path: str) -> None:
    """Write coordinates and weights as CSV columns x0..x{d-1},weight.

    Takes a WeightedPointSet or a Coreset: only the ``points`` and ``weights``
    arrays are read, so negative residual weights are written as they are.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j}" for j in range(pointset.dim)] + ["weight"])
        for p, w in zip(pointset.points, pointset.weights):
            writer.writerow([repr(float(v)) for v in p] + [repr(float(w))])


def load_points_and_weights(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Read a file written by :func:`save_pointset` as (points, weights) arrays.

    The last column holds the weights, which are not validated, so negative
    residual weights load too.  A non-numeric cell raises ValidationError
    naming ``path:line``.
    """
    header, columns, lines = _read_columns(path)
    if len(header) < 2:
        raise ValidationError(f"{path}: need coordinate columns and a weight column")
    values = [_parse_column(columns[name], lines, path, name) for name in header]
    return np.column_stack(values[:-1]), values[-1]


def encode_labels(raw_labels, num_features: int) -> LabelEncoding:
    """Build the spaced numeric encoding for a list of raw labels.

    The final dimension is num_features + 1, so the spacing is
    tau = ceil(sqrt(num_features)).
    """
    if num_features < 1:
        raise ValidationError("label encoding requires at least one feature dimension")
    distinct = sorted({str(v) for v in raw_labels})
    if not distinct:
        raise ValidationError("no labels to encode")
    tau = math.ceil(math.sqrt(num_features))
    return LabelEncoding(labels=tuple(distinct), tau=tau)


def normalize_features(pointset: WeightedPointSet) -> WeightedPointSet:
    """Min-max scale each feature coordinate to [0, 1].

    Constant coordinates map to 0.  The encoded label coordinate (if any)
    and the weights are left untouched.  Idempotent.
    """
    points = pointset.points.copy()
    d = pointset.dim
    stop = d - 1 if pointset.encoding is not None else d
    lo = points[:, :stop].min(axis=0)
    hi = points[:, :stop].max(axis=0)
    span = hi - lo
    constant = span <= 0
    span = np.where(constant, 1.0, span)
    scaled = (points[:, :stop] - lo) / span
    scaled[:, constant] = 0.0
    points[:, :stop] = scaled
    return WeightedPointSet(points, pointset.weights, pointset.encoding)


def compute_delta(dim: int, num_labels: int) -> float:
    """Diameter bound of the normalized sample space.

    For data with d-1 features in [0,1] and one encoded label coordinate
    taking L spaced values, the distance between any two points is at most
    sqrt((d-1) * (L^2 - 2L + 2)).
    """
    if dim < 2:
        raise ValidationError("dim must be >= 2 (features plus label coordinate)")
    if num_labels < 1:
        raise ValidationError("num_labels must be >= 1")
    return math.sqrt((dim - 1) * (num_labels**2 - 2 * num_labels + 2))


def partition_dataset(pointset: WeightedPointSet, spec: ShardSpec) -> list[WeightedPointSet]:
    """Split a dataset into per-node shards according to a ShardSpec.

    Returns a list of n non-empty shards whose union is exactly the input
    (same points, same weights).
    """
    n = spec.n
    rng = np.random.default_rng(spec.seed)
    if spec.scheme == "uniform":
        if n > pointset.size:
            raise ValidationError(f"cannot spread {pointset.size} points over {n} nodes")
        order = rng.permutation(pointset.size)
        chunks = np.array_split(order, n)
        return [pointset.subset(np.sort(chunk)) for chunk in chunks]

    if pointset.encoding is None:
        raise ValidationError(f"scheme {spec.scheme!r} requires labeled data")
    label_vals = pointset.label_values()
    classes = pointset.encoding.values()

    if spec.scheme == "specialized":
        if n != pointset.encoding.num_labels:
            raise ValidationError(
                f"specialized scheme needs one node per label "
                f"({pointset.encoding.num_labels}), got n={n}"
            )
        n0 = n
    else:
        # hybrid: first n0 nodes take one label class each, the rest share
        # the remaining points uniformly at random.
        n0 = spec.n0 if spec.n0 is not None else n // 2
        if not 0 < n0 < n:
            raise ValidationError(f"hybrid scheme needs 0 < n0 < n, got n0={n0}, n={n}")
        if n0 > pointset.encoding.num_labels:
            raise ValidationError(
                f"hybrid scheme with n0={n0} needs at least n0 label classes "
                f"(have {pointset.encoding.num_labels})"
            )
    shards = []
    taken = np.zeros(pointset.size, dtype=bool)
    for value in classes[:n0]:
        idx = np.flatnonzero(label_vals == value)
        if idx.size == 0:
            raise ValidationError("a label class has no points; cannot specialize")
        shards.append(pointset.subset(idx))
        taken[idx] = True
    if n0 == n:
        return shards
    rest = np.flatnonzero(~taken)
    if rest.size < n - n0:
        raise ValidationError("not enough remaining points for the uniform nodes")
    order = rng.permutation(rest)
    for chunk in np.array_split(order, n - n0):
        shards.append(pointset.subset(np.sort(chunk)))
    return shards


def split_train_test(pointset: WeightedPointSet, train_fraction: float = 0.8):
    """Order-preserving split: the first ceil(fraction*n) points train."""
    if not 0 < train_fraction < 1:
        raise ValidationError("train_fraction must be in (0, 1)")
    cut = int(math.ceil(train_fraction * pointset.size))
    cut = min(max(cut, 1), pointset.size - 1)
    return pointset.subset(np.arange(cut)), pointset.subset(np.arange(cut, pointset.size))


def synthetic_uniform(n: int, dim: int, low: float, high: float, seed: int = 0) -> WeightedPointSet:
    """n unit-weight points drawn uniformly from the box [low, high]^dim."""
    if n < 1 or dim < 1 or not high > low:
        raise ValidationError("need n >= 1, dim >= 1 and high > low")
    rng = np.random.default_rng(seed)
    return WeightedPointSet(rng.uniform(low, high, size=(n, dim)), np.ones(n))


def synthetic_blobs(
    n: int,
    num_features: int,
    num_labels: int,
    spread: float = 0.08,
    seed: int = 0,
) -> WeightedPointSet:
    """Labeled Gaussian blobs, normalized to [0,1] features plus encoded label.

    Points are split evenly over num_labels clusters; cluster j carries label
    'class<j>'.  Mirrors the shape of small labeled benchmark datasets.
    """
    if num_labels < 1 or n < num_labels:
        raise ValidationError("need at least one point per label class")
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.2, 0.8, size=(num_labels, num_features))
    sizes = [n // num_labels + (1 if j < n % num_labels else 0) for j in range(num_labels)]
    feats, raw = [], []
    for j, m in enumerate(sizes):
        feats.append(centers[j] + spread * rng.standard_normal((m, num_features)))
        raw.extend([f"class{j}"] * m)
    features = np.clip(np.vstack(feats), 0.0, 1.0)
    encoding = encode_labels(raw, num_features)
    encoded = np.array([encoding.value_of(v) for v in raw])
    points = np.hstack([features, encoded[:, None]])
    return WeightedPointSet(points, np.ones(n), encoding)


def with_svm_labels(pointset: WeightedPointSet, positive_label: str) -> WeightedPointSet:
    """Remap the encoded label coordinate to +1 (positive class) / -1 (rest).

    Binary-classification problems consume the label coordinate directly as
    the margin multiplier, so the spaced multi-class encoding is replaced by
    a sign before any coreset is built for such a problem.
    """
    if pointset.encoding is None:
        raise ValidationError("svm relabeling requires labeled data")
    target = pointset.encoding.value_of(positive_label)
    points = pointset.points.copy()
    points[:, -1] = np.where(points[:, -1] == target, 1.0, -1.0)
    binary = LabelEncoding(labels=("negative", "positive"), tau=1)
    return WeightedPointSet(points, pointset.weights, binary)
