"""Windows, split points and the drift/permuted window pairing.

A window is an ordered batch of (x, t) observations with timestamps in
[0, 1].  Everything downstream (descriptors, similarities, the evaluation
harness) consumes windows; they are immutable after construction and safe
to share across workers.  A split at rank r puts the first r samples on
the before side, and ``_checked_ranks`` is the one rule for which ranks
are splits.  ``_scan_rows`` is the running sum down the ranks that the
cumulative histograms and the LDD sweep share.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, InvalidSplitError, ParameterError
from .seeding import as_generator


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Window:
    """Ordered sample of at least one (x, t) pair, t non-decreasing in [0, 1].

    Parameters
    ----------
    x : array of shape (n, d)
        Feature vectors; all rows share the dimension d.
    t : array of shape (n,)
        Timestamps in [0, 1], sorted non-decreasing.
    label_feature_appended : bool
        True when the trailing coordinate(s) of ``x`` encode a class label.
    """

    x: np.ndarray
    t: np.ndarray
    label_feature_appended: bool = False

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        t = np.asarray(self.t, dtype=float)
        if x.ndim != 2:
            raise ParameterError("x must be a 2-D array of shape (n, d)")
        if x.shape[0] == 0:
            raise ParameterError("a window needs at least one sample")
        if t.shape != (x.shape[0],):
            raise ParameterError("t must be 1-D and aligned with x")
        if not np.isfinite(x).all():
            raise ParameterError("x must be finite")
        if not np.isfinite(t).all():
            raise ParameterError("timestamps must be finite")
        if t.min() < -1e-12 or t.max() > 1 + 1e-12:
            raise ParameterError("timestamps must lie in [0, 1]")
        if np.any(np.diff(t) < 0):
            raise ParameterError("timestamps must be sorted non-decreasing")
        object.__setattr__(self, "x", _freeze(x))
        object.__setattr__(self, "t", _freeze(t))

    def __len__(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    def rank_of(self, t: float) -> int:
        """Number of samples with timestamp <= t."""
        return int(np.searchsorted(self.t, t, side="right"))


def _checked_ranks(ranks, n: int, fewest: int = 1) -> np.ndarray:
    """``ranks`` as a 1-D index array, once every split leaves at least
    ``fewest`` of the n samples on each side; a rank r puts the first r
    samples on the before side.  This is the one split rule: every statistic
    and prefix count raises ``InvalidSplitError`` outside [fewest, n - fewest]."""
    ranks = np.atleast_1d(np.asarray(ranks, dtype=np.intp))
    if len(ranks) and (ranks.min() < fewest or n - ranks.max() < fewest):
        raise InvalidSplitError(f"split rank outside [{fewest}, {n - fewest}] for a window of {n} samples")
    return ranks


#: Narrowest row that ``_scan_rows`` scans in whole-row steps.
_WIDE_ROW = 256


def _scan_rows(op, a: np.ndarray) -> np.ndarray:
    """Inclusive scan of a C-contiguous 2-D array along axis 0 under an exact
    ``op`` (integer ``np.add``, ``np.minimum``, ``np.maximum``), in place.

    ``op.accumulate`` along axis 0 runs as a strided scalar loop.  Rows of at
    least ``_WIDE_ROW`` entries instead take about 2 sqrt(R) whole-row steps,
    Blelloch's two-level scan: every group of floor(sqrt(R)) rows is scanned
    within itself, all groups at once, then each group takes the last row of
    the one before it, and the few rows past the last group follow one by
    one.  An exact op gives the same values in any grouping, so both paths
    give the same bits."""
    rows, width = a.shape
    if width < _WIDE_ROW:
        return op.accumulate(a, axis=0, out=a)
    size = math.isqrt(rows)
    groups = rows // size if size else 0
    body = a[: groups * size].reshape(groups, size, width)
    for i in range(1, size):
        op(body[:, i], body[:, i - 1], out=body[:, i])
    for g in range(1, groups):
        op(body[g], body[g - 1, -1], out=body[g])
    for i in range(groups * size, rows):
        op(a[i], a[i - 1], out=a[i])
    return a


@dataclass(frozen=True)
class PairedWindows:
    """A drifting window and its timestamp-permuted, drift-free counterpart."""

    drifting: Window
    permuted: Window
    t0: float


def default_min_side(n: int) -> int:
    """Minimum per-side sample count for a split to be considered stable."""
    return max(25, math.ceil(0.05 * n))


def candidate_split_times(w: Window, min_side: int | None = None) -> np.ndarray:
    """Distinct sample timestamps whose splits satisfy the margin constraint."""
    if min_side is not None and not min_side >= 1:
        raise ParameterError(f"min_side must be >= 1, got {min_side!r}")
    if min_side is None:
        min_side = default_min_side(len(w))
    ts = np.unique(w.t)
    before = np.searchsorted(w.t, ts, side="right")
    ok = (before >= min_side) & (len(w) - before >= min_side)
    return ts[ok]


def permute_timestamps(w: Window, seed=None) -> Window:
    """Uniformly re-pair timestamps with feature vectors, then re-sort by time.

    Both marginal multisets (x rows and t values) are preserved exactly.
    """
    rng = as_generator(seed)
    pi = rng.permutation(len(w))
    t_new = w.t[pi]
    order = np.argsort(t_new, kind="stable")
    return Window(w.x[order], t_new[order], w.label_feature_appended)


def _draw(sampler, n: int, rng: np.random.Generator) -> np.ndarray:
    draw = getattr(sampler, "draw", sampler)
    out = np.asarray(draw(n, rng), dtype=float)
    if out.ndim == 1:
        out = out[:, None]
    return out


def make_paired(
    concept_before,
    concept_after,
    n: int,
    t0_fraction: float = 0.5,
    offset_fraction: float = 0.0,
    seed=None,
) -> PairedWindows:
    """Sample a window with one abrupt drift plus its permuted counterpart.

    ``round(n * t0_fraction)`` samples come from ``concept_before`` with
    timestamps uniform on [0, t0]; the rest come from ``concept_after`` with
    timestamps uniform on (t0, 1].  When ``offset_fraction`` > 0 the oldest
    part of the window (t <= offset) is dropped and time is renormalized to
    [0, 1], which moves the drift to (t0-off)/(1-off).  The permuted window
    re-pairs the final window's timestamps at random.
    """
    if not 0.0 < t0_fraction < 1.0:
        raise ParameterError("t0_fraction must lie in (0, 1)")
    if not 0.0 <= offset_fraction < t0_fraction:
        raise ParameterError("offset_fraction must lie in [0, t0_fraction)")
    if n < 2:
        raise ParameterError("n must be at least 2")
    rng = as_generator(seed)

    n_before = int(round(n * t0_fraction))
    n_before = min(max(n_before, 1), n - 1)
    n_after = n - n_before
    x_before = _draw(concept_before, n_before, rng)
    x_after = _draw(concept_after, n_after, rng)
    if x_before.shape[1] != x_after.shape[1]:
        raise ParameterError("concept samplers disagree on dimension")
    t_before = rng.uniform(0.0, t0_fraction, size=n_before)
    t_after = rng.uniform(t0_fraction, 1.0, size=n_after)

    x = np.vstack([x_before, x_after])
    t = np.concatenate([t_before, t_after])
    if offset_fraction > 0.0:
        keep = t > offset_fraction
        if keep.sum() < 2:
            raise ParameterError("offset removes almost the whole window")
        x, t = x[keep], (t[keep] - offset_fraction) / (1.0 - offset_fraction)
        t0 = (t0_fraction - offset_fraction) / (1.0 - offset_fraction)
    else:
        t0 = t0_fraction

    order = np.argsort(t, kind="stable")
    labeled = bool(getattr(concept_before, "labeled", False))
    drifting = Window(x[order], t[order], labeled)
    permuted = permute_timestamps(drifting, rng)
    return PairedWindows(drifting, permuted, float(t0))


def _reject_non_finite(values: np.ndarray, what: str) -> None:
    bad = np.argwhere(~np.isfinite(values))
    if len(bad):
        first = tuple(int(i) for i in bad[0])
        where = f"row {first[0]}" + (f", column {first[1]}" if len(first) > 1 else "") + " (0-based)"
        raise DataError(f"{len(bad)} non-finite {what}; first {values[first]} at {where}")


def ingest_window(x, t=None, *, label_feature_appended: bool = False) -> Window:
    """Build a window from raw arrays, rescaling timestamps onto [0, 1].

    Without explicit timestamps the row order is used (t = i / (n-1)).
    Ties in t keep their input order.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    n = x.shape[0]
    if n == 0:
        raise DataError("cannot ingest an empty sample")
    _reject_non_finite(x, "feature values")
    if t is None:
        t = np.zeros(1) if n == 1 else np.arange(n) / (n - 1)
    else:
        t = np.asarray(t, dtype=float)
        _reject_non_finite(t, "timestamps")
        lo, hi = t.min(), t.max()
        if hi > lo:
            t = (t - lo) / (hi - lo)
        elif n > 1:
            raise DataError("all timestamps identical; cannot rescale")
        else:
            t = np.zeros(1)
    order = np.argsort(t, kind="stable")
    return Window(x[order], t[order], label_feature_appended)


def encode_labels(values: list[str]) -> np.ndarray:
    """Encode class labels: {0,1} scalar for two classes, one-hot above."""
    classes = sorted(set(values))
    idx = np.array([classes.index(v) for v in values])
    if len(classes) <= 2:
        return idx.astype(float)[:, None]
    out = np.zeros((len(values), len(classes)))
    out[np.arange(len(values)), idx] = 1.0
    return out


def window_from_csv(path) -> Window:
    """Load a window from a headered CSV file.

    Columns are features; a ``label`` column (if present) is encoded and
    appended as extra feature coordinate(s); a ``t`` column (if present)
    supplies timestamps, otherwise the row index does.  Timestamps are
    rescaled to [0, 1].
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            rows = [row for row in reader if row]
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None
    if header is None:
        raise DataError(f"{path}: empty file (header required)")
    header = [h.strip() for h in header]
    if len(set(header)) < len(header):
        raise DataError(f"{path}: repeated column name(s) {sorted({h for h in header if header.count(h) > 1})}")
    if not rows:
        raise DataError(f"{path}: no data rows")
    if any(len(row) != len(header) for row in rows):
        raise DataError(f"{path}: ragged rows")

    columns = {name: [row[j].strip() for row in rows] for j, name in enumerate(header)}
    t_raw = columns.pop("t", None)
    labels = columns.pop("label", None)
    if not columns and labels is None:
        raise DataError(f"{path}: no feature columns")

    def to_float(name, vals):
        try:
            return np.array([float(v) for v in vals])
        except ValueError as exc:
            raise DataError(f"{path}: non-numeric value in column {name!r}: {exc}") from None

    feats = [to_float(name, vals) for name, vals in columns.items()]
    x = np.column_stack(feats) if feats else np.empty((len(rows), 0))
    labeled = labels is not None
    if labeled:
        x = np.hstack([x, encode_labels(labels)])
    t = to_float("t", t_raw) if t_raw is not None else None
    try:
        return ingest_window(x, t, label_feature_appended=labeled)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
