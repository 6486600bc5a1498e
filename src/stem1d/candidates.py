"""Candidate peaks: locations and heights of local maxima under test."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class CandidateSet:
    """Local maxima (or, for pointwise baselines, samples) under test.

    Entries are stored sorted by location; construction from shuffled
    arrays yields the same canonical set, so downstream decisions never
    depend on input order.  ``pvalues`` is attached by the tester.

    ``rows`` gives each entry the row (the sequence) it came from, so one
    set can hold several sequences, each tested on its own; by default
    every entry is in row 0.  Entries are sorted by row, then location.
    """

    indices: np.ndarray
    locations: np.ndarray
    heights: np.ndarray
    pvalues: np.ndarray | None = None
    rows: np.ndarray | None = None

    def __post_init__(self):
        indices = np.asarray(self.indices, dtype=np.int64)
        locations = np.asarray(self.locations, dtype=np.float64)
        heights = np.asarray(self.heights, dtype=np.float64)
        rows = np.zeros(locations.shape, np.int64) if self.rows is None else self.rows
        rows = np.asarray(rows, dtype=np.int64)
        if not (indices.ndim == locations.ndim == heights.ndim == rows.ndim == 1):
            raise ValueError("candidate fields must be 1-D arrays")
        if not (indices.size == locations.size == heights.size == rows.size):
            raise ValueError("candidate fields must have equal length")
        if not np.all(np.isfinite(locations)):
            raise ValueError("locations must be finite")
        if not np.all(np.isfinite(heights)):
            raise ValueError("heights must be finite")
        if np.any(rows < 0):
            raise ValueError("rows must be non-negative")
        pvalues = None if self.pvalues is None else _pvalues(self.pvalues, locations.shape)
        fields = [indices, locations, heights, pvalues, rows]
        if _ordered(rows, locations):  # copies, so the caller's arrays stay writable
            fields = [None if f is None else f.copy() for f in fields]
        else:
            order = np.lexsort((locations, rows))
            fields = [None if f is None else f[order] for f in fields]
            if not _ordered(fields[4], fields[1]):  # sorted, so only a repeat fails
                raise ValueError("locations must be distinct within a row")
        self._set(*fields)

    def __len__(self) -> int:
        return self.locations.size

    def row_counts(self, num_rows: int) -> np.ndarray:
        """Entries in each of ``num_rows`` rows, for a call given one
        argument per row; a set with an entry in a later row raises."""
        ends = self.rows.searchsorted(np.arange(num_rows + 1))  # the rows are sorted
        if ends[-1] < self.rows.size:
            raise ValueError(
                f"candidates span {self.rows[-1] + 1} rows, but {num_rows} "
                "per-row argument(s) were given"
            )
        return np.diff(ends)

    def take_rows(self, rows) -> tuple["CandidateSet", np.ndarray]:
        """A set of ``len(rows)`` rows, row j holding the entries of row
        ``rows[j]`` (a row may be taken twice), and the position here of
        each of its entries, which gathers any per-entry array alike.
        The rows are sorted, so each is found by binary search."""
        start = self.rows.searchsorted(rows, "left")
        size = self.rows.searchsorted(rows, "right") - start
        out_rows = np.repeat(np.arange(size.size), size)
        at = np.arange(out_rows.size) + np.repeat(start - (np.cumsum(size) - size), size)
        fields = (getattr(self, name) for name in _FIELDS[:-1])
        taken = CandidateSet._canonical(*(None if f is None else f[at] for f in fields), out_rows)
        return taken, at

    def with_pvalues(self, pvalues: np.ndarray) -> "CandidateSet":
        pvalues = _pvalues(np.array(pvalues, dtype=np.float64), self.locations.shape)
        return CandidateSet._canonical(
            self.indices, self.locations, self.heights, pvalues, self.rows
        )

    def select(self, mask: np.ndarray) -> "CandidateSet":
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != self.locations.shape:
            raise ValueError("mask must match the other fields")
        at = np.flatnonzero(mask)  # found once, not once per field
        fields = (getattr(self, name) for name in _FIELDS)
        return CandidateSet._canonical(*(None if f is None else f[at] for f in fields))

    def _set(self, *fields) -> None:
        for name, arr in zip(_FIELDS, fields):
            if arr is not None:
                arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def _canonical(cls, indices, locations, heights, pvalues, rows) -> "CandidateSet":
        """A set from fields that are already canonical: sorted by row and
        location, distinct within a row, finite, of equal length and dtype.
        Subsets of a valid set are, and so are a grid's samples in
        row-major order: no sort, no checks."""
        out = object.__new__(cls)
        out._set(indices, locations, heights, pvalues, rows)
        return out

    @classmethod
    def empty(cls) -> "CandidateSet":
        z = np.zeros(0)
        return cls(z.astype(np.int64), z, z, z)


_FIELDS = ("indices", "locations", "heights", "pvalues", "rows")


def _pvalues(pvalues, shape: tuple) -> np.ndarray:
    """``pvalues`` as floats, refused unless of ``shape`` and inside (0, 1)."""
    pvalues = np.asarray(pvalues, dtype=np.float64)
    if pvalues.shape != shape:
        raise ValueError("pvalues must match the other fields")
    if not ((0.0 < pvalues) & (pvalues < 1.0)).all():
        raise ValueError("pvalues must lie strictly inside (0, 1)")
    return pvalues


def _ordered(rows: np.ndarray, locations: np.ndarray) -> bool:
    """Whether entries are sorted by row, and strictly by location within
    a row: canonical order, with no location repeated in a row."""
    step = np.diff(rows)
    return bool(((step > 0) | ((step == 0) & (np.diff(locations) > 0))).all())
