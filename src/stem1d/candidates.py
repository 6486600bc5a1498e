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
        pvalues = self.pvalues
        if pvalues is not None:
            pvalues = np.asarray(pvalues, dtype=np.float64)
            if pvalues.shape != locations.shape:
                raise ValueError("pvalues must match the other fields")
            if not ((0.0 < pvalues) & (pvalues < 1.0)).all():
                raise ValueError("pvalues must lie strictly inside (0, 1)")
        order = np.lexsort((locations, rows))
        fields = [indices, locations, heights, pvalues, rows]
        fields = [None if f is None else f[order] for f in fields]
        if np.any((np.diff(fields[4]) == 0) & (np.diff(fields[1]) <= 0)):
            raise ValueError("locations must be distinct within a row")
        self._set(*fields)

    def __len__(self) -> int:
        return self.locations.size

    def row_counts(self, num_rows: int) -> np.ndarray:
        """Entries in each of ``num_rows`` rows, for a call given one
        argument per row; a set with an entry in a later row raises."""
        counts = np.bincount(self.rows, minlength=num_rows)
        if counts.size > num_rows:
            raise ValueError(
                f"candidates span {counts.size} rows, but {num_rows} "
                "per-row argument(s) were given"
            )
        return counts

    def with_pvalues(self, pvalues: np.ndarray) -> "CandidateSet":
        pvalues = np.array(pvalues, dtype=np.float64)
        if pvalues.shape != self.locations.shape:
            raise ValueError("pvalues must match the other fields")
        if not ((0.0 < pvalues) & (pvalues < 1.0)).all():
            raise ValueError("pvalues must lie strictly inside (0, 1)")
        return CandidateSet._canonical(
            self.indices, self.locations, self.heights, pvalues, self.rows
        )

    def select(self, mask: np.ndarray) -> "CandidateSet":
        mask = np.asarray(mask, dtype=bool)
        fields = (getattr(self, name) for name in _FIELDS)
        return CandidateSet._canonical(*(None if f is None else f[mask] for f in fields))

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
