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
    """

    indices: np.ndarray
    locations: np.ndarray
    heights: np.ndarray
    pvalues: np.ndarray | None = None

    def __post_init__(self):
        indices = np.asarray(self.indices, dtype=np.int64)
        locations = np.asarray(self.locations, dtype=np.float64)
        heights = np.asarray(self.heights, dtype=np.float64)
        if not (indices.ndim == locations.ndim == heights.ndim == 1):
            raise ValueError("candidate fields must be 1-D arrays")
        if not (indices.size == locations.size == heights.size):
            raise ValueError("candidate fields must have equal length")
        if not np.all(np.isfinite(locations)):
            raise ValueError("locations must be finite")
        if not np.all(np.isfinite(heights)):
            raise ValueError("heights must be finite")
        pvalues = self.pvalues
        if pvalues is not None:
            pvalues = np.asarray(pvalues, dtype=np.float64)
            if pvalues.shape != locations.shape:
                raise ValueError("pvalues must match the other fields")
            if np.any(pvalues <= 0.0) or np.any(pvalues >= 1.0):
                raise ValueError("pvalues must lie strictly inside (0, 1)")
        order = np.argsort(locations, kind="stable")
        indices = indices[order]
        locations = locations[order]
        heights = heights[order]
        if pvalues is not None:
            pvalues = pvalues[order]
        if locations.size > 1 and np.any(np.diff(locations) <= 0):
            raise ValueError("locations must be distinct")
        for arr in (indices, locations, heights, pvalues):
            if arr is not None:
                arr.setflags(write=False)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "locations", locations)
        object.__setattr__(self, "heights", heights)
        object.__setattr__(self, "pvalues", pvalues)

    def __len__(self) -> int:
        return self.locations.size

    @property
    def count(self) -> int:
        """Number of hypotheses under test."""
        return self.locations.size

    def with_pvalues(self, pvalues: np.ndarray) -> "CandidateSet":
        pvalues = np.array(pvalues, dtype=np.float64)
        if pvalues.shape != self.locations.shape:
            raise ValueError("pvalues must match the other fields")
        if np.any(pvalues <= 0.0) or np.any(pvalues >= 1.0):
            raise ValueError("pvalues must lie strictly inside (0, 1)")
        return CandidateSet._canonical(
            self.indices, self.locations, self.heights, pvalues
        )

    def select(self, mask: np.ndarray) -> "CandidateSet":
        mask = np.asarray(mask, dtype=bool)
        return CandidateSet._canonical(
            self.indices[mask],
            self.locations[mask],
            self.heights[mask],
            None if self.pvalues is None else self.pvalues[mask],
        )

    @classmethod
    def _canonical(cls, indices, locations, heights, pvalues) -> "CandidateSet":
        """A set from fields that are already canonical: sorted, distinct,
        finite, of equal length and dtype.  Subsets of a valid set are,
        so ``select`` and ``with_pvalues`` skip the sort and the checks."""
        out = object.__new__(cls)
        for name, arr in (
            ("indices", indices),
            ("locations", locations),
            ("heights", heights),
            ("pvalues", pvalues),
        ):
            if arr is not None:
                arr.setflags(write=False)
            object.__setattr__(out, name, arr)
        return out

    @classmethod
    def empty(cls) -> "CandidateSet":
        z = np.zeros(0)
        return cls(z.astype(np.int64), z, z, z)
