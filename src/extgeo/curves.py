"""Plain sampled curves, the common currency of reports."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Curve:
    """A sampled scalar curve y(x)."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.x.shape != self.y.shape or self.x.ndim != 1:
            raise ValueError("curve needs matching 1-d x and y")

    def __len__(self) -> int:
        return self.x.size

    @property
    def last(self) -> float:
        return float(self.y[-1])

    def tail_min(self, fraction=0.25) -> float:
        """Minimum of y over the trailing fraction of the x range; the
        finite-sample stand-in for a liminf."""
        k = max(1, int(np.ceil(len(self) * fraction)))
        return float(np.min(self.y[-k:]))

    def tail_slope(self, fraction=1.0 / 3.0) -> float:
        """Least-squares slope of y against x over the trailing fraction."""
        k = max(2, int(np.ceil(len(self) * fraction)))
        xs = self.x[-k:]
        ys = self.y[-k:]
        return float(np.polyfit(xs, ys, 1)[0])

    def tail_oscillation(self, fraction=1.0 / 3.0) -> float:
        """(max - min) / mean over the trailing fraction; inf if mean is 0."""
        k = max(1, int(np.ceil(len(self) * fraction)))
        ys = self.y[-k:]
        mean = float(np.mean(ys))
        if mean == 0.0:
            return 0.0 if float(np.max(ys) - np.min(ys)) == 0.0 else float("inf")
        return float((np.max(ys) - np.min(ys)) / abs(mean))

    def is_tail_increasing(self, fraction=1.0 / 3.0) -> bool:
        k = max(2, int(np.ceil(len(self) * fraction)))
        ys = self.y[-k:]
        return bool(np.all(np.diff(ys) > 0.0))
