"""Plain sampled curves, the common currency of reports."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MIN_FRACTION = 0.25            # trailing share read by ``tail_min``
TAIL_FRACTION = 1.0 / 3.0      # trailing share read by the other tail tests


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

    def _tail(self, fraction, least) -> np.ndarray:
        return self.y[-max(least, int(np.ceil(len(self) * fraction))):]

    def tail_min(self) -> float:
        """Minimum of y over the trailing quarter of the x range; the
        finite-sample stand-in for a liminf."""
        return float(np.min(self._tail(MIN_FRACTION, 1)))

    def tail_slope(self) -> float:
        """Least-squares slope of y against x over the trailing third."""
        ys = self._tail(TAIL_FRACTION, 2)
        return float(np.polyfit(self.x[-len(ys):], ys, 1)[0])

    def tail_oscillation(self) -> float:
        """(max - min) / mean over the trailing third; inf if mean is 0."""
        ys = self._tail(TAIL_FRACTION, 1)
        mean = float(np.mean(ys))
        if mean == 0.0:
            return 0.0 if float(np.max(ys) - np.min(ys)) == 0.0 else float("inf")
        return float((np.max(ys) - np.min(ys)) / abs(mean))

    def is_tail_increasing(self) -> bool:
        return bool(np.all(np.diff(self._tail(TAIL_FRACTION, 2)) > 0.0))
