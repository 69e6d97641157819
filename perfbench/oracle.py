"""An oracle independent of the program under test.

It holds the benchmark's own copy of the local scores (one row per list,
one column per item id), replays every mutation on that copy, and answers
by NumPy: overall scores are computed as a matrix product, and every item
within a small margin of the decisive boundary is rescored exactly with
``math.fsum`` of the weighted products — the same float products the
program's scoring functions sum, so exact totals are bit-comparable.
"""

from __future__ import annotations

import math

import numpy as np

#: relative margin around a boundary inside which items are rescored
#: exactly (far above the error of a 4-term float64 dot product)
_MARGIN = 1e-9


class Oracle:
    """Score matrix with replayable mutations and exact answers."""

    def __init__(self, rows: np.ndarray, spare: int = 0) -> None:
        m, n = rows.shape
        self.m = m
        self.scores = np.zeros((m, n + spare), dtype=np.float64)
        self.scores[:, :n] = rows
        self.alive = np.zeros(n + spare, dtype=bool)
        self.alive[:n] = True

    # -- mutations -------------------------------------------------------

    def update(self, list_index: int, item: int, score: float) -> None:
        self.scores[list_index, item] = score

    def insert(self, item: int, scores) -> None:
        self.scores[:, item] = scores
        self.alive[item] = True

    def remove(self, item: int) -> None:
        self.alive[item] = False

    # -- answers ----------------------------------------------------------

    def exact(self, weights, item: int) -> float:
        column = self.scores[:, item].tolist()
        return math.fsum(w * s for w, s in zip(weights, column))

    def _approx(self, weights) -> np.ndarray:
        totals = np.asarray(weights, dtype=np.float64) @ self.scores
        totals[~self.alive] = -np.inf
        return totals

    def ranked(self, weights, k: int) -> list[tuple[float, int]]:
        """Exact ``(total, id)`` of every item that can be in the top-k,
        best first by ``(-total, id)``; at least ``k`` entries."""
        totals = self._approx(weights)
        kth = np.partition(totals, totals.size - k)[totals.size - k]
        margin = _MARGIN * max(1.0, abs(kth))
        candidates = np.flatnonzero(totals >= kth - margin).tolist()
        exact = [(self.exact(weights, item), item) for item in candidates]
        exact.sort(key=lambda entry: (-entry[0], entry[1]))
        return exact

    def topk_problem(self, weights, k: int, items) -> str | None:
        """Why a served top-k answer is wrong, or ``None`` when it is right.

        The served score sequence must equal the true one bit for bit, and
        every served item must be alive, distinct and carry its true total
        (items tied at the boundary may resolve either way).
        """
        expected = self.ranked(weights, k)[:k]
        served = [(entry.score, entry.item) for entry in items]
        if len(served) != k:
            return f"served {len(served)} items, expected {k}"
        if [score for score, _ in served] != [score for score, _ in expected]:
            return "score sequence differs from the oracle"
        if len({item for _, item in served}) != k:
            return "duplicate item in the answer"
        for score, item in served:
            if not (0 <= item < self.alive.size and self.alive[item]):
                return f"item {item} does not exist"
            if self.exact(weights, item) != score:
                return f"item {item} carries a wrong total"
        return None

    def is_in_topk(self, weights, item: int, k: int) -> bool:
        """Whether ``item`` ranks inside the top-k (ties by ascending id)."""
        totals = self._approx(weights)
        target = self.exact(weights, item)
        margin = _MARGIN * max(1.0, abs(target))
        above = int(np.count_nonzero(totals > target + margin))
        if above >= k:
            return False
        near = np.flatnonzero(np.abs(totals - target) <= margin).tolist()
        better = 0
        for other in near:
            if other == item:
                continue
            total = self.exact(weights, other)
            if total > target or (total == target and other < item):
                better += 1
        return above + better < k
