"""A bounded ring of rows kept as columns, one ``deque`` per field."""

from __future__ import annotations

from collections import deque
from itertools import islice
from operator import itemgetter
from typing import Any, List, Optional, Sequence, Tuple


class ColumnRing:
    """The newest *capacity* rows of *width* fields, as the event journal
    and the span ring keep them.  A row's position counts the rows appended
    before it, dropped ones too.  The owner holds its lock around every call."""

    __slots__ = ("columns", "appended")

    def __init__(self, width: int, capacity: int) -> None:
        self.columns = tuple(deque(maxlen=capacity) for _ in range(width))
        self.appended = 0  # the next row's position

    def append(self, *values: Any) -> int:
        any(map(deque.append, self.columns, values))  # each append returns None
        position = self.appended
        self.appended = position + 1
        return position

    def slot(self, position: int) -> int:
        """The column index of the row at *position*, negative once dropped."""
        return position - self.appended + len(self.columns[0])

    def window(self, since: int = -1, limit: Optional[int] = None) -> Tuple[int, List[tuple]]:
        """The first position after *since* (of the newest *limit*, given
        one) and copies of the column slices from there on."""
        retained = len(self.columns[0])
        first = self.appended - retained  # the position at index 0
        start = max(since + 1 - first, 0 if limit is None else retained - limit, 0)
        start = min(start, retained)
        return first + start, [tuple(islice(c, start, None)) for c in self.columns]

    def replace(self, rows: Sequence[tuple], appended: int) -> None:
        """Hold *rows*, oldest first, the last at position ``appended - 1``."""
        for index, column in enumerate(self.columns):
            column.clear()
            column.extend(map(itemgetter(index), rows))
        self.appended = appended

    def __len__(self) -> int:
        return len(self.columns[0])
