"""The global Least-Recently-Written list (paper Section 3.2).

All buffered DRAM blocks are kept sorted by last written time.  A write
moves a block to the MRW (most-recently-written) end; the writeback
threads pick victims from the LRW end.  Backed by one ``OrderedDict``
keyed by the node (first key = LRW end), so every operation is O(1).
"""

from collections import OrderedDict
from itertools import islice


class LRWList:
    """Recency order over hashable nodes: first = LRW victim, last = MRW."""

    __slots__ = ("_order",)

    def __init__(self):
        self._order = OrderedDict()

    def __len__(self):
        return len(self._order)

    def __contains__(self, node):
        return node in self._order

    def touch(self, node):
        """Insert or move ``node`` to the MRW position."""
        order = self._order
        if node in order:
            order.move_to_end(node)
        else:
            order[node] = None

    def remove(self, node):
        """Drop ``node`` from the list (no-op if absent)."""
        self._order.pop(node, None)

    def lrw_victim(self):
        """The least-recently-written node, or None when empty."""
        return next(iter(self._order), None)

    def lrw_head(self, n):
        """The ``n`` least-recently-written nodes, LRW first (snapshot)."""
        return list(islice(self._order, n))

    def iter_lrw_order(self):
        """Every node from LRW to MRW (a snapshot list)."""
        return list(self._order)
