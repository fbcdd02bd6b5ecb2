"""The OS page cache used by the block-based baseline file systems.

This is the layer whose *double-copy* overhead the paper sets out to
eliminate: every read misses into the cache first (device -> cache ->
user), and every durable write copies twice (user -> cache -> device).

- :mod:`repro.pagecache.cache` -- pages, the per-file page index (a
  ``dict`` standing in for Linux's radix tree), dirty tracking, LRU
  eviction.
- :mod:`repro.pagecache.writeback` -- the pdflush-style background
  writeback timeline.
"""

from repro.pagecache.cache import Page, PageCache
from repro.pagecache.writeback import PdflushTask

__all__ = ["Page", "PageCache", "PdflushTask"]
