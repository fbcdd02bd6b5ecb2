"""A persistent region behind a volatile CPU-cache line store.

NVMM sits on the memory bus, so ordinary stores land in the (volatile)
CPU cache and reach the persistence domain only when flushed -- either
explicitly (``clflush``), via non-temporal stores (the
``copy_from_user_inatomic_nocache`` path PMFS uses for data), or
*unpredictably* when the cache evicts a line on its own.  That last
hazard is why NVMM file systems must order metadata updates with
``clflush``/``mfence``; this module models all three paths so the
journal-recovery tests can exercise real crash states.

Layout: **one slab plus a dirty-line map.**  The slab holds the newest
bytes of every line -- what loads observe.  A line that a cached store
made volatile also has an entry in the dirty map: its durable bytes, as
they were when the line first became dirty.  The map *is* the dirty
set, and it stays small (only lines stored through the cache and not
yet flushed), so the durable image is never kept as a second copy of
the device:

- a cached store saves the old bytes of each newly dirtied line, then
  writes the slab;
- a flush, or a non-temporal store over a dirty line, drops the entry
  (the slab already holds the bytes that become durable);
- a crash writes every surviving entry back into the slab and clears
  the map, so what remains is exactly the durable image;
- the durable image on demand (``crash_image``,
  ``persistent_snapshot``) is the slab with the entries overlaid.

Persisted stores therefore write one slab, not two, and nothing on the
write/flush paths allocates unless a line is stored through the cache.
"""

from repro.mem.region import CACHELINE_SIZE, MemoryRegion

#: The architectural store-atomicity unit: an aligned 8-byte word always
#: persists or vanishes as a unit (the guarantee PMFS's in-place commit
#: relies on), but nothing larger does -- a crash mid-flush may leave any
#: word subset of a cacheline behind.
WORD_SIZE = 8
WORDS_PER_LINE = CACHELINE_SIZE // WORD_SIZE


def words_spanned(addr, length):
    """Aligned 8-byte words that ``[addr, addr+length)`` overlaps."""
    if length <= 0:
        return 0
    return (addr + length - 1) // WORD_SIZE - addr // WORD_SIZE + 1


def persist_words(image, addr, data, word_mask):
    """The torn-write rule: persist ``data`` (stored at ``addr``) into
    ``image`` one aligned 8-byte word at a time.

    Bit ``i`` of ``word_mask`` selects the ``i``-th word the store
    overlaps; a selected word lands whole, an unselected one keeps the
    old bytes of ``image`` entirely.
    """
    first = addr // WORD_SIZE
    end = addr + len(data)
    for i in range(words_spanned(addr, len(data))):
        if word_mask >> i & 1:
            lo = max(addr, (first + i) * WORD_SIZE)
            hi = min(end, (first + i + 1) * WORD_SIZE)
            image[lo:hi] = data[lo - addr:hi - addr]


class CachedPersistentRegion:
    """Persistent bytes fronted by a volatile write-back line cache.

    Reads always observe the newest data (the slab).  ``crash()``
    discards unflushed lines, optionally persisting an arbitrary subset
    first to model uncontrolled evictions.  Within one cacheline, a crash
    is all-or-nothing -- the architectural guarantee ("writes to the same
    cacheline are never reordered") that both PMFS's and HiNFS's
    valid-flag log entries rely on.
    """

    def __init__(self, size):
        self.size = int(size)
        #: Newest data: the durable image overlaid with volatile stores.
        self._slab = MemoryRegion(size)
        #: The dirty set: ``{line: durable bytes}`` for every line that
        #: differs from the durable image (64 bytes each, fewer for a
        #: partial last line).  Empty means every line is clean.
        self._saved = {}
        #: Optional persistence observer (crash-point exploration).  When
        #: set, it receives ``on_cached_write(addr, data)`` for volatile
        #: stores, ``on_persist(addr, data)`` for every byte range that
        #: becomes durable, ``on_flush_boundary(region)`` after each
        #: ``clflush``, and ``on_fence(region)`` at every ordering point.
        self.observer = None

    @property
    def num_lines(self):
        return -(-self.size // CACHELINE_SIZE)

    def _saved_in(self, first, last):
        """Dirty lines in ``[first, last]``, ascending."""
        saved = self._saved
        if last - first < len(saved):
            return [line for line in range(first, last + 1) if line in saved]
        return sorted(line for line in saved if first <= line <= last)

    # -- store paths ------------------------------------------------------

    def write(self, addr, data):
        """An ordinary (cached, write-back) store: volatile until flushed."""
        length = len(data)
        if addr < 0 or addr + length > self.size:
            raise IndexError("store outside region")
        if length == 0:
            return
        if self.observer is not None:
            self.observer.on_cached_write(addr, bytes(data))
        saved = self._saved
        mv = self._slab._mv
        for line in range(addr // CACHELINE_SIZE,
                          (addr + length - 1) // CACHELINE_SIZE + 1):
            if line not in saved:
                base = line * CACHELINE_SIZE
                saved[line] = bytes(mv[base : base + CACHELINE_SIZE])
        self._slab._data[addr : addr + length] = data

    def write_nocache(self, addr, data):
        """A non-temporal store: bypasses the cache, immediately durable.

        Matches PMFS's ``copy_from_user_inatomic_nocache`` data path.
        Dirty lines the store overlaps are flushed first (their saved
        bytes dropped), so a later crash cannot roll the store back to
        stale bytes.
        """
        length = len(data)
        if addr < 0 or addr + length > self.size:
            raise IndexError("store outside region")
        if self._saved and length:
            for line in self._saved_in(
                    addr // CACHELINE_SIZE,
                    (addr + length - 1) // CACHELINE_SIZE):
                self._flush_line(line)
        self._slab._data[addr : addr + length] = data
        if self.observer is not None:
            self.observer.on_persist(addr, bytes(data))

    def write_flush(self, addr, data):
        """A cached store immediately followed by ``clflush`` of its range.

        Same end state as :meth:`write` then :meth:`clflush` over
        ``[addr, addr+len(data))``: the store lands in the slab and no
        line it touches stays dirty.  Returns the number of lines
        flushed (every touched line, since the store dirtied them all).
        An observer receives the same events as from that pair: the
        store, one persist per touched line, then the flush boundary
        (only the boundary for an empty store).
        """
        length = len(data)
        if addr < 0 or addr + length > self.size:
            raise IndexError("store outside region")
        observer = self.observer
        if length == 0:
            if observer is not None:
                observer.on_flush_boundary(self)
            return 0
        slab = self._slab
        slab._data[addr : addr + length] = data
        first = addr // CACHELINE_SIZE
        last = (addr + length - 1) // CACHELINE_SIZE
        saved = self._saved
        if saved:
            for line in self._saved_in(first, last):
                del saved[line]
        if observer is not None:
            observer.on_cached_write(addr, bytes(data))
            base = first * CACHELINE_SIZE
            end = min((last + 1) * CACHELINE_SIZE, self.size)
            for lo in range(base, end, CACHELINE_SIZE):
                observer.on_persist(
                    lo, slab.read(lo, min(CACHELINE_SIZE, end - lo)))
            observer.on_flush_boundary(self)
        return last - first + 1

    # -- flush / ordering ---------------------------------------------------

    def clflush(self, addr, length):
        """Flush every cacheline overlapping the range to persistence.

        Returns the number of lines actually flushed (dirty lines only),
        which the timing layer converts into emulated NVMM write delay.
        """
        flushed = 0
        if self._saved and length > 0:
            for line in self._saved_in(
                    addr // CACHELINE_SIZE,
                    (addr + length - 1) // CACHELINE_SIZE):
                self._flush_line(line)
                flushed += 1
        if self.observer is not None:
            self.observer.on_flush_boundary(self)
        return flushed

    def fence(self):
        """mfence ordering point (a no-op for the data plane; crash-point
        exploration records it as an enumeration boundary)."""
        if self.observer is not None:
            self.observer.on_fence(self)

    def _flush_line(self, line):
        """Make dirty ``line`` durable: its newest bytes are in the slab
        already, so only the saved entry goes."""
        del self._saved[line]
        if self.observer is not None:
            base = line * CACHELINE_SIZE
            self.observer.on_persist(
                base, bytes(self._slab._mv[base : base + CACHELINE_SIZE]))

    def flush_all(self):
        """Flush every dirty line (wbinvd-style; used at unmount)."""
        flushed = len(self._saved)
        if self.observer is None:
            self._saved.clear()
        else:
            for line in sorted(self._saved):
                self._flush_line(line)
            self.observer.on_flush_boundary(self)
        return flushed

    # -- load path --------------------------------------------------------

    def read(self, addr, length):
        """Load ``length`` bytes (the newest data)."""
        if addr < 0 or length < 0 or addr + length > self.size:
            raise IndexError("load outside region")
        return bytes(self._slab._mv[addr : addr + length])

    # -- crash modelling --------------------------------------------------

    def dirty_line_indices(self):
        """Lines currently volatile (useful for enumerating crash states)."""
        return sorted(self._saved)

    def _check_dirty(self, lines, what):
        """Raise :class:`ValueError` unless every index names a dirty line:
        a crash-state enumeration must never silently test the wrong
        state."""
        for line in lines:
            if not 0 <= line < self.num_lines:
                raise ValueError(
                    "%s index %r outside region of %d lines"
                    % (what, line, self.num_lines)
                )
            if line not in self._saved:
                raise ValueError(
                    "%s index %r is not dirty; a clean line cannot "
                    "be written back at crash time" % (what, line)
                )

    def _torn_line(self, line, word_mask):
        """Dirty ``line``'s durable bytes after a torn write-back: only
        the selected 8-byte words of its newest bytes land."""
        durable = bytearray(self._saved[line])
        base = line * CACHELINE_SIZE
        persist_words(durable, 0, self._slab._mv[base : base + len(durable)],
                      word_mask)
        return durable

    def _durable_image(self, evict_lines, torn):
        """The slab with the saved bytes of every dirty line overlaid,
        except ``evict_lines`` (newest bytes) and ``torn`` (merged by
        word), as one ``bytes``."""
        mv = self._slab._mv
        saved = self._saved
        if not saved:
            return bytes(mv)
        evicted = set(evict_lines)
        pieces = []
        pos = 0
        for line in sorted(saved):
            if line in evicted:
                continue
            base = line * CACHELINE_SIZE
            durable = saved[line]
            if torn and line in torn:
                durable = self._torn_line(line, torn[line])
            pieces.append(mv[pos:base])
            pieces.append(durable)
            pos = base + len(durable)
        pieces.append(mv[pos:])
        return b"".join(pieces)

    def crash(self, evict_lines=(), torn=None):
        """Power failure: lose volatile lines, except ``evict_lines``.

        ``evict_lines`` models lines the cache happened to write back on
        its own before the crash; they persist, everything else volatile
        is lost.  Whole lines persist or vanish atomically -- except the
        lines ``torn`` maps to an 8-word bitmask: of those, only the
        selected aligned 8-byte words persist (a power cut mid-writeback).

        Every index in ``evict_lines`` and ``torn`` must name a
        currently-dirty line; a clean or out-of-range index raises
        :class:`ValueError`.
        """
        evict_lines = list(evict_lines)
        self._check_dirty(evict_lines, "evict_lines")
        self._check_dirty(torn or (), "torn")
        saved = self._saved
        for line in evict_lines:
            if line in saved:
                self._flush_line(line)
        if torn:
            for line in sorted(torn):
                if line in saved:
                    saved[line] = self._torn_line(line, torn[line])
        # Roll every line still volatile back to its durable bytes.
        data = self._slab._data
        for line, durable in saved.items():
            base = line * CACHELINE_SIZE
            data[base : base + len(durable)] = durable
        saved.clear()

    def crash_image(self, evict_lines=(), torn=None):
        """The image :meth:`crash` with the same arguments would leave
        durable, as ``bytes``; the region itself is left untouched."""
        evict_lines = list(evict_lines)
        self._check_dirty(evict_lines, "evict_lines")
        self._check_dirty(torn or (), "torn")
        return self._durable_image(evict_lines, torn)

    def persistent_snapshot(self):
        """Contents as they would be read after an immediate crash."""
        return self._durable_image((), None)

    def load_snapshot(self, image):
        """Replace the persistent contents with ``image`` (crash-state
        replay); all volatile lines are discarded."""
        image = bytes(image)
        if len(image) != self.size:
            raise ValueError(
                "snapshot of %d bytes does not match region of %d bytes"
                % (len(image), self.size)
            )
        self._saved.clear()
        self._slab.write(0, image)
