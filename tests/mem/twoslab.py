"""The two-slab cacheline model, kept as a reference for equivalence tests.

This is the CPU-cache / persistence-domain model as it stood before the
one-slab :class:`repro.mem.cpucache.CachedPersistentRegion`: a full-size
*current* slab (newest bytes), a full-size *persistent* slab (the
durable image) and a one-byte-per-line dirty bitmap.  Every persisted
store writes both slabs.  It is deliberately the simple, obviously
correct formulation; ``test_cpucache_equiv.py`` drives it and the
production region through the same random operation sequences and
requires identical observable behaviour.
"""

from repro.mem.cpucache import persist_words
from repro.mem.region import CACHELINE_SIZE, MemoryRegion

#: Flag-run template for marking many lines dirty in one slice assign.
_ONES = b"\x01" * 4096


class TwoSlabRegion:
    """Persistent bytes fronted by a volatile write-back line cache,
    held as two full-size slabs (the reference formulation).

    Reads always observe the newest data (the current slab).  ``crash()``
    discards unflushed lines, optionally persisting an arbitrary subset
    first to model uncontrolled evictions.  Within one cacheline, a crash
    is all-or-nothing -- the architectural guarantee ("writes to the same
    cacheline are never reordered") that both PMFS's and HiNFS's
    valid-flag log entries rely on.
    """

    def __init__(self, size):
        self.size = int(size)
        #: Durable image: what survives a crash.
        self._persistent = MemoryRegion(size)
        #: Newest data: durable image overlaid with volatile stores.
        self._current = MemoryRegion(size)
        #: One flag byte per cacheline: 1 = line differs from the
        #: durable image (volatile).  ``_dirty_count`` caches the number
        #: of set flags so clean-path checks are O(1).
        self._flags = bytearray(self.num_lines)
        self._dirty_count = 0
        #: Optional persistence observer (crash-point exploration).  When
        #: set, it receives ``on_cached_write(addr, data)`` for volatile
        #: stores, ``on_persist(addr, data)`` for every byte range that
        #: becomes durable, ``on_flush_boundary(region)`` after each
        #: ``clflush``, and ``on_fence(region)`` at every ordering point.
        self.observer = None

    @property
    def num_lines(self):
        return -(-self.size // CACHELINE_SIZE)

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
        self._current.write(addr, data)
        first = addr // CACHELINE_SIZE
        last = (addr + length - 1) // CACHELINE_SIZE
        nlines = last - first + 1
        flags = self._flags
        if self._dirty_count:
            already = sum(flags[first : last + 1])
            if already == nlines:
                return
            self._dirty_count += nlines - already
        else:
            self._dirty_count = nlines
        if nlines <= len(_ONES):
            flags[first : last + 1] = _ONES[:nlines]
        else:
            flags[first : last + 1] = b"\x01" * nlines

    def write_nocache(self, addr, data):
        """A non-temporal store: bypasses the cache, immediately durable.

        Matches PMFS's ``copy_from_user_inatomic_nocache`` data path.
        Dirty volatile copies of partially-covered lines are flushed first
        so the store never resurrects stale bytes within a line.
        """
        length = len(data)
        if addr < 0 or addr + length > self.size:
            raise IndexError("store outside region")
        if self._dirty_count and length:
            first = addr // CACHELINE_SIZE
            last = (addr + length - 1) // CACHELINE_SIZE
            if any(self._flags[first : last + 1]):
                for line in range(first, last + 1):
                    self._flush_line(line)
        self._persistent.write(addr, data)
        self._current.write(addr, data)
        if self.observer is not None:
            self.observer.on_persist(addr, bytes(data))

    def write_flush(self, addr, data):
        """A cached store immediately followed by ``clflush`` of its range.

        Same end state as :meth:`write` then :meth:`clflush` over
        ``[addr, addr+len(data))``: the store lands in the current slab,
        every line it touches becomes durable, and none stays dirty.
        Returns the number of lines flushed (every touched line, since
        the store dirtied them all).  An observer receives the same
        events as from that pair: the store, one persist per touched
        line, then the flush boundary (only the boundary for an empty
        store).
        """
        length = len(data)
        if addr < 0 or addr + length > self.size:
            raise IndexError("store outside region")
        observer = self.observer
        if length == 0:
            if observer is not None:
                observer.on_flush_boundary(self)
            return 0
        # Bounds are checked above, so both slabs are addressed directly
        # (one slice assign each, no per-call view objects).
        current = self._current
        current._data[addr : addr + length] = data
        first = addr // CACHELINE_SIZE
        last = (addr + length - 1) // CACHELINE_SIZE
        nlines = last - first + 1
        if self._dirty_count:
            flags = self._flags
            already = sum(flags[first : last + 1])
            if already:
                flags[first : last + 1] = bytes(nlines)
                self._dirty_count -= already
        base = first * CACHELINE_SIZE
        end = min(base + nlines * CACHELINE_SIZE, self.size)
        self._persistent._data[base:end] = current._mv[base:end]
        if observer is not None:
            observer.on_cached_write(addr, bytes(data))
            for lo in range(base, end, CACHELINE_SIZE):
                observer.on_persist(
                    lo, current.read(lo, min(CACHELINE_SIZE, end - lo)))
            observer.on_flush_boundary(self)
        return nlines

    # -- flush / ordering ---------------------------------------------------

    def clflush(self, addr, length):
        """Flush every cacheline overlapping the range to persistence.

        Returns the number of lines actually flushed (dirty lines only),
        which the timing layer converts into emulated NVMM write delay.
        """
        flushed = 0
        if self._dirty_count and length > 0:
            first = addr // CACHELINE_SIZE
            last = (addr + length - 1) // CACHELINE_SIZE
            if any(self._flags[first : last + 1]):
                for line in range(first, last + 1):
                    if self._flush_line(line):
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
        if not self._flags[line]:
            return False
        self._flags[line] = 0
        self._dirty_count -= 1
        base = line * CACHELINE_SIZE
        end = min(base + CACHELINE_SIZE, self.size)
        self._persistent.write(base, self._current.view(base, end - base))
        if self.observer is not None:
            self.observer.on_persist(base, self._current.read(base, end - base))
        return True

    def flush_all(self):
        """Flush every dirty line (wbinvd-style; used at unmount)."""
        flushed = 0
        find = self._flags.find
        line = find(1)
        while line != -1:
            if self._flush_line(line):
                flushed += 1
            line = find(1, line + 1)
        if self.observer is not None:
            self.observer.on_flush_boundary(self)
        return flushed

    # -- load path --------------------------------------------------------

    def read(self, addr, length):
        """Load ``length`` bytes, observing volatile lines first."""
        if addr < 0 or length < 0 or addr + length > self.size:
            raise IndexError("load outside region")
        return self._current.read(addr, length)

    # -- crash modelling --------------------------------------------------

    def dirty_line_indices(self):
        """Lines currently volatile (useful for enumerating crash states)."""
        out = []
        find = self._flags.find
        line = find(1)
        while line != -1:
            out.append(line)
            line = find(1, line + 1)
        return out

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
            if not self._flags[line]:
                raise ValueError(
                    "%s index %r is not dirty; a clean line cannot "
                    "be written back at crash time" % (what, line)
                )

    def _tear(self, image, torn):
        """Apply ``torn`` (``{dirty line: word mask}``) to ``image``: only
        the selected 8-byte words of each line's newest bytes land."""
        for line in sorted(torn):
            base = line * CACHELINE_SIZE
            end = min(base + CACHELINE_SIZE, self.size)
            persist_words(image, base, self._current.view(base, end - base),
                          torn[line])

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
        for line in evict_lines:
            self._flush_line(line)
        if torn:
            self._tear(self._persistent._data, torn)
        # Roll the current slab back to the durable image for every line
        # still volatile, then clear the bitmap.
        size = self.size
        find = self._flags.find
        line = find(1)
        while line != -1:
            base = line * CACHELINE_SIZE
            end = min(base + CACHELINE_SIZE, size)
            self._current.write(base, self._persistent.view(base, end - base))
            line = find(1, line + 1)
        if self._dirty_count:
            self._flags[:] = bytes(len(self._flags))
            self._dirty_count = 0

    def crash_image(self, evict_lines=(), torn=None):
        """The image :meth:`crash` with the same arguments would leave
        durable, as ``bytes``; the region itself is left untouched."""
        self._check_dirty(evict_lines, "evict_lines")
        self._check_dirty(torn or (), "torn")
        if not evict_lines and not torn:
            return self._persistent.snapshot()
        image = bytearray(self._persistent._data)
        current = self._current._mv
        for line in evict_lines:
            base = line * CACHELINE_SIZE
            end = min(base + CACHELINE_SIZE, self.size)
            image[base:end] = current[base:end]
        if torn:
            self._tear(image, torn)
        return bytes(image)

    def persistent_snapshot(self):
        """Contents as they would be read after an immediate crash."""
        return self._persistent.snapshot()

    def load_snapshot(self, image):
        """Replace the persistent contents with ``image`` (crash-state
        replay); all volatile lines are discarded."""
        image = bytes(image)
        if len(image) != self.size:
            raise ValueError(
                "snapshot of %d bytes does not match region of %d bytes"
                % (len(image), self.size)
            )
        if self._dirty_count:
            self._flags[:] = bytes(len(self._flags))
            self._dirty_count = 0
        self._persistent.write(0, image)
        self._current.write(0, image)
