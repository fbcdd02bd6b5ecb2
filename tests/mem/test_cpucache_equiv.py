"""Equivalence: the one-slab region behaves exactly like the two-slab model.

:class:`repro.mem.cpucache.CachedPersistentRegion` keeps one slab of
newest bytes plus a ``{line: durable bytes}`` map of the dirty lines.
:class:`tests.mem.twoslab.TwoSlabRegion` is the formulation it replaced:
a full *current* slab, a full *persistent* slab and a dirty bitmap.
Random operation sequences -- every store path, flush, fence, crash with
evicted and torn lines, crash images and snapshots -- run on both, and
after every step the return value (or the exception), every byte a load
sees, the durable image, the dirty lines and the persistence-observer
event list must agree.  The region size is not a whole number of lines,
so the last line is partial and stores, flushes and crashes straddle the
region end.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.cpucache import CachedPersistentRegion
from repro.mem.region import CACHELINE_SIZE
from tests.mem.twoslab import TwoSlabRegion

SIZE = 10 * CACHELINE_SIZE + 24
NUM_LINES = -(-SIZE // CACHELINE_SIZE)
LAST_LINE_BASE = (NUM_LINES - 1) * CACHELINE_SIZE


class RecordingObserver:
    """Persistence observer that logs every event it receives."""

    def __init__(self):
        self.events = []

    def on_cached_write(self, addr, data):
        self.events.append(("store", addr, bytes(data)))

    def on_persist(self, addr, data):
        self.events.append(("persist", addr, bytes(data)))

    def on_flush_boundary(self, region):
        self.events.append(("boundary",))

    def on_fence(self, region):
        self.events.append(("fence",))


def _outcome(op, region):
    try:
        return ("ok", op(region))
    except (IndexError, ValueError) as exc:
        return (type(exc).__name__, str(exc))


def _state(region):
    return (region.read(0, SIZE), region.persistent_snapshot(),
            region.dirty_line_indices())


@st.composite
def ranges(draw):
    """A byte range inside the region, biased towards the partial last
    line so stores straddle the region end."""
    if draw(st.booleans()):
        addr = draw(st.integers(LAST_LINE_BASE - CACHELINE_SIZE, SIZE))
    else:
        addr = draw(st.integers(0, SIZE))
    length = draw(st.integers(0, min(3 * CACHELINE_SIZE, SIZE - addr)))
    return addr, length


@st.composite
def stores(draw):
    if draw(st.integers(0, 15)) == 0:
        # Out of range on either side: every store path raises.
        addr = draw(st.sampled_from([-1, SIZE - 4, SIZE + 1]))
        length = 8
    else:
        addr, length = draw(ranges())
    return addr, draw(st.binary(min_size=length, max_size=length))


def _line_indices(draw, dirty):
    """A sample of dirty lines, rarely with a clean or out-of-range index
    that must raise :class:`ValueError`."""
    lines = draw(st.lists(st.sampled_from(dirty), unique=True)) if dirty \
        else []
    if draw(st.integers(0, 9)) == 0:
        lines.append(draw(st.sampled_from(
            [-1, NUM_LINES] + [n for n in range(NUM_LINES)
                               if n not in dirty])))
    return lines


def _torn(draw, dirty):
    return {line: draw(st.integers(0, 0xFF))
            for line in _line_indices(draw, dirty)}


def _step(draw, dirty):
    """One operation, as a function of a region."""
    kind = draw(st.sampled_from([
        "write", "write", "write", "write_nocache", "write_flush",
        "clflush", "fence", "flush_all", "crash", "crash_image",
        "persistent_snapshot", "load_snapshot"]))
    if kind in ("write", "write_nocache", "write_flush"):
        addr, data = draw(stores())
        return kind, lambda r: getattr(r, kind)(addr, data)
    if kind == "clflush":
        addr, length = draw(ranges())
        return kind, lambda r: r.clflush(addr, length)
    if kind in ("fence", "flush_all", "persistent_snapshot"):
        return kind, lambda r: getattr(r, kind)()
    if kind in ("crash", "crash_image"):
        evict = _line_indices(draw, dirty)
        torn = _torn(draw, dirty) if draw(st.booleans()) else None
        return kind, lambda r: getattr(r, kind)(evict, torn)
    size = SIZE if draw(st.integers(0, 7)) else SIZE - 1
    image = draw(st.binary(min_size=size, max_size=size))
    return kind, lambda r: r.load_snapshot(image)


@settings(max_examples=200)
@given(data=st.data(), observed=st.booleans(),
       steps=st.integers(1, 40))
def test_one_slab_region_matches_the_two_slab_model(data, observed, steps):
    ref = TwoSlabRegion(SIZE)
    new = CachedPersistentRegion(SIZE)
    observers = []
    if observed:
        for region in (ref, new):
            region.observer = RecordingObserver()
            observers.append(region.observer)
    for i in range(steps):
        kind, op = _step(data.draw, ref.dirty_line_indices())
        want = _outcome(op, ref)
        got = _outcome(op, new)
        assert got == want, (i, kind)
        assert _state(new) == _state(ref), (i, kind)
        if observed:
            assert observers[1].events == observers[0].events, (i, kind)


def test_straddling_torn_crash_matches_the_two_slab_model():
    """A hand-picked case: the partial last line is dirty, torn and
    imaged; an evicted line sits next to it."""
    regions = [TwoSlabRegion(SIZE), CachedPersistentRegion(SIZE)]
    last = NUM_LINES - 1
    for region in regions:
        region.write_nocache(0, b"\x11" * SIZE)
        region.write(LAST_LINE_BASE - 8, b"\xaa" * 32)
    torn = {last: 0b101}
    assert regions[1].dirty_line_indices() == [last - 1, last]
    assert regions[1].crash_image([last - 1], torn) == \
        regions[0].crash_image([last - 1], torn)
    for region in regions:
        region.crash([last - 1], torn)
    assert _state(regions[1]) == _state(regions[0])
    want = bytearray(b"\x11" * SIZE)
    want[LAST_LINE_BASE - 8:LAST_LINE_BASE] = b"\xaa" * 8
    want[LAST_LINE_BASE:LAST_LINE_BASE + 8] = b"\xaa" * 8
    want[LAST_LINE_BASE + 16:LAST_LINE_BASE + 24] = b"\xaa" * 8
    assert regions[1].persistent_snapshot() == bytes(want)

