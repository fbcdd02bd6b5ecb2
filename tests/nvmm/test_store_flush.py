"""Property tests: the fused ``store_flush`` is ``write_cached`` +
``clflush`` (+ ``fence``) to the bit.

Each example builds two identical devices -- same dirty lines beforehand,
same writer-slot backlog, same kind of context -- runs the reference
sequence on one and ``store_flush`` on the other, and compares the whole
observable state: the newest bytes, the durable image, the dirty lines
and their count, the clock and breakdown buckets, slot grants,
counters, ``bytes_written_nvmm`` and the trace phases.  With a persistence observer or a fault model attached the
fused call must reproduce the observer's event list and the
``MediaError`` exactly as well.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine.context import ExecContext, FreeContext
from repro.engine.env import SimEnv
from repro.engine.stats import CAT_OTHERS, CAT_WRITE_ACCESS
from repro.faults.media import MediaFaultModel
from repro.fs.errors import MediaError
from repro.nvmm.config import CACHELINE_SIZE, NVMMConfig
from repro.nvmm.device import NVMMDevice

#: Not a whole number of lines, so the tail line is partial.
SIZE = 48 * CACHELINE_SIZE + 40
NUM_LINES = -(-SIZE // CACHELINE_SIZE)


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


class Rig:
    """One device + context in a chosen starting state."""

    def __init__(self, pre_dirty, busy_ns=0, domain=None, free=False,
                 traced=False):
        self.env = SimEnv()
        self.config = NVMMConfig()
        self.dev = NVMMDevice(self.env, self.config, SIZE, domain=domain)
        self.ctx = (FreeContext(self.env, "free") if free
                    else ExecContext(self.env, "t", start_ns=1000))
        self.traced = traced and not free
        if self.traced:
            self.env.enable_tracing()
        for line in sorted(pre_dirty):
            base = line * CACHELINE_SIZE
            self.dev.mem.write(base, b"\xa5" * min(CACHELINE_SIZE,
                                                   SIZE - base))
        for _ in range(busy_ns and self.config.nvmm_writer_slots):
            # Back every writer slot up so the flush has to queue.
            self.dev.write_slots.reserve(0, busy_ns)
        self.phases = None

    def run(self, op):
        if not self.traced:
            op(self.dev, self.ctx)
            return
        with self.ctx.span("op") as sp:
            try:
                op(self.dev, self.ctx)
            finally:
                self.phases = list(sp.phases)

    def state(self):
        mem = self.dev.mem
        stats = self.env.stats
        slots = self.dev.write_slots
        return {
            "current": mem.read(0, mem.size),
            "persistent": mem.persistent_snapshot(),
            "dirty": mem.dirty_line_indices(),
            "dirty_count": len(mem.dirty_line_indices()),
            "now": self.ctx.now,
            "breakdown": {k: v for k, v in stats.breakdown.as_dict().items()
                          if v},
            "grants": slots.total_grants,
            "busy_ns": slots.total_busy_ns,
            "earliest_free": slots.earliest_free_ns(),
            "counters": {k: v for k, v in stats.counters.items() if v},
            "bytes_written_nvmm": stats.bytes_written_nvmm,
            "phases": self.phases,
        }


def reference(addr, data, category, fence):
    def op(dev, ctx):
        dev.write_cached(ctx, addr, data, category)
        dev.clflush(ctx, addr, len(data), category)
        if fence:
            dev.fence(ctx)
    return op


def fused(addr, data, category, fence):
    def op(dev, ctx):
        dev.store_flush(ctx, addr, data, category, fence=fence)
    return op


@st.composite
def stores(draw):
    addr = draw(st.integers(0, SIZE - 1))
    length = draw(st.integers(0, min(4 * CACHELINE_SIZE, SIZE - addr)))
    data = draw(st.binary(min_size=length, max_size=length))
    return addr, data


pre_dirty_lines = st.sets(st.integers(0, NUM_LINES - 1), max_size=12)


@given(store=stores(), pre_dirty=pre_dirty_lines, fence=st.booleans(),
       category=st.sampled_from([CAT_OTHERS, CAT_WRITE_ACCESS]),
       busy_ns=st.sampled_from([0, 150, 5000]),
       domain=st.sampled_from([None, "dev0"]),
       free=st.booleans(), traced=st.booleans())
def test_fast_path_matches_reference(store, pre_dirty, fence, category,
                                     busy_ns, domain, free, traced):
    addr, data = store
    rigs = [Rig(pre_dirty, busy_ns, domain, free, traced) for _ in range(2)]
    rigs[0].run(reference(addr, data, category, fence))
    rigs[1].run(fused(addr, data, category, fence))
    assert rigs[1].state() == rigs[0].state()


@given(store=stores(), pre_dirty=pre_dirty_lines, fence=st.booleans())
def test_observer_sees_the_reference_event_sequence(store, pre_dirty, fence):
    addr, data = store
    rigs = [Rig(pre_dirty) for _ in range(2)]
    observers = []
    for rig in rigs:
        observers.append(RecordingObserver())
        rig.dev.mem.observer = observers[-1]
    rigs[0].run(reference(addr, data, CAT_OTHERS, fence))
    rigs[1].run(fused(addr, data, CAT_OTHERS, fence))
    assert observers[1].events == observers[0].events
    assert rigs[1].state() == rigs[0].state()


def _outcome(rig, op):
    try:
        rig.run(op)
    except MediaError as exc:
        return (str(exc), exc.addr, exc.length, list(exc.lines))
    return None


@given(store=stores(), pre_dirty=pre_dirty_lines, fence=st.booleans(),
       fault=st.sampled_from(["permanent", "transient", "exhausted"]),
       pick=st.integers(0, 1 << 16))
def test_fault_model_matches_reference(store, pre_dirty, fence, fault, pick):
    addr, data = store
    rigs = [Rig(pre_dirty) for _ in range(2)]
    touched = range(addr // CACHELINE_SIZE,
                    (addr + max(len(data), 1) - 1) // CACHELINE_SIZE + 1)
    line = touched[pick % len(touched)]
    models = []
    for rig in rigs:
        model = rig.dev.attach_faults(MediaFaultModel(seed=7))
        if fault == "permanent":
            model.poison_line(line)
        else:
            limit = rig.config.media_retry_limit
            model.inject_transient(line, limit + 1 if fault == "exhausted"
                                   else 1)
        models.append(model)
    outcomes = [_outcome(rigs[0], reference(addr, data, CAT_OTHERS, fence)),
                _outcome(rigs[1], fused(addr, data, CAT_OTHERS, fence))]
    assert outcomes[1] == outcomes[0]
    assert rigs[1].state() == rigs[0].state()
    assert models[1].bad_lines == models[0].bad_lines
    assert (models[1].persist_errors, models[1].retries) == \
        (models[0].persist_errors, models[0].retries)


def test_out_of_range_store_raises_before_any_change():
    rigs = [Rig({3}) for _ in range(2)]
    for rig, op in zip(rigs, (reference, fused)):
        with pytest.raises(IndexError):
            rig.run(op(SIZE - 8, b"x" * 16, CAT_OTHERS, True))
    assert rigs[1].state() == rigs[0].state()
    assert rigs[1].state()["now"] == 1000


def _forbid_reference_chain(dev):
    """Make the reference methods raise: ``store_flush`` must not use
    them, observer or fault model attached or not."""
    def forbidden(*args, **kwargs):
        raise AssertionError("store_flush ran the reference chain")
    dev.write_cached = forbidden
    dev.clflush = forbidden


@given(store=stores(), pre_dirty=pre_dirty_lines, fence=st.booleans())
def test_observer_runs_the_fused_path(store, pre_dirty, fence):
    addr, data = store
    rigs = [Rig(pre_dirty) for _ in range(2)]
    observers = [RecordingObserver(), RecordingObserver()]
    for rig, observer in zip(rigs, observers):
        rig.dev.mem.observer = observer
    _forbid_reference_chain(rigs[1].dev)
    rigs[0].run(reference(addr, data, CAT_OTHERS, fence))
    rigs[1].run(fused(addr, data, CAT_OTHERS, fence))
    assert observers[1].events == observers[0].events
    assert rigs[1].state() == rigs[0].state()


@given(store=stores(), pre_dirty=pre_dirty_lines, fence=st.booleans(),
       fault=st.sampled_from(["permanent", "transient", "exhausted"]),
       pick=st.integers(0, 1 << 16))
def test_fault_model_runs_the_fused_path(store, pre_dirty, fence, fault,
                                         pick):
    addr, data = store
    rigs = [Rig(pre_dirty) for _ in range(2)]
    touched = range(addr // CACHELINE_SIZE,
                    (addr + max(len(data), 1) - 1) // CACHELINE_SIZE + 1)
    line = touched[pick % len(touched)]
    for rig in rigs:
        model = rig.dev.attach_faults(MediaFaultModel(seed=7))
        if fault == "permanent":
            model.poison_line(line)
        else:
            limit = rig.config.media_retry_limit
            model.inject_transient(line, limit + 1 if fault == "exhausted"
                                   else 1)
    _forbid_reference_chain(rigs[1].dev)
    outcomes = [_outcome(rigs[0], reference(addr, data, CAT_OTHERS, fence)),
                _outcome(rigs[1], fused(addr, data, CAT_OTHERS, fence))]
    assert outcomes[1] == outcomes[0]
    assert rigs[1].state() == rigs[0].state()
