"""Host-time spans around each layer's public entry points.

The program carries no host-time tracing of its own, so the traced run
wraps the entry points listed in :data:`TARGETS` from here.  Wrappers
are installed on the classes *before* the stack is built, so bound
methods the program caches at construction time (the VFS op table, the
scheduler's background hook) pick them up too.

Each wrapped call is one span: name, start, end, parent and request id.
A request id is drawn per simulated client step (``SimThread.step``);
background work reached from the scheduler loop carries id 0.  Self
time is a span's duration minus the time covered by its child spans,
summed per layer.  Every layer also reports its call count, so a
bypassed wrapper shows as zero calls, not as a fast layer.  The first
:data:`KEEP_SPANS` spans of the measured phase are kept in memory and
written out when the run ends.
"""

import functools
import json
import time
from collections import defaultdict

from repro.core.buffer import WriteBuffer
from repro.core.hinfs import HiNFS
from repro.core.writeback import WritebackPool
from repro.engine.background import BackgroundRegistry
from repro.engine.resources import FCFSServers
from repro.engine.scheduler import Scheduler
from repro.engine.thread import SimThread
from repro.fs.pmfs.journal import Journal
from repro.fs.qos import QosController
from repro.fs.shard import ShardedFS
from repro.fs.vfs import VFS
from repro.io.mmio import MmioMapping
from repro.io.ring import IORing
from repro.mem.cpucache import CachedPersistentRegion
from repro.nvmm.device import NVMMDevice

KEEP_SPANS = 50_000

_VFS_CALLS = (
    "open", "close", "mkdir", "unlink", "rmdir", "rename", "readdir",
    "stat", "read", "pread", "readv", "preadv", "write", "pwrite", "writev",
    "pwritev", "fsync", "fdatasync", "truncate", "lseek", "fstat", "mmap",
    "msync", "munmap", "read_file", "write_file", "unmount",
    # The ring's dispatch-table handlers: the VFS side of every SQE.
    "_op_readv", "_op_writev", "_op_fsync",
)

#: (layer, class, method names) for every wrapped entry point.
TARGETS = (
    ("vfs", VFS, _VFS_CALLS),
    ("ring", IORing, ("submit", "wait", "submit_reaping")),
    ("qos", QosController, ("admit",)),
    ("shard", ShardedFS, (
        "lookup", "create_file", "mkdir", "unlink", "rmdir", "rename",
        "readdir", "getattr", "submit", "write_iter", "read_iter",
        "sync_iter", "fsync", "fdatasync", "truncate", "mmap_atomic",
        "unmount")),
    ("hinfs", HiNFS, ("write_iter", "read_iter", "sync_iter", "flush_blocks",
                      "fsync", "fdatasync")),
    ("buffer", WriteBuffer, ("lookup", "insert", "evict", "write_into",
                             "read_from", "mark_clean", "file_blocks",
                             "dirty_blocks")),
    ("writeback", WritebackPool, ("run_due", "demand_reclaim",
                                  "signal_pressure")),
    ("journal", Journal, ("begin", "log_undo", "journaled_write", "commit")),
    ("nvmm", NVMMDevice, ("read", "read_media", "write_persistent",
                          "write_persistent_async", "write_cached",
                          "clflush", "fence", "flush_all")),
    ("mem", CachedPersistentRegion, ("read", "write", "write_nocache",
                                     "clflush", "fence", "flush_all")),
    ("engine", Scheduler, ("run",)),
    ("engine", FCFSServers, ("reserve",)),
    ("engine", BackgroundRegistry, ("advance_to",)),
    ("mmio", MmioMapping, ("load", "store", "msync")),
    # One client step: the benchmark's generator code plus whatever of
    # the stack it calls; its self time is the load generator's cost.
    ("client", SimThread, ("step",)),
)

LAYERS = tuple(sorted({layer for layer, _, _ in TARGETS}))


class Tracer:
    """Span recorder; per-phase (``setup``/``timed``) self time and calls."""

    def __init__(self):
        self.phase = None
        self.stack = []
        self.req_id = 0
        self.next_req = 1
        self.self_ns = defaultdict(lambda: defaultdict(int))
        self.calls = defaultdict(lambda: defaultdict(int))
        self.calls_by_name = defaultdict(lambda: defaultdict(int))
        #: Kept spans of the timed phase: [name, start, end, parent, req].
        self.spans = []
        self._saved = []

    # -- installation -------------------------------------------------------

    def install(self):
        for layer, cls, names in TARGETS:
            for name in names:
                original = cls.__dict__[name]
                self._saved.append((cls, name, original))
                setattr(cls, name, self._wrap(layer, "%s.%s"
                                              % (cls.__name__, name),
                                              original))

    def uninstall(self):
        for cls, name, original in reversed(self._saved):
            setattr(cls, name, original)
        self._saved = []

    def _wrap(self, layer, span_name, fn):
        perf = time.perf_counter_ns
        tracer = self
        is_step = span_name == "SimThread.step"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            phase = tracer.phase
            if phase is None:
                return fn(*args, **kwargs)
            stack = tracer.stack
            keep = phase == "timed" and len(tracer.spans) < KEEP_SPANS
            outer_req = tracer.req_id
            if is_step:
                tracer.req_id = tracer.next_req
                tracer.next_req += 1
            frame = [0, len(tracer.spans) if keep else -1]
            parent = stack[-1][1] if stack else -1
            if keep:
                tracer.spans.append(None)
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                tracer.self_ns[phase][layer] += duration - frame[0]
                tracer.calls[phase][layer] += 1
                tracer.calls_by_name[phase][span_name] += 1
                if stack:
                    stack[-1][0] += duration
                if keep:
                    tracer.spans[frame[1]] = (span_name, start, end, parent,
                                              tracer.req_id)
                tracer.req_id = outer_req

        return wrapper

    # -- reporting ----------------------------------------------------------

    def host_self_s(self, phase, layer):
        return self.self_ns[phase][layer] / 1e9

    def call_count(self, phase, layer):
        return self.calls[phase][layer]

    def write(self, path):
        """Dump the kept spans as JSON lines-of-lists."""
        with open(path, "w") as out:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent",
                                  "req_id"],
                       "spans": self.spans}, out)
