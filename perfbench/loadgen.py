"""The benchmark's own load generators: varmail, fileserver and fleet.

Every generator drives the stack only through its public surface
(``build_stack``, ``VFS`` syscalls, ``IORing``, ``vfs.mmap(MAP_ATOMIC)``
and ``QosController``) and keeps a *shadow copy* of every file it writes,
so reads are verified as they happen and the read-back check
(:mod:`readback`) can compare the media with what was acknowledged.

All inputs come from the workload seed: the op stream, file sizes,
payload bytes and tenant start phases.  Nothing here imports
``repro.workloads``, so editing a figure workload cannot move the
benchmark.

Simulated tenants are coroutines (generator bodies) inside the
simulator's scheduler; the whole load runs on one host thread.
"""

import random
import struct

from repro.bench.runner import build_stack
from repro.core.config import HiNFSConfig
from repro.engine.context import ExecContext
from repro.engine.env import SimEnv
from repro.engine.scheduler import Scheduler
from repro.engine.stats import SimStats
from repro.fs import flags as f
from repro.fs.errors import TryAgain
from repro.fs.qos import PRIO_BRONZE, PRIO_GOLD, PRIO_SILVER, QosController
from repro.io import ring as uring
from repro.nvmm.config import NVMMConfig

#: Latency limit used for goodput: the gold p99.9 SLO of the repo's
#: overload experiment (``tenants_overload.GOLD_P999_SLO_NS``).
SLO_NS = 3_000_000

#: Every payload chunk starts with this stamp: magic + a per-run unique
#: counter, so a chunk's bytes can be found on the media again
#: (negative control) and stale data never matches by accident.
STAMP = struct.Struct("<8sQ")
STAMP_MAGIC = b"PBENCH\x00\x01"
_POOL_BYTES = 256 << 10


class FreeContext(ExecContext):
    """A context whose time charges are discarded (set-up and checks).

    ``free`` also tells the device not to book writer-slot time, so the
    fileset costs the measured run nothing.
    """

    __slots__ = ()
    free = True

    def charge(self, ns, category=None):
        return self.clock.now

    def sync_to(self, target_ns, category=None):
        return self.clock.now


class Content:
    """Seeded payload bytes: a random pool sliced at seeded offsets,
    each chunk stamped with a unique counter."""

    def __init__(self, seed):
        rng = random.Random("perfbench-content:%s" % seed)
        self._pool = rng.randbytes(_POOL_BYTES)
        self._rng = rng
        self._counter = 0

    def chunk(self, length):
        self._counter += 1
        start = self._rng.randrange(_POOL_BYTES // 2)
        head = STAMP.pack(STAMP_MAGIC, self._counter)
        body = self._pool[start : start + length]
        if length > len(body):
            body = (body * (length // max(1, len(body)) + 1))
        return (head + body)[:length]


class Shadow:
    """What the program acknowledged, per path.

    ``current`` is the content every read must return; ``durable`` holds
    the content a crash must preserve (set at fsync, O_SYNC, msync or a
    clean unmount).  A path absent from ``durable`` is not checked after
    a crash.
    """

    def __init__(self):
        self.current = {}
        self.durable = {}

    def write(self, path, offset, data):
        buf = self.current.setdefault(path, bytearray())
        end = offset + len(data)
        if end > len(buf):
            buf.extend(bytes(end - len(buf)))
        buf[offset:end] = data

    def make_durable(self, path):
        self.durable[path] = bytes(self.current[path])

    def make_all_durable(self):
        for path in self.current:
            self.make_durable(path)

    def drop(self, path):
        self.current.pop(path, None)
        self.durable.pop(path, None)

    def matches(self, path, offset, data):
        buf = self.current.get(path, b"")
        return bytes(buf[offset : offset + len(data)]) == data


class Recorder:
    """Per-op outcomes of the measured phase, in a fixed order."""

    def __init__(self, warmup_ns=0):
        self.latencies_ns = []
        #: Completion time and priority class per sample (same order).
        self.ends_ns = []
        self.classes = []
        self.attempted = 0
        self.failed = 0
        self.app_bytes_written = 0
        #: Open loop: submit time minus scheduled arrival, per op.
        self.late_ns = []
        #: Ops due before this simulated time are run but not sampled.
        self.warmup_ns = warmup_ns

    def done(self, latency_ns, end_ns, prio=PRIO_GOLD):
        self.attempted += 1
        if end_ns - latency_ns < self.warmup_ns:
            return  # due during the warm-up: not a sample
        self.latencies_ns.append(latency_ns)
        self.ends_ns.append(end_ns)
        self.classes.append(prio)

    def fail(self):
        self.attempted += 1
        self.failed += 1


class Workload:
    """One benchmark workload: a stack recipe plus thread bodies.

    Subclasses set ``fs_name`` and sizes and implement ``prepare`` (run
    under a :class:`FreeContext`) and ``bodies``.
    """

    name = "abstract"
    fs_name = "hinfs"
    #: Per-device NVMM size and per-device DRAM write buffer (the SMALL
    #: preset of the figure experiments: 8 MiB buffer).
    device_size = 192 << 20
    buffer_bytes = 8 << 20
    #: Simulated measurement window ``[warmup_ns, window_ns]``:
    #: latency samples are the ops due inside it, throughput counts the
    #: ops completed inside it.  Closed-loop flows stop at its end; the
    #: fleet stops *arriving* at its end and drains.
    warmup_ns = 0
    window_ns = 0
    stop_at_window = True
    #: The workload never syncs, so the read-back check unmounts cleanly
    #: before the crash and then every file must match.
    unmount_before_crash = False

    def __init__(self, seed):
        self.seed = seed
        self.content = Content(seed)
        self.shadow = Shadow()
        self.rec = Recorder(self.warmup_ns)

    def rng(self, stream):
        return random.Random("perfbench:%s:%s:%s" % (self.name, self.seed,
                                                      stream))

    def hinfs_config(self):
        return HiNFSConfig(buffer_bytes=self.buffer_bytes)

    def build(self):
        """Fresh stack; returns ``(env, fs, vfs)``."""
        env = SimEnv()
        self.config = NVMMConfig()
        fs, vfs = build_stack(env, self.fs_name, self.config,
                              self.device_size,
                              hinfs_config=self.hinfs_config())
        self.env, self.fs, self.vfs = env, fs, vfs
        return env, fs, vfs

    def setup(self):
        """Build, prepare the fileset, settle it and quiesce: the
        benchmark's set-up phase."""
        env, fs, vfs = self.build()
        pctx = FreeContext(env, "prepare")
        self.prepare(vfs, pctx)
        fs.unmount(pctx)  # settle the fileset, like a fresh mount
        fs.drop_caches()
        self.shadow.make_all_durable()
        self.after_settle(env, fs, vfs, pctx)
        env.quiesce()
        vfs.reset_accounting()
        env.stats = SimStats()

    def after_settle(self, env, fs, vfs, pctx):
        """Hook: attach QoS, map library-mode tenants."""

    def run(self):
        """The measured phase; returns the simulated makespan (ns)."""
        scheduler = Scheduler(self.env)
        for name, body in self.bodies(self.vfs):
            scheduler.spawn(name, body)
        until = self.window_ns if self.stop_at_window else None
        return scheduler.run(until_ns=until)

    def write_file(self, vfs, ctx, path, size):
        data = self.content.chunk(size)
        vfs.write_file(ctx, path, data)
        self.shadow.drop(path)
        self.shadow.write(path, 0, data)

    # -- timed syscalls shared by the filebench-style flows ----------------

    def timed(self, ctx, fn, *args):
        """Run one syscall and record its virtual latency."""
        start = ctx.now
        out = fn(ctx, *args)
        self.rec.done(ctx.now - start, ctx.now)
        return out

    def read_whole(self, vfs, ctx, path, io_size):
        fd = self.timed(ctx, vfs.open, path, f.O_RDONLY)
        offset = 0
        while True:
            data = self.timed(ctx, vfs.read, fd, io_size)
            if not data:
                break
            if not self.shadow.matches(path, offset, data):
                self.rec.failed += 1
            offset += len(data)
        if offset != len(self.shadow.current.get(path, b"")):
            self.rec.failed += 1
        self.timed(ctx, vfs.close, fd)

    def append(self, vfs, ctx, path, size, sync):
        fd = self.timed(ctx, vfs.open, path,
                        f.O_RDWR | f.O_APPEND | f.O_CREAT)
        data = self.content.chunk(size)
        offset = len(self.shadow.current.get(path, b""))
        self.timed(ctx, vfs.write, fd, data)
        self.rec.app_bytes_written += size
        self.shadow.write(path, offset, data)
        if sync:
            self.timed(ctx, vfs.fsync, fd)
            self.shadow.make_durable(path)
        self.timed(ctx, vfs.close, fd)


def gamma_size(rng, mean):
    """Filebench-style file size: gamma(1.5) around ``mean``."""
    size = int(rng.gammavariate(1.5, mean / 1.5))
    return max(1024, min(size, mean * 8))


class _FlowWorkload(Workload):
    """Two client threads, each owning a directory and a fileset."""

    threads = 2
    files_per_thread = 80
    mean_file_size = 64 << 10
    io_size = 64 << 10

    def dir_of(self, tid):
        return "/%s%d" % (self.name[0], tid)

    def prepare(self, vfs, ctx):
        self.files = {}
        for tid in range(self.threads):
            vfs.mkdir(ctx, self.dir_of(tid))
            rng = self.rng("fileset:%d" % tid)
            names = []
            for i in range(self.files_per_thread):
                path = "%s/f%06d" % (self.dir_of(tid), i)
                self.write_file(vfs, ctx, path,
                                gamma_size(rng, self.mean_file_size))
                names.append(path)
            self.files[tid] = names

    def bodies(self, vfs):
        return [("%s-%d" % (self.name, tid), self.make_body(vfs, tid))
                for tid in range(self.threads)]

    def new_name(self, tid, counter):
        return "%s/n%06d" % (self.dir_of(tid), counter)


class Varmail(_FlowWorkload):
    """Filebench varmail: delete, create-append-fsync,
    read-append-fsync, whole-file read.  Every append is fsynced, so
    HiNFS takes its eager path."""

    name = "varmail"
    files_per_thread = 80
    mean_file_size = 16 << 10
    io_size = 16 << 10
    window_ns = 60_000_000

    def make_body(self, vfs, tid):
        files = self.files[tid]
        rng = self.rng("ops:%d" % tid)
        shadow = self.shadow

        def body(ctx):
            counter = 0
            while True:
                if files:
                    victim = files.pop(rng.randrange(len(files)))
                    self.timed(ctx, vfs.unlink, victim)
                    shadow.drop(victim)
                yield
                counter += 1
                name = self.new_name(tid, counter)
                self.append(vfs, ctx, name, self.io_size, sync=True)
                files.append(name)
                yield
                victim = files[rng.randrange(len(files))]
                self.read_whole(vfs, ctx, victim, self.io_size)
                self.append(vfs, ctx, victim, self.io_size, sync=True)
                yield
                victim = files[rng.randrange(len(files))]
                self.read_whole(vfs, ctx, victim, self.io_size)
                yield

        return body


class Fileserver(_FlowWorkload):
    """Filebench fileserver: whole-file create+write, append, whole-file
    read, delete, stat -- no fsync, so HiNFS buffers every write.  The
    fileset (2 x 80 files x 64 KiB mean, ~10 MiB) outgrows the 8 MiB
    DRAM buffer, so writeback and demand reclaim run."""

    name = "fileserver"
    unmount_before_crash = True
    window_ns = 120_000_000

    def make_body(self, vfs, tid):
        files = self.files[tid]
        rng = self.rng("ops:%d" % tid)
        shadow = self.shadow

        def body(ctx):
            counter = 0
            while True:
                counter += 1
                name = self.new_name(tid, counter)
                size = gamma_size(rng, self.mean_file_size)
                fd = self.timed(ctx, vfs.open, name,
                                f.O_CREAT | f.O_RDWR | f.O_TRUNC)
                shadow.drop(name)
                shadow.current[name] = bytearray()
                pos = 0
                while pos < size:
                    data = self.content.chunk(min(self.io_size, size - pos))
                    self.timed(ctx, vfs.pwrite, fd, pos, data)
                    shadow.write(name, pos, data)
                    self.rec.app_bytes_written += len(data)
                    pos += len(data)
                self.timed(ctx, vfs.close, fd)
                files.append(name)
                yield
                victim = files[rng.randrange(len(files))]
                self.append(vfs, ctx, victim, self.io_size, sync=False)
                yield
                victim = files[rng.randrange(len(files))]
                self.read_whole(vfs, ctx, victim, self.io_size)
                yield
                if len(files) > self.files_per_thread:
                    victim = files.pop(rng.randrange(len(files)))
                    self.timed(ctx, vfs.unlink, victim)
                    shadow.drop(victim)
                yield
                victim = files[rng.randrange(len(files))]
                self.timed(ctx, vfs.stat, victim)
                yield

        return body


# -- the multi-tenant fleet ----------------------------------------------------

MODE_CLOSED = "closed"
MODE_OPEN = "open"
MODE_BURST = "burst"

#: The QoS controller's aggregate capacity, split across the registered
#: (ring) tenants by weight; each tenant's token bucket is its share.
FLEET_CAPACITY_BPS = 16 << 30
#: The fixed offered rate of the ring tenants, in ops per simulated
#: second: 0.75 x the drain capacity (about 2.02M ops/s) that
#: ``calibrate.py`` measured; the full record is ``calibration.json``.
FLEET_OFFERED_OPS_PER_S = 1_517_212


class TenantPlan:
    """One tenant's class, arrival process and schedule parameters."""

    __slots__ = ("tid", "priority", "weight", "mode", "mmio", "interval_ns",
                 "phase_ns")

    def __init__(self, tid, priority, weight, mode, mmio, interval_ns,
                 phase_ns):
        self.tid = tid
        self.priority = priority
        self.weight = weight
        self.mode = mode
        self.mmio = mmio
        self.interval_ns = interval_ns
        self.phase_ns = phase_ns


def tenant_class(tid):
    """The bronze/silver/gold blend of the repo's mixed fleet: per ten
    tenants 5 bronze (weight 1), 3 silver (2), 2 gold (4)."""
    slot = tid % 10
    if slot < 5:
        return PRIO_BRONZE, 1
    if slot < 8:
        return PRIO_SILVER, 2
    return PRIO_GOLD, 4


class Fleet(Workload):
    """About 1000 tenants on ``hinfs@4`` behind a ``QosController``.

    Arrival modes cycle closed/open/burst by tenant id.  Open tenants
    arrive as a Poisson process; burst tenants send Poisson-timed clumps
    (same mean rate) that the client submits as one ring batch; both are
    open-loop, so latency runs from the *scheduled* arrival and a late
    client shows as queueing.  Closed tenants think Exp(interval) between
    ops.  One tenant in ten (id % 10 == 4) is a library-mode tenant:
    ``MAP_ATOMIC`` load/store/msync that never enter VFS or QoS.

    Each ring tenant's rate is its weighted share of the fixed offered
    rate; a library-mode tenant adds the rate of a ring tenant of its
    weight.
    Starts are staggered: a tenant's first arrival is at a seeded phase
    in ``[0, interval)``.  Arrivals stop at the end of the window and
    the run drains what is queued.
    """

    name = "fleet"
    fs_name = "hinfs@4"
    device_size = 64 << 20
    buffer_bytes = 8 << 20
    tenants = 1000
    file_size = 16 << 10
    io_size = 4 << 10
    read_fraction = 0.6
    warmup_ns = 3_000_000
    window_ns = 15_000_000
    stop_at_window = False
    mmio_io = 256
    max_batch = 8
    retry_max = 6
    retry_base_ns = 50_000

    def __init__(self, seed, mode_override=None, window_ns=None):
        super().__init__(seed)
        if window_ns is not None:
            self.window_ns = window_ns
        #: Calibration forces every tenant closed-loop with no think
        #: time, to measure the drain capacity.
        self.mode_override = mode_override
        self.plans = self.make_plans()

    def path(self, tid):
        return "/t%04d/data" % tid

    def make_plans(self):
        rng = self.rng("plan")
        # The offered rate is that of the QoS-governed (ring) tenants; a
        # library-mode tenant arrives at the rate of a ring tenant of its
        # weight, on top.
        total_weight = sum(tenant_class(t)[1] for t in range(self.tenants)
                           if t % 10 != 4)
        plans = []
        for tid in range(self.tenants):
            priority, weight = tenant_class(tid)
            interval = max(1, int(1e9 * total_weight
                                  / (FLEET_OFFERED_OPS_PER_S * weight)))
            mode = self.mode_override or (MODE_CLOSED, MODE_OPEN,
                                          MODE_BURST)[tid % 3]
            plans.append(TenantPlan(tid, priority, weight, mode,
                                    tid % 10 == 4, interval,
                                    rng.randrange(interval)))
        return plans

    def prepare(self, vfs, ctx):
        for plan in self.plans:
            vfs.mkdir(ctx, "/t%04d" % plan.tid)
            self.write_file(vfs, ctx, self.path(plan.tid), self.file_size)

    def after_settle(self, env, fs, vfs, pctx):
        self.qos = QosController(env, FLEET_CAPACITY_BPS)
        vfs.attach_qos(self.qos)
        self.maps = {}
        for plan in self.plans:
            if plan.mmio:
                fd = vfs.open(pctx, self.path(plan.tid), f.O_RDWR)
                self.maps[plan.tid] = vfs.mmap(pctx, fd, flags=f.MAP_ATOMIC)
            else:
                self.qos.register(plan.tid, weight=plan.weight,
                                  priority=plan.priority)

    def bodies(self, vfs):
        out = []
        for plan in self.plans:
            if plan.mmio and self.mode_override is not None:
                continue  # calibration measures the QoS-governed plane
            make = self.mmio_body if plan.mmio else self.ring_body
            out.append(("tenant-%d" % plan.tid, make(vfs, plan)))
        return out

    def arrivals(self, plan, rng):
        """Scheduled arrival times (ns) of one tenant's ops inside the
        window, or None for a closed loop (an op is due when the client
        issues it).

        Open tenants arrive as a Poisson process at their rate; burst
        tenants send Poisson-timed clumps of 1 + Exp(2) ops (capped at
        ``max_batch``) with the gap scaled so the mean rate is the same.
        """
        if plan.mode == MODE_CLOSED:
            return None
        times = []
        t = plan.phase_ns
        while t < self.window_ns:
            clump = 1
            if plan.mode == MODE_BURST:
                clump = min(1 + int(rng.expovariate(0.5)), self.max_batch)
            times.extend([t] * clump)
            t += int(rng.expovariate(1.0 / (clump * plan.interval_ns)))
        return times

    def due_batches(self, ctx, plan, rng, schedule):
        """Yield ``[due_ns, ...]`` per client wake-up: every arrival due
        by then (up to ``max_batch``), or one op now for a closed loop."""
        if schedule is None:
            ctx.sync_to(plan.phase_ns)
            while ctx.now < self.window_ns:
                yield [ctx.now]
                if self.mode_override is None:
                    ctx.charge(int(rng.expovariate(1.0 / plan.interval_ns)))
            return
        late = self.rec.late_ns
        i = 0
        while i < len(schedule):
            if ctx.now < schedule[i]:
                ctx.sync_to(schedule[i])
            batch = []
            while (i < len(schedule) and len(batch) < self.max_batch
                   and schedule[i] <= ctx.now):
                late.append(ctx.now - schedule[i])
                batch.append(schedule[i])
                i += 1
            yield batch

    def ring_body(self, vfs, plan):
        rng = self.rng("tenant:%d" % plan.tid)
        path = self.path(plan.tid)
        shadow = self.shadow
        rec = self.rec
        span = self.file_size - self.io_size + 1
        schedule = self.arrivals(plan, rng)

        def make_op(fd):
            offset = rng.randrange(span)
            if rng.random() < self.read_fraction:
                return uring.prep_read(fd, self.io_size, offset,
                                       tenant=plan.tid), None
            data = self.content.chunk(self.io_size)
            return uring.prep_write(fd, data, offset, tenant=plan.tid), data

        def settle(ctx, ring, sqe, data, cqe, due):
            """Account one op; shed (EAGAIN) attempts are retried with
            doubling backoff, and a drop after ``retry_max`` fails it."""
            attempt = 0
            while cqe.error is not None:
                if not isinstance(cqe.error, TryAgain) \
                        or attempt >= self.retry_max:
                    rec.fail()
                    return
                attempt += 1
                ctx.charge(self.retry_base_ns << (attempt - 1))
                cqe = ring.submit_reaping([sqe])[0]
            if data is None:
                if not shadow.matches(path, sqe.offset, cqe.value[0]):
                    rec.failed += 1
            else:
                shadow.write(path, sqe.offset, data)
                shadow.make_durable(path)
                rec.app_bytes_written += len(data)
            rec.done(cqe.done_ns - due, cqe.done_ns, plan.priority)

        def body(ctx):
            fd = None
            ring = None
            for batch in self.due_batches(ctx, plan, rng, schedule):
                if fd is None:
                    fd = vfs.open(ctx, path, f.O_RDWR | f.O_SYNC)
                    ring = vfs.ring(ctx)
                ops = [(due,) + make_op(fd) for due in batch]
                ring.submit([sqe for _, sqe, _ in ops])
                cqes = sorted(ring.wait(len(ops)), key=lambda c: c.seq)
                for (due, sqe, data), cqe in zip(ops, cqes):
                    settle(ctx, ring, sqe, data, cqe, due)
                yield
            if fd is not None:
                vfs.close(ctx, fd)

        return body

    def mmio_body(self, vfs, plan):
        rng = self.rng("tenant:%d" % plan.tid)
        path = self.path(plan.tid)
        shadow = self.shadow
        rec = self.rec
        mapping = self.maps[plan.tid]
        span = self.file_size - self.mmio_io + 1
        schedule = self.arrivals(plan, rng)

        def body(ctx):
            for batch in self.due_batches(ctx, plan, rng, schedule):
                for due in batch:
                    pick = rng.random()
                    if pick < 0.45:
                        offset = rng.randrange(span)
                        data = self.content.chunk(self.mmio_io)
                        mapping.store(ctx, offset, data)
                        shadow.write(path, offset, data)
                        rec.app_bytes_written += len(data)
                    elif pick < 0.85:
                        offset = rng.randrange(span)
                        data = mapping.load(ctx, offset, self.mmio_io)
                        if not shadow.matches(path, offset, data):
                            rec.failed += 1
                    else:
                        mapping.msync(ctx)
                        shadow.make_durable(path)
                    rec.done(ctx.now - due, ctx.now, plan.priority)
                yield

        return body


WORKLOADS = {"varmail": Varmail, "fileserver": Fileserver, "fleet": Fleet}
