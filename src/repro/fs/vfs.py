"""The syscall surface: paths, file descriptors, and overhead accounting.

Workloads talk to a :class:`VFS`, never to a file system directly.  The
VFS charges the user/kernel mode-switch and file-abstraction costs that
the paper's Figure 1 groups under *Others*, resolves paths through a
dentry cache, tracks per-syscall time (Figure 12's breakdown), and
forwards inode-level work to the mounted file system.

Data syscalls build one :class:`repro.io.IORequest` each -- vectored
variants (``readv``/``writev``/``pwritev``/``preadv``) put the whole
iovec list in a single request, so the fs below sees one operation, one
syscall-overhead charge, and (for HiNFS) one eager/lazy decision.

Concurrency: the VFS serializes per inode, not globally.  Data reads
take the file's inode lock shared, writes/fsync/truncate take it
exclusive, and multi-inode namespace operations (``rename``, ``unlink``)
acquire their whole inode set in the canonical lowest-inode-first order
(enforced by :class:`repro.engine.locks.InodeLockTable` -- an inverted
pair raises ``DeadlockError`` instead of hanging).  Threads touching
disjoint files never contend here; shared bottlenecks below (NVMM writer
slots, the journal) remain the only cross-file serialization.
"""

from contextlib import contextmanager

from repro.engine.locks import InodeLockTable, VCompletion
from repro.fs import flags as f
from repro.fs.base import ROOT_INO
from repro.fs.health import MountHealth
from repro.io import OP_READ, OP_SYNC, OP_WRITE, IORequest
from repro.io import ring as uring
from repro.fs.errors import (
    BadFileDescriptor,
    ExistsError,
    InvalidArgument,
    IsADirectory,
    MediaError,
    NameTooLong,
    NotADirectory,
    NotFound,
    ReadOnly,
)


class OpenFile:
    """One entry in the open-file table."""

    __slots__ = ("fd", "ino", "flags", "pos", "path", "wb_cursor")

    def __init__(self, fd, ino, flags, path, wb_cursor=0):
        self.fd = fd
        self.ino = ino
        self.flags = flags
        self.pos = 0
        self.path = path
        #: errseq cursor sampled at open: deferred writeback errors newer
        #: than this are reported by the next fsync/close on this fd.
        self.wb_cursor = wb_cursor


class VFS:
    """Path/descriptor layer over one mounted file system.

    Failure semantics: media errors surface to the caller as EIO
    (:class:`MediaError`), and the mount's posture is governed by a
    :class:`~repro.fs.health.MountHealth` state machine.  Once
    ``media_error_threshold`` errors have been seen -- synchronous or via
    background writeback -- the mount degrades to read-only (mutations
    raise :class:`ReadOnly` while reads of good media keep being served);
    further errors while degraded isolate it entirely; a clean
    :meth:`scrub` pass recovers it back to read-write.  A mount whose
    journal recovery failed starts out degraded.
    """

    def __init__(self, env, fs, config, sync_mount=False,
                 media_error_threshold=5, isolate_threshold=None):
        self.env = env
        self.fs = fs
        self.config = config
        #: ``mount -o sync``: every write becomes eager-persistent
        #: (the paper's Section 3.3.2, case (1)).
        self.sync_mount = sync_mount
        self._files = {}
        self._next_fd = 3
        #: Per-inode reader/writer locks (shared for reads, exclusive
        #: for writes/fsync/truncate and namespace mutations).
        self.ilocks = InodeLockTable(env)
        # (parent_ino, name) -> child ino; the kernel's dentry cache.
        self._dcache = {}
        # Per-inode bytes written since the last fsync, for the paper's
        # Figure 2 "percentage of fsync bytes" accounting.
        self._unsynced_bytes = {}
        #: Mount-health FSM (HEALTHY -> DEGRADED_RO -> ISOLATED with a
        #: scrub-driven recovery edge back to HEALTHY).
        self.health = MountHealth(
            env, media_error_threshold=media_error_threshold,
            isolate_threshold=isolate_threshold,
        )
        self.media_error_threshold = media_error_threshold
        fs.wb_error_hook = self._on_async_media_error
        #: Per-tenant QoS controller (:class:`repro.fs.qos.QosController`)
        #: or None; the data-path handlers consult it once per request.
        self.qos = None
        #: Per-thread submission/completion rings (see :meth:`ring`).
        self._rings = {}
        #: THE dispatch table of the data path: every data syscall --
        #: sync wrapper or batched ring submission -- executes through
        #: exactly these handlers.
        self.op_table = {
            uring.IORING_OP_READV: self._op_readv,
            uring.IORING_OP_WRITEV: self._op_writev,
            uring.IORING_OP_FSYNC: self._op_fsync,
        }
        if fs.degraded_reason:
            self._remount_ro(fs.degraded_reason)

    # -- QoS ---------------------------------------------------------------

    def attach_qos(self, qos):
        """Install a :class:`repro.fs.qos.QosController` on the data path.

        Wires the controller to this mount's health FSM (the OVERLOADED
        observable) and returns it.  Untenanted requests are unaffected;
        detach by attaching ``None``.
        """
        self.qos = qos
        if qos is not None:
            qos.health = self.health
        return qos

    # -- degradation / health --------------------------------------------

    @property
    def read_only(self):
        """Compat view of the health FSM: anything not HEALTHY is RO."""
        return not self.health.writable

    @property
    def media_errors(self):
        return self.health.media_errors

    def _remount_ro(self, reason, now_ns=0):
        """Degrade the mount read-only instead of crashing the scheduler."""
        self.health.force_degraded(now_ns, reason)

    def _check_writable(self, what):
        if not self.health.writable:
            raise ReadOnly(
                "%s on %s mount (%s)"
                % (what, self.health.state, self.health.reason)
            )

    def _check_readable(self, what):
        """An ISOLATED mount refuses even reads (the media is rotting)."""
        if not self.health.readable:
            raise MediaError(
                "%s on isolated mount (%s)" % (what, self.health.reason)
            )

    def _count_media_error(self, now_ns=0):
        self.health.count_media_error(now_ns)

    def _on_async_media_error(self, ino):
        """Background writeback hit bad media; nobody to raise at, so the
        error only feeds the degradation threshold (and the errseq map,
        which the next fsync/close of the file reports from)."""
        self._count_media_error()

    @contextmanager
    def _media_guard(self, ctx=None):
        """Count EIO from a synchronous fs call toward the health FSM."""
        try:
            yield
        except MediaError:
            self._count_media_error(ctx.now if ctx is not None else 0)
            raise

    def scrub(self, ctx):
        """Run one scrub/repair pass and feed the result to the FSM.

        A clean pass (every bad line repaired or isolated) recovers a
        degraded mount back to HEALTHY read-write.  Returns the
        :class:`~repro.fs.scrub.ScrubReport`.
        """
        report = self.fs.scrub(ctx)
        self.health.scrub_result(ctx.now, report)
        self.env.stats.bump("scrub_runs")
        return report

    def _check_wb_error(self, file):
        """Report a deferred writeback error exactly once per fd."""
        hit, file.wb_cursor = self.fs.wb_err.check(file.ino, file.wb_cursor)
        if hit:
            raise MediaError(
                "deferred writeback error on %r (EIO)" % file.path
            )

    # -- internals ------------------------------------------------------

    def _syscall_entry(self, ctx):
        ctx.charge(self.config.syscall_ns + self.config.vfs_op_ns)
        self.env.stats.bump("vfs_syscall_entries")

    def _file(self, fd):
        try:
            return self._files[fd]
        except KeyError:
            raise BadFileDescriptor("fd %d is not open" % fd) from None

    @staticmethod
    def _components(path):
        """The path's components.  A final name longer than
        :data:`repro.fs.flags.NAME_MAX` bytes is ``ENAMETOOLONG`` on
        every stack, checked here once per syscall."""
        parts = [p for p in path.split("/") if p]
        if parts and len(parts[-1].encode("utf-8")) > f.NAME_MAX:
            raise NameTooLong("name longer than %d bytes in %r"
                              % (f.NAME_MAX, path))
        return parts

    @classmethod
    def _split(cls, path):
        """``(directory components, final name)``."""
        parts = cls._components(path)
        if not parts:
            raise InvalidArgument("empty path %r" % path)
        return parts[:-1], parts[-1]

    def _walk(self, ctx, components, chain=None):
        """Resolve directory components from the root; returns an ino.

        ``chain``, when given, receives the ino of every component."""
        ino = ROOT_INO
        for name in components:
            cached = self._dcache.get((ino, name))
            if cached is None:
                ctx.charge(self.config.index_lookup_ns)
                cached = self.fs.lookup(ctx, ino, name)
                if cached is None:
                    raise NotFound("component %r not found" % name)
                self._dcache[(ino, name)] = cached
            ino = cached
            if chain is not None:
                chain.append(ino)
        return ino

    def _resolve_parent(self, ctx, path, chain=None):
        dirs, name = self._split(path)
        return self._walk(ctx, dirs, chain), name

    def _lookup_child(self, ctx, parent, name):
        cached = self._dcache.get((parent, name))
        if cached is not None:
            return cached
        ctx.charge(self.config.index_lookup_ns)
        child = self.fs.lookup(ctx, parent, name)
        if child is not None:
            self._dcache[(parent, name)] = child
        return child

    # -- namespace syscalls ----------------------------------------------

    def open(self, ctx, path, flags=f.O_RDWR):
        """open(2); returns a file descriptor."""
        with ctx.syscall("open"):
            self._syscall_entry(ctx)
            parent, name = self._resolve_parent(ctx, path)
            ino = self._lookup_child(ctx, parent, name)
            if ino is None:
                if not flags & f.O_CREAT:
                    raise NotFound(path)
                self._check_writable("create of %r" % path)
                with self._media_guard(ctx):
                    ino = self.fs.create_file(ctx, parent, name)
                self._dcache[(parent, name)] = ino
            else:
                if self.fs.getattr(ctx, ino).is_dir:
                    raise IsADirectory(path)
                if flags & f.O_TRUNC and f.writable(flags):
                    self._check_writable("truncate of %r" % path)
                    with self.ilocks.write_locked(ctx, ino), \
                            self._media_guard(ctx):
                        self.fs.truncate(ctx, ino, 0)
            fd = self._next_fd
            self._next_fd += 1
            self._files[fd] = OpenFile(
                fd, ino, flags, path, wb_cursor=self.fs.wb_err.sample(ino)
            )
            self.env.stats.ops_completed += 1
            return fd

    def close(self, ctx, fd):
        with ctx.syscall("close"):
            self._syscall_entry(ctx)
            file = self._file(fd)
            del self._files[fd]
            self.env.stats.ops_completed += 1
            # Like Linux filp_close: the fd is gone either way, but a
            # deferred writeback error unreported on this fd surfaces now.
            self._check_wb_error(file)

    def mkdir(self, ctx, path):
        with ctx.syscall("mkdir"):
            self._syscall_entry(ctx)
            self._check_writable("mkdir of %r" % path)
            parent, name = self._resolve_parent(ctx, path)
            if self._lookup_child(ctx, parent, name) is not None:
                raise ExistsError(path)
            with self._media_guard(ctx):
                ino = self.fs.mkdir(ctx, parent, name)
            self._dcache[(parent, name)] = ino
            self.env.stats.ops_completed += 1
            return ino

    def unlink(self, ctx, path):
        with ctx.syscall("unlink"):
            self._syscall_entry(ctx)
            self._check_writable("unlink of %r" % path)
            parent, name = self._resolve_parent(ctx, path)
            ino = self._lookup_child(ctx, parent, name)
            if ino is None:
                raise NotFound(path)
            if self.fs.getattr(ctx, ino).is_dir:
                raise IsADirectory(path)
            # Parent and victim locked together, lowest inode first.
            with self.ilocks.write_locked_many(ctx, (parent, ino)):
                with self._media_guard(ctx):
                    self.fs.unlink(ctx, parent, name, ino)
            self.ilocks.drop(ino)
            self._dcache.pop((parent, name), None)
            self._unsynced_bytes.pop(ino, None)
            self.env.stats.ops_completed += 1

    def rmdir(self, ctx, path):
        with ctx.syscall("rmdir"):
            self._syscall_entry(ctx)
            self._check_writable("rmdir of %r" % path)
            parent, name = self._resolve_parent(ctx, path)
            ino = self._lookup_child(ctx, parent, name)
            if ino is None:
                raise NotFound(path)
            if not self.fs.getattr(ctx, ino).is_dir:
                raise NotADirectory(path)
            with self._media_guard(ctx):
                self.fs.rmdir(ctx, parent, name, ino)
            self._dcache.pop((parent, name), None)
            self.env.stats.ops_completed += 1

    def rename(self, ctx, old_path, new_path):
        """rename(2): atomically move ``old_path`` to ``new_path``.

        An existing regular file at the destination is replaced (the
        POSIX overwrite semantics crash-consistency tooling cares about:
        at no crash point do both names vanish).  Replacing a directory
        is rejected to keep the namespace model simple, and so is moving
        a directory into its own subtree (``EINVAL``, as in Linux).
        """
        with ctx.syscall("rename"):
            self._syscall_entry(ctx)
            self._check_writable("rename of %r" % old_path)
            old_parent, old_name = self._resolve_parent(ctx, old_path)
            ino = self._lookup_child(ctx, old_parent, old_name)
            if ino is None:
                raise NotFound(old_path)
            chain = []
            new_parent, new_name = self._resolve_parent(ctx, new_path,
                                                        chain)
            if ino in chain:
                raise InvalidArgument("cannot move %r into its own subtree "
                                      "%r" % (old_path, new_path))
            if (old_parent, old_name) == (new_parent, new_name):
                self.env.stats.ops_completed += 1
                return
            replaced = self._lookup_child(ctx, new_parent, new_name)
            if replaced is not None:
                moving_dir = self.fs.getattr(ctx, ino).is_dir
                if self.fs.getattr(ctx, replaced).is_dir:
                    raise IsADirectory(new_path)
                if moving_dir:
                    raise NotADirectory(new_path)
            # Both parents, the moved inode, and any replaced victim are
            # locked as one set in the canonical ascending-inode order;
            # concurrent cross renames (a->b, b->a) therefore cannot
            # deadlock -- both threads lock the same sequence.
            lock_set = [old_parent, new_parent, ino]
            if replaced is not None:
                lock_set.append(replaced)
            with self.ilocks.write_locked_many(ctx, lock_set):
                with self._media_guard(ctx):
                    moved = self.fs.rename(
                        ctx, old_parent, old_name, new_parent, new_name, ino,
                        replaced_ino=replaced,
                    )
            if replaced is not None:
                self.ilocks.drop(replaced)
            self._dcache.pop((old_parent, old_name), None)
            # A sharded fs migrating the file to another device returns
            # its new (global) inode number; remap every open descriptor
            # and the accounting keyed by the old one.
            if moved is not None and moved != ino:
                self._dcache[(new_parent, new_name)] = moved
                for file in self._files.values():
                    if file.ino == ino:
                        file.ino = moved
                        file.wb_cursor = self.fs.wb_err.sample(moved)
                if ino in self._unsynced_bytes:
                    self._unsynced_bytes[moved] = \
                        self._unsynced_bytes.pop(ino)
                self.ilocks.drop(ino)
            else:
                self._dcache[(new_parent, new_name)] = ino
            if replaced is not None:
                self._unsynced_bytes.pop(replaced, None)
            self.env.stats.ops_completed += 1

    def readdir(self, ctx, path):
        with ctx.syscall("readdir"):
            self._syscall_entry(ctx)
            parts = self._components(path)
            ino = self._walk(ctx, parts)
            if not self.fs.getattr(ctx, ino).is_dir:
                raise NotADirectory(path)
            self.env.stats.ops_completed += 1
            return self.fs.readdir(ctx, ino)

    def stat(self, ctx, path):
        with ctx.syscall("stat"):
            self._syscall_entry(ctx)
            parts = self._components(path)
            ino = self._walk(ctx, parts) if parts else ROOT_INO
            self.env.stats.ops_completed += 1
            return self.fs.getattr(ctx, ino)

    def exists(self, ctx, path):
        try:
            self.stat(ctx, path)
            return True
        except NotFound:
            return False

    # -- the submission/completion ring and its dispatch table -------------
    #
    # The ring IS the data path: every data syscall below is a batch of
    # one submitted through :meth:`ring`, executed by the handlers in
    # ``op_table`` (one IORequest per SQE, submitted to the fs under the
    # request's trace span).  Workloads batching many SQEs per submit
    # pay the ``T_syscall`` mode switch once per batch instead of once
    # per op; the handlers and their accounting are identical either
    # way.

    def ring(self, ctx, sq_depth=64):
        """This thread's :class:`repro.io.ring.IORing` (lazily created)."""
        ring = self._rings.get(ctx)
        if ring is None:
            ring = uring.IORing(self, ctx, sq_depth=sq_depth)
            self._rings[ctx] = ring
        return ring

    def _submit_sync(self, ctx, sqe):
        """The sync-syscall wrapper: one batch of one SQE, reaped
        immediately; failures re-raise the operation's exception."""
        cqe = self.ring(ctx).submit_reaping([sqe])[0]
        if cqe.error is not None:
            raise cqe.error
        return cqe.value

    def _submit_batch(self, ctx, sqes):
        """Submit ``sqes`` as one batch and reap them all; raises the
        first real failure (link cancellations ride behind it)."""
        cqes = self.ring(ctx).submit_reaping(sqes)
        for cqe in cqes:
            if cqe.error is not None and cqe.res != -uring.ECANCELED:
                raise cqe.error
        return cqes

    def _op_readv(self, ctx, sqe, ring):
        """Dispatch-table handler: scatter read (read/pread/readv/preadv).

        ``sqe.offset is None`` means read(2) semantics: start at the
        descriptor's position and advance it."""
        file = self._file(sqe.fd)
        if not f.readable(file.flags):
            raise ReadOnly("fd %d not open for reading" % sqe.fd)
        self._check_readable("read of %r" % file.path)
        positional = sqe.offset is None
        offset = file.pos if positional else sqe.offset
        sizes = [int(count) for count in sqe.iovecs]
        if offset < 0 or any(count < 0 for count in sizes):
            raise InvalidArgument("negative offset/count")
        req = IORequest(
            self.env.next_req_id(), OP_READ, file.ino, sizes, offset,
            flags=file.flags, syscall=sqe.syscall, tenant=sqe.tenant,
        )
        with ctx.syscall(sqe.syscall, req=req):
            ring.charge_entry(ctx)
            if self.qos is not None:
                self.qos.admit(ctx, req)
            with self.ilocks.read_locked(ctx, file.ino):
                with self._media_guard(ctx), ctx.layer("fs"):
                    data = self.fs.submit(ctx, req)
            self.env.stats.ops_completed += 1
            bufs = req.scatter(data)
        if positional:
            file.pos += len(data)
        return len(data), bufs

    def _op_writev(self, ctx, sqe, ring):
        """Dispatch-table handler: gather write (write/pwrite/writev/
        pwritev).  ``sqe.offset is None`` means write(2) semantics:
        write at the descriptor's position (honouring O_APPEND) and
        advance it."""
        file = self._file(sqe.fd)
        if not f.writable(file.flags):
            raise ReadOnly("fd %d not open for writing" % sqe.fd)
        positional = sqe.offset is None
        if positional:
            if file.flags & f.O_APPEND:
                file.pos = self.fs.getattr(ctx, file.ino).size
            offset = file.pos
        else:
            offset = sqe.offset
        if offset < 0:
            raise InvalidArgument("negative offset")
        self._check_writable("write to %r" % file.path)
        eager = self.sync_mount or bool(file.flags & (f.O_SYNC | f.O_DSYNC))
        datasync = bool(
            eager and not self.sync_mount and not file.flags & f.O_SYNC
        )
        req = IORequest(
            self.env.next_req_id(), OP_WRITE, file.ino, sqe.iovecs, offset,
            flags=file.flags, eager=eager, datasync=datasync,
            syscall=sqe.syscall, tenant=sqe.tenant,
        )
        with ctx.syscall(sqe.syscall, req=req):
            ring.charge_entry(ctx)
            if self.qos is not None:
                self.qos.admit(ctx, req)
            with self.ilocks.write_locked(ctx, file.ino):
                with self._media_guard(ctx), ctx.layer("fs"):
                    written = self.fs.submit(ctx, req)
            self.env.stats.ops_completed += 1
            self.env.stats.bump("app_bytes_written", written)
            if eager:
                self.env.stats.bump("app_bytes_fsynced", written)
            else:
                self._unsynced_bytes[file.ino] = (
                    self._unsynced_bytes.get(file.ino, 0) + written
                )
        if positional:
            file.pos += written
        return written, written

    def _op_fsync(self, ctx, sqe, ring):
        """Dispatch-table handler: fsync/fdatasync.

        Builds an OP_SYNC request for the fs.  With ``IOSQE_ASYNC`` the
        fs may return a pending completion (resolved when the persist
        lands -- an async flush's device end, a jbd2 commit); the ring
        turns it into a CQE at reap time.  Without it (the sync-wrapper
        path) the flush is fully foreground."""
        datasync = bool(sqe.fsync_flags & uring.IORING_FSYNC_DATASYNC)
        token = None
        with ctx.syscall(sqe.syscall):
            ring.charge_entry(ctx)
            file = self._file(sqe.fd)
            req = IORequest(
                self.env.next_req_id(), OP_SYNC, file.ino, [], 0,
                flags=file.flags, eager=not sqe.flags & uring.IOSQE_ASYNC,
                datasync=datasync, syscall=sqe.syscall, tenant=sqe.tenant,
            )
            if self.qos is not None:
                self.qos.admit(ctx, req)
            with self.ilocks.write_locked(ctx, file.ino):
                with self._media_guard(ctx), ctx.layer("fs"):
                    token = self.fs.submit(ctx, req)
            self.env.stats.ops_completed += 1
            self.env.stats.bump(
                "app_bytes_fsynced", self._unsynced_bytes.pop(file.ino, 0)
            )
            # A deferred error from background writeback of this inode is
            # reported by the first fsync after it was recorded -- exactly
            # once per fd (errseq semantics).
            self._check_wb_error(file)
        if isinstance(token, VCompletion):
            return token
        return 0, 0

    # -- data syscalls: thin submit-and-wait wrappers ---------------------

    def read(self, ctx, fd, count):
        """read(2) at the descriptor's position."""
        return self._submit_sync(ctx, uring.prep_read(fd, count))[0]

    def pread(self, ctx, fd, offset, count):
        """pread(2): positioned single-buffer read."""
        return self._submit_sync(ctx, uring.prep_read(fd, count, offset))[0]

    def readv(self, ctx, fd, sizes):
        """readv(2): scatter-read at the descriptor's position."""
        return self._submit_sync(ctx, uring.prep_readv(fd, list(sizes)))

    def preadv(self, ctx, fd, offset, sizes):
        """preadv(2): positioned scatter read."""
        return self._submit_sync(
            ctx, uring.prep_readv(fd, list(sizes), offset, syscall="preadv")
        )

    def write(self, ctx, fd, data):
        """write(2) at the descriptor's position (honours O_APPEND)."""
        return self._submit_sync(ctx, uring.prep_write(fd, data))

    def pwrite(self, ctx, fd, offset, data):
        """pwrite(2): positioned single-buffer write."""
        return self._submit_sync(ctx, uring.prep_write(fd, data, offset))

    def writev(self, ctx, fd, iovecs):
        """writev(2) at the descriptor's position (honours O_APPEND).

        The whole iovec list is ONE request: one syscall-overhead
        charge, one fs submission, one eager/lazy decision below.
        """
        return self._submit_sync(ctx, uring.prep_writev(fd, list(iovecs)))

    def pwritev(self, ctx, fd, offset, iovecs):
        """pwritev(2): positioned gather write."""
        return self._submit_sync(
            ctx, uring.prep_writev(fd, list(iovecs), offset,
                                   syscall="pwritev")
        )

    def fsync(self, ctx, fd):
        """fsync(2): the file's data and metadata are durable on return."""
        self._submit_sync(ctx, uring.prep_fsync(fd))

    def fdatasync(self, ctx, fd):
        """fdatasync(2): the file's data (and the metadata needed to read
        it back) is durable on return; clean-metadata commits are
        skipped."""
        self._submit_sync(ctx, uring.prep_fsync(fd, datasync=True))

    def truncate(self, ctx, path, new_size):
        if new_size < 0:
            raise InvalidArgument("truncate to negative size %d" % new_size)
        with ctx.syscall("truncate"):
            self._syscall_entry(ctx)
            self._check_writable("truncate of %r" % path)
            parts = self._components(path)
            ino = self._walk(ctx, parts)
            with self.ilocks.write_locked(ctx, ino):
                with self._media_guard(ctx), ctx.layer("fs"):
                    self.fs.truncate(ctx, ino, new_size)
            self.env.stats.ops_completed += 1

    def lseek(self, ctx, fd, pos, whence=f.SEEK_SET):
        """lseek(2): reposition the descriptor; returns the new offset.

        Seeking past EOF is allowed (a later write leaves a hole that
        reads back as zeros); a resulting negative offset is EINVAL.
        """
        file = self._file(fd)
        if whence == f.SEEK_SET:
            new_pos = int(pos)
        elif whence == f.SEEK_CUR:
            new_pos = file.pos + int(pos)
        elif whence == f.SEEK_END:
            new_pos = self.fs.getattr(ctx, file.ino).size + int(pos)
        else:
            raise InvalidArgument("unknown whence %r" % (whence,))
        if new_pos < 0:
            raise InvalidArgument("lseek to negative offset %d" % new_pos)
        file.pos = new_pos
        return new_pos

    def fstat(self, ctx, fd):
        """fstat(2): attributes of an open descriptor."""
        with ctx.syscall("fstat"):
            self._syscall_entry(ctx)
            file = self._file(fd)
            self.env.stats.ops_completed += 1
            return self.fs.getattr(ctx, file.ino)

    # -- memory-mapped I/O ----------------------------------------------------

    def mmap(self, ctx, fd, length=None, flags=0, policy="auto",
             log_blocks=4, log_checksums=True):
        """mmap(2): map an open descriptor for direct access.

        This is the *last* syscall of the library-mode path: with
        ``flags & MAP_ATOMIC`` the returned
        :class:`~repro.io.mmio.MmioMapping`'s ``load``/``store``/
        ``msync`` run entirely in the process -- zero syscall charges
        after this call -- with a per-file epoch log (``policy`` picks
        undo/redo/auto, Libnvmmio-style) keeping stores crash-atomic.
        Without it, a plain volatile-until-msync ``MappedRegion``.
        """
        with ctx.syscall("mmap"):
            self._syscall_entry(ctx)
            file = self._file(fd)
            if flags & f.MAP_ATOMIC:
                self._check_writable("atomic mmap of %r" % file.path)
                if not f.writable(file.flags):
                    raise InvalidArgument(
                        "MAP_ATOMIC needs a writable descriptor")
                mmap_atomic = getattr(self.fs, "mmap_atomic", None)
                if mmap_atomic is None:
                    raise InvalidArgument(
                        "%s does not support library-mode mmap"
                        % self.fs.name)
                with self._media_guard(ctx), ctx.layer("fs"):
                    region = mmap_atomic(
                        ctx, file.ino, length=length, policy=policy,
                        log_blocks=log_blocks, log_checksums=log_checksums)
            else:
                fs_mmap = getattr(self.fs, "mmap", None)
                if fs_mmap is None:
                    raise InvalidArgument(
                        "%s does not support mmap" % self.fs.name)
                with self._media_guard(ctx), ctx.layer("fs"):
                    region = fs_mmap(ctx, file.ino)
            self.env.stats.ops_completed += 1
            return region

    def msync(self, ctx, region):
        with ctx.syscall("msync"):
            self._syscall_entry(ctx)
            self.env.stats.ops_completed += 1
            return region.msync(ctx)

    def munmap(self, ctx, region):
        with ctx.syscall("munmap"):
            self._syscall_entry(ctx)
            self.env.stats.ops_completed += 1
            region.munmap(ctx)

    # -- whole-file helpers (workload convenience, still charged) ---------

    def read_file(self, ctx, path, chunk=1 << 20):
        """Open, read fully, close; returns the bytes.

        The whole file is ONE scatter-read request sized from fstat
        (``chunk``-grained iovecs), not a loop of N accounted reads.
        """
        fd = self.open(ctx, path, f.O_RDONLY)
        size = self.fstat(ctx, fd).size
        if size == 0:
            self.close(ctx, fd)
            return b""
        sizes = self._chunk_sizes(size, chunk)
        bufs = self._submit_sync(
            ctx, uring.prep_readv(fd, sizes, 0, syscall="read")
        )
        self.close(ctx, fd)
        return b"".join(bufs)

    def write_file(self, ctx, path, data, chunk=1 << 20, sync=False):
        """Create/overwrite ``path`` with ``data``.

        The payload goes down as ONE gather-write request with
        ``chunk``-sized iovecs, not a loop of N accounted writes.  With
        ``sync=True`` the write and its fsync travel as ONE linked
        two-SQE batch (write -> IOSQE_IO_LINK -> fsync), so the pair
        pays a single syscall entry.
        """
        fd = self.open(ctx, path, f.O_RDWR | f.O_CREAT | f.O_TRUNC)
        data = bytes(data)
        if data:
            iovecs = [data[start : start + chunk]
                      for start in range(0, len(data), chunk)]
            write_sqe = uring.prep_writev(fd, iovecs, 0, syscall="write")
            if sync:
                write_sqe.flags |= uring.IOSQE_IO_LINK
                self._submit_batch(ctx, [write_sqe, uring.prep_fsync(fd)])
            else:
                self._submit_sync(ctx, write_sqe)
        elif sync:
            self.fsync(ctx, fd)
        self.close(ctx, fd)

    @staticmethod
    def _chunk_sizes(size, chunk):
        """Iovec sizes covering ``size`` bytes in ``chunk``-sized pieces."""
        return [min(chunk, size - start) for start in range(0, size, chunk)]

    # -- lifecycle ---------------------------------------------------------

    def reset_accounting(self):
        """Forget fsync-byte bookkeeping (called when stats are reset)."""
        self._unsynced_bytes.clear()

    def unmount(self, ctx):
        """Flush everything volatile; the fs must be consistent afterwards."""
        self._files.clear()
        self.fs.unmount(ctx)
