"""Untimed read-back check: crash (or cleanly unmount), remount, compare.

After the measured phase every device is crashed with the public
``NVMMDevice.crash()`` -- volatile cache lines are lost -- and the stack
is remounted from the media.  Each file whose last acknowledged write
was made durable (fsync, O_SYNC, msync, or the clean set-up unmount) must
read back exactly as the generator's shadow copy.  Workloads that never
sync (fileserver) unmount cleanly first, so every file must match.

The negative control corrupts one byte of a durable file through the
public device API (``write_persistent``) before the remount; the check
must then report a mismatch.
"""

from repro.core.hinfs import HiNFS
from repro.engine.stats import SimStats
from repro.fs.errors import FSError
from repro.fs.shard import ShardedFS, mount_sharded
from repro.fs.vfs import VFS

from loadgen import STAMP, STAMP_MAGIC, FreeContext

_SCAN_CHUNK = 1 << 20


def devices_of(fs):
    if isinstance(fs, ShardedFS):
        return [shard.device for shard in fs.shards]
    return [fs.device]


def remount(workload, devices):
    env, config = workload.env, workload.config
    if isinstance(workload.fs, ShardedFS):
        base = workload.fs_name.partition("@")[0]
        fs = mount_sharded(env, devices, base, config,
                           hinfs_config=workload.hinfs_config())
    else:
        fs = HiNFS.mount(env, devices[0], config,
                         hconfig=workload.hinfs_config())
    return VFS(env, fs, config)


def corrupt_one_byte(devices, content):
    """Flip the first stamp byte of every media copy of ``content``'s
    first stamped chunk; returns how many copies were changed."""
    head = content[:STAMP.size]
    changed = 0
    for device in devices:
        ctx = FreeContext(device.env, "corrupt")
        addr = 0
        while addr < device.size:
            length = min(_SCAN_CHUNK + len(head), device.size - addr)
            window = device.read_media(addr, length)
            # Only hits starting inside this chunk: the overlap tail is
            # scanned again (and must not be flipped back) next round.
            limit = _SCAN_CHUNK - 1 + len(head)
            hit = window.find(head, 0, limit)
            while hit != -1:
                target = addr + hit
                flipped = bytes([window[hit] ^ 0xFF])
                device.write_persistent(ctx, target, flipped)
                changed += 1
                hit = window.find(head, hit + 1, limit)
            addr += _SCAN_CHUNK
    return changed


def check(workload, corrupt=False):
    """Crash, remount and compare; returns the number of mismatches.

    With ``corrupt`` one durable file is damaged on the media first
    (the negative control): a correct check returns at least 1.
    """
    vfs = workload.vfs
    shadow = workload.shadow
    # The check's own work must not show in the measured phase's stats.
    workload.env.stats = SimStats()
    ctx = FreeContext(workload.env, "readback")
    if workload.unmount_before_crash:
        vfs.unmount(ctx)
        shadow.make_all_durable()
    devices = devices_of(workload.fs)
    for device in devices:
        device.crash()
    if corrupt:
        victim = next(p for p in sorted(shadow.durable)
                      if shadow.durable[p].startswith(STAMP_MAGIC))
        if not corrupt_one_byte(devices, shadow.durable[victim]):
            raise RuntimeError("negative control found no media copy")
    vfs2 = remount(workload, devices)
    ctx2 = FreeContext(workload.env, "readback2")
    mismatches = 0
    for path in sorted(shadow.durable):
        try:
            data = vfs2.read_file(ctx2, path)
        except FSError:
            mismatches += 1
            continue
        if data != shadow.durable[path]:
            mismatches += 1
    return mismatches
