"""open(2)-style flags and limits used by the VFS syscall surface."""

#: Longest file name, in UTF-8 bytes, on every stack: PMFS's on-media
#: dirent name field (``repro.fs.pmfs.layout.DIRENT_NAME_MAX``).  The
#: VFS rejects a longer final path component with ``ENAMETOOLONG``.
NAME_MAX = 48

O_RDONLY = 0x0
O_WRONLY = 0x1
O_RDWR = 0x2
O_CREAT = 0x40
O_TRUNC = 0x200
O_APPEND = 0x400
#: Synchronous writes: every write is an eager-persistent write
#: (the paper's case (1) in Section 3.3.2).
O_SYNC = 0x1000
#: Synchronous *data* writes: like O_SYNC for the file's bytes, but
#: metadata not needed to retrieve them (mtime, and on the journaling
#: stacks the jbd2 commit for pure overwrites) may persist lazily.
O_DSYNC = 0x2000

# mmap(2)-style mapping flags (``vfs.mmap``).
#: Plain shared mapping: loads/stores hit NVMM directly with no
#: atomicity guarantees beyond the hardware's 8-byte stores.
MAP_SHARED = 0x01
#: Library-mode atomic mapping: stores are staged through a per-file
#: epoch log (undo or redo, Libnvmmio-style) so a crash between two
#: ``msync`` calls recovers to an epoch boundary, never a blend.
MAP_ATOMIC = 0x02

# lseek(2) whence values.
SEEK_SET = 0
SEEK_CUR = 1
SEEK_END = 2

_ACCESS_MASK = 0x3


def readable(flags):
    return (flags & _ACCESS_MASK) in (O_RDONLY, O_RDWR)


def writable(flags):
    return (flags & _ACCESS_MASK) in (O_WRONLY, O_RDWR)
