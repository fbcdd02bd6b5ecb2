"""File-system error hierarchy (errno-style).

Each class carries its ``errno`` so the submission/completion ring can
report failures as io_uring does (CQE ``res = -errno``) while the sync
wrappers keep raising the exception object itself.
"""

import errno as _errno


class FSError(Exception):
    """Base class for all file-system errors."""

    errno = _errno.EIO


class NotFound(FSError):
    """ENOENT: path or inode does not exist."""

    errno = _errno.ENOENT


class ExistsError(FSError):
    """EEXIST: attempt to create something that already exists."""

    errno = _errno.EEXIST


class NotADirectory(FSError):
    """ENOTDIR: a path component is not a directory."""

    errno = _errno.ENOTDIR


class IsADirectory(FSError):
    """EISDIR: file operation applied to a directory."""

    errno = _errno.EISDIR


class BadFileDescriptor(FSError):
    """EBADF: unknown, closed, or wrongly-opened file descriptor."""

    errno = _errno.EBADF


class NoSpace(FSError):
    """ENOSPC: the device ran out of blocks or inodes."""

    errno = _errno.ENOSPC


class InvalidArgument(FSError):
    """EINVAL: malformed offset, count, or flag combination."""

    errno = _errno.EINVAL


class NameTooLong(FSError):
    """ENAMETOOLONG: a path component is longer than the name limit."""

    errno = _errno.ENAMETOOLONG


class NotEmpty(FSError):
    """ENOTEMPTY: directory removal with remaining entries."""

    errno = _errno.ENOTEMPTY


class ReadOnly(FSError):
    """EROFS / EBADF for writes: descriptor not opened for writing, or
    the mount has degraded to read-only (``errors=remount-ro``)."""

    errno = _errno.EROFS


class TryAgain(FSError):
    """EAGAIN: the admission controller shed this request under overload.

    The serving layer is saturated (DRAM buffer occupancy or NVMM writer
    slots past their high watermark) and the request's tenant is in the
    shed class; the client is expected to back off and retry (see
    :class:`repro.faults.policy.RetryPolicy`) rather than queue behind a
    collapsing backlog.
    """

    errno = _errno.EAGAIN


class MediaError(FSError):
    """EIO: the NVMM media failed a read or a persist.

    Raised when an access touches a cacheline the fault model has marked
    bad (uncorrectable), or when a transiently-failing line exhausted its
    retry budget.  ``addr``/``length`` locate the failed access; ``lines``
    lists the failing cacheline indices when known.
    """

    def __init__(self, message, addr=None, length=None, lines=()):
        super().__init__(message)
        self.addr = addr
        self.length = length
        self.lines = tuple(lines)
