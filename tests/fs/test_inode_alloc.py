"""Inode allocation: lowest free number first, double frees refused."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fs.pmfs.layout import KIND_FILE

from .conftest import PmfsRig


def _expected_lowest_free(itable):
    live = {inode.ino for inode in itable.live_inodes()}
    return min(set(range(1, itable.sb.inode_count + 1)) - live)


def _alloc(rig, itable):
    tx = rig.fs.journal.begin(rig.ctx)
    inode = itable.alloc(rig.ctx, tx, KIND_FILE, rig.ctx.now)
    rig.fs.journal.commit(rig.ctx, tx)
    return inode


def _free(rig, itable, inode):
    tx = rig.fs.journal.begin(rig.ctx)
    itable.free(rig.ctx, tx, inode)
    rig.fs.journal.commit(rig.ctx, tx)


@settings(max_examples=25)
@given(ops=st.lists(st.tuples(st.booleans(), st.integers(0, 1 << 16)),
                    max_size=80))
def test_alloc_takes_lowest_free_after_churn_and_reload(ops):
    rig = PmfsRig(size=8 << 20)
    itable = rig.fs.itable
    live = []
    for is_alloc, pick in ops:
        if is_alloc or not live:
            expected = _expected_lowest_free(itable)
            inode = _alloc(rig, itable)
            assert inode.ino == expected
            live.append(inode)
        else:
            _free(rig, itable, live.pop(pick % len(live)))
    # Rebuild every DRAM structure from the NVMM inode table.
    itable.load_from_nvmm()
    for _ in range(3):
        expected = _expected_lowest_free(itable)
        assert _alloc(rig, itable).ino == expected


def test_double_free_raises_without_touching_nvmm():
    rig = PmfsRig(size=8 << 20)
    itable = rig.fs.itable
    inode = _alloc(rig, itable)
    _free(rig, itable, inode)
    journal = rig.fs.journal
    used, written = journal.used_slots, rig.env.stats.bytes_written_nvmm
    tx = journal.begin(rig.ctx)
    with pytest.raises(ValueError, match="double free of inode %d"
                       % inode.ino):
        itable.free(rig.ctx, tx, inode)
    journal.commit(rig.ctx, tx)
    assert journal.used_slots == used + 1  # the commit entry only
    assert rig.env.stats.bytes_written_nvmm == written + 64
    # The number is handed out exactly once more, then the table moves on.
    again = _alloc(rig, itable)
    assert again.ino == inode.ino
    assert _alloc(rig, itable).ino == inode.ino + 1
