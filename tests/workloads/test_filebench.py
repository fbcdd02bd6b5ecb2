"""Tests for the filebench personalities and the fio generator."""

import pytest

from repro.bench.runner import run_workload
from repro.engine.context import FreeContext
from repro.workloads.base import Workload, payload, zipf_index
from repro.workloads.filebench import Fileserver, Varmail, Webproxy, Webserver
from repro.workloads.fio import FioWorkload


def run_small(workload, fs_name="pmfs", **kw):
    return run_workload(fs_name, workload, device_size=64 << 20, **kw)


def test_payload_deterministic_and_sized():
    assert payload(100, 1) == payload(100, 1)
    assert payload(100, 1) != payload(100, 2)
    assert len(payload(123456)) == 123456
    assert payload(0) == b""


def test_zipf_index_bounds_and_skew():
    import random

    rng = random.Random(1)
    picks = [zipf_index(rng, 100) for _ in range(2000)]
    assert all(0 <= p < 100 for p in picks)
    # Heavily skewed towards low indexes.
    assert sum(1 for p in picks if p < 10) > len(picks) * 0.3


def test_workload_rng_deterministic():
    w = Fileserver(seed=7)
    assert w.rng(1).random() == Fileserver(seed=7).rng(1).random()
    assert w.rng(1).random() != w.rng(2).random()


def test_free_context_charges_nothing():
    from repro.engine.env import SimEnv

    ctx = FreeContext(SimEnv(), "free")
    ctx.charge(10_000)
    ctx.sync_to(99_999)
    assert ctx.now == 0
    assert ctx.free


@pytest.mark.parametrize("cls", [Fileserver, Webserver, Webproxy, Varmail])
def test_personality_runs_and_counts_ops(cls):
    workload = cls(threads=2, files_per_thread=10, duration_ops=20)
    result = run_small(workload, duration_ns=50_000_000)
    assert result.ops > 50
    assert result.throughput > 0


def test_fileserver_mixes_creates_and_deletes():
    workload = Fileserver(threads=1, files_per_thread=10, duration_ops=50)
    result = run_small(workload)
    counts = result.stats.syscall_counts
    assert counts.get("unlink", 0) > 0
    assert counts.get("write", 0) > 0
    assert counts.get("read", 0) > 0


def test_varmail_issues_fsyncs():
    workload = Varmail(threads=1, files_per_thread=10, duration_ops=30)
    result = run_small(workload)
    assert result.stats.syscall_counts.get("fsync", 0) >= 30
    assert result.fsync_byte_fraction > 0.5


def test_webserver_is_read_dominated():
    workload = Webserver(threads=1, files_per_thread=20, duration_ops=30)
    result = run_small(workload)
    counts = result.stats.syscall_counts
    assert counts["read"] > 3 * counts["write"]


def test_webproxy_files_are_short_lived():
    workload = Webproxy(threads=1, files_per_thread=10, duration_ops=60)
    result = run_small(workload, fs_name="hinfs")
    assert result.stats.syscall_counts.get("unlink", 0) >= 50


def test_fileserver_io_size_knob_controls_request_size():
    small = Fileserver(threads=1, files_per_thread=5, duration_ops=10,
                       io_size=512, mean_file_size=4096)
    result = run_small(small)
    writes = result.stats.syscall_counts["write"]
    written = result.stats.count("app_bytes_written")
    assert written / writes <= 4096


def test_fio_respects_ratio_and_size():
    workload = FioWorkload(io_size=4096, file_size=1 << 20,
                           read_fraction=0.5, ops_per_thread=400)
    result = run_small(workload)
    counts = result.stats.syscall_counts
    total = counts["read"] + counts["write"]
    assert total >= 400
    assert 0.35 < counts["read"] / total < 0.65


def test_fio_prepare_preallocates():
    workload = FioWorkload(io_size=64, file_size=1 << 20, ops_per_thread=10)
    result = run_small(workload)
    # Reads at random offsets in the preallocated file return real data,
    # so read syscall time is nonzero.
    assert result.stats.syscall_time_ns.get("read", 0) > 0


def test_base_workload_interface():
    w = Workload()
    with pytest.raises(NotImplementedError):
        w.make_thread_body(None, 0)
