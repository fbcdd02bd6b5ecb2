"""The one targeted fault injector: budgets, keys and validation.

Arm/disarm and the never-hitting None key are covered with the
writeback site in ``test_reqfault.py``; each site's behaviour is tested
with its layer (``test_reqfault``, ``test_ringfault``, ``tests/io/
test_mmio.py``)."""

import pytest

from repro.faults import FaultInjector
from repro.faults.inject import SITES


def test_each_arm_has_its_own_budget():
    faults = FaultInjector().arm("ring_op", 1).arm("ring_op", 2, hits=2)
    assert [faults.hit("ring_op", 1) for _ in range(2)] == [True, False]
    assert [faults.hit("ring_op", 2) for _ in range(3)] == \
        [True, True, False]
    faults.arm("ring_op", 1, hits=None)
    assert all(faults.hit("ring_op", 1) for _ in range(10))


def test_any_key_arm_backs_up_the_exact_arm():
    faults = FaultInjector().arm("mmio_store", 5).arm("mmio_store")
    assert faults.hit("mmio_store", 5)  # the exact arm spends first
    assert faults.hit("mmio_store", 5)  # then the any-key arm
    assert not faults.hit("mmio_store", 9)
    faults.arm("mmio_store", hits=None)
    assert faults.hit("mmio_store", 9) and faults.hit("mmio_store", 10)


def test_hits_count_every_site():
    faults = FaultInjector().arm("writeback", 1).arm("ring_crash", 3)
    faults.hit("writeback", 1)
    faults.hit("writeback", 1)
    faults.hit("ring_crash", 3)
    faults.hit("ring_crash", 4)
    assert faults.hits == 2


def test_arm_validates_site_and_budget():
    with pytest.raises(ValueError):
        FaultInjector().arm("nowhere", 1)
    with pytest.raises(ValueError):
        FaultInjector().arm("writeback", 1, hits=0)
    assert set(SITES) == {"writeback", "ring_op", "ring_crash",
                          "mmio_load", "mmio_store", "mmio_msync",
                          "mmio_append"}
