"""Deterministic fault injection for the simulated NVMM storage stack.

Cooperating pieces:

- :mod:`repro.faults.media` -- a seeded registry of bad / transiently
  failing NVMM cachelines, attached to :class:`repro.nvmm.device.NVMMDevice`;
  poisoned lines fail reads and persists with EIO
  (:class:`repro.fs.errors.MediaError`).
- :mod:`repro.faults.policy` -- the unified :class:`RetryPolicy` every
  retry loop in the stack shares: seeded exponential backoff with jitter,
  a bounded attempt budget, and a circuit breaker that fails fast while a
  component is saturated with errors.
- :mod:`repro.faults.errseq` -- Linux ``errseq_t``-style tracking so an
  asynchronous writeback failure is reported by the *next* fsync/close of
  the file, exactly once per file descriptor.
- :mod:`repro.faults.crashpoints` -- a CrashMonkey-style crash-state
  explorer: it records every persist event and flush/fence boundary of an
  operation sequence, replays them into the device's own crash model
  (:class:`repro.mem.cpucache.CachedPersistentRegion`) to reconstruct
  the NVMM image a power failure would leave at each point (plus sampled
  uncontrolled-eviction subsets and torn lines where only some 8-byte
  words of a dirty cacheline persist), then replays recovery and checks
  file-system invariants.
- :mod:`repro.faults.inject` -- one targeted :class:`FaultInjector`,
  attached at ``env.faults``: fail the writeback of blocks last written
  by a given :class:`repro.io.IORequest` id, the Nth SQE a submission
  ring executes (or crash right after it, between the ops of a linked
  chain), or a mapping's load/store/msync/log append.
- :mod:`repro.faults.chaos` -- seeded chaos campaigns that combine all of
  the above against a live stack and prove recovery: scrub repairs or
  isolates every fault, the mount-health FSM returns to HEALTHY, and a
  differential oracle shows zero silent divergence.
"""

from repro.faults.chaos import ChaosCampaign, run_all, run_campaign
from repro.faults.errseq import ErrseqMap
from repro.faults.inject import FaultInjector
from repro.faults.media import MediaFaultModel
from repro.faults.policy import RetryPolicy
from repro.io.ring import RingCrash

__all__ = ["ChaosCampaign", "ErrseqMap", "FaultInjector",
           "MediaFaultModel", "RetryPolicy", "RingCrash", "run_all",
           "run_campaign"]
