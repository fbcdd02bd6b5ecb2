"""Targeted fault injection: one injector for every injection site.

Media faults (:mod:`repro.faults.media`) poison device addresses; this
injector instead fails a chosen *operation*, named by a site and a key,
so tests and the explorers can ask precise questions ("what happens
when write #17's data cannot reach NVMM?", "what if power fails after
the 3rd SQE?") without hoping a poisoned line lands on the right victim.

Attach an instance at ``env.faults`` (None by default, so an unfaulted
run pays one ``None`` check per site).  The sites and their keys:

- ``writeback`` -- HiNFS persisting a buffered block; key: the block's
  ``last_req_id`` (the id of the last request that wrote it).  EIO.
- ``ring_op`` -- a submission ring about to execute an SQE; key: the
  ring's execution sequence number.  The SQE completes with ``-EIO``
  (and cancels its linked chain).
- ``ring_crash`` -- right after a ring executed an SQE; key: sequence
  number.  Raises :class:`repro.io.ring.RingCrash`: power fails between
  the ops of a linked chain.
- ``mmio_load``, ``mmio_store``, ``mmio_msync``, ``mmio_append`` -- an
  atomic mapping's load, store, msync or epoch-log append; key: inode.
  EIO.

Each site raises its own exception; the injector only decides whether
an operation is hit.  Ring sequence numbers count per ring, so with
several rings in one env a ring arm fires on the first ring to reach
its number.
"""

#: Every site the stack checks, by name.
SITES = ("writeback", "ring_op", "ring_crash", "mmio_load", "mmio_store",
         "mmio_msync", "mmio_append")


class FaultInjector:
    """Armed ``(site, key)`` pairs, each with its own hit budget."""

    def __init__(self):
        #: (site, key or None) -> hits left (None = unlimited); an arm
        #: whose budget runs out is dropped.
        self._arms = {}
        #: Faults injected so far, over every site.
        self.hits = 0

    def arm(self, site, key=None, hits=1):
        """Fail the next ``hits`` operations at ``site`` with ``key``
        (any key when None; ``hits=None`` never runs out).  Re-arming a
        pair replaces its budget.  Returns self for chaining."""
        if site not in SITES:
            raise ValueError("unknown fault site %r" % (site,))
        if hits is not None and hits < 1:
            raise ValueError("hits must be positive or None, got %r"
                             % (hits,))
        self._arms[(site, key)] = hits
        return self

    def disarm(self, site, key=None):
        self._arms.pop((site, key), None)

    def hit(self, site, key):
        """Whether the operation ``(site, key)`` fails now; a hit spends
        one unit of the matching arm's budget (the exact-key arm before
        the any-key arm).  A None key -- an untagged block -- never
        hits."""
        if key is None:
            return False
        arms = self._arms
        for arm in ((site, key), (site, None)):
            if arm in arms:
                left = arms[arm]
                if left == 1:
                    del arms[arm]
                elif left is not None:
                    arms[arm] = left - 1
                self.hits += 1
                return True
        return False
