"""The repository benchmark: one command per workload, every metric named.

Usage (from the repository root)::

    python3 perfbench/run.py --workload varmail --seed 1 --seconds 20 --trace 0

A run repeats *rounds* until ``--seconds`` of host time have passed.
A round is: set up a fresh stack (build, prepare the fileset, settle,
quiesce -- timed as ``setup_s``), run the measured phase (timed for
``host_ops_per_s``), then the untimed read-back check (crash or clean
unmount, remount, compare with the shadow copy).  Round ``i`` is seeded
with sub-seed ``i % SUB_SEEDS`` of ``--seed``; the simulated metrics
pool the first ``SUB_SEEDS`` rounds, and every later round must
reproduce the simulated metrics of its sub-seed exactly.  The host
metrics are medians over all rounds.

``--trace 1`` is the separate traced run: one untraced round, then one
round with host-time span wrappers on every layer and the program's own
simulated-time trace spine on.  It checks that the two rounds' simulated
metrics are identical and prints the per-layer metrics.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is
non-zero when any check fails (read-back mismatch, failed op, rounds
that disagree, traced run that disagrees with the untraced one).
"""

import argparse
import bisect
import gc
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(SRC, "repro")):
    # Benchmark the checkout's own program, never an installed copy.
    sys.exit("perfbench: no program source at %s" % SRC)
sys.path.insert(0, SRC)

from repro.engine.stats import percentiles  # noqa: E402
from repro.fs.qos import PRIO_GOLD  # noqa: E402
from repro.nvmm.device import NVMM_WRITE_RESOURCE  # noqa: E402

import loadgen  # noqa: E402
import readback  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402

#: A run pools the simulated samples of this many rounds, each seeded
#: with its own sub-seed of ``--seed`` (five times the samples, so the
#: tail percentiles are steadier).  Later rounds repeat the sub-seeds
#: for host timing and must reproduce their simulated metrics exactly.
SUB_SEEDS = 5
OUT_DIR = ".perfbench_out"

#: (name, unit) of every end-to-end metric, printed with ``--trace 0``.
END_TO_END = (
    ("sim_ops_per_s", "1/s"),
    ("sim_lat_p50_us", "us"),
    ("sim_lat_p99_us", "us"),
    ("sim_lat_p999_us", "us"),
    ("gold_lat_p99_us", "us"),
    ("sim_goodput_per_s", "1/s"),
    ("nvmm_write_amp", "ratio"),
    ("host_ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Layers whose simulated busy time the program's trace spine records.
SIM_LAYERS = ("vfs", "fs", "writeback", "nvmm", "lock", "ring", "qos",
              "mmio")


def per_layer_units():
    """(name, unit) of every per-layer metric, printed with ``--trace 1``."""
    out = []
    for layer in LAYERS:
        out.append(("%s.host_self_s" % layer, "s"))
        out.append(("%s.calls" % layer, "count"))
    for layer in SIM_LAYERS:
        out.append(("%s.sim_busy_ns" % layer, "ns"))
    out += [
        ("ring.sqes_per_batch", "ratio"),
        ("qos.admit_calls", "count"),
        ("qos.shed_ratio", "ratio"),
        ("qos.throttle_sim_ns", "ns"),
        ("shard.req_imbalance", "ratio"),
        ("shard.setup_host_self_s", "s"),
        ("buffer.hit_ratio", "ratio"),
        ("buffer.evictions", "count"),
        ("benefit.eager_frac", "ratio"),
        ("writeback.blocks", "count"),
        ("writeback.demand_stalls", "count"),
        ("journal.commits", "count"),
        ("journal.wraps", "count"),
        ("nvmm.flushed_lines", "count"),
        ("nvmm.slot_grants", "count"),
        ("engine.reserve_calls", "count"),
        ("lock.contentions", "count"),
        ("lock.wait_sim_ns", "ns"),
        ("mmio.appends_per_store", "ratio"),
        ("client.late_p99_us", "us"),
        ("client.samples", "count"),
        ("trace.overhead_s", "s"),
    ]
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def mid_quantiles(samples, ps):
    """``{p: value}``: Parzen's mid-distribution quantiles of ``samples``.

    Simulated latencies take few distinct values (every op of one kind
    costs the same when nothing contends), so a nearest-rank percentile
    sits on the same plateau for almost any input and says nothing about
    how much of the distribution the plateau holds.  The mid-quantile
    interpolates linearly between consecutive distinct values at their
    mid-distribution points ``F(v) - P(X = v) / 2``; on continuous data
    it is the usual interpolated percentile.
    """
    counts = Counter(samples)
    values = sorted(counts)
    n = len(samples)
    mids = []
    below = 0
    for v in values:
        mids.append((below + counts[v] / 2) / n)
        below += counts[v]
    out = {}
    for p in ps:
        q = p / 100
        i = bisect.bisect_right(mids, q) - 1
        if i < 0:
            out[p] = float(values[0])
        elif i >= len(values) - 1:
            out[p] = float(values[-1])
        else:
            frac = (q - mids[i]) / (mids[i + 1] - mids[i])
            out[p] = values[i] + frac * (values[i + 1] - values[i])
    return out


def sim_metrics(rounds):
    """Simulated end-to-end metrics pooled over ``rounds`` (deterministic).

    Latency percentiles cover every sampled op; throughput counts the
    ops completed inside each round's measurement window.
    """
    lat = [x for r in rounds for x in r.latencies_ns]
    if not lat:
        raise RuntimeError("measured phase completed no operation")
    ps = mid_quantiles(lat, (50, 99, 99.9))
    gold = [x for r in rounds for x, c in zip(r.latencies_ns, r.classes)
            if c == PRIO_GOLD]
    in_window = [x for r in rounds
                 for x, end in zip(r.latencies_ns, r.ends_ns)
                 if end <= r.window_ns]
    per_s = 1e9 / sum(r.window_ns - r.warmup_ns for r in rounds)
    return {
        "sim_ops_per_s": len(in_window) * per_s,
        "sim_lat_p50_us": ps[50] / 1e3,
        "sim_lat_p99_us": ps[99] / 1e3,
        "sim_lat_p999_us": ps[99.9] / 1e3,
        "gold_lat_p99_us": mid_quantiles(gold, (99,))[99] / 1e3,
        "sim_goodput_per_s": sum(1 for x in in_window if x <= loadgen.SLO_NS)
        * per_s,
        "nvmm_write_amp": _ratio(sum(r.nvmm_bytes for r in rounds),
                                 sum(r.app_bytes for r in rounds)),
    }


class Round:
    """Outcome of one set-up + measured phase + read-back check.

    ``sub`` picks the round's sub-seed: the workload is seeded with
    ``"<seed>-<sub>"``.
    """

    def __init__(self, name, seed, sub=0, tracer=None, corrupt=False):
        wl = loadgen.WORKLOADS[name]("%d-%d" % (seed, sub))
        self.sub = sub
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.phase = "setup"
        wl.setup()
        if tracer is not None:
            wl.env.enable_tracing(capacity=1024)
        # The cyclic collector is off while timing: its passes fire at
        # allocation-count thresholds, so which round pays for them is
        # noise, not a property of the program.
        gc.collect()
        gc.disable()
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.phase = "timed"
        try:
            wl.run()
        finally:
            t2 = time.perf_counter()
            gc.enable()
        if tracer is not None:
            tracer.phase = None
        self.setup_s = t1 - t0
        self.timed_s = t2 - t1
        rec = wl.rec
        self.latencies_ns = rec.latencies_ns
        self.ends_ns = rec.ends_ns
        self.classes = rec.classes
        self.window_ns = wl.window_ns
        self.warmup_ns = wl.warmup_ns
        self.nvmm_bytes = wl.env.stats.bytes_written_nvmm
        self.app_bytes = rec.app_bytes_written
        self.sim = sim_metrics([self])
        self.attempted = rec.attempted
        self.failed = rec.failed
        self.late_ns = rec.late_ns
        self.stats = wl.env.stats
        self.slot_grants = sum(
            r.total_grants for n, r in wl.env.resources().items()
            if n.startswith(NVMM_WRITE_RESOURCE))
        self.mismatches = readback.check(wl, corrupt=corrupt)


def layer_metrics(traced, untraced, tracer):
    """Per-layer metrics of the traced round."""
    st = traced.stats
    c = st.count
    out = {}
    for layer in LAYERS:
        out["%s.host_self_s" % layer] = tracer.host_self_s("timed", layer)
        out["%s.calls" % layer] = tracer.call_count("timed", layer)
    for layer in SIM_LAYERS:
        out["%s.sim_busy_ns" % layer] = st.layer_time_ns.get(layer, 0)
    shard_reqs = [v for k, v in st.counters.items()
                  if k.startswith("sharded_reqs@")]
    out.update({
        "ring.sqes_per_batch": _ratio(c("ring_sqes"), c("ring_batches")),
        "qos.admit_calls": tracer.call_count("timed", "qos"),
        "qos.shed_ratio": _ratio(c("qos_shed_ops"),
                                 tracer.call_count("timed", "qos")),
        "qos.throttle_sim_ns": c("qos_throttle_ns"),
        "shard.req_imbalance": (_ratio(max(shard_reqs), statistics.mean(
            shard_reqs)) if shard_reqs else 0.0),
        "shard.setup_host_self_s": tracer.host_self_s("setup", "shard"),
        "buffer.hit_ratio": _ratio(c("hinfs_buffer_hits"),
                                   c("hinfs_buffer_hits")
                                   + c("hinfs_buffer_misses")),
        "buffer.evictions": c("buffer_evictions"),
        "benefit.eager_frac": _ratio(c("hinfs_eager_writes"),
                                     c("hinfs_eager_writes")
                                     + c("hinfs_lazy_writes")),
        "writeback.blocks": sum(v for k, v in st.counters.items()
                                if k.startswith("writeback_")
                                and k.endswith("_blocks")
                                and not k.startswith("writeback_worker")
                                and k != "writeback_stolen_blocks"),
        "writeback.demand_stalls": c("writeback_demand_stalls"),
        "journal.commits": tracer.calls_by_name["timed"]["Journal.commit"],
        "journal.wraps": c("journal_wraps"),
        "nvmm.flushed_lines": st.bytes_written_nvmm // 64,
        "nvmm.slot_grants": traced.slot_grants,
        "engine.reserve_calls": tracer.calls_by_name["timed"]["FCFSServers.reserve"],
        "lock.contentions": c("lock_contentions"),
        "lock.wait_sim_ns": c("lock_wait_ns"),
        "mmio.appends_per_store": _ratio(c("mmio_log_appends"),
                                         c("mmio_stores")),
        "client.late_p99_us": (percentiles(traced.late_ns, (99,))[99] / 1e3
                               if traced.late_ns else 0.0),
        "client.samples": len(traced.latencies_ns),
        "trace.overhead_s": traced.timed_s - untraced.timed_s,
    })
    return out


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_rounds(name, seed, seconds, corrupt):
    """Rounds until ``seconds`` have passed, at least one per sub-seed;
    round ``i`` uses sub-seed ``i % SUB_SEEDS``."""
    rounds = []
    start = time.perf_counter()
    while len(rounds) < SUB_SEEDS or time.perf_counter() - start < seconds:
        rounds.append(Round(name, seed, sub=len(rounds) % SUB_SEEDS,
                            corrupt=corrupt))
        gc.collect()
    return rounds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(loadgen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", type=int, choices=(0, 1), default=0,
                        help="negative control: corrupt one durable byte "
                             "before the read-back (the run must fail)")
    args = parser.parse_args(argv)

    problems = []
    if args.trace:
        rounds = [Round(args.workload, args.seed, corrupt=args.corrupt)]
        gc.collect()
        tracer = Tracer()
        tracer.install()
        try:
            rounds.append(Round(args.workload, args.seed, tracer=tracer,
                                corrupt=args.corrupt))
        finally:
            tracer.uninstall()
        metrics = layer_metrics(rounds[1], rounds[0], tracer)
        samples = len(rounds[1].latencies_ns)
        units = dict(per_layer_units())
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, "spans-%s-%d.json"
                                  % (args.workload, args.seed)))
        if rounds[1].sim != rounds[0].sim:
            problems.append("traced simulated metrics differ from untraced: "
                            "%r vs %r" % (rounds[1].sim, rounds[0].sim))
    else:
        rounds = run_rounds(args.workload, args.seed, args.seconds,
                            args.corrupt)
        metrics = sim_metrics(rounds[:SUB_SEEDS])
        samples = sum(len(r.latencies_ns) for r in rounds[:SUB_SEEDS])
        metrics["host_ops_per_s"] = statistics.median(
            r.attempted / r.timed_s for r in rounds)
        metrics["setup_s"] = statistics.median(r.setup_s for r in rounds)
        metrics["peak_rss_mb"] = peak_rss_mb()
        units = dict(END_TO_END)
        for r in rounds[SUB_SEEDS:]:
            if r.sim != rounds[r.sub].sim:
                problems.append("rounds of one sub-seed disagree: %r vs %r"
                                % (r.sim, rounds[r.sub].sim))

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    mismatches = sum(r.mismatches for r in rounds)
    failed += mismatches
    if mismatches:
        problems.append("read-back check: %d file(s) differ from the "
                        "shadow copy" % mismatches)
    if failed:
        problems.append("%d op(s) failed" % failed)

    for name, value in sorted(metrics.items()):
        print("%-28s %16.6g %s" % (name, value, units[name]))
    print("rounds %d, samples %d, error_frac %.3g"
          % (len(rounds), samples, failed / max(1, attempted)))
    for problem in problems:
        print("CHECK FAILED: %s" % problem)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(metrics)},
    }
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
