#!/usr/bin/env python3
"""CI gate for BENCH_*.json snapshots.

Checks that each report is structurally sound (schema_version, status)
and that the counters the paper predicts to be nonzero under a shootdown
workload actually are. A zero "apic.ipis_sent" in fig5, for example,
means the simulated protocol silently stopped sending shootdown IPIs —
exactly the kind of regression latency numbers alone don't catch.

Usage: check_bench_json.py <BENCH_*.json> [more...]
Only standard-library Python.
"""

import json
import sys

# Counters that must be strictly positive per bench (dotted registry names
# under "metrics" -> "counters"). Benches not listed get structure checks only.
REQUIRED_NONZERO = {
    "fig5_safe_1pte": [
        "apic.ipis_sent",
        "shootdown.shootdowns",
        "shootdown.flush_requests",
        "shootdown.early_acks",
        "coherence.transfers",
        "engine.events_processed",
    ],
    "fig6_safe_10pte": ["apic.ipis_sent", "shootdown.shootdowns"],
    "fig7_unsafe_1pte": ["apic.ipis_sent", "shootdown.shootdowns"],
    "fig8_unsafe_10pte": ["apic.ipis_sent", "shootdown.shootdowns"],
    "fig9_cow": [
        "kernel.cow_faults",
        "shootdown.cow_flush_avoided",
        "engine.events_processed",
    ],
    "table3_summary": [
        "apic.ipis_sent",
        "shootdown.shootdowns",
        "engine.events_processed",
    ],
    "fig1_3_protocol_timeline": ["apic.ipis_sent", "shootdown.shootdowns"],
    "fig4_cacheline_consolidation": ["coherence.transfers", "shootdown.shootdowns"],
    # The numa bench's metrics come from its NUMA (non-replicated) mode: the
    # cross-socket walker must actually pay remote walks and remote DRAM
    # fills, or the node model silently degraded to flat. The replication
    # ablation rides the generic "ablations" gate below.
    "numa_walk": [
        "numa.remote_walks",
        "numa.remote_walk_cycles",
        "numa.remote_dram_accesses",
        "shootdown.shootdowns",
        "engine.events_processed",
    ],
    # The churn bench's snapshots come from an elision-on run: the reuse
    # machinery must actually have elided shootdowns and closed records
    # benignly, and real shootdown traffic (scratch munmaps, msync cleaning)
    # must still flow around the elisions.
    "churn": [
        "kernel.reuse_elided_flushes",
        "kernel.reuse_elided_pages",
        "kernel.reuse_benign_closes",
        "shootdown.shootdowns",
        "engine.events_processed",
    ],
}

# kernel.reuse_* counters are registered only when reuse_elision is on; every
# bench except churn runs with it off, so their presence anywhere else means
# the flag leaked into a paper configuration (breaking byte-identity).
REUSE_COUNTER_PREFIX = "kernel.reuse_"

# Counters that must be strictly positive in the queue backend's snapshot
# ("metrics_queue" -> "counters"), present whenever a bench ran with
# --backend queue or both. The async protocol's vital signs: rings were
# actually occupied, initiators actually spun, and (where drains outlast the
# initial spin budget) the retry loop actually resent IPIs. The ablations
# bench additionally proves the overflow -> flush_all safety valve fires
# (its snapshot comes from the deliberately undersized-ring row).
QUEUE_REQUIRED_NONZERO = {
    "fig5_safe_1pte": [
        "queue.flush_requests",
        "queue.shootdowns",
        "queue.enqueued",
        "queue.max_ring_occupancy",
        "queue.drains",
        "queue.drained_entries",
        "queue.acks",
        "queue.spin_polls",
        "queue.spin_cycles",
        "queue.ipi_resends",
        "engine.events_processed",
    ],
    "fig6_safe_10pte": [
        "queue.shootdowns",
        "queue.max_ring_occupancy",
        "queue.spin_cycles",
        "queue.ipi_resends",
    ],
    "fig7_unsafe_1pte": [
        "queue.shootdowns",
        "queue.max_ring_occupancy",
        "queue.spin_cycles",
    ],
    "fig8_unsafe_10pte": [
        "queue.shootdowns",
        "queue.max_ring_occupancy",
        "queue.spin_cycles",
    ],
    "fig9_cow": ["kernel.cow_faults", "queue.cow_flush_avoided"],
    "fig10_sysbench": ["queue.shootdowns", "queue.drains", "queue.acks"],
    "fig11_apache": ["queue.shootdowns", "queue.drains", "queue.acks"],
    "ablations": [
        "queue.shootdowns",
        "queue.max_ring_occupancy",
        "queue.ring_overflows",
        "queue.flush_all_fallbacks",
        "queue.ipi_resends",
        "queue.spin_cycles",
    ],
    "churn": [
        "kernel.reuse_elided_flushes",
        "kernel.reuse_elided_pages",
        "kernel.reuse_benign_closes",
        "queue.shootdowns",
    ],
}


def fail(path, msg):
    print(f"FAIL {path}: {msg}")
    return 1


def check_histograms(path, node, where=""):
    """Recursively reject histograms that dropped samples. The decimating
    reservoir keeps percentiles meaningful up to a ~4G-arrival stride
    ceiling; dropped_samples > 0 means a workload blew past it and the
    percentile fields silently describe a truncated prefix of the run.
    """
    rc = 0
    if isinstance(node, dict):
        dropped = node.get("dropped_samples")
        if isinstance(dropped, (int, float)) and dropped > 0:
            rc |= fail(
                path,
                f"histogram {where or '<root>'} dropped {int(dropped)} samples;"
                " its percentiles no longer describe the whole run",
            )
        for key, child in node.items():
            rc |= check_histograms(path, child, f"{where}.{key}" if where else key)
    elif isinstance(node, list):
        for i, child in enumerate(node):
            rc |= check_histograms(path, child, f"{where}[{i}]")
    return rc


def check_sim_throughput(path, doc):
    """Self-benchmark gate: the simulator must actually move, and the engine
    hot path must be allocation-free in steady state (the whole point of the
    slab-pooled event queue). Thresholds are deliberately loose on speed —
    CI machines vary wildly — and exact on allocation counts, which don't.
    """
    rc = 0
    virtual = doc.get("virtual", {})
    wall = doc.get("wall", {})
    if virtual.get("plain_events_processed", 0) <= 0:
        rc |= fail(path, "virtual.plain_events_processed is not positive")
    if virtual.get("storm_shootdowns", 0) <= 0:
        rc |= fail(path, "virtual.storm_shootdowns is not positive")
    if wall.get("events_per_sec", 0) <= 0:
        rc |= fail(path, "wall.events_per_sec is not positive")
    if wall.get("allocs_per_event_steady", 1) != 0:
        rc |= fail(
            path,
            f'wall.allocs_per_event_steady is {wall.get("allocs_per_event_steady")!r},'
            " expected exactly 0 (engine hot path regressed to allocating)",
        )
    if wall.get("allocs_per_coro_frame_steady", 1) != 0:
        rc |= fail(
            path,
            f'wall.allocs_per_coro_frame_steady is {wall.get("allocs_per_coro_frame_steady")!r},'
            " expected exactly 0 (coroutine frame pool regressed)",
        )

    # The protocol-shard scaling gate: >= 2x events/s for the confined
    # protocol storm at 8 host threads vs the true-serial engine (the same
    # check the binary makes in-process). Only meaningful with real
    # parallelism under the pool, so it is armed on hosts with >= 4 cores.
    host_cores = wall.get("host_cores", 0)
    proto = {
        p.get("threads"): p for p in wall.get("protocol_sweep", []) if p.get("sharded")
    }
    speedup8 = proto.get(8, {}).get("speedup_vs_serial", 0)
    if host_cores >= 4:
        if speedup8 < 2.0:
            rc |= fail(
                path,
                f"protocol sweep: 8-thread speedup {speedup8:.2f}x < 2x on a "
                f"{host_cores}-core host",
            )
    elif speedup8 <= 0:
        rc |= fail(path, "protocol sweep: 8-thread point missing")

    if rc == 0:
        print(
            f"OK   {path}: status=pass, "
            f'{wall.get("events_per_sec", 0) / 1e6:.1f}M events/s, '
            "0 steady-state allocs/event, "
            f"8-thread protocol-shard speedup {speedup8:.2f}x on {host_cores} cores"
        )
    return rc


def check_churn_rows(path, doc):
    """Churn sweep gate: every (backend, workload, threads) cell's elision-on
    run must actually elide shootdowns and close records benignly, and the
    elision must strictly reduce FlushRange traffic vs its own off baseline —
    the optimization's entire claim, checked per cell rather than on the one
    cell the snapshot happens to come from.
    """
    rc = 0
    rows = doc.get("rows", [])
    if not rows:
        return fail(path, "churn: no sweep rows")
    for row in rows:
        label = (
            f'{row.get("backend", "ipi")}/{row.get("workload")}'
            f'/t{row.get("threads")}'
        )
        if row.get("elided_flushes", 0) <= 0:
            rc |= fail(path, f"churn {label}: elision-on run elided nothing")
        if row.get("benign_closes", 0) <= 0:
            rc |= fail(path, f"churn {label}: no benign closes")
        if row.get("off_flush_requests", 0) <= row.get("on_flush_requests", 0):
            rc |= fail(
                path,
                f'churn {label}: elision did not reduce flush requests '
                f'({row.get("off_flush_requests")} -> {row.get("on_flush_requests")})',
            )
        if row.get("speedup", 0) <= 0:
            rc |= fail(path, f"churn {label}: speedup not positive")
    return rc


def check_ablation_crossover(path, doc):
    """Queue cost-knob crossover gate: the sweep must carry an IPI baseline
    plus the full knob grid, every point must have actually run the storm
    (nonzero madvise cycles and spin polls), and the grid must exercise both
    queue failure modes — IPI resends (spin budget exhausted) and flush_all
    fallbacks (ring overflow) — somewhere in the grid.
    """
    rc = 0
    rows = [r for r in doc.get("rows", []) if r.get("ablation") == "queue_cost_crossover"]
    ipi_rows = [r for r in rows if r.get("backend") == "ipi"]
    queue_rows = [r for r in rows if r.get("backend") == "queue"]
    if len(ipi_rows) != 1:
        return rc | fail(path, f"crossover: expected 1 ipi baseline row, got {len(ipi_rows)}")
    if len(queue_rows) < 8:
        return rc | fail(path, f"crossover: only {len(queue_rows)} queue grid points")
    if ipi_rows[0].get("madvise_cycles", 0) <= 0:
        rc |= fail(path, "crossover: ipi baseline madvise_cycles not positive")
    for row in queue_rows:
        label = (
            f'ring {row.get("ring_entries")} spin {row.get("initial_spin")}'
            f' backoff {row.get("backoff_mult")}'
        )
        if row.get("madvise_cycles", 0) <= 0:
            rc |= fail(path, f"crossover {label}: madvise_cycles not positive")
        if row.get("spin_polls", 0) <= 0:
            rc |= fail(path, f"crossover {label}: initiator never spun")
        if row.get("vs_ipi", 0) <= 0:
            rc |= fail(path, f"crossover {label}: vs_ipi ratio not positive")
    if not any(r.get("ipi_resends", 0) > 0 for r in queue_rows):
        rc |= fail(path, "crossover: no grid point exercised IPI resends")
    if not any(r.get("flush_all_fallbacks", 0) > 0 for r in queue_rows):
        rc |= fail(path, "crossover: no grid point exercised the flush_all fallback")
    return rc


def check(path):
    rc = 0
    with open(path) as f:
        doc = json.load(f)
    name = doc.get("bench")
    if not name:
        return fail(path, 'missing "bench" key')
    if doc.get("schema_version") != 1:
        rc |= fail(path, f'unexpected schema_version {doc.get("schema_version")!r}')
    if doc.get("status") != "pass":
        rc |= fail(path, f'status is {doc.get("status")!r}, expected "pass"')
    rc |= check_histograms(path, doc.get("metrics", {}).get("histograms", {}))
    rc |= check_histograms(path, doc.get("metrics_queue", {}).get("histograms", {}))

    if name == "sim_throughput":
        return rc | check_sim_throughput(path, doc)

    # Which backends did this invocation run? An ipi-only run carries no
    # backend markers at all (byte-compatibility with pre-axis reports), so
    # the absence of "backends" in config means ipi alone.
    backends = doc.get("config", {}).get("backends", ["ipi"])
    has_ipi = "metrics" in doc
    has_queue = "metrics_queue" in doc
    if "ipi" in backends and not has_ipi and REQUIRED_NONZERO.get(name):
        rc |= fail(path, 'backend "ipi" ran but there is no "metrics" snapshot')
    if "queue" in backends and not has_queue and QUEUE_REQUIRED_NONZERO.get(name):
        rc |= fail(path, 'backend "queue" ran but there is no "metrics_queue" snapshot')

    checked = 0
    if has_ipi:
        counters = doc.get("metrics", {}).get("counters", {})
        required = REQUIRED_NONZERO.get(name, [])
        if required and not counters:
            return rc | fail(path, 'no "metrics.counters" section')
        for key in required:
            value = counters.get(key)
            if value is None:
                rc |= fail(path, f"counter {key} missing")
            elif value <= 0:
                rc |= fail(path, f"counter {key} is {value}, expected nonzero")
        checked += len(required)
    if has_queue:
        counters = doc.get("metrics_queue", {}).get("counters", {})
        required = QUEUE_REQUIRED_NONZERO.get(name, [])
        if required and not counters:
            return rc | fail(path, 'no "metrics_queue.counters" section')
        for key in required:
            value = counters.get(key)
            if value is None:
                rc |= fail(path, f"queue counter {key} missing")
            elif value <= 0:
                rc |= fail(path, f"queue counter {key} is {value}, expected nonzero")
        checked += len(required)
        if name == "ablations":
            rc |= check_ablation_crossover(path, doc)
    if name == "churn":
        rc |= check_churn_rows(path, doc)
    else:
        for section in ("metrics", "metrics_queue"):
            for key in doc.get(section, {}).get("counters", {}):
                if key.startswith(REUSE_COUNTER_PREFIX):
                    rc |= fail(
                        path,
                        f"{section}.counters.{key} present: reuse_elision leaked "
                        "into a paper configuration",
                    )

    # table3 carries the per-optimization ablation gate: every enabled
    # optimization must strictly reduce its targeted counter.
    for entry in doc.get("ablations", []):
        if not entry.get("strict_reduction"):
            rc |= fail(
                path,
                f'ablation {entry.get("optimization")}: {entry.get("counter")} '
                f'did not strictly reduce ({entry.get("baseline")} -> '
                f'{entry.get("optimized")})',
            )

    if rc == 0:
        print(f"OK   {path}: status=pass, {checked} required counters nonzero")
    return rc


def main(argv):
    if len(argv) < 2:
        print(__doc__)
        return 2
    rc = 0
    for path in argv[1:]:
        try:
            rc |= check(path)
        except (OSError, json.JSONDecodeError) as e:
            rc |= fail(path, str(e))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv))
