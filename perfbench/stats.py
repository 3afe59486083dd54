"""Statistics of the repository benchmark: sample summaries, the metrics
computed from the runner's raw samples, and the comparison of two run sets.

Pure functions only; run.py and compare.py do the I/O.
"""

import statistics

# Fig. 9's headline: clMPI beats the hand-optimized Himeno by ~14% on
# 4 Cichlid nodes (paper, Sec. V-C).
PAPER_FIG9_RATIO = 1.14


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values, beyond=10):
    """The highest percentile that still has at least `beyond` samples above
    it: the (beyond+1)-th largest sample. Returns (value, percentile); the
    percentile is None when there are too few samples, and the value is then
    the largest sample."""
    if not values:
        raise ValueError("tail of an empty sample")
    ordered = sorted(values)
    k = len(ordered) - 1 - beyond
    if k < 0:
        return ordered[-1], None
    pct = 100.0 * k / (len(ordered) - 1) if len(ordered) > 1 else 100.0
    return ordered[k], pct


def percentile(values, pct):
    """Linear-interpolated percentile (statistics.quantiles, inclusive)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[int(pct) - 1]


def job_latency_p99(timed):
    """p99 job latency over the timed processes. Printed, not a metric: on
    halo_small it sits at the edge of the 1 ms progress tick, so it jumps
    between runs."""
    return percentile([x for t in timed for x in t["job_latency_s"]], 99)


def spread(values):
    """Distance between the first and third quartile, as a share of the
    median: the run-to-run spread the acceptance rules use."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def _ratio(num, den):
    return num / den if den else 0.0


def end_to_end(timed, count, fidelity):
    """The end-to-end metrics of one workload from the runner's timed
    processes, its message count and the fidelity run."""
    runs = [r for t in timed for r in t["runs"]]
    walls = [r["wall_s"] for r in runs]
    latencies = [x for t in timed for x in t["job_latency_s"]]
    msgs = count["values"]["msgs_per_run"]
    return {
        "setup_s": (median([t["setup_s"] for t in timed]), "s"),
        "run_wall_p50_s": (median(walls), "s"),
        "run_wall_tail_s": (tail(walls)[0], "s"),
        "cpu_p50_s": (median([r["cpu_s"] for r in runs]), "s"),
        "sim_msgs_per_s": (median([msgs / w for w in walls]), "1/s"),
        "job_latency_p50_s": (median(latencies), "s"),
        "jobs_per_s": (median([r["jobs"] / r["wall_s"] for r in runs]), "1/s"),
        "peak_rss_mib": (median([t["values"]["peak_rss_mib"] for t in timed]), "MiB"),
        "fig9_ratio_err": (abs(fidelity["values"]["fig9_ratio"] - PAPER_FIG9_RATIO), "ratio"),
    }


def per_layer(traced):
    """The per-layer metrics of one workload from the runner's traced run."""
    layers = traced["layers"]
    c = traced["counters"]
    v = traced["values"]

    def count(name):
        return c.get(name, 0)

    decisions = sum(n for name, n in c.items()
                    if name.startswith("xfer.select.") and name != "xfer.select.memo_hit")
    out = {
        "simmpi.launch_ns": (layers["launch_ns"], "ns"),
        "simmpi.allreduce_ns": (layers["allreduce_ns"], "ns"),
        "simmpi.mailbox.unexpected_ratio": (
            _ratio(count("simmpi.mailbox.unexpected"),
                   count("simmpi.mailbox.unexpected") + count("simmpi.mailbox.shard_hit")),
            "ratio"),
        "progress.tick_flush_ratio": (
            _ratio(count("progress.coalesce.flush.tick"), count("progress.coalesce.flushes")),
            "ratio"),
        "progress.blocking_waits": (count("progress.blocking_waits"), "count"),
        "progress.rescued_waits": (count("progress.rescued_waits"), "count"),
        "halo.plan_create_ns": (layers["plan_create_ns"], "ns"),
        "halo.start_ns": (layers["halo_start_ns"], "ns"),
        "halo.complete_ns": (layers["halo_complete_ns"], "ns"),
        "ocl.enqueue_ns": (layers["ocl_enqueue_ns"], "ns"),
        "ocl.finish_wait_ns": (layers["ocl_finish_ns"], "ns"),
        "rt.finish_ns": (layers["rt_finish_ns"], "ns"),
        "rt.dispatcher.jobs_per_batch": (
            _ratio(count("rt.dispatcher.jobs"), count("rt.dispatcher.batches")), "ratio"),
        "xfer.pool.hit_ratio": (
            _ratio(count("xfer.pool.hits"), count("xfer.pool.acquires")), "ratio"),
        "xfer.select.memo_hit_ratio": (
            _ratio(count("xfer.select.memo_hit"), count("xfer.select.memo_hit") + decisions),
            "ratio"),
        "xfer.fallbacks": (count("xfer.fallbacks"), "count"),
        "svc.submit_ns": (layers["svc_submit_ns"], "ns"),
        "svc.queue_delay_s": (layers["svc_queue_delay_s"], "s"),
        "svc.run_wall_s": (layers["svc_run_wall_s"], "s"),
        "svc.rejected": (layers["svc_rejected"], "count"),
        "vt.spans": (v["vt.spans"], "count"),
        "vt.makespan_agree_ratio": (_ratio(traced["makespans_agree"], traced["makespans"]),
                                    "ratio"),
        "trace.overhead_s": (v["trace.overhead_s"], "s"),
    }
    for rank in range(4):
        for part in ("compute", "h2d", "d2h", "wire", "wait", "exposed_comm"):
            name = "vt.r%d.%s_us" % (rank, part)
            out[name] = (v[name], "virtual_us")
    return out


def compare(base, new, better, bound):
    """Judge one metric of two run sets (lists of values from repeated runs
    of the parent and of the change). Returns (verdict, detail): "regressed"
    when the change's median is worse than the parent's by more than
    `bound` (a share of the parent's median), "unresolved" when either
    set's quartile spread exceeds the bound and not every change run beats
    every parent run, "ok" otherwise."""
    b, n = median(base), median(new)
    worse = (n - b) if better == "lower" else (b - n)
    change = worse / abs(b) if b else (0.0 if worse <= 0 else float("inf"))
    detail = {"base_median": b, "new_median": n, "worse_by": change,
              "base_spread": spread(base), "new_spread": spread(new)}
    if change > bound:
        return "regressed", detail
    beats = (max(new) < min(base)) if better == "lower" else (min(new) > max(base))
    if max(detail["base_spread"], detail["new_spread"]) > bound and not beats:
        return "unresolved", detail
    return "ok", detail
