"""Trace summarisation: ``repro trace summarize``.

Reads a JSONL trace file produced with ``--trace`` and reports:

* **Top spans** — wall-time totals per span name (count/total/mean plus
  simulated-time totals where available).
* **Per-shard imbalance** — the ``shard`` spans' wall time and key counts
  per partition (``tree``, ``s-partition``, ``tree-p0.2``, ...: every
  server reports the partitions a batch touches), with a max/mean
  imbalance ratio across them.
* **Per-receiver histogram** — the ``receiver.interest_keys``
  distribution (the rows the server names each receiver in: its
  bandwidth units per delivery, and the keys it learns, which a
  verified run count-checks), checked against the analytic ``Ne(N, L)``
  prediction from :mod:`repro.analysis.batchcost`: the observed mean
  batch cost is compared to ``Ne(mean N, mean L)`` at the traced tree
  degree.
* **Rekey latency** — per-epoch time-to-new-DEK quantiles from
  ``epoch_latency`` events, the worst individual member adoptions from
  ``dek_adopted`` (late) and ``resync`` (unicast recovery) events, and
  overall p50/p95/p99 from the ``rekey.latency`` histogram in the
  embedded snapshot.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.obs.metrics import bucket_quantile, merge_bucket_series


def _merged_slot(entry: Dict[str, object]) -> Dict[str, object]:
    """All series of a histogram entry of a to_json snapshot, folded
    into one slot."""
    series = entry.get("series", {}) if entry.get("kind") == "histogram" else {}
    return merge_bucket_series(list(series.values()))


def _mean(entry: Optional[Dict[str, object]]) -> Optional[float]:
    if not entry:
        return None
    slot = _merged_slot(entry)
    if not slot["count"]:
        return None
    return slot["sum"] / slot["count"]


def build_summary(records: List[Dict[str, object]], top: int = 10) -> Dict[str, object]:
    """Structured summary of a parsed trace (see module docstring)."""
    spans = [r for r in records if r.get("record") == "span"]
    events = [r for r in records if r.get("record") == "event"]
    metrics: Dict[str, object] = {}
    for record in records:
        if record.get("record") == "metrics":
            metrics = record.get("snapshot", {})

    # --- top spans by total wall time -------------------------------
    by_name: Dict[str, Dict[str, float]] = {}
    for span in spans:
        slot = by_name.setdefault(
            span["name"], {"count": 0, "wall_s": 0.0, "sim_s": 0.0, "has_sim": 0}
        )
        slot["count"] += 1
        slot["wall_s"] += span.get("wall_s") or 0.0
        start, end = span.get("sim_start"), span.get("sim_end")
        if start is not None and end is not None:
            slot["sim_s"] += end - start
            slot["has_sim"] = 1
    top_spans = [
        {
            "name": name,
            "count": int(slot["count"]),
            "total_wall_s": round(slot["wall_s"], 6),
            "mean_wall_s": round(slot["wall_s"] / slot["count"], 6),
            "total_sim_s": round(slot["sim_s"], 3) if slot["has_sim"] else None,
        }
        for name, slot in sorted(
            by_name.items(), key=lambda kv: kv[1]["wall_s"], reverse=True
        )
    ][:top]

    # --- per-shard imbalance ----------------------------------------
    shards: Dict[str, Dict[str, float]] = {}
    for span in spans:
        if span["name"] != "shard":
            continue
        shard = str(span.get("attributes", {}).get("shard", "?"))
        slot = shards.setdefault(shard, {"count": 0, "wall_s": 0.0, "keys": 0})
        slot["count"] += 1
        slot["wall_s"] += span.get("wall_s") or 0.0
        slot["keys"] += span.get("attributes", {}).get("keys", 0) or 0
    shard_rows = [
        {
            "shard": shard,
            "batches": int(slot["count"]),
            "wall_s": round(slot["wall_s"], 6),
            "keys": int(slot["keys"]),
        }
        for shard, slot in sorted(shards.items())
    ]
    imbalance = None
    walls = [row["wall_s"] for row in shard_rows if row["wall_s"] > 0]
    if len(walls) > 1:
        imbalance = round(max(walls) / (sum(walls) / len(walls)), 3)

    # --- per-receiver histogram + Ne(N, L) check --------------------
    bandwidth = metrics.get("receiver.interest_keys")
    learned = _counter_total(metrics.get("member.keys_learned"))
    shared = _counter_total(metrics.get("member.unwraps_shared"))
    receiver = {
        "mean_interest_keys_per_delivery": _round(_mean(bandwidth)),
        "deliveries": int(_merged_slot(bandwidth)["count"]) if bandwidth else 0,
        # What the simulator paid, not what the protocol costs a member:
        # the share of those decrypts another receiver of the same payload
        # had already run (the WrapIndex opened-wrap table).
        "shared_unwrap_share": _round(shared / learned) if learned else None,
    }

    analytic = None
    batch_cost = metrics.get("server.batch_cost")
    group_size = metrics.get("epoch.group_size")
    departures = metrics.get("epoch.departures")
    mean_cost = _mean(batch_cost)
    mean_n = _mean(group_size)
    mean_l = _mean(departures)
    if mean_cost is not None and mean_n is not None and mean_l is not None:
        from repro.analysis.batchcost import expected_batch_cost

        degree = int(_gauge_value(metrics.get("server.degree"), default=4))
        predicted = expected_batch_cost(mean_n, mean_l, degree=degree)
        analytic = {
            "mean_group_size": _round(mean_n),
            "mean_departures": _round(mean_l),
            "degree": degree,
            "observed_mean_batch_cost": _round(mean_cost),
            "predicted_ne": _round(predicted),
            "ratio": _round(mean_cost / predicted) if predicted else None,
        }

    event_counts: Dict[str, int] = {}
    for event in events:
        event_counts[event["type"]] = event_counts.get(event["type"], 0) + 1

    return {
        "spans": len(spans),
        "events": event_counts,
        "top_spans": top_spans,
        "shards": shard_rows,
        "shard_imbalance": imbalance,
        "receiver": receiver,
        "analytic": analytic,
        "latency": _latency_section(events, metrics, top=top),
    }


def _latency_section(
    events: List[Dict[str, object]],
    metrics: Dict[str, object],
    top: int = 10,
) -> Optional[Dict[str, object]]:
    """The time-to-new-DEK story of a trace (None when absent)."""
    epoch_rows = [
        {
            "epoch": event["epoch"],
            "members": event["members"],
            "p50_s": event["p50"],
            "p99_s": event["p99"],
            "max_s": event["max"],
        }
        for event in events
        if event.get("type") == "epoch_latency"
    ]
    adoptions = [e for e in events if e.get("type") in ("dek_adopted", "resync")]
    unrecovered = sum(
        1 for e in events if e.get("type") == "abandoned_unrecovered"
    )
    entry = metrics.get("rekey.latency")
    if not epoch_rows and not adoptions and not entry:
        return None

    worst_epochs = sorted(
        epoch_rows, key=lambda row: (row["p99_s"], row["max_s"]), reverse=True
    )[:top]
    worst_members = [
        {
            "member": row["member_id"],
            "epoch": row["epoch"],
            "latency_s": row["latency"],
            "sync_state": row.get("sync_state", "resync"),
        }
        for row in sorted(adoptions, key=lambda e: e["latency"], reverse=True)[:5]
    ]

    overall: Dict[str, object] = {"count": 0}
    if entry and entry.get("kind") == "histogram":
        slot = _merged_slot(entry)
        bounds = list(entry.get("buckets", ()))
        overall = {
            "count": int(slot["count"]),
            "p50_s": bucket_quantile(bounds, slot["buckets"], 0.50),
            "p95_s": bucket_quantile(bounds, slot["buckets"], 0.95),
            "p99_s": bucket_quantile(bounds, slot["buckets"], 0.99),
        }
        # An empty histogram merges to no buckets at all.
        if slot["count"]:
            zero_bucket = slot["buckets"][0] if bounds and bounds[0] == 0.0 else 0
            overall["round0_fraction"] = round(zero_bucket / slot["count"], 4)

    return {
        "overall": overall,
        "epochs": len(epoch_rows),
        "worst_epochs": worst_epochs,
        "worst_members": worst_members,
        "abandoned_unrecovered": unrecovered,
    }


def _gauge_value(entry: Optional[Dict[str, object]], default: float) -> float:
    if not entry or entry.get("kind") != "gauge":
        return default
    series = entry.get("series", {})
    for value in series.values():
        return value
    return default


def _counter_total(entry: Optional[Dict[str, object]]) -> float:
    if not entry or entry.get("kind") != "counter":
        return 0.0
    return sum(entry.get("series", {}).values())


def _round(value: Optional[float], digits: int = 3) -> Optional[float]:
    return None if value is None else round(value, digits)


def format_summary(summary: Dict[str, object]) -> str:
    """Render :func:`build_summary` output as the CLI report text."""
    lines: List[str] = []
    lines.append(f"spans: {summary['spans']}")
    if summary["events"]:
        counts = ", ".join(
            f"{name}={count}" for name, count in sorted(summary["events"].items())
        )
        lines.append(f"events: {counts}")
    if summary["top_spans"]:
        lines.append("")
        lines.append("top spans (by total wall time)")
        lines.append(f"  {'name':<18} {'count':>7} {'total_s':>10} {'mean_s':>10} {'sim_s':>10}")
        for row in summary["top_spans"]:
            sim = "-" if row["total_sim_s"] is None else f"{row['total_sim_s']:.1f}"
            lines.append(
                f"  {row['name']:<18} {row['count']:>7} "
                f"{row['total_wall_s']:>10.4f} {row['mean_wall_s']:>10.6f} {sim:>10}"
            )
    if summary["shards"]:
        lines.append("")
        lines.append("per-shard")
        lines.append(f"  {'shard':<12} {'batches':>8} {'wall_s':>10} {'keys':>10}")
        for row in summary["shards"]:
            lines.append(
                f"  {row['shard']:<12} {row['batches']:>8} "
                f"{row['wall_s']:>10.4f} {row['keys']:>10}"
            )
        if summary["shard_imbalance"] is not None:
            lines.append(f"  imbalance (max/mean wall): {summary['shard_imbalance']:.3f}")
    receiver = summary["receiver"]
    if receiver["deliveries"]:
        lines.append("")
        lines.append("per-receiver (per delivery)")
        lines.append(f"  deliveries:          {receiver['deliveries']}")
        lines.append(f"  mean interest keys:  {receiver['mean_interest_keys_per_delivery']}")
        if receiver["shared_unwrap_share"] is not None:
            lines.append(
                f"  served from table:   {receiver['shared_unwrap_share']:.1%} of decrypts"
            )
    analytic = summary["analytic"]
    if analytic:
        lines.append("")
        lines.append("analytic check: Ne(N, L)")
        lines.append(
            f"  observed mean batch cost: {analytic['observed_mean_batch_cost']}"
        )
        lines.append(
            f"  predicted Ne(N={analytic['mean_group_size']}, "
            f"L={analytic['mean_departures']}, d={analytic['degree']}): "
            f"{analytic['predicted_ne']}"
        )
        if analytic["ratio"] is not None:
            lines.append(f"  observed/predicted: {analytic['ratio']}")
    latency = summary.get("latency")
    if latency:
        lines.append("")
        lines.append("rekey latency (time-to-new-DEK)")
        overall = latency["overall"]
        if overall.get("count"):
            quantiles = " ".join(
                f"{q}<={overall[key]:g}s"
                for q, key in (("p50", "p50_s"), ("p95", "p95_s"), ("p99", "p99_s"))
                if overall.get(key) is not None
            )
            line = f"  adoptions: {overall['count']}"
            if quantiles:
                line += f"  {quantiles}"
            if overall.get("round0_fraction") is not None:
                line += f"  round-0: {overall['round0_fraction']:.1%}"
            lines.append(line)
        if latency["abandoned_unrecovered"]:
            lines.append(
                f"  abandoned unrecovered: {latency['abandoned_unrecovered']}"
            )
        if latency["worst_epochs"]:
            lines.append(
                f"  worst epochs (of {latency['epochs']}, by p99)"
            )
            lines.append(
                f"    {'epoch':>6} {'members':>8} {'p50_s':>8} {'p99_s':>8} {'max_s':>8}"
            )
            for row in latency["worst_epochs"]:
                lines.append(
                    f"    {row['epoch']:>6} {row['members']:>8} "
                    f"{row['p50_s']:>8.2f} {row['p99_s']:>8.2f} {row['max_s']:>8.2f}"
                )
        if latency["worst_members"]:
            lines.append("  worst members")
            lines.append(
                f"    {'member':<12} {'epoch':>6} {'latency_s':>10} {'state':<10}"
            )
            for row in latency["worst_members"]:
                lines.append(
                    f"    {row['member']:<12} {row['epoch']:>6} "
                    f"{row['latency_s']:>10.2f} {row['sync_state']:<10}"
                )
    return "\n".join(lines)
