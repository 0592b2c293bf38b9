"""ASCII table / series rendering for the CLI and the benchmarks.

``repro train`` / ``repro serve`` print their channel, per-node and
latency tables through this module, and every benchmark regenerates one
of the paper's tables or figures as plain text rows with
:func:`render_table`. Figures are rendered as value series (one row per
x-point).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.runtime.task import CHANNELS, NET_DEVICE_BASE, net_link_nodes

__all__ = ["render_table", "render_timeline", "render_node_utilization",
           "render_latency_report", "format_seconds", "format_bytes"]

#: columns of :func:`render_timeline`'s utilization bar at 100%
_BAR_WIDTH = 40


def render_table(headers: Sequence[str], rows: Sequence[Sequence],
                 title: Optional[str] = None) -> str:
    """Render rows as a fixed-width table; values are str()-ed."""
    cells = [[str(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for index, value in enumerate(row):
            widths[index] = max(widths[index], len(value))

    def line(values: Sequence[str]) -> str:
        return " | ".join(
            value.ljust(width) for value, width in zip(values, widths)
        )

    parts: List[str] = []
    if title:
        parts.append(title)
    parts.append(line(headers))
    parts.append("-+-".join("-" * width for width in widths))
    parts.extend(line(row) for row in cells)
    return "\n".join(parts)


def format_seconds(seconds: float) -> str:
    """Human-scale duration (the benches print simulated seconds)."""
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds:.2f}s"


def format_bytes(nbytes: float) -> str:
    units = ["B", "KB", "MB", "GB", "TB"]
    value = float(nbytes)
    for unit in units:
        if value < 1024 or unit == units[-1]:
            return f"{value:.2f}{unit}"
        value /= 1024
    return f"{value:.2f}TB"


def render_latency_report(result, title: Optional[str] = None) -> str:
    """Latency-percentile + goodput table of one serving run.

    Renders a :class:`~repro.serving.result.ServeResult` next to the
    makespan the training-side reports use: the percentile rows are the
    serving SLO view (nearest-rank, NaN-free even for empty horizons),
    goodput counts only requests that met the SLO, and the cache-hit
    rate shows how much of the traffic the checkpointed activations
    absorbed.
    """
    rows = [
        ["requests", f"{result.num_requests:,}"],
        ["arrival process", result.arrival_kind],
        ["batch policy", result.policy],
        ["p50 latency", format_seconds(result.p50)],
        ["p95 latency", format_seconds(result.p95)],
        ["p99 latency", format_seconds(result.p99)],
        ["mean latency", format_seconds(result.mean_latency)],
        ["throughput", f"{result.throughput:,.1f} req/s"],
        [f"goodput (SLO {format_seconds(result.slo)})",
         f"{result.goodput:,.1f} req/s"],
        ["makespan", format_seconds(result.makespan)],
        ["mean batch size", f"{result.mean_batch_size:.2f}"],
        ["cache hit rate", f"{result.cache_hit_rate:.0%}"],
        ["halo bytes", format_bytes(result.net_bytes)],
    ]
    return render_table(["metric", "value"], rows, title=title)


def render_timeline(timeline, title: Optional[str] = None) -> str:
    """Channel-utilization summary of an EventTimeline.

    One row per hardware channel: busy seconds (summed over the channel's
    devices), the devices that carried them, their mean utilization, and a
    coarse utilization bar :data:`_BAR_WIDTH` columns at 100% — a quick
    visual answer to "what does pipelining hide?".

    Utilization normalizes by ``makespan × active-device-count``: a
    channel's busy seconds are summed over every device that used it (a
    4-GPU run has four ``h2d`` copy engines; a cluster has one ``net``
    queue per link), so dividing by the makespan alone would report up to
    ``devices × 100%``. Per device a channel cannot exceed the makespan
    (tasks on one ``(device, channel)`` queue serialize), so the rendered
    share is always <= 100% — and is clamped and flagged anyway should an
    upstream accounting bug ever break that invariant.
    """
    makespan = timeline.makespan
    serialized = timeline.breakdown.total
    used = dict(zip(CHANNELS, timeline.scheduler.columns().used))
    rows = []
    for channel, busy in timeline.busy_view().items():
        if busy == 0.0:
            continue
        num_devices = max(len(used.get(channel, ())), 1)
        capacity = makespan * num_devices
        utilization = busy / capacity if capacity > 0 else 0.0
        overflow = utilization > 1.0
        utilization = min(utilization, 1.0)
        bar = "#" * max(1, round(utilization * _BAR_WIDTH))
        rows.append([channel, format_seconds(busy), num_devices,
                     f"{utilization:.0%}" + ("!" if overflow else ""), bar])
    table = render_table(
        ["channel", "busy", "devices", "utilization",
         f"busy/(makespan x devices) ({_BAR_WIDTH} cols)"],
        rows, title=title,
    )
    saving = timeline.overlap_saving()
    footer = (
        f"makespan {format_seconds(makespan)} vs serialized "
        f"{format_seconds(serialized)} "
        f"({format_seconds(saving)} hidden by overlap)"
    )
    return f"{table}\n{footer}"


def render_node_utilization(timeline, platform,
                            title: Optional[str] = None) -> str:
    """Per-node busy-seconds table for a cluster timeline.

    One row per node: kernel, PCIe (both directions), NVLink, host and
    network busy seconds, each summed over the node's devices. GPU-side
    channels attribute by ``platform.node_of``; network tasks attribute
    their busy time to the *source* node of the link they occupy
    (:func:`~repro.runtime.task.net_link_nodes`), so a node's ``net``
    column is the traffic its NIC sent.

    The same capacity invariant as :func:`render_timeline` applies per
    cell: a node's busy seconds on one channel cannot exceed ``makespan
    × devices`` (tasks on one ``(device, channel)`` queue serialize).
    Cells that break it — an upstream accounting bug — are marked with
    ``!`` and explained by a footnote, so the clamp that keeps the
    channel view under 100% is *visible* here instead of silently
    swallowed.
    """
    num_nodes = platform.num_nodes
    columns = timeline.scheduler.columns()
    device, channel, seconds = columns.device, columns.channel, columns.seconds
    busy = {}
    devices = {}
    for index, column in enumerate(CHANNELS):
        ran = columns.used[index]  # ascending ids of the channel's devices
        if column == "net":
            node = [net_link_nodes(link, num_nodes, platform.num_rails)[0]
                    if link <= NET_DEVICE_BASE else 0
                    for link in ran.tolist()]
        else:  # host work (device < 0) books to no node
            node = [platform.node_of(gpu) if gpu >= 0 else -1
                    for gpu in ran.tolist()]
        node = np.array(node, dtype=np.int64)
        tasks = np.flatnonzero(channel == index)
        task_node = node[np.searchsorted(ran, device[tasks])]
        tasks, task_node = tasks[task_node >= 0], task_node[task_node >= 0]
        # bincount adds the weights in task order — the float additions
        # of a loop over the tasks — so no rendered digit can differ.
        busy[column] = np.bincount(task_node, weights=seconds[tasks],
                                   minlength=num_nodes)
        devices[column] = np.bincount(node[node >= 0], minlength=num_nodes)
    makespan = timeline.makespan
    # On a mixed-generation fleet, name each node's capability profile —
    # the busy-seconds skew is unreadable without knowing which rows are
    # the slow nodes.
    hetero = platform.heterogeneous
    flagged = False
    rows = []
    for node in range(num_nodes):
        cells = [f"node{node}"]
        if hetero:
            cells.append(platform.node_specs[node].name)
        for column in CHANNELS:
            capacity = makespan * max(int(devices[column][node]), 1)
            overflow = busy[column][node] > capacity * (1.0 + 1e-9)
            flagged = flagged or overflow
            cells.append(format_seconds(busy[column][node])
                         + ("!" if overflow else ""))
        rows.append(cells)
    header = ["node"] + (["spec"] if hetero else []) + list(CHANNELS)
    table = render_table(header, rows, title=title)
    if flagged:
        table += ("\n! = busy exceeds makespan x devices for that "
                  "channel (clamped at 100% in the channel view) — "
                  "upstream accounting bug")
    return table
