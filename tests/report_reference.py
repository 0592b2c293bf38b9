"""The utilization reports, one task at a time — the oracle for the
array aggregation in :mod:`repro.bench.reporting`.

``render_timeline`` and ``render_node_utilization`` read the scheduler's
columns (:meth:`repro.runtime.scheduler.EventScheduler.columns`) and sum
with ``np.bincount``. This module keeps the two tables in the form they
were first written in: walk the tasks one row at a time
(:func:`scheduler_oracle.task_rows`), call ``platform.node_of`` per task
and add its seconds to its node's cell in submission order. ``np.bincount``
adds its weights in array order too, so the rendered text must be equal
byte for byte.
"""

from __future__ import annotations

from typing import Optional

from repro.bench.reporting import format_seconds, render_table
from repro.runtime.task import NET_DEVICE_BASE, net_link_nodes
from scheduler_oracle import task_rows

__all__ = ["reference_render_timeline",
           "reference_render_node_utilization"]


def reference_render_timeline(timeline,
                              title: Optional[str] = None) -> str:
    width = 40
    makespan = timeline.makespan
    serialized = timeline.breakdown.total
    devices_by_channel: dict = {}
    for task in task_rows(timeline.scheduler):
        devices_by_channel.setdefault(task.channel, set()).add(task.device)
    rows = []
    for channel, busy in timeline.busy_view().items():
        if busy == 0.0:
            continue
        num_devices = max(len(devices_by_channel.get(channel, ())), 1)
        capacity = makespan * num_devices
        utilization = busy / capacity if capacity > 0 else 0.0
        overflow = utilization > 1.0
        utilization = min(utilization, 1.0)
        bar = "#" * max(1, round(utilization * width))
        rows.append([channel, format_seconds(busy), num_devices,
                     f"{utilization:.0%}" + ("!" if overflow else ""), bar])
    table = render_table(
        ["channel", "busy", "devices", "utilization",
         f"busy/(makespan x devices) ({width} cols)"],
        rows, title=title,
    )
    saving = max(0.0, serialized - makespan)
    footer = (
        f"makespan {format_seconds(makespan)} vs serialized "
        f"{format_seconds(serialized)} "
        f"({format_seconds(saving)} hidden by overlap)"
    )
    return f"{table}\n{footer}"


def reference_render_node_utilization(timeline, platform,
                                      title: Optional[str] = None) -> str:
    num_nodes = platform.num_nodes
    num_rails = platform.num_rails
    columns = ("gpu", "h2d", "d2h", "d2d", "cpu", "net")
    busy = [{column: 0.0 for column in columns} for _ in range(num_nodes)]
    devices = [{column: set() for column in columns}
               for _ in range(num_nodes)]
    for task in task_rows(timeline.scheduler):
        if task.channel == "net":
            if task.device <= NET_DEVICE_BASE:
                src, _dst = net_link_nodes(task.device, num_nodes,
                                           num_rails)
            else:
                src = 0
            busy[src]["net"] += task.seconds
            devices[src]["net"].add(task.device)
        elif task.channel in columns and task.device >= 0:
            node = platform.node_of(task.device)
            busy[node][task.channel] += task.seconds
            devices[node][task.channel].add(task.device)
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
        for column in columns:
            capacity = makespan * max(len(devices[node][column]), 1)
            overflow = busy[node][column] > capacity * (1.0 + 1e-9)
            flagged = flagged or overflow
            cells.append(format_seconds(busy[node][column])
                         + ("!" if overflow else ""))
        rows.append(cells)
    header = ["node"] + (["spec"] if hetero else []) + list(columns)
    table = render_table(header, rows, title=title)
    if flagged:
        table += ("\n! = busy exceeds makespan x devices for that "
                  "channel (clamped at 100% in the channel view) — "
                  "upstream accounting bug")
    return table
