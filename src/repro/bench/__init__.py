"""The tables the CLI prints: fixed-width rows, timelines, latency reports."""

from repro.bench.reporting import (
    render_table,
    render_timeline,
    render_node_utilization,
    render_latency_report,
    format_seconds,
    format_bytes,
)

__all__ = [
    "render_table", "render_timeline", "render_node_utilization",
    "render_latency_report", "format_seconds", "format_bytes",
]
