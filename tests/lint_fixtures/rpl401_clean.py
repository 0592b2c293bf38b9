"""Fixture: the hot path emits one batched wave, no per-task loop, and
moves a GPU's rows with one indexed op over the plan's slot array."""


def emit_epoch(scheduler, devices, seconds):
    return scheduler.submit_batch("h2d", devices, seconds)


def gather_inputs(stacked, plans):
    return [stacked[plan.source_slots] for plan in plans]
