"""Fixture: a python loop re-enters a vectorized hot path (RPL401).

The test lints this file under a ``src/repro/core/trainer.py`` display
path, one of the files the PR 6 vectorization pass owns.
"""


def emit_epoch(scheduler, plans):
    for plan in plans:  # <- RPL401
        scheduler.submit("h2d", plan.device, plan.seconds)


def gather_inputs(buffers, plans, outputs):
    # The outer loop's escape does not cover the per-segment walk in it.
    # repro-lint: allow-loop — per-GPU value movement
    for plan, local in zip(plans, outputs):
        for segment in plan.fetch_segments:  # <- RPL401
            local[segment.local_rows] = \
                buffers[segment.source_gpu][segment.source_positions]
