"""Fixture: a python loop re-enters a vectorized hot path (RPL401).

The test lints this file under a ``src/repro/core/trainer.py`` display
path, one of the files the PR 6 vectorization pass owns.
"""


def emit_epoch(scheduler, plans):
    for plan in plans:  # <- RPL401
        scheduler.submit("h2d", plan.device, plan.seconds)
