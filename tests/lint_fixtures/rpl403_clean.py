"""Fixture: reports read the scheduler's columns; no ``Task`` is built."""

import numpy as np


def devices_by_channel(timeline):
    return [len(ids) for ids in timeline.scheduler.columns().used]


def busy_seconds(scheduler):
    return float(np.sum(scheduler.columns().seconds))


def drain(queue, pool):
    # some other object's ``tasks`` is none of this rule's business
    return [task.run() for task in queue.tasks] + list(pool.last_tasks)


class EventTimeline:
    def submit_phase(self, ids):
        # the one caller whose contract is Task objects
        tasks = self.scheduler.tasks
        return [tasks[task_id] for task_id in ids]
