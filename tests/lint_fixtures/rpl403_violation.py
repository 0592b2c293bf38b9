"""Fixture: reports walk ``scheduler.tasks`` (RPL403).

The test lints this file under a ``src/repro/bench/reporting.py`` display
path: every read of a scheduler's ``.tasks`` builds one ``Task`` per
submitted task, whatever is done with the list afterwards.
"""


def devices_by_channel(timeline):
    found = {}
    for task in timeline.scheduler.tasks:  # <- RPL403
        found.setdefault(task.channel, set()).add(task.device)
    return found


def busy_seconds(scheduler):
    return sum(task.seconds for task in scheduler.tasks)  # <- RPL403


class Engine:
    def last_end(self):
        tasks = self._scheduler.tasks  # <- RPL403
        return tasks[-1].end
