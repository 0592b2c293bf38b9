"""``tools/epoch_times.py`` times a training workload's epochs one by one."""

import os
import subprocess
import sys

REPO_ROOT = os.path.join(os.path.dirname(__file__), "..")


def test_times_every_epoch_of_fresh_trainers():
    done = subprocess.run(
        [sys.executable, os.path.join("tools", "epoch_times.py"),
         "--workload", "train_cluster", "--tiny", "--epochs", "3",
         "--repeats", "2"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    title, header, *rows = done.stdout.splitlines()
    assert title == ("== train_cluster (seed 0): seconds per epoch over "
                     "2 trainer(s) ==")
    assert header.split() == ["epoch", "median", "min", "max", "sweeps"]
    cells = [row.split(maxsplit=4) for row in rows]
    assert [cell[0] for cell in cells] == ["1", "2", "3"]
    assert [cell[4] for cell in cells] == ["records + replays", "replays",
                                           "replays"]
    for _, median, fastest, slowest, _ in cells:
        assert 0 < float(fastest) <= float(median) <= float(slowest)
