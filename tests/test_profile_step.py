"""``tools/profile_step.py`` runs end to end on the smoke-sized planner."""

import os
import subprocess
import sys

REPO_ROOT = os.path.join(os.path.dirname(__file__), "..")


def test_profiles_one_plan_fleet_step():
    done = subprocess.run(
        [sys.executable, os.path.join("tools", "profile_step.py"),
         "--workload", "plan_fleet", "--tiny", "--seed", "1", "--top", "60"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    by_cumulative, by_self = done.stdout.split("by tottime ==")
    assert "plan_fleet (seed 1): one step, by cumulative" in by_cumulative
    # the step under the profiler is the workload's, planner included
    assert "(search_placement)" in by_cumulative
    assert "(step)" in by_cumulative
    assert "Ordered by: internal time" in by_self
