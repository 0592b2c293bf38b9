"""``tools/profile_step.py`` runs end to end on smoke-sized workloads."""

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


def test_callers_names_who_called_the_matching_functions():
    done = subprocess.run(
        [sys.executable, os.path.join("tools", "profile_step.py"),
         "--workload", "serve_mixed", "--tiny", "--callers", "_schedule"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    tables, callers = done.stdout.split("callers of '_schedule' ==")
    assert "serve_mixed (seed 0): one step, by tottime" in tables
    assert "was called by..." in callers
    # a replayed wave reaches the array step from submit_program, an
    # admission wave from _wave
    assert "(submit_program)" in callers
    assert "(_wave)" in callers
