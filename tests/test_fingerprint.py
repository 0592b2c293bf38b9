"""``tools/fingerprint.py``: one command for the parent/change ``==`` grid."""

import json
import os
import subprocess
import sys
import time

REPO_ROOT = os.path.join(os.path.dirname(__file__), "..")
if REPO_ROOT not in sys.path:
    sys.path.insert(0, REPO_ROOT)

from tools.fingerprint import fingerprint  # noqa: E402


def test_fingerprint_is_deterministic_seeded_and_fast():
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, os.path.join("tools", "fingerprint.py")],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stderr
    assert elapsed < 5.0, f"fingerprint took {elapsed:.2f} s"
    first = json.loads(done.stdout)
    assert sorted(first) == ["grid", "workloads"]
    assert len(first["grid"]) == 48  # 6 archs × 2 policies × 2 overlaps × 2 fleets
    assert sorted(first["workloads"]) == ["plan_fleet", "serve_mixed",
                                          "train_cluster", "train_numerics"]

    # a second run, in another process, prints the same digests
    assert fingerprint(0) == first

    other = fingerprint(1)
    assert other.keys() == first.keys()
    for run, digests in first["grid"].items():
        assert other["grid"][run]["e1.loss"] != digests["e1.loss"], run
        assert other["grid"][run]["param0"] != digests["param0"], run
    for name, digests in first["workloads"].items():
        assert other["workloads"][name]["signature"] != \
            digests["signature"], name
