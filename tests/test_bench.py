"""The benchmark calls package names that no check calls, such as
`autgroup.element_index` and `DualPairTable.all_outer_automorphisms`; a
traced run shows at once when one of them is removed or reshaped."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_the_traced_verify_all_run_fails_no_operation(package_env):
    command = [sys.executable, str(ROOT / "bench" / "traced.py"), "verify-all", "0"]
    completed = subprocess.run(
        command, capture_output=True, text=True, timeout=120, env=package_env
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.splitlines()[-1])
    assert result["failed"] == 0, result["errors"]
