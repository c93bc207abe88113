"""Exact outputs on the fixed corpora of scripts/output_hash.py stay identical.

The core corpus covers decompose, min_reversal_vector on every cone,
efficiency_cone and count_reversals on every unit cycle, membership,
is_efficient up to n = 150, columns_common_cone, detect_column_perturbed
and convexity_report.  The CLI corpus covers every subcommand of
effvec.cli.main in text and JSON, with its options and error paths: exit
codes, stdout and stderr.  A change that moves any of these outputs changes
a hash.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = [
    "14427 results, sha256 8b2c616cbbbdf630fea48f04389279ebcc1530a97768e0e63092abba99f7f547",
    "cli 593 results, sha256 48fb4fab5811ec6ab364cebf770aa8a4747e3c1dee35d3e9e300223280d1a40f",
]


def test_output_hash_unchanged():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "output_hash.py")],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == EXPECTED
