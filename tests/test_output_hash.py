"""Exact outputs on the fixed corpus of scripts/output_hash.py stay identical.

The corpus covers decompose, membership, is_efficient up to n = 150,
columns_common_cone, detect_column_perturbed and convexity_report.  A
change to the exact core that moves any of these outputs changes the hash.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = "6270 results, sha256 5b758c138b0143ea469251d47414bf544bc6f888a3ec1f2db09f85f5f79a5b3a"


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
    assert result.stdout.strip() == EXPECTED
