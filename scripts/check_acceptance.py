#!/usr/bin/env python3
"""Check that the acceptance suite prints the recorded ACCEPTANCE lines.

Runs `pytest -s tests/test_acceptance.py` (all eight criteria, the slow
Monte-Carlo ones included; about a minute on 2 cores), extracts the lines
that start with "ACCEPTANCE" and diffs them against
tests/acceptance_expected.txt.  Exits 0 when they match and 1 on any
difference, printing a unified diff.  The three red legs (criteria 2, 3 and
5) are recorded as they print, so a change that moves any printed number
shows up here whether the criterion passes or not.  A change that moves a
printout on purpose updates the expected file and says why.

Usage: python3 scripts/check_acceptance.py   (from any directory)
"""

import difflib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = ROOT / "tests" / "acceptance_expected.txt"


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
         "tests/test_acceptance.py"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    got = [line for line in done.stdout.splitlines() if line.startswith("ACCEPTANCE")]
    want = EXPECTED.read_text(encoding="utf-8").splitlines()
    diff = list(difflib.unified_diff(want, got, str(EXPECTED), "this run", lineterm=""))
    if diff:
        print("\n".join(diff))
        print(f"acceptance printout differs from {EXPECTED.name} "
              f"(pytest exit code {done.returncode})", file=sys.stderr)
        return 1
    print(f"all {len(got)} ACCEPTANCE lines match {EXPECTED.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
