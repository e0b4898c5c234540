"""Send every row of the refusal table (``OUTSIDE_INPUTS`` in test_cli.py)
through the installed ``agentmeter`` script, checked as the tier-1 test
checks it in-process. Exits 1, naming each row that fails, if any does.

    python tests/installed_refusals.py
"""

import subprocess
import sys
import tempfile
from pathlib import Path

from test_cli import OUTSIDE_INPUTS, check_refusal, refusal_argv


def main() -> int:
    if not __debug__:  # -O strips the asserts check_refusal checks with
        sys.exit("run without -O")
    failed = []
    for case in OUTSIDE_INPUTS:
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            run = subprocess.run(["agentmeter", *refusal_argv(case, root)],
                                 capture_output=True, text=True, encoding="utf-8")
            try:
                check_refusal(case, root, run.returncode, run.stdout, run.stderr)
            except AssertionError as exc:
                failed.append(case)
                print(f"FAIL {case}: {exc}")
    print(f"{len(OUTSIDE_INPUTS) - len(failed)} of {len(OUTSIDE_INPUTS)} rows refused "
          "as the table says")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
