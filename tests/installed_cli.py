"""Send every row of the refusal and round-trip tables (``OUTSIDE_INPUTS`` and
``ROUND_TRIPS`` in test_cli.py) through the installed ``agentmeter`` script,
checked as the tier-1 tests check them in-process. Exits 1, naming each row
that fails, if any does.

    python tests/installed_cli.py
"""

import subprocess
import sys
import tempfile
import traceback
from functools import partial
from pathlib import Path

from test_cli import OUTSIDE_INPUTS, ROUND_TRIPS, check_refusal

ROWS = {**{f"refusal {case}": partial(check_refusal, case) for case in OUTSIDE_INPUTS},
        **{f"round trip {name}": row for name, row in ROUND_TRIPS.items()}}


def agentmeter(*argv) -> tuple[int, str, str]:
    run = subprocess.run(["agentmeter", *map(str, argv)], capture_output=True, encoding="utf-8")
    return run.returncode, run.stdout, run.stderr


def main() -> int:
    if not __debug__:  # -O strips the asserts the rows check with
        sys.exit("run without -O")
    failed = []
    for name, row in ROWS.items():
        with tempfile.TemporaryDirectory() as tmp:
            try:
                row(agentmeter, Path(tmp))
            except Exception as exc:  # a failed assert, or a file the row expected missing
                failed.append(name)
                where = traceback.extract_tb(exc.__traceback__)[-1]
                print(f"FAIL {name}: {Path(where.filename).name}:{where.lineno}: {where.line}: "
                      f"{type(exc).__name__}: {exc}")
    print(f"{len(ROWS) - len(failed)} of {len(ROWS)} rows passed through the installed script")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
