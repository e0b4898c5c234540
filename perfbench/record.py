"""Records the ``replay`` workload's traces, in a process of its own.

    python3 perfbench/record.py <work dir> <seed> <traces> <traces per run call>

It writes the generated inputs of both recorded shapes, their traces under
``<work dir>/traces`` and their aggregate rows in
``<work dir>/recorded_rows.json``. The measuring process runs it before it
starts timing, so recording leaves no mark on that process's peak memory.
"""

from __future__ import annotations

import sys
from pathlib import Path

from setup_probe import import_program

if __name__ == "__main__":
    import_program()
    import measure

    work, seed, tasks, chunk = sys.argv[1:5]
    measure.record_traces(Path(work), int(seed), int(tasks), int(chunk))
