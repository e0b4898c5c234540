"""agentmeter's own set-up for a workload, and a probe that times it.

``bench_setup`` is what ``agentmeter bench --fixtures`` does before its
first task: load the config and the task file, load the fixture pages and
build the search providers. ``replay_setup`` is what ``agentmeter
replay`` does: find the traces. Input generation is not part of either.

Run as a script, it times ``import agentmeter`` plus one of them in a
fresh interpreter, so the import is cold for the process. It prints the
seconds taken, and then the seconds the host-speed probe takes right
after (see ``hostspeed.py``):

    python3 perfbench/setup_probe.py bench <input dir>
    python3 perfbench/setup_probe.py replay <trace dir>...
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def import_program():
    """Import agentmeter from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import agentmeter

    if not Path(agentmeter.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"agentmeter imported from {agentmeter.__file__}, not {src}")
    return agentmeter


@dataclass
class BenchSetup:
    config: object
    pricing: object
    tasks: list
    fetcher: object
    providers: list


def bench_setup(root: Path) -> BenchSetup:
    import agentmeter

    root = Path(root)
    config, pricing = agentmeter.load_config(root / "config.ini")
    tasks = agentmeter.load_tasks(root / "tasks.jsonl")
    fetcher = agentmeter.FixtureFetcher.from_dir(root / "pages")
    canned = json.loads((root / "searches.json").read_text(encoding="utf-8"))
    providers = [
        agentmeter.FixtureSearchProvider(
            name, {q: [tuple(row) for row in rows] for q, rows in canned[name].items()}
        )
        for name in config.source_set.providers
    ]
    return BenchSetup(config, pricing, tasks, fetcher, providers)


def replay_setup(dirs: list[Path]) -> list[Path]:
    return sorted(p for d in dirs for p in Path(d).glob("*.trace"))


def main(argv: list[str]) -> int:
    kind, dirs = argv[0], [Path(d) for d in argv[1:]]
    start = time.perf_counter()
    import_program()
    if kind == "replay":
        replay_setup(dirs)
    else:
        bench_setup(dirs[0])
    elapsed = time.perf_counter() - start
    import hostspeed  # only now: its imports must not warm the set-up

    print(repr(elapsed), repr(hostspeed.probe()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
