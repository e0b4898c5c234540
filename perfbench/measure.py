"""One workload, measured in this process.

A measured run generates its inputs from the seed, sets the program up,
warms it with a couple of tasks, then makes run calls over fixed chunks of
the task pool. It makes whole passes over the pool: at least enough for
the workload's minimum of task runs, and as many as come closest to the
measuring time. ``offline_pages`` and ``live_fanout`` make each run call
through ``harness.run_benchmark`` (the ``agentmeter bench`` path);
``replay`` replays each trace of a chunk through ``harness.replay_run``
with re-recording on and aggregates the outcomes (the ``agentmeter replay
--trace-dir`` path).

Every time is rescaled to one host speed with the probe of
``hostspeed.py``, run between run calls; the plain wall-clock figures are
printed beside the result.

Every task execution is checked: its outcome against the generator's
design, its ledger against its outcome and its trace, and its outcome
against the first execution of the same task. Traced runs alternate each
chunk between an untraced and a traced execution, which gives the
tracing overhead and checks that tracing changes no result.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import agentmeter
from agentmeter import harness, ledger, session

import hostspeed
import inputs
import spans
import standin
from setup_probe import ROOT, bench_setup, replay_setup

HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"  # inputs and traces of a run, and span files

SETUP_PROBES = 11
SPEED_PROBES = 3  # host-speed probes at each run-call boundary; their median counts
WARMUP_TASKS = 2
# The live workload's latency: 6 ms per model call, 2 ms per provider
# request and 3 ms per fetch, all scaled by one factor so that 200 tasks
# on two clients fit in the measuring time.
LATENCY_SCALE = 0.4
MODEL_DELAY_S = 0.006 * LATENCY_SCALE
PROVIDER_DELAY_S = 0.002 * LATENCY_SCALE
FETCH_DELAY_S = 0.003 * LATENCY_SCALE
MIN_WAIT_SHARE = 0.70


@dataclass(frozen=True)
class Workload:
    name: str
    shape: str  # input shape of the timed tasks; "replay" records both shapes
    tasks: int  # tasks per pass over the pool; for "replay", traces recorded
    chunk: int  # tasks per run call
    clients: int
    delayed: bool
    min_runs: int  # task runs per measurement at least: 200 leave 10 beyond p95


WORKLOADS = {
    w.name: w
    for w in (
        Workload("offline_pages", "offline", 240, 12, 1, False, 240),
        Workload("live_fanout", "live", 204, 12, 2, True, 200),
        Workload("replay", "replay", 240, 24, 1, False, 240),
    )
}
RECORDED = ("offline", "live")  # shapes recorded in equal numbers for ``replay``

END_TO_END = (
    ("setup_s", "s"),
    ("tasks_per_s", "tasks/s"),
    ("task_ms_p50", "ms"),
    ("task_ms_p95", "ms"),
    ("step_ms_p50", "ms"),
    ("step_ms_p99", "ms"),
    ("pass_share", "ratio"),
    ("usd_per_solve", "USD"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    *spans.LAYER_METRICS,
    ("tracing.tasks_per_s_untraced", "tasks/s"),
    ("tracing.tasks_per_s_traced", "tasks/s"),
    ("tracing.overhead_tasks_per_s", "tasks/s"),
)


class Collector:
    """Times task and step boundaries and keeps what the checks need.

    It wraps the per-task entry points and ``RunSession.set_step``; this
    is all an untraced run adds to the program. Each boundary reads the
    clock and the thread's injected-latency totals; a task or step is kept
    as (seconds, busy seconds, injected latency asked for), where busy is
    the time not spent in injected waits.
    """

    def __init__(self) -> None:
        self.clear()
        self._local = threading.local()
        self._patches = [
            (harness, "execute_run", self._timed(harness.execute_run)),
            (harness, "replay_run", self._timed(harness.replay_run)),
            (session.RunSession, "set_step", self._marking(session.RunSession.set_step)),
        ]
        self._originals = [getattr(owner, attr) for owner, attr, _ in self._patches]
        for owner, attr, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def close(self) -> None:
        for (owner, attr, _), original in zip(self._patches, self._originals):
            setattr(owner, attr, original)

    def take(self) -> tuple[list[tuple], list[tuple], list[tuple]]:
        """The records, task times and step times since the last call."""
        taken = (self.records, self.task_s, self.steps)
        self.clear()
        return taken

    def clear(self) -> None:
        self.records: list[tuple] = []  # (outcome, ledger entries) not yet checked
        self.task_s: list[tuple[float, float, float]] = []
        self.steps: list[tuple[float, float, float]] = []

    def _timed(self, fn):
        local = self._local

        def run(*args, **kwargs):
            local.marks = marks = []
            start = _mark()
            outcome, record = fn(*args, **kwargs)
            end = _mark()
            marks.append(end)
            self.steps.extend(_span(a, b) for a, b in zip(marks, marks[1:]))
            self.task_s.append(_span(start, end))
            self.records.append((outcome, record.ledger.entries))
            return outcome, record

        return run

    def _marking(self, fn):
        local = self._local

        def set_step(run_session, index):
            local.marks.append(_mark())
            return fn(run_session, index)

        return set_step


def _mark() -> tuple[float, float, float]:
    return (time.perf_counter(), *standin.latency_s())


def _span(a: tuple, b: tuple) -> tuple[float, float, float]:
    """Seconds between two marks, the busy seconds among them, and the
    injected latency asked for in between."""
    wall = b[0] - a[0]
    return wall, wall - (b[2] - a[2]), b[1] - a[1]


def outcome_key(o) -> tuple:
    return (o.task_id, o.level, o.solved, o.final_answer, o.cost_pico, o.total_tokens, o.terminated_by.value)


def row_key(r) -> tuple:
    return (r.scope.value, r.task_count, r.solved_count, r.total_cost_pico, r.total_tokens)


def digest(outcomes, rows) -> str:
    """Results digest: sorted outcomes plus aggregate rows."""
    payload = {"outcomes": sorted(outcome_key(o) for o in outcomes), "rows": [row_key(r) for r in rows]}
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def speed_probe() -> float:
    """Seconds the host-speed probe takes now: the median of a few."""
    return statistics.median(hostspeed.probe() for _ in range(SPEED_PROBES))


def measure_setup(kind: str, dirs: list[Path]) -> float:
    """The median of several program set-ups, each in a fresh interpreter
    and rescaled to the reference host speed."""
    times = []
    for _ in range(SETUP_PROBES):
        before = hostspeed.probe()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), kind, *map(str, dirs)],
            capture_output=True, text=True, cwd=ROOT, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        wall, after = map(float, proc.stdout.split()[-2:])
        times.append(hostspeed.rescale(wall, 0.0, (before + after) / 2))
    return statistics.median(times)


class Checker:
    """Output checks; a task execution failing any of them is a failed run."""

    def __init__(self, designs: dict, pricing_for):
        self.designs = designs
        self.pricing_for = pricing_for
        self.reference: dict[str, tuple] = {}
        self.failed_runs = 0
        self.problems: list[str] = []

    def task(self, outcome, entries, trace_cost: int | None, trace_problem: str | None) -> None:
        tid = outcome.task_id
        design = self.designs[tid]
        found = []
        if outcome.terminated_by.value != design.terminated_by or outcome.solved != design.solved:
            found.append(
                f"ended {outcome.terminated_by.value} solved={outcome.solved}, "
                f"designed {design.terminated_by} solved={design.solved}"
            )
        pricing = self.pricing_for(tid)
        for e in entries:
            price = pricing.lookup(e.model_id)
            if (e.input_cost_pico != e.prompt_tokens * price.input_pico_per_token
                    or e.output_cost_pico != e.completion_tokens * price.output_pico_per_token):
                found.append("a ledger entry is priced wrongly")
                break
        ledger_total = sum(e.cost_pico for e in entries)
        if ledger_total != outcome.cost_pico:
            found.append(f"ledger total {ledger_total} != outcome cost {outcome.cost_pico}")
        if trace_cost is not None and trace_cost != outcome.cost_pico:
            found.append(f"trace result cost {trace_cost} != outcome cost {outcome.cost_pico}")
        if trace_problem:
            found.append(trace_problem)
        key = outcome_key(outcome)
        if self.reference.setdefault(tid, key) != key:
            found.append("outcome differs from the task's first execution")
        if found:
            self.failed_runs += 1
            self.problems.append(f"{tid}: {'; '.join(found)}")


def _collaborators(designs: dict, setup, delayed: bool):
    """The model stand-in, providers and fetcher, each behind its latency wrapper."""
    model, provider, fetch = (MODEL_DELAY_S, PROVIDER_DELAY_S, FETCH_DELAY_S) if delayed else (0, 0, 0)
    backend = standin.DesignBackend(list(designs.values()), setup.config.bon_n)
    return (
        standin.DelayedBackend(backend, model),
        [standin.DelayedSearchProvider(p, provider) for p in setup.providers],
        standin.DelayedFetcher(setup.fetcher, fetch),
    )


def _chunks(items: list, size: int) -> list[list]:
    return [items[i : i + size] for i in range(0, len(items), size)]


class BenchRuns:
    """``offline_pages`` and ``live_fanout``: run calls through ``run_benchmark``."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.workload = workload
        self.input_dir = work / workload.shape
        self.trace_dir = work / "traces" / workload.shape
        shape = inputs.SHAPES[workload.shape]
        designs = inputs.generate(self.input_dir, shape, seed, workload.tasks, workload.chunk)
        self.designs = {d.task_id: d for d in designs}
        self.recorded_rows: dict[str, list] = {}

    def probe_args(self) -> tuple[str, list[Path]]:
        return "bench", [self.input_dir]

    def prepare(self) -> None:
        """Program set-up, untimed."""
        self.setup = bench_setup(self.input_dir)
        self.backend, self.providers, self.fetcher = _collaborators(
            self.designs, self.setup, self.workload.delayed
        )
        self.chunks = _chunks(self.setup.tasks, self.workload.chunk)

    def pricing_for(self, task_id: str):
        return self.setup.pricing

    def run_call(self, chunk) -> list:
        """One run call over a chunk; returns its outcomes sorted by task id."""
        s = self.setup
        outcomes, _ = harness.run_benchmark(
            chunk, s.config, self.backend, s.pricing, workers=self.workload.clients,
            providers=self.providers, fetcher=self.fetcher, trace_dir=self.trace_dir,
        )
        return outcomes

    def trace_results(self, chunk) -> dict[str, tuple[int, str | None]]:
        """Per task: the trace's result cost, and a problem with the trace if any."""
        cfg_hash = agentmeter.config_hash(self.setup.config)
        results = {}
        for task in chunk:
            path = self.trace_dir / agentmeter.trace_filename(task.task_id, cfg_hash)
            results[task.task_id] = (agentmeter.read_trace(path).result["cost_pico"], None)
        return results


def record_traces(work: Path, seed: int, tasks: int, chunk: int) -> None:
    """Generate the ``replay`` inputs and record their traces through
    ``run_benchmark``, with the aggregate rows of each shape beside them."""
    # each run call holds traces of both shapes in equal numbers
    n, block = tasks // len(RECORDED), chunk // len(RECORDED)
    rows = {}
    for shape in RECORDED:
        designs = inputs.generate(work / shape, inputs.SHAPES[shape], seed, n, block)
        setup = bench_setup(work / shape)
        backend, providers, fetcher = _collaborators({d.task_id: d for d in designs}, setup, delayed=False)
        _, report = agentmeter.run_benchmark(
            setup.tasks, setup.config, backend, setup.pricing,
            providers=providers, fetcher=fetcher, trace_dir=work / "traces" / shape,
        )
        rows[shape] = [row_key(r) for r in report.rows]
    (work / "recorded_rows.json").write_text(json.dumps(rows), encoding="utf-8")


class ReplayRuns:
    """``replay``: recorded traces of both shapes, replayed with re-recording on."""

    backend = fetcher = None
    providers = ()

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.trace_dirs = [work / "traces" / shape for shape in RECORDED]

    def probe_args(self) -> tuple[str, list[Path]]:
        return "replay", self.trace_dirs

    def prepare(self) -> None:
        """Record the traces in a child process, so that this process's peak
        memory covers only trace discovery and replay; then discover them."""
        w = self.workload
        subprocess.run(
            [sys.executable, str(HERE / "record.py"), str(self.work), str(self.seed), str(w.tasks), str(w.chunk)],
            check=True, cwd=ROOT, timeout=120,
        )
        self.designs = {d.task_id: d for shape in RECORDED for d in inputs.load_designs(self.work / shape)}
        rows = json.loads((self.work / "recorded_rows.json").read_text(encoding="utf-8"))
        self.recorded_rows = {shape: [tuple(r) for r in rows[shape]] for shape in RECORDED}
        traces = replay_setup(self.trace_dirs)
        if len(traces) != w.tasks:
            raise RuntimeError(f"found {len(traces)} recorded traces")
        by_shape = [[p for p in traces if p.parent == d] for d in self.trace_dirs]
        self.chunks = _chunks([p for group in zip(*by_shape) for p in group], w.chunk)
        self._pricing = {}
        for path in traces:
            header = agentmeter.read_trace(path).header
            self._pricing[header["task_id"]] = agentmeter.PricingTable.from_snapshot(header["pricing"])

    def pricing_for(self, task_id: str):
        return self._pricing[task_id]

    def _copy(self, path: Path) -> Path:
        return self.work / "rerecorded" / path.parent.name / path.name

    def run_call(self, chunk) -> list:
        """Replay each trace of the chunk, then aggregate, as ``agentmeter replay`` does."""
        outcomes = []
        for path in chunk:
            outcome, _ = harness.replay_run(path, trace_dir=self._copy(path).parent)
            outcomes.append(outcome)
        outcomes.sort(key=lambda o: o.task_id)
        ledger.aggregate(o.as_tuple() for o in outcomes)
        return outcomes

    def trace_results(self, chunk) -> dict[str, tuple[int, str | None]]:
        results = {}
        for path in chunk:
            copy = self._copy(path)
            data = agentmeter.read_trace(path)
            same = copy.is_file() and copy.read_bytes() == path.read_bytes()
            problem = None if same else "re-recorded trace differs from its source"
            results[data.header["task_id"]] = (data.result["cost_pico"], problem)
        return results


def run(workload: Workload, seed: int, seconds: float, trace: bool, work: Path | None = None) -> int:
    """Measure one workload; prints the result line and returns the exit code."""
    work = work or WORK / f"{workload.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return _run(workload, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(workload: Workload, seed: int, seconds: float, trace: bool, work: Path) -> int:
    bench = (ReplayRuns if workload.shape == "replay" else BenchRuns)(workload, seed, work)
    bench.prepare()
    setup_s = None if trace else measure_setup(*bench.probe_args())
    checker = Checker(bench.designs, bench.pricing_for)
    collector = Collector()
    try:
        bench.run_call(bench.chunks[0][:WARMUP_TASKS])
        collector.clear()

        n_chunks = len(bench.chunks)
        # per mode: (wall-clock, rescaled) tasks/s of each run call
        rates: dict[bool, list[tuple[float, float]]] = {False: [], True: []}
        task_s: list[tuple[float, float]] = []  # (wall-clock, rescaled) seconds
        step_s: list[tuple[float, float]] = []
        first_pass: dict[int, list] = {}
        trace_checked: set = set()
        first_tracer = spans.Tracer()
        attempted = 0
        speed = speed_probe()
        start = time.perf_counter()
        for n in itertools.count():
            index = n % n_chunks
            chunk = bench.chunks[index]
            modes = (False,)
            if trace:
                # alternate which goes first, round by round, so warm-up favours neither
                modes = (False, True) if (n + n // n_chunks) % 2 == 0 else (True, False)
            for traced in modes:
                tracer = None
                if traced:
                    tracer = first_tracer if n < n_chunks else spans.Tracer()
                    spans.instrument(tracer, bench.backend, bench.providers, bench.fetcher)
                t0 = time.perf_counter()
                try:
                    outcomes = bench.run_call(chunk)
                finally:
                    t1 = time.perf_counter()
                    if tracer is not None:
                        tracer.uninstall()
                # the host's speed over the call: the mean of the probes either side
                before, speed = speed, speed_probe()
                probe_s = (before + speed) / 2
                records, tasks, steps = collector.take()
                tasks = [(w, hostspeed.rescale(busy, latency, probe_s)) for w, busy, latency in tasks]
                # the call rescaled as its tasks are; with two clients they overlap
                scale = sum(r for _, r in tasks) / sum(w for w, _ in tasks)
                rates[traced].append((len(chunk) / (t1 - t0), len(chunk) / ((t1 - t0) * scale)))
                first_pass.setdefault(index, outcomes)
                traces = {}
                if (index, traced) not in trace_checked:
                    trace_checked.add((index, traced))
                    traces = bench.trace_results(chunk)
                if not traced:
                    task_s.extend(tasks)
                    step_s.extend((w, hostspeed.rescale(busy, latency, probe_s)) for w, busy, latency in steps)
                for outcome, entries in records:
                    attempted += 1
                    cost, problem = traces.get(outcome.task_id, (None, None))
                    checker.task(outcome, entries, cost, problem)
            # whole passes only, so every task weighs the same in the
            # percentiles: as many as come closest to the measuring time
            if (n + 1) % n_chunks == 0 and attempted >= workload.min_runs:
                so_far = time.perf_counter() - start
                if so_far + so_far / ((n + 1) // n_chunks) / 2 >= seconds:
                    break
        elapsed = time.perf_counter() - start
    finally:
        collector.close()

    outcomes = [o for index in sorted(first_pass) for o in first_pass[index]]
    rows = agentmeter.aggregate(o.as_tuple() for o in outcomes)
    run_ok = True
    for shape, recorded in bench.recorded_rows.items():
        replayed = [o for o in outcomes if o.task_id.startswith(f"{shape}-")]
        if [row_key(r) for r in agentmeter.aggregate(o.as_tuple() for o in replayed)] != recorded:
            checker.problems.append(f"replayed {shape} aggregate rows differ from the recorded rows")
            run_ok = False
    failed = checker.failed_runs + (0 if run_ok else 1)
    correct = failed == 0

    print(f"workload {workload.name}: seed {seed}, {attempted} task runs in {elapsed:.1f} s "
          f"over {len(rates[False]) + len(rates[True])} run calls")
    print(f"digest {workload.name} {digest(outcomes, rows)}")
    for problem in checker.problems[:20]:
        print(f"check failed: {problem}")
    print(f"output checks: {'PASS' if correct else 'FAIL'}")

    if trace:
        metrics = _layer_report(workload, first_tracer, rates, work.parent / f"{workload.name}.spans.jsonl.gz")
    else:
        print(f"samples: {len(task_s)} tasks, {len(step_s)} steps")
        timings = {}
        for col, label in ((0, "wall-clock"), (1, "rescaled")):
            task_ms = [1000.0 * t[col] for t in task_s]
            step_ms = [1000.0 * t[col] for t in step_s]
            timings[label] = {
                "tasks_per_s": statistics.median(r[col] for r in rates[False]),
                "task_ms_p50": statistics.median(task_ms),
                "task_ms_p95": percentile(task_ms, 95),
                "step_ms_p50": statistics.median(step_ms),
                "step_ms_p99": percentile(step_ms, 99),
            }
        print("wall-clock: " + "  ".join(f"{k}={v:.6g}" for k, v in timings["wall-clock"].items()))
        values = {
            "setup_s": setup_s,
            **timings["rescaled"],
            "pass_share": (attempted - failed) / attempted,
            "usd_per_solve": rows[0].cost_of_pass_usd,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def _layer_report(workload: Workload, tracer: spans.Tracer, rates, spans_path: Path) -> dict:
    totals = tracer.totals()
    values = spans.layer_metrics(totals)
    untraced = statistics.median(rescaled for _, rescaled in rates[False])
    traced = statistics.median(rescaled for _, rescaled in rates[True])
    values["tracing.tasks_per_s_untraced"] = untraced
    values["tracing.tasks_per_s_traced"] = traced
    values["tracing.overhead_tasks_per_s"] = untraced - traced
    tracer.write(spans_path)

    ranking = spans.self_time_ranking(totals)
    print("self time over the first traced pass (ms):")
    for name, ms in ranking[:12]:
        print(f"  {name:48s} {ms:10.1f}")
    if workload.name == "offline_pages":
        ok = ranking[0][0] == "tools.extract_static_text"
        detail = f"largest self time: {ranking[0][0]}"
    elif workload.name == "live_fanout":
        ok = values["latency.wait_share"] >= MIN_WAIT_SHARE
        detail = f"waiting is {values['latency.wait_share']:.1%} of task time"
    else:
        idle = ("tools.extract_static_text.calls", "tools.fetch.calls",
                "tools.search.provider_requests", "backend.complete.calls")
        ok = all(values[k] == 0 for k in idle)
        detail = ", ".join(f"{k}={values[k]:g}" for k in idle)
    print(f"purpose check: {'PASS' if ok else 'FAIL'} ({detail})")
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
