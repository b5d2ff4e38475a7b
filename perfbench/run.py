#!/usr/bin/env python3
"""qhit benchmark: the time to a cross-checked mean hitting time.

A solve runs all four routes (series, analytic-K, ksmh-ginverse, ksmh-group)
on one (S, V, rho) and checks every route's tau against an independent
oracle.  Closed loop, one client, one process: the next solve starts when the
previous one ends, and CLI subprocesses run one at a time.  BLAS thread
variables are left as the user's environment has them, and recorded.

    python3 perfbench/run.py                       # every workload, untraced and traced
    python3 perfbench/run.py --workload random-dense --seed 3 --trace 0

Workloads: random-dense, slow-mixing, cli-corpus (see perfbench/README.md).
With one workload and one --trace value, the last stdout line is the result
object {"correct", "attempted", "failed", "metrics"}; --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones from a traced run.
--seconds is the length of the timed loop of one such run; it defaults to
run_seconds of BENCHMARK.json, the one place the run length is set.
Results, environment, samples and spans are also written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# The sibling modules inputs and spans load numpy, so they are imported inside
# functions: set-up must time `import qhit` in a process without numpy yet.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("random-dense", "slow-mixing", "cli-corpus")
SETUP_RUNS = 10  # set-ups whose time is medianed: this process and fresh probes
PROBE_RUNS = 3  # interpreter-start and import-time probes per traced run
CLI_PASS_ROUNDS = 5  # traced in-process CLI rounds over the corpus specs


def run_seconds() -> float:
    return float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def import_qhit():
    """Import qhit from this checkout's src/; refuse a tree without it."""
    if not (SRC / "qhit" / "__init__.py").is_file() or not (ROOT / "tests" / "corpus").is_dir():
        sys.stderr.write(f"perfbench: no qhit sources or corpus under {ROOT}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import qhit
    return qhit


def quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


# ----------------------------------------------------------------- set-up

def set_up(workload: str, seed: int) -> tuple:
    """Import qhit, build the first round's inputs through qhit and make one
    warm-up solve.  Returns (qhit, seconds, first round).  The benchmark's
    own RNG and oracle are not timed.

    On cli-corpus a round is one CLI case per spec, the seed choosing the
    first spec; set-up imports qhit.cli and makes one in-process CLI call."""
    t = perf_counter()
    qhit = import_qhit()
    seconds = perf_counter() - t
    import inputs
    build = inputs.Build(qhit, perf_counter)
    if workload == "cli-corpus":
        k = seed % len(inputs.CLI_SPECS)
        first = [inputs.cli_case(s) for s in inputs.CLI_SPECS[k:] + inputs.CLI_SPECS[:k]]
        t = perf_counter()
        import qhit.cli  # noqa: F401
        cli_in_process(qhit, first[0])
    else:
        first = [inputs.UNITS[workload](build, seed, k)
                 for k in range(inputs.ROUND[workload])]
        t = perf_counter()
        solve_routes(qhit, first[0][0])
    seconds += perf_counter() - t
    return qhit, seconds + build.seconds, first


class SetupProbes:
    """Set-up time in fresh interpreters running this file, spread evenly over
    the timed loop so that the machine's drift reaches set-up and solves alike.
    The time spent probing is left out of the loop's budget."""

    def __init__(self, workload: str, seed: int, count: int, budget: float):
        self.argv = [sys.executable, __file__, "--setup-probe", "--workload",
                     workload, "--seed", str(seed)]
        self.count, self.budget = count, budget
        self.samples = []
        self.seconds = 0.0

    def _probe(self):
        t = perf_counter()
        proc = subprocess.run(self.argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        self.samples.append(float(proc.stdout.strip().splitlines()[-1]))
        self.seconds += perf_counter() - t

    def due(self, elapsed: float):
        while len(self.samples) < self.count and len(self.samples) * self.budget <= elapsed * self.count:
            self._probe()

    def finish(self):
        while len(self.samples) < self.count:
            self._probe()


def timed_rounds(budget: float, probes: SetupProbes | None = None):
    """Yield 0, 1, ... until `budget` seconds of rounds have run; set-up
    probes, if any, run between rounds when due."""
    start = perf_counter()
    r = 0
    while True:
        elapsed = perf_counter() - start - (probes.seconds if probes else 0.0)
        if elapsed >= budget:
            break
        if probes:
            probes.due(elapsed)
        yield r
        r += 1
    if probes:
        probes.finish()


# ------------------------------------------------------------------ solves

def solve_routes(qhit, solve) -> tuple:
    """The four tau_channel calls of one solve: (total s, [outcome per route])."""
    import inputs
    outcomes = []
    t0 = perf_counter()
    for m in inputs.METHODS:
        try:
            rep = qhit.tau_channel(solve.S, solve.V, solve.rho, m)
            outcomes.append(inputs.RouteOutcome(m, bool(rep.ok), rep.tau))
        except qhit.QhitError as exc:
            outcomes.append(inputs.RouteOutcome(m, False, None, f"refused: {exc!r}"))
        except Exception as exc:  # the gate counts any other raise as a failure
            outcomes.append(inputs.RouteOutcome(m, False, None, f"raised: {exc!r}"))
    return perf_counter() - t0, outcomes


def cli_in_process(qhit, case) -> tuple:
    """qhit.cli.main(argv) in this process: (seconds, exit code, stdout)."""
    buf = io.StringIO()
    t = perf_counter()
    with contextlib.redirect_stdout(buf):
        code = qhit.cli.main(list(case.argv))
    return perf_counter() - t, code, buf.getvalue()


def cli_subprocess(case, env) -> tuple:
    """A fresh `python -m qhit.cli` run: (seconds, exit code, stdout, max RSS KiB)."""
    t = perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "qhit.cli", *case.argv],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)  # wait4: this child's own rusage
    seconds = perf_counter() - t
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, out, usage.ru_maxrss


class Gate:
    """Counts operations and failures; keeps (solve, route, reason) for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def routes(self, solve, outcomes):
        import inputs
        for out in outcomes:
            self.attempted += 1
            why = inputs.route_failure(out, solve.oracle)
            if why:
                self.failures.append((solve.label, out.route, why))

    def cli(self, case, code: int, stdout: str):
        import inputs
        self.attempted += 1
        why = inputs.cli_failure(case, code, stdout)
        if why:
            self.failures.append((case.spec, "cli", why))


# ------------------------------------------------------------------- loops
#
# A record is (label, solve seconds).  Loops run whole rounds until the time
# budget has passed.  In a traced run every round runs twice, untraced and
# traced, the order alternating by round, so that the tracing overhead is
# measured under the same machine load.

def passes(r: int, tracer) -> list:
    if tracer is None:
        return [None]
    return [None, tracer] if r % 2 == 0 else [tracer, None]


def solve_units(qhit, units, gate, tracer=None) -> list:
    records = []
    for unit in units:
        for solve in unit:
            span = tracer.begin_solve(solve.label) if tracer else None
            total, outcomes = solve_routes(qhit, solve)
            if tracer:
                tracer.end_solve(span)
            gate.routes(solve, outcomes)
            records.append((solve.label, total))
    return records


def cli_round(qhit, cases, gate, tag: str, tracer=None) -> list:
    """One in-process all-routes qhit.cli.main call per case."""
    records = []
    for case in cases:
        label = f"{tag}/{case.spec}"
        span = tracer.begin_solve(label) if tracer else None
        seconds, code, out = cli_in_process(qhit, case)
        if tracer:
            tracer.end_solve(span)
        gate.cli(case, code, out)
        records.append((label, seconds))
    return records


def in_process_loop(qhit, workload, seed, first, gate, budget, tracer=None,
                    probes=None) -> tuple:
    """Rounds of solves over units 0, 1, ...; a second pass over a round gets
    freshly built qhit objects.  Returns (untraced, traced) records."""
    import inputs
    per_round = inputs.ROUND[workload]
    out = {False: [], True: []}
    for r in timed_rounds(budget, probes):
        for i, t in enumerate(passes(r, tracer)):
            units = first if r == 0 and i == 0 else [
                inputs.UNITS[workload](inputs.Build(qhit, perf_counter), seed, k)
                for k in range(r * per_round, (r + 1) * per_round)]
            with t or contextlib.nullcontext():
                out[t is not None] += solve_units(qhit, units, gate, t)
    return out[False], out[True]


def cli_in_process_loop(qhit, cases, gate, budget, tracer) -> tuple:
    """Rounds of in-process CLI calls.  Returns (untraced, traced) records."""
    out = {False: [], True: []}
    for r in timed_rounds(budget):
        for t in passes(r, tracer):
            tag = f"{'traced' if t else 'untraced'}/r{r}"
            with t or contextlib.nullcontext():
                out[t is not None] += cli_round(qhit, cases, gate, tag, t)
    return out[False], out[True]


def cli_subprocess_loop(cases, gate, budget, probes) -> tuple:
    """One fresh all-routes CLI process per spec in turn, until `budget` has
    passed.  Returns (records, max RSS KiB per process)."""
    env = child_env()
    records, rss = [], []
    for i in timed_rounds(budget, probes):
        case = cases[i % len(cases)]
        seconds, code, out, maxrss = cli_subprocess(case, env)
        gate.cli(case, code, out)
        rss.append(maxrss)
        records.append((f"{case.spec}/v{i}", seconds))
    return records, rss


# ----------------------------------------------------------------- metrics

def solve_metrics(records) -> dict:
    """End-to-end timing metrics: name -> (value, unit, samples)."""
    totals = [s for _, s in records]
    return {
        "solve_ms.p50": (statistics.median(totals) * 1e3, "ms", len(totals)),
        "solve_ms.p90": (quantile(totals, 0.9) * 1e3, "ms", len(totals)),
        "solves_per_s": (len(totals) / sum(totals), "1/s", len(totals)),
    }


def importtime_probe(env) -> dict:
    """Cumulative import seconds of qhit and scipy.linalg in one CLI run, from
    -X importtime.  scipy.linalg is imported after the CLI has run, so it is
    timed even if the CLI never imports it."""
    code = ("import runpy, sys\n"
            "sys.argv = ['qhit', 'hitting', 'tests/corpus/sec5.json', '--json']\n"
            "try:\n"
            "    runpy.run_module('qhit.cli', run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    assert not exc.code, exc.code\n"
            "import scipy.linalg\n")
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", code],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=120, check=True)
    found = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and parts[-1].strip() in ("qhit", "scipy.linalg"):
            found[parts[-1].strip()] = int(parts[1]) * 1e-6
    return found


def interpreter_probe(env) -> float:
    t = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env, check=True,
                   timeout=120)
    return perf_counter() - t


def layer_metrics(tracer, solve_ids, cli_ids, untraced, traced) -> dict:
    """Per-layer metrics from the traced spans: name -> (value, unit, samples)."""
    import inputs
    import spans
    table = spans.per_solve(tracer.spans, solve_ids)
    cli_table = spans.per_solve(tracer.spans, cli_ids)
    missing = (spans.missing_spans(table, spans.SOLVE_SPANS)
               + spans.missing_spans(cli_table, spans.CLI_SPANS))
    if missing:
        raise RuntimeError(f"expected spans did not fire: {missing}")
    out = {}
    routes = spans.route_seconds(tracer.spans, solve_ids)
    for m in inputs.METHODS:
        out[f"route_ms.{m}.p50"] = (statistics.median(routes[m]) * 1e3, "ms",
                                    len(routes[m]))
    for name in spans.SOLVE_SPANS:
        value, n = spans.median_self_ms(table, name)
        out[f"{name}.self_ms"] = (value, "ms", n)
    for name in ("channel.diagnose", "ginverse.rank_with_margin",
                 "ginverse.group_inverse"):
        value, n = spans.median_calls(table, name)
        out[f"{name}.calls"] = (value, "count", n)
    series = [d["monitor.first_visit_series"] for d in table.values()
              if "monitor.first_visit_series" in d]
    out["monitor.series.steps"] = (statistics.median(r[3] for r in series),
                                   "count", len(series))
    out["monitor.step_us"] = (statistics.median(r[1] / r[3] * 1e6 for r in series),
                              "us", len(series))
    parse = spans.outermost_seconds(tracer.spans, cli_ids, spans.CLI_PARSE)
    out["cli.parse_ms"] = (statistics.median(parse.values()) * 1e3, "ms", len(parse))
    mains = [d["cli.main"][2] for d in cli_table.values()]
    out["cli.main_ms"] = (statistics.median(mains) * 1e3, "ms", len(mains))
    base = statistics.median(s for _, s in untraced)
    out["trace.overhead_ratio"] = (statistics.median(s for _, s in traced) / base,
                                   "ratio", len(traced))
    return out


def probe_metrics(env) -> dict:
    starts = [interpreter_probe(env) for _ in range(PROBE_RUNS)]
    imports = [importtime_probe(env) for _ in range(PROBE_RUNS)]
    return {
        "cli.interpreter_s": (statistics.median(starts), "s", len(starts)),
        "cli.import_qhit_s": (statistics.median(d["qhit"] for d in imports),
                              "s", len(imports)),
        "cli.import_scipy_linalg_s": (
            statistics.median(d["scipy.linalg"] for d in imports), "s", len(imports)),
    }


# --------------------------------------------------------------------- run

def environment(seed: int) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
        "git_commit": commit,
        "seed": seed,
    }


def traced_layers(qhit, workload, seed, gate, tracer, untraced, traced) -> dict:
    """Per-layer metrics from a traced run; on the in-process workloads a
    traced pass over the corpus specs through qhit.cli.main comes first."""
    import inputs
    cli_records = traced
    if workload != "cli-corpus":
        cases = [inputs.cli_case(s) for s in inputs.CLI_SPECS]
        with tracer:
            cli_records = [rec for r in range(CLI_PASS_ROUNDS)
                           for rec in cli_round(qhit, cases, gate, f"cli/r{r}", tracer)]
    tracer.dump(OUT / f"spans-{workload}-seed{seed}.json")
    layers = layer_metrics(tracer, [r[0] for r in traced],
                           [r[0] for r in cli_records], untraced, traced)
    layers.update(probe_metrics(child_env()))
    return layers


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Untraced: end-to-end metrics over `seconds` of solves.  Traced:
    per-layer metrics from rounds run both untraced and traced within
    `seconds`."""
    qhit, setup_s, first = set_up(workload, seed)
    gate = Gate()
    tracer = probes = None
    if trace:
        import qhit.cli  # noqa: F401  (loaded before its functions are wrapped)
        import spans
        tracer = spans.Tracer()
    else:
        probes = SetupProbes(workload, seed, SETUP_RUNS - 1, seconds)
    if workload == "cli-corpus" and trace:
        untraced, traced = cli_in_process_loop(qhit, first, gate, seconds, tracer)
    elif workload == "cli-corpus":
        untraced, rss = cli_subprocess_loop(first, gate, seconds, probes)
        peak_rss = (max(rss) / 1024, "MiB", len(rss))
    else:
        untraced, traced = in_process_loop(qhit, workload, seed, first, gate,
                                           seconds, tracer, probes)
        peak_rss = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB", 1)

    metrics, layers, setups = {}, {}, [setup_s]
    if trace:
        layers = traced_layers(qhit, workload, seed, gate, tracer, untraced, traced)
    else:
        setups += probes.samples
        metrics = {"setup_s": (statistics.median(setups), "s", len(setups)),
                   **solve_metrics(untraced), "peak_rss_mib": peak_rss}
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "environment": environment(seed), "end_to_end": metrics,
            "per_layer": layers, "attempted": gate.attempted,
            "failed": len(gate.failures), "failures": gate.failures,
            "samples": {"setup_s": setups, "solves": untraced}}


def report(result: dict) -> dict:
    """Print every metric with unit and sample count; return the result line."""
    print(f"== {result['workload']}  seed={result['seed']}  "
          f"seconds={result['seconds']}  trace={int(result['trace'])}")
    print("   env: " + json.dumps(result["environment"], sort_keys=True))
    chosen = result["per_layer"] if result["trace"] else result["end_to_end"]
    print("   per-layer (traced):" if result["trace"] else "   end-to-end:")
    for name, (value, unit, n) in chosen.items():
        print(f"     {name:40s} {value:14.6g} {unit:6s} n={n}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"   gate: attempted={attempted} failed={failed} "
          f"failed_ops_frac={failed / attempted:.6g}")
    for label, route, why in result["failures"]:
        print(f"     FAILED {label} {route}: {why}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in chosen.items()}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all",
                   help="a workload, a comma-separated list, or 'all'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="timed loop of one run (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", choices=("0", "1"), default=None,
                   help="0: end-to-end metrics; 1: traced per-layer metrics; "
                        "default: both, one fresh process each")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else tuple(args.workload.split(","))
    unknown = [w for w in names if w not in WORKLOADS]
    if unknown:
        p.error(f"unknown workloads {unknown}")
    if args.setup_probe:
        print(set_up(names[0], args.seed)[1])
        return 0
    seconds = run_seconds() if args.seconds is None else args.seconds
    if seconds <= 0:
        p.error("--seconds must be positive")

    traces = (args.trace,) if args.trace else ("0", "1")
    if len(names) == 1 and len(traces) == 1:
        result = run(names[0], args.seed, seconds, traces[0] == "1")
        line = report(result)
        OUT.mkdir(exist_ok=True)
        (OUT / f"result-{names[0]}-seed{args.seed}-trace{traces[0]}.json").write_text(
            json.dumps({**result, "result": line}, indent=1))
        print(json.dumps(line))
        return 0

    # Several runs: each in a fresh process, so each set-up imports qhit afresh.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in names:
        for t in traces:
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
                 "--seconds", str(seconds), "--trace", t],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.rstrip("\n").splitlines()
            if proc.returncode != 0:
                print("\n".join(lines))
                return proc.returncode
            print("\n".join(lines[:-1]))
            line = json.loads(lines[-1])
            combined["correct"] &= line["correct"]
            combined["attempted"] += line["attempted"]
            combined["failed"] += line["failed"]
            combined["metrics"].update(
                {f"{w}/{k}": v for k, v in line["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
