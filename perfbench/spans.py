"""Spans around qhit's public functions, recorded from outside the package.

Each traced function is replaced by a timing wrapper at every module
attribute that binds it (``qhit.diagnose``, ``qhit.ksmh.diagnose``, ...), so
calls through imported names, module attributes and the local imports in
``tau_channel`` are all seen.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter

# Layer -> traced public functions.  matrep and errors have no span: matrep
# is reached only through channel.represent during set-up.
TRACED = {
    "cli": ("main", "build_parser", "load_spec", "parse_channel",
            "parse_subspace", "parse_state"),
    "channel": ("diagnose", "fixed_states", "assumption_one_holds"),
    "hitting": ("analytic_HK", "tau_from_K"),
    "qmc": ("induce", "stationary_density"),
    "ginverse": ("rank_with_margin", "index", "group_inverse", "hunter_special"),
    "ksmh": ("qmc_hitting_operators", "ksmh_kernel", "tau_channel"),
    "monitor": ("first_visit_series",),
}
CLI_PARSE = ("cli.build_parser", "cli.load_spec", "cli.parse_channel",
             "cli.parse_subspace", "cli.parse_state")
# Spans every workload's solves must fire; the cli spans fire in the
# in-process CLI pass that every traced run makes.
SOLVE_SPANS = tuple(f"{layer}.{fn}" for layer, fns in TRACED.items()
                    if layer != "cli" for fn in fns)
CLI_SPANS = tuple(f"cli.{fn}" for fn in TRACED["cli"])

# Span fields: name, start, end, parent span index (-1 for none), solve id,
# count (series steps of first_visit_series), tag (the route of tau_channel).
NAME, START, END, PARENT, SOLVE, COUNT, TAG = range(7)


class Tracer:
    """Installs the wrappers and records one span per traced call."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._solve = None
        self._patched = []  # (module, attribute, original)

    # -- recording
    def begin_solve(self, solve_id: str) -> int:
        """Open the root span of one solve; its id tags every span inside."""
        self._solve = solve_id
        return self._open("bench.solve")

    def end_solve(self, index: int):
        self._close(index)
        self._solve = None

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, perf_counter(), None, parent, self._solve, None, None])
        self._stack.append(index)
        return index

    def _close(self, index: int, count=None):
        span = self.spans[index]
        span[END] = perf_counter()
        span[COUNT] = count
        self._stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            if name == "ksmh.tau_channel":
                self.spans[index][TAG] = args[3] if len(args) > 3 else kwargs["method"]
            count = None
            try:
                out = fn(*args, **kwargs)
                if name == "monitor.first_visit_series":  # the series step count
                    count = out.truncated_at
                return out
            finally:
                self._close(index, count)
        return traced

    # -- installation
    def install(self):
        """Wrap every traced function at each qhit attribute bound to it."""
        modules = [m for k, m in list(sys.modules.items())
                   if k == "qhit" or k.startswith("qhit.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"qhit.{layer}"]
            for fn_name in names:
                original = getattr(home, fn_name)  # a rename fails here, loudly
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def dump(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "solve",
                                  "count", "tag"], "spans": self.spans}, fh)


def per_solve(spans, solve_ids) -> dict:
    """solve id -> name -> [calls, self seconds, inclusive seconds, count sum].

    Self time is a span's duration minus its direct children's durations;
    calls run one at a time, so children never overlap.
    """
    child_time = defaultdict(float)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    wanted = set(solve_ids)
    out = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0, 0]))
    for i, s in enumerate(spans):
        if s[SOLVE] not in wanted:
            continue
        rec = out[s[SOLVE]][s[NAME]]
        dur = s[END] - s[START]
        rec[0] += 1
        rec[1] += dur - child_time[i]
        rec[2] += dur
        rec[3] += s[COUNT] or 0
    return out


def outermost_seconds(spans, solve_ids, names) -> dict:
    """solve id -> summed duration of spans in `names` not nested in another."""
    names = set(names)
    wanted = set(solve_ids)
    out = defaultdict(float)
    for s in spans:
        if s[NAME] not in names or s[SOLVE] not in wanted:
            continue
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] not in names:
            p = spans[p][PARENT]
        if p < 0:
            out[s[SOLVE]] += s[END] - s[START]
    return out


def route_seconds(spans, solve_ids) -> dict:
    """Route -> durations of the outermost tau_channel calls in the solves."""
    wanted = set(solve_ids)
    out = defaultdict(list)
    for s in spans:
        if s[NAME] != "ksmh.tau_channel" or s[SOLVE] not in wanted:
            continue
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] != "ksmh.tau_channel":
            p = spans[p][PARENT]
        if p < 0:
            out[s[TAG]].append(s[END] - s[START])
    return out


def median_self_ms(table: dict, name: str) -> tuple:
    """Median over the solves that called `name` of its self time, in ms."""
    vals = [d[name][1] * 1e3 for d in table.values() if name in d]
    return (statistics.median(vals) if vals else float("nan")), len(vals)


def median_calls(table: dict, name: str) -> tuple:
    """Median over all solves of the number of calls to `name`."""
    vals = [d[name][0] if name in d else 0 for d in table.values()]
    return (statistics.median(vals) if vals else float("nan")), len(vals)


def missing_spans(table: dict, expected) -> list:
    fired = {name for d in table.values() for name in d}
    return [name for name in expected if name not in fired]
