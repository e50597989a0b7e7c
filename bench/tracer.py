"""In-process tracing of a workload, for the per-layer figures.

The tracer replaces the public functions of each covbias layer module with
timing wrappers, from outside the package: every module attribute that is
the original function is pointed at the wrapper, so the CLI's own imports go
through it too. A call made once per run step opens a span (name, start, end,
parent). A call made once per item (sentence scoring, pair scoring, each item
a reader yields) is too frequent for a span each; it adds a count and its
summed time to the innermost open span instead, keyed by the item call it is
nested in. Spans stay in memory and are written out when the run ends.

Run as a script in mode "traced", it executes one workload's set-up and
measured phase in this process through covbias.cli.main under the tracer,
then repeats the measured phase PAIRS times untraced and PAIRS times traced,
in the order plain, traced, traced, plain, ..., so that a drift of the
machine's speed falls on both alike. It writes a JSON file with the spans of
the first set-up and round, the wall time of each repeated round, and the
operation counts. Mode "resident" loads every model file of the work
directory into this fresh process and writes how much resident memory each
one added:

    PYTHONPATH=src python3 bench/tracer.py MODE WORKLOAD SCALE WORKDIR SEED PAIRS OUT.json
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import sys
import time

from harness import StepFailed, Tally, check_cached, run_phase
from workloads import SCALES, WORKLOADS

PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")


def resident_bytes() -> int:
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * PAGE_BYTES


def _rows(model) -> int:
    """Rows of the model's binary tables: every n-gram or non-empty context."""
    return len(model.logprobs.keys() | {ctx for ctx in model.backoffs if ctx})


def _file_bytes(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths)


# (module, function or Class.method, kind, units). Units are computed outside
# the timed interval: from (args, result) for spans and item calls, from the
# yielded value for readers.
LAYER_FUNCTIONS = [
    ("corpus", "read_mono", "reader", None),
    ("corpus", "read_parallel", "reader", lambda ex: len(ex.source)),
    ("corpus", "write_mono", "span", None),
    ("corpus", "write_parallel", "span", lambda a, res: _file_bytes(a[1], a[2])),
    ("lm", "NGramModel.train", "span", lambda a, res: res.train_token_count),
    ("lm", "NGramModel.save", "span", lambda a, res: _file_bytes(a[1])),
    ("lm", "NGramModel.load", "span", lambda a, res: _rows(res)),
    ("lm", "NGramModel.logprob", "item", lambda a, res: res.token_count),
    ("lm", "perplexity", "span", None),
    ("detect", "score_pair", "item", None),
    ("detect", "tune_offset", "span", None),
    ("detect", "select_extremes", "span", None),
    ("divergence", "divergence_report", "span", None),
    ("divergence", "random_split", "span", None),
    ("fmeasure", "word_fmeasure", "span",
     lambda a, res: sum(map(len, a[0])) + sum(map(len, a[1]))),
    ("abstraction", "abstract_corpus", "span", None),
    ("abstraction", "fluency_report", "span", None),
    ("dataprep", "bias_tag", "reader", None),
    ("dataprep", "finetune_split", "span", None),
    ("dataprep", "merge_augment", "span", None),
    ("fileio", "read_tsv", "span", lambda a, res: len(res)),
    ("fileio", "atomic_write", "context", None),
    ("fileio", "atomic_write_bytes", "context", None),
]

_DONE = object()


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.items: list[str] = []  # item calls open inside the innermost span
        self.active = True
        self.replaced: list[tuple[object, str, object]] = []  # (owner, name, original)

    # -- recording ----------------------------------------------------------

    def _add_item(self, span: dict, outer: str, name: str, elapsed: int, count: int, units: int) -> None:
        entry = span["items"].setdefault(f"{outer}>{name}", [0, 0, 0])
        entry[0] += count
        entry[1] += elapsed
        entry[2] += units

    def span(self, name: str, fn, units=None):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            record = {
                "id": len(self.spans), "name": name,
                "parent": self.stack[-1]["id"] if self.stack else None,
                "items": {}, "units": 0,
            }
            self.spans.append(record)
            self.stack.append(record)
            saved, self.items = self.items, []
            record["start_ns"] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record["end_ns"] = time.perf_counter_ns()
                self.stack.pop()
                self.items = saved
            if units is not None:
                record["units"] = units(args, result)
            return result

        return traced

    def item(self, name: str, fn, units=None):
        def traced(*args, **kwargs):
            if not (self.active and self.stack):
                return fn(*args, **kwargs)
            span = self.stack[-1]
            outer = self.items[-1] if self.items else ""
            self.items.append(name)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                self.items.pop()
            self._add_item(span, outer, name, elapsed, 1, units(args, result) if units else 0)
            return result

        return traced

    def reader(self, name: str, fn, units=None):
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            return self._iterate(name, inner, units) if self.active else inner

        return traced

    def _iterate(self, name: str, inner, units):
        """Each next() is an item call of the span that is open when it happens."""
        try:
            while True:
                span = self.stack[-1] if self.stack else None
                outer = self.items[-1] if self.items else ""
                self.items.append(name)
                start = time.perf_counter_ns()
                try:
                    value = next(inner, _DONE)
                finally:
                    elapsed = time.perf_counter_ns() - start
                    self.items.pop()
                done = value is _DONE
                if span is not None:
                    counted = 0 if done or units is None else units(value)
                    self._add_item(span, outer, name, elapsed, 0 if done else 1, counted)
                if done:
                    return
                yield value
        finally:
            inner.close()

    def context(self, name: str, fn, units=None):
        """Entering and leaving the context manager are item calls of that name."""
        timed_enter = self.item(name, lambda cm: cm.__enter__())
        timed_exit = self.item(name, lambda cm, *exc: cm.__exit__(*exc))

        @contextlib.contextmanager
        def traced(*args, **kwargs):
            cm = fn(*args, **kwargs)
            value = timed_enter(cm)
            try:
                yield value
            except BaseException:
                if not timed_exit(cm, *sys.exc_info()):
                    raise
            else:
                timed_exit(cm, None, None, None)

        return traced

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Point every covbias reference to a layer function at its wrapper."""
        for module_name, attr, kind, units in LAYER_FUNCTIONS:
            module = importlib.import_module(f"covbias.{module_name}")
            owner_name, _, fn_name = attr.rpartition(".")
            name = f"{module_name}.{fn_name}"
            wrap = getattr(self, kind)
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[fn_name]
                if isinstance(raw, classmethod):
                    setattr(owner, fn_name, classmethod(wrap(name, raw.__func__, units)))
                else:
                    setattr(owner, fn_name, wrap(name, raw, units))
                self.replaced.append((owner, fn_name, raw))
                continue
            original = getattr(module, fn_name)
            traced = wrap(name, original, units)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "covbias" or mod_name.startswith("covbias."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, traced)
                            self.replaced.append((mod, key, original))

    def uninstall(self) -> None:
        """Put every original back, so that untraced code runs exactly as shipped."""
        while self.replaced:
            owner, key, original = self.replaced.pop()
            setattr(owner, key, original)

    @contextlib.contextmanager
    def paused(self):
        self.active, was = False, self.active
        try:
            yield
        finally:
            self.active = was


# -- per-layer figures ------------------------------------------------------------


def self_times(spans: list[dict]) -> dict[str, dict]:
    """name -> {"s": summed self time, "count": calls or items, "units": summed units}.

    A span's self time is its duration minus its child spans and the item
    calls made directly under it; an item call's self time is its summed time
    minus the item calls nested in it. Units of item calls nested in a span
    are also credited to the span under "<span>/<item>".
    """
    out: dict[str, dict] = {}

    def add(name: str, ns: int, count: int, units: int) -> None:
        entry = out.setdefault(name, {"s": 0.0, "count": 0, "units": 0})
        entry["s"] += ns / 1e9
        entry["count"] += count
        entry["units"] += units

    child_ns: dict[int, int] = {}
    for span in spans:
        if span["parent"] is not None:
            child_ns[span["parent"]] = child_ns.get(span["parent"], 0) + span["end_ns"] - span["start_ns"]
    for span in spans:
        own = span["end_ns"] - span["start_ns"] - child_ns.get(span["id"], 0)
        items: dict[str, list[int]] = {}  # name -> [count, self ns, units]
        for key, (count, ns, units) in span["items"].items():
            outer, _, name = key.partition(">")
            entry = items.setdefault(name, [0, 0, 0])
            entry[0] += count
            entry[1] += ns
            entry[2] += units
            if outer:
                items.setdefault(outer, [0, 0, 0])[1] -= ns
            else:
                own -= ns
        add(span["name"], own, 1, span["units"])
        for name, (count, ns, units) in items.items():
            add(name, ns, count, units)
            add(f"{span['name']}/{name}", 0, count, units)
    return out


# -- script: one in-process execution of a workload --------------------------------


class InProcessRunner:
    """The Runner interface of harness.py, calling covbias.cli.main in this process."""

    def __init__(self, tally, tracer: Tracer | None):
        from covbias import cli

        self.tally = tally
        self.tracer = tracer
        self.main = cli.main
        self.wall_s = 0.0
        self.passed: dict[str, str] = {}

    def cli(self, command: str, *args: object) -> None:
        argv = [command, *map(str, args)]
        if command == "score-pairs" and "--threads" in argv:
            # the tracer is single-threaded: traced scoring runs on one thread
            argv[argv.index("--threads") + 1] = "1"
        call = self.main if self.tracer is None else self.tracer.span(f"cli.{command}", self.main)
        self.tally.attempted += 1
        started = time.perf_counter()
        code = call(argv)
        self.wall_s += time.perf_counter() - started
        if code != 0:
            self.tally.fail(f"{command} exited {code} in process")
            raise StepFailed(command)

    def check(self, name: str, fn, *args) -> None:
        with self.tracer.paused() if self.tracer else contextlib.nullcontext():
            check_cached(self.passed, self.tally, name, fn, *args)


def resident_growth(paths: list[str]) -> list[int]:
    """Resident bytes each model adds when loaded into a fresh process, all kept alive."""
    from covbias import NGramModel

    models, growth = [], []
    for path in paths:
        before = resident_bytes()
        models.append(NGramModel.load(path))
        growth.append(resident_bytes() - before)
    return growth


def main(argv: list[str]) -> int:
    mode, workload_name, scale, workdir, seed, pairs, out_path = argv
    if mode == "resident":
        models = sorted(os.path.join(workdir, n) for n in os.listdir(workdir) if n.endswith(".lm"))
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump({"resident_growth": resident_growth(models)}, handle)
        return 0

    workload = WORKLOADS[workload_name]
    size = SCALES[scale][workload_name]
    tracer = Tracer()
    tracer.install()
    tally = Tally()
    runner = InProcessRunner(tally, tracer)

    def path(name: str) -> str:
        return os.path.join(workdir, name)

    def round_s(traced: bool) -> float:
        if traced:
            tracer.install()
        runner.tracer = tracer if traced else None
        before = runner.wall_s
        run_phase(tally, workload.measure, runner, path, size, int(seed))
        tracer.uninstall()
        return runner.wall_s - before

    run_phase(tally, workload.setup, runner, path, size)
    run_phase(tally, workload.measure, runner, path, size, int(seed))
    tracer.uninstall()
    spans = list(tracer.spans)
    rounds: dict[str, list[float]] = {"plain": [], "traced": []}
    for i in range(int(pairs)):
        for traced in (False, True) if i % 2 == 0 else (True, False):
            rounds["traced" if traced else "plain"].append(round_s(traced))
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "attempted": tally.attempted,
                "failed": tally.failed,
                "messages": tally.messages,
                "rounds": rounds,
                "spans": spans,
            },
            handle,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
