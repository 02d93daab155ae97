"""In-memory spans around the calls krausloom makes into its own modules.

The tracer wraps functions from the outside, by replacing module attributes
and class ``__init__`` methods for the length of a traced run; the program's
source is not touched. Each call records a span: its layer (the module that
defines the function), its parent span, wall start and duration, and the
calling thread's CPU time. Layer times are thread CPU time, so the 8 worker
threads of ``channel --grid`` add up instead of each counting the others'
turns at the interpreter lock.

A layer's self time is each span's CPU time minus that of its children in
the same thread. Calls a module makes to its own functions are traced too,
except inside ``gates``, whose helpers run once per basis index.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import itertools
import os
import threading
from array import array
from collections import Counter
from time import perf_counter, thread_time

# Inclusive-time groups: only the outermost span of a group counts, so a
# lattice or Kraus constructor that calls another is not counted twice.
GROUPS = {
    "circuit.build_channel_lattice": "build_lattice",
    "circuit.build_pauli_lattice": "build_lattice",
    "channels.channel_kraus": "kraus_build",
    "channels.dephasing_kraus": "kraus_build",
    "channels.gad_kraus": "kraus_build",
    "channels.sgad_kraus": "kraus_build",
    "channels.pauli_kraus": "kraus_build",
    "parser.build_parser": "parser",
    "parser.parse_args": "parser",
}

SPAN_FIELDS = ("id", "parent", "name", "thread", "start_us", "wall_us", "cpu_us", "self_us")
MAX_STORED_SPANS = 300_000  # beyond this, spans still count but are not written out


class _ThreadState(threading.local):
    def __init__(self):
        self.stack = []  # open frames: [span id, child cpu seconds]
        self.open = Counter()  # group -> open depth
        self.acc = None  # this thread's accumulator, registered on first use
        self.spans = None


class Tracer:
    def __init__(self):
        self._tls = _ThreadState()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._accs: list[Counter] = []
        self._span_lists: list[array] = []
        self._names: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._root = 0
        self._t0 = perf_counter()
        self.stored = 0  # spans kept for writing out; a cap, not a metric

    # -- recording ------------------------------------------------------------

    def _state(self):
        tls = self._tls
        if tls.acc is None:
            tls.acc, tls.spans = Counter(), array("d")
            with self._lock:
                self._accs.append(tls.acc)
                self._span_lists.append(tls.spans)
        return tls

    def wrap(self, fn, layer: str, name: str, on_return=None, root: bool = False):
        """Return ``fn`` wrapped in a span named ``layer.name``."""
        qual = f"{layer}.{name}"
        group = GROUPS.get(qual, qual)
        name_idx = len(self._names)
        self._names.append(qual)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tls = tracer._state()
            stack, acc = tls.stack, tls.acc
            span_id = next(tracer._ids)
            parent = stack[-1][0] if stack else tracer._root
            frame = [span_id, 0.0]
            outermost = tls.open[group] == 0
            tls.open[group] += 1
            stack.append(frame)
            if root:
                tracer._root = span_id
            t0 = perf_counter()
            c0 = thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                cpu = thread_time() - c0
                wall = perf_counter() - t0
                stack.pop()
                tls.open[group] -= 1
                if root:
                    tracer._root = 0
                if stack:
                    stack[-1][1] += cpu
                own = cpu - frame[1]
                acc["self:" + layer] += own
                acc["calls:" + layer] += 1
                acc["n:" + qual] += 1
                if outermost:
                    acc["incl:" + group] += cpu
                if tracer.stored < MAX_STORED_SPANS:
                    tracer.stored += 1
                    tls.spans.extend((span_id, parent, name_idx, threading.get_ident(),
                                      t0 - tracer._t0, wall, cpu, own))
            if on_return is not None:
                on_return(acc, result, args, kwargs)
            return result

        return traced

    def totals(self) -> Counter:
        """Sum of every thread's accumulators so far."""
        out = Counter()
        with self._lock:
            for acc in self._accs:
                out.update(acc)
        return out

    # -- installation ---------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, modules: dict) -> None:
        """Wrap the public functions of each module in ``modules`` (layer name ->
        module), in every module namespace that refers to them, plus the
        validating constructors and the CLI's parser and per-point helpers."""
        max_iter = inspect.signature(modules["tomography"].ml_reconstruct).parameters["max_iter"].default
        hooks = {"save_json": _count_file, "ml_reconstruct": functools.partial(_count_ml, max_iter)}
        wrapped = {}
        for layer, mod in modules.items():
            if layer == "cli":
                continue
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    owner = "cli" if name == "save_json" else layer
                    wrapped[obj] = (layer, self.wrap(obj, owner, name, on_return=hooks.get(name)))
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or obj not in wrapped:
                    continue
                owner_layer, traced = wrapped[obj]
                if owner_layer == "gates" and layer == "gates":
                    continue
                self._set(mod, name, traced)
        qmath, circuit, channels = modules["qmath"], modules["circuit"], modules["channels"]
        for layer, cls in (("qmath", qmath.DensityMatrix), ("qmath", qmath.PureState),
                           ("circuit", circuit.CircuitSpec), ("channels", channels.KrausSet)):
            self._set(cls, "__init__", self.wrap(cls.__init__, layer, cls.__name__))
        cli = modules["cli"]
        for name in ("_run_channel_point", "_channel_params_from_args"):
            self._set(cli, name, self.wrap(getattr(cli, name), "cli", name))
        self._set(cli, "build_parser", self._wrap_parser(cli.build_parser))

    def _wrap_parser(self, build_parser):
        parse_args = self.wrap(argparse.ArgumentParser.parse_args, "parser", "parse_args")

        def build_and_trace():
            parser = build_parser()
            parser.parse_args = functools.partial(parse_args, parser)
            return parser

        return self.wrap(build_and_trace, "parser", "build_parser")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def root(self, fn):
        """Wrap the benchmark's entry call; spans opened by worker threads
        without a traced caller get it as their parent."""
        return self.wrap(fn, "cli", fn.__name__, root=True)

    # -- output ---------------------------------------------------------------

    def write(self, path: str) -> int:
        """Write every stored span as one tab-separated line; return the count."""
        rows = 0
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write("\t".join(SPAN_FIELDS) + "\n")
            with self._lock:
                lists = list(self._span_lists)
            for spans in lists:
                for i in range(0, len(spans), 8):
                    sid, parent, idx, thread, start, wall, cpu, own = spans[i:i + 8]
                    fh.write(f"{int(sid)}\t{int(parent)}\t{self._names[int(idx)]}\t{int(thread)}\t"
                             f"{start * 1e6:.1f}\t{wall * 1e6:.1f}\t{cpu * 1e6:.1f}\t{own * 1e6:.1f}\n")
                    rows += 1
        os.replace(tmp, path)
        return rows


def _count_file(acc, result, args, kwargs):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    acc["files_written"] += 1
    acc["bytes_written"] += os.path.getsize(path)


def _count_ml(default_max_iter, acc, result, args, kwargs):
    max_iter = args[1] if len(args) > 1 else kwargs.get("max_iter", default_max_iter)
    acc["ml_iterations"] += result.iterations
    if not result.converged:
        acc["ml_capped" if result.iterations >= max_iter else "ml_stalled"] += 1

