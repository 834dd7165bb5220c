"""Span tracing around the public functions of quncert's modules.

Tracer.patched() swaps each traced binding for a wrapper that records a
span (name, start, end, parent) and, for some functions, a count taken from
the result; leaving the context restores the original bindings. Spans stay
in memory until the run writes them out. A layer's self time is the time
of its spans minus the time of their child spans.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import gzip
import statistics
import time

import numpy as np

from quncert import discretize, entropy, gaussian, minmax, overlap, qstate, verify

LIVE_CELL_PROB = 1e-12


def _count_cells(tally, cq):
    tally["discretize.cells"] += len(cq.outcomes)
    tally["discretize.live_cells"] += int(np.count_nonzero(cq.probs > LIVE_CELL_PROB))


def _count_iterations(tally, res):
    tally["minmax.pguess_iters"] += res.iterations


def _count_order(tally, res):
    tally["overlap.nystrom_order_sum"] += res.nystrom_order


# (object holding the binding, attribute, span name, result hook). A
# primitive imported by name into another module is patched there as well.
TARGETS = (
    (gaussian, "epr_grid_wavefunction", "gaussian.epr_grid_wavefunction", None),
    (overlap, "prolate_overlap", "overlap.prolate_overlap", _count_order),
    (discretize, "momentum_transform", "discretize.momentum_transform", None),
    (discretize, "discretize_position", "discretize.discretize_position", _count_cells),
    (entropy, "cond_vn_cq", "entropy.cond_vn_cq", None),
    (entropy, "relative_entropy", "entropy.relative_entropy", None),
    (minmax, "guessing_probability", "minmax.guessing_probability", _count_iterations),
    (minmax, "h_min_cq", "minmax.h_min_cq", None),
    (minmax, "h_max_cq", "minmax.h_max_cq", None),
    (minmax, "decoupling_fidelity", "minmax.decoupling_fidelity", None),
    (minmax, "cond_min_entropy_value", "minmax.cond_min_entropy_value", None),
    (qstate, "partial_trace", "qstate.partial_trace", None),
    (minmax, "partial_trace", "qstate.partial_trace", None),
    (verify, "partial_trace", "qstate.partial_trace", None),
    (qstate, "purify_cq", "qstate.purify_cq", None),
    (minmax, "purify_cq", "qstate.purify_cq", None),
    (verify, "haar_state", "verify.haar_state", None),
    (verify, "measure_to_cq", "verify.measure_to_cq", None),
    (np.linalg, "eigh", "linalg.eigh", None),
    (np, "kron", "linalg.kron", None),
)

# per-layer metric -> span names whose self times it sums
SELF_TIME = {
    "gaussian.wavefunction_s": ("gaussian.epr_grid_wavefunction",),
    "overlap.prolate_s": ("overlap.prolate_overlap",),
    "discretize.fft_s": ("discretize.momentum_transform",),
    "discretize.bin_s": ("discretize.discretize_position",),
    "entropy.cond_vn_s": ("entropy.cond_vn_cq", "entropy.relative_entropy"),
    "minmax.pguess_s": ("minmax.h_min_cq", "minmax.guessing_probability"),
    "minmax.hmax_s": ("minmax.h_max_cq", "minmax.decoupling_fidelity",
                      "minmax.cond_min_entropy_value"),
    "qstate.partial_trace_s": ("qstate.partial_trace",),
    "qstate.purify_s": ("qstate.purify_cq",),
    "verify.measure_s": ("verify.measure_to_cq",),
    "linalg.eigh_s": ("linalg.eigh",),
    "linalg.kron_s": ("linalg.kron",),
}

# per-layer metric -> span name whose calls it counts
CALLS = {
    "entropy.relative_entropy_calls": "entropy.relative_entropy",
    "minmax.hmax_calls": "minmax.h_max_cq",
    "qstate.partial_trace_calls": "qstate.partial_trace",
    "verify.instances": "verify.haar_state",
    "linalg.eigh_calls": "linalg.eigh",
}

TALLIES = ("overlap.nystrom_order_sum", "discretize.cells", "minmax.pguess_iters")

UNITS = {name: "s" for name in SELF_TIME}
UNITS.update({name: "count" for name in CALLS})
UNITS.update({name: "count" for name in TALLIES})
UNITS.update({"discretize.live_cell_ratio": "ratio", "minmax.pguess_s_per_iter": "s",
              "trace.overhead_ratio": "ratio"})


class Tracer:
    def __init__(self):
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self.tally = collections.Counter()
        self._stack = [-1]

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1])
            self.starts.append(0.0)
            self.ends.append(0.0)
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.starts[idx], self.ends[idx] = start, end
            if hook is not None:
                hook(self.tally, out)
            return out

        return traced

    @contextlib.contextmanager
    def patched(self):
        saved = []
        try:
            for obj, attr, name, hook in TARGETS:
                orig = getattr(obj, attr)
                saved.append((obj, attr, orig))
                setattr(obj, attr, self._wrap(name, orig, hook))
            yield self
        finally:
            for obj, attr, orig in reversed(saved):
                setattr(obj, attr, orig)

    def mark(self):
        """Position to pass to metrics() for the spans and counts after it."""
        return len(self.names), collections.Counter(self.tally)

    def metrics(self, since) -> dict:
        """Per-layer metrics of the spans and counts recorded after `since`."""
        first, tally0 = since
        last = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(first, last)]
        own = list(dur)
        for i in range(first, last):
            p = self.parents[i]
            if p >= first:
                own[p - first] -= dur[i - first]
        self_time = collections.defaultdict(float)
        inclusive = collections.defaultdict(float)
        calls = collections.Counter()
        for i in range(first, last):
            name = self.names[i]
            self_time[name] += own[i - first]
            inclusive[name] += dur[i - first]
            calls[name] += 1
        tally = self.tally - tally0
        out = {m: sum(self_time[n] for n in names) for m, names in SELF_TIME.items()}
        out.update({m: calls[n] for m, n in CALLS.items()})
        out.update({m: tally[m] for m in TALLIES})
        cells = tally["discretize.cells"]
        out["discretize.live_cell_ratio"] = tally["discretize.live_cells"] / cells if cells else 0.0
        iters = tally["minmax.pguess_iters"]
        out["minmax.pguess_s_per_iter"] = (
            inclusive["minmax.guessing_probability"] / iters if iters else 0.0)
        return out

    def write(self, path) -> None:
        """All spans as 'name start end parent' lines, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name start end parent\n")
            for span in zip(self.names, self.starts, self.ends, self.parents):
                fh.write("%s %.9f %.9f %d\n" % span)


def combine(setup: dict, passes: list) -> dict:
    """Setup-phase metrics plus the median over traced passes (for counts,
    the lower median, so a count stays a whole number)."""
    out = {}
    for m in setup:
        median = statistics.median_low if UNITS[m] == "count" else statistics.median
        out[m] = setup[m] + median(p[m] for p in passes)
    return out
