"""Span tracer that wraps oscent's public functions from outside the library.

Every public function of the traced layers (plus ``SweepTable.write_csv``)
is replaced by a wrapper that records one span per call: name, start, end,
parent span and pass id. The library binds most names with
``from .x import y``, so each wrapper is rebound in every ``oscent`` module
namespace that holds the original, not only in the defining module.

Spans stay in memory; ``write_spans`` dumps them once the run is over. A
function's self time is its span's duration minus the time its child spans
cover (the work is single-threaded, so children never overlap).

A few counters are computed from argument shapes at the same boundaries.
They depend only on the inputs, so they repeat exactly from run to run:

* ``negativity.log_negativity.m3_sum``: sum of m**3 over calls, m the
  number of modes in the bipartition;
* ``linalg.eig_sym.n3_sum``: sum of n**3 over calls;
* ``covariance.classical_covariance.mib_out``: MiB of covariance assembled;
* ``covariance.classical_covariance.used_frac``: entries that any later
  ``reduce_modes`` reads over entries assembled;
* ``covariance.reduce_modes.distinct_frac``: distinct (covariance, index
  set) pairs over calls.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import weakref

import numpy as np

LAYERS = ("cli", "experiments", "models", "linalg", "covariance", "measures",
          "negativity")


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def traced_functions():
    """(qualified name, owner, attribute) of every function the tracer wraps."""
    found = []
    for layer in LAYERS:
        module = sys.modules[f"oscent.{layer}"]
        for attr, obj in sorted(vars(module).items()):
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == module.__name__):
                found.append((f"{layer}.{attr}", module, attr))
    sweep_table = sys.modules["oscent.experiments"].SweepTable
    found.append(("experiments.SweepTable.write_csv", sweep_table, "write_csv"))
    return found


class Tracer:
    """Installs span-recording wrappers for the duration of one pass."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index, pass id)
        self.pass_id = None
        self._first_span = 0
        self._stack = []
        self._rebound = []       # (namespace, attribute, original)
        self._next_serial = 0
        self._reset_counters()

    def _reset_counters(self):
        self._m3 = 0
        self._n3 = 0
        self._bytes_out = 0
        self._assembled = {}     # covariance serial -> 2n
        self._reads = {}         # covariance serial -> set of index tuples
        self._reduce_calls = 0
        self._serials = weakref.WeakKeyDictionary()

    # -- counters, fed from call arguments and results ---------------------

    def _serial(self, cov):
        serial = self._serials.get(cov)
        if serial is None:
            serial = self._serials[cov] = self._next_serial
            self._next_serial += 1
        return serial

    def _count(self, name, args, kwargs, result):
        if name == "negativity.log_negativity":
            self._m3 += len(_arg(args, kwargs, 1, "partition").members) ** 3
        elif name == "linalg.eig_sym":
            self._n3 += int(np.shape(_arg(args, kwargs, 0, "mat"))[0]) ** 3
        elif name == "covariance.classical_covariance":
            self._bytes_out += result.matrix.nbytes
            self._assembled[self._serial(result)] = result.matrix.shape[0]
        elif name == "covariance.reduce_modes":
            self._reduce_calls += 1
            key = tuple(sorted(set(int(i) for i in _arg(args, kwargs, 1, "indices"))))
            self._reads.setdefault(self._serial(_arg(args, kwargs, 0, "cov")),
                                   set()).add(key)

    def counters(self):
        """Computed counters of the latest pass."""
        used = 0
        assembled = 0
        for serial, dim in self._assembled.items():
            mask = np.zeros((dim, dim), dtype=bool)
            half = dim // 2
            for idx in self._reads.get(serial, ()):
                sel = np.array(idx + tuple(i + half for i in idx), dtype=int)
                mask[np.ix_(sel, sel)] = True
            used += int(mask.sum())
            assembled += dim * dim
        distinct = sum(len(keys) for keys in self._reads.values())
        return {
            "negativity.log_negativity.m3_sum": self._m3,
            "linalg.eig_sym.n3_sum": self._n3,
            "covariance.classical_covariance.mib_out": self._bytes_out / 2**20,
            "covariance.classical_covariance.used_frac":
                used / assembled if assembled else 0.0,
            "covariance.reduce_modes.distinct_frac":
                distinct / self._reduce_calls if self._reduce_calls else 0.0,
        }

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        count = self._count
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.pass_id)
            count(name, args, kwargs, result)
            return result

        return wrapper

    def begin(self, pass_id):
        """Wrap every traced function and start counting for ``pass_id``."""
        if self._rebound:
            raise RuntimeError("tracer is already installed")
        self.pass_id = pass_id
        self._first_span = len(self.spans)
        self._reset_counters()
        wrappers = {}            # id of the original -> its wrapper
        for name, owner, attr in traced_functions():
            original = vars(owner)[attr]
            wrappers[id(original)] = self._wrap(name, original)
        namespaces = [module for key, module in sorted(sys.modules.items())
                      if key == "oscent" or key.startswith("oscent.")]
        namespaces.append(sys.modules["oscent.experiments"].SweepTable)
        for namespace in namespaces:
            for attr, obj in list(vars(namespace).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(namespace, attr, wrapper)
                    self._rebound.append((namespace, attr, obj))

    def end(self):
        """Restore every original binding."""
        for namespace, attr, original in reversed(self._rebound):
            setattr(namespace, attr, original)
        self._rebound = []
        self.pass_id = None

    def pass_profile(self):
        """Per-function (calls, self seconds) of the latest pass."""
        first = self._first_span
        child_time = {}
        for name, start, end, parent, _ in self.spans[first:]:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + end - start
        profile = {}
        for index, (name, start, end, _, _) in enumerate(self.spans[first:], first):
            calls, self_s = profile.get(name, (0, 0.0))
            profile[name] = (calls + 1,
                             self_s + (end - start) - child_time.get(index, 0.0))
        return profile

    def write_spans(self, path):
        """One JSON list per line: id, name, start, end, parent id, pass id."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["id", "name", "start", "end", "parent", "pass"]) + "\n")
            for index, span in enumerate(self.spans):
                fh.write(json.dumps([index, *span]) + "\n")
