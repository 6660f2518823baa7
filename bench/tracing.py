"""Span tracing of the package's public functions, installed from outside.

The package imports many of its functions by name into other modules
(``harness`` holds its own ``chsh_value``, ``bell`` holds ``tensor_element``
and so on), so a function is only traced when every module namespace that
looks it up holds the wrapper.  :meth:`Tracer.install` therefore makes one
wrapper per target and rebinds every ``raggio_kit`` namespace entry that is
the original function object.

Spans are kept in compact arrays while recording and turned into per-function
call counts and self times at the end.  A span records its name, start, end,
parent span, the id of the runner's public call that caused it, and the input
label the runner set for that call.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import Counter

import numpy as np

# public functions of each layer (module); ``errors`` does no work
TARGETS = (
    ("algebra", "tensor_element"),
    ("algebra", "operator_norm"),
    ("states", "expectation"),
    ("states", "random_mixed"),
    ("states", "random_vector_state"),
    ("states", "trace_distance"),
    ("bell", "chsh_value"),
    ("bell", "random_observables"),
    ("bell", "random_dichotomic"),
    ("bell", "sign_operator"),
    ("bell", "seesaw"),
    ("bell", "chsh_optimize"),
    ("entanglement", "separability_test"),
    ("entanglement", "ppt_check"),
    ("entanglement", "classical_decompose"),
    ("entanglement", "schmidt"),
    ("entanglement", "reconstruct"),
    ("harness", "verify_equivalence"),
    ("harness", "bell_one_side_classical"),
    ("serialize", "report_to_dict"),
    ("cli", "run"),
    ("cli", "parse_algebra"),
)
NAMES = tuple(f"{mod}.{fn}" for mod, fn in TARGETS)


def _count_result(name: str, result, counts: Counter) -> None:
    """Counters read from a traced function's return value."""
    if name == "bell.seesaw":
        counts["bell.seesaw.rounds"] += len(result[1]) // 2
    elif name == "bell.chsh_optimize":
        counts["bell.chsh_optimize.iterations"] += result.iterations
    elif name == "entanglement.separability_test":
        counts[f"entanglement.verdicts.{result.tag}"] += 1
        if result.decomposition is not None:
            counts["entanglement.decomposition_terms"] += result.decomposition.num_terms


class Tracer:
    """Records spans around the package's public functions while ``recording``.

    The runner calls :meth:`begin_call` before each public call it makes,
    and toggles ``recording`` around the timed rounds, so that input
    generation and output checks leave no spans.
    """

    def __init__(self):
        self.recording = False
        self.call_id = 0
        self.labels: list[str] = [""]  # spans made outside begin_call get ""
        self._label = 0
        self.counts: Counter = Counter()
        self.originals: dict[str, object] = {}
        self.wrappers: dict[str, object] = {}
        self._bindings: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self._next_id = 0
        self.sid = array("q")
        self.parent = array("q")
        self.name = array("h")
        self.start = array("d")
        self.end = array("d")
        self.call = array("q")
        self.label_idx = array("h")

    def begin_call(self, call_id: int, label: str) -> None:
        """Tag the spans of the next public call with its id and input label."""
        if label not in self.labels:
            self.labels.append(label)
        self.call_id = call_id
        self._label = self.labels.index(label)

    def _wrap(self, idx: int, fn):
        name = NAMES[idx]
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.sid.append(sid)
                self.parent.append(parent)
                self.name.append(idx)
                self.start.append(start)
                self.end.append(end)
                self.call.append(self.call_id)
                self.label_idx.append(self._label)
            _count_result(name, result, self.counts)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    @staticmethod
    def _package_modules():
        return [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == "raggio_kit" or key.startswith("raggio_kit."))
        ]

    def install(self) -> None:
        """Wrap every target once and rebind it in every package namespace."""
        modules = self._package_modules()
        for idx, (mod_name, fn_name) in enumerate(TARGETS):
            home = importlib.import_module(f"raggio_kit.{mod_name}")
            original = getattr(home, fn_name)
            if hasattr(original, "__wrapped__"):
                raise RuntimeError(f"{NAMES[idx]} is already wrapped")
            wrapper = self._wrap(idx, original)
            self.originals[NAMES[idx]] = original
            self.wrappers[NAMES[idx]] = wrapper
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._bindings.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._bindings):
            setattr(mod, attr, original)
        self._bindings.clear()

    def stray_bindings(self) -> list[str]:
        """Namespace entries still holding an original (would bypass tracing)."""
        originals = {id(fn): name for name, fn in self.originals.items()}
        stray = []
        for mod in self._package_modules():
            for attr, value in vars(mod).items():
                if id(value) in originals:
                    stray.append(f"{mod.__name__}.{attr}")
        return stray

    def span_arrays(self) -> dict[str, np.ndarray]:
        """Recorded spans as arrays indexed by span id (start order)."""
        order = np.argsort(np.frombuffer(self.sid, dtype=np.int64), kind="stable")
        cols = {
            "sid": np.frombuffer(self.sid, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "name": np.frombuffer(self.name, dtype=np.int16),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "call": np.frombuffer(self.call, dtype=np.int64),
            "label": np.frombuffer(self.label_idx, dtype=np.int16),
        }
        return {key: col[order] for key, col in cols.items()}

    def summary(self, selection=None) -> dict:
        """Per-function calls and self seconds, plus the root-span total.

        ``selection`` is an optional boolean mask over spans (by span id);
        parents outside it are ignored, which is exact when the selection is
        a set of whole public calls.
        """
        sp = self.span_arrays()
        n = len(sp["sid"])
        dur = sp["end"] - sp["start"]
        has_parent = sp["parent"] >= 0
        child = np.bincount(
            sp["parent"][has_parent], weights=dur[has_parent], minlength=n
        )
        self_s = dur - child
        keep = np.ones(n, dtype=bool) if selection is None else selection
        names = sp["name"][keep]
        calls = np.bincount(names, minlength=len(NAMES))
        self_by_name = np.bincount(names, weights=self_s[keep], minlength=len(NAMES))
        roots = keep & ~has_parent
        by_label: dict[str, float] = {}
        sep = keep & (sp["name"] == NAMES.index("entanglement.separability_test"))
        for li in np.unique(sp["label"][sep]):
            mask = sep & (sp["label"] == li)
            by_label[self.labels[li]] = float(self_s[mask].sum())
        return {
            "calls": {name: int(c) for name, c in zip(NAMES, calls)},
            "self_s": {name: float(s) for name, s in zip(NAMES, self_by_name)},
            "separability_self_s_by_label": by_label,
            "root_s": float(dur[roots].sum()),
            "min_self_s": float(self_s[keep].min()) if keep.any() else 0.0,
            "spans": int(keep.sum()),
        }

    def dump(self, path) -> None:
        """Write the spans (times relative to the first span) as a compressed npz."""
        sp = self.span_arrays()
        t0 = sp["start"].min() if len(sp["start"]) else 0.0
        np.savez_compressed(
            path,
            names=np.array(NAMES),
            labels=np.array(self.labels),
            sid=sp["sid"],
            parent=sp["parent"],
            name=sp["name"],
            start=sp["start"] - t0,
            end=sp["end"] - t0,
            call=sp["call"],
            label=sp["label"],
        )
