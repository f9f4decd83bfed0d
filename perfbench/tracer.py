"""In-memory span tracer installed around spincool's public functions.

The tracer lives in the benchmark, not in the program: it replaces each
traced function with a wrapper at every module attribute that is bound to
it (``lindblad.expm``, ``analysis.evolve``, ``srmodel.hf_element``, ...), so
calls made through any import path are recorded.  Each span stores its
name, start, end, parent span, op id and a few computed attributes; spans
stay in memory until the run ends and are then aggregated or dumped.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import sys
import time

# (module, attribute) of every traced function; the span name is
# "<layer>.<function>", the layer being the defining module's short name.
TARGETS = (
    ("spincool.lindblad", "expm"),
    ("spincool.lindblad", "liouvillian_matrix"),
    ("spincool.lindblad", "evolve"),
    ("spincool.lindblad", "check_density_matrix"),
    ("spincool.lindblad", "population"),
    ("spincool.analysis", "cool"),
    ("spincool.analysis", "table1_sweep"),
    ("spincool.analysis", "sensitivity_suite"),
    ("spincool.analysis", "impurity_sweep"),
    ("spincool.analysis", "dressed_pair"),
    ("spincool.analysis", "balance_omega_pd"),
    ("spincool.analysis", "isotope_table"),
    ("spincool.srmodel", "hamiltonian"),
    ("spincool.srmodel", "collapse_ops"),
    ("spincool.hyperfine", "hf_element"),
    ("spincool.cli", "main"),
    ("spincool.config", "load_run_config"),
    ("spincool.config", "atomic_write_text"),
    ("spincool.svgplot", "line_plot"),
)

# span record layout: [name, start, end, parent index, op id, attribute]
NAME, START, END, PARENT, OP, ATTR = range(6)


class Tracer:
    """Records nested spans; ``install`` patches every binding of each target."""

    def __init__(self):
        self.spans: list[list] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, None]
            spans.append(span)
            stack.append(idx)
            span[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            # attributes are computed after the span closes, so they cost
            # trace overhead but no layer time
            if name == "lindblad.expm":
                span[ATTR] = out.shape[0]
            elif name == "lindblad.liouvillian_matrix":
                span[ATTR] = hashlib.blake2b(out.tobytes(), digest_size=16).hexdigest()
            elif name == "lindblad.evolve":
                span[ATTR] = len(out.times)
            elif name == "config.atomic_write_text":
                text = args[1] if len(args) > 1 else kwargs["text"]
                span[ATTR] = len(text.encode("utf-8"))
            return out

        return wrapper

    def install(self) -> None:
        for module_name, attr in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            original = getattr(module, attr)
            name = f"{module_name.rsplit('.', 1)[1]}.{attr}"
            wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "spincool" and not mod_name.startswith("spincool."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._restore):
            setattr(mod, key, original)
        self._restore.clear()

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Mark one benchmark op as a root span."""
        self.op_id = op_id
        span = ["op", time.perf_counter(), 0.0, -1, op_id, None]
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of [start, end] intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def aggregate(span_lists: list[list[list]]) -> dict[str, float]:
    """Per-layer metrics from one or more span lists (one list per process).

    Self time is a span's duration minus the part of it that its direct
    child spans cover.  Counts are summed over all ops.
    """
    out: dict[str, float] = {}
    expm_dim_max = 0
    builds = 0
    distinct_per_op: dict[tuple[int, int], set] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0) + value

    for proc, spans in enumerate(span_lists):
        children: dict[int, list[tuple[float, float]]] = {}
        for s in spans:
            if s[PARENT] >= 0:
                children.setdefault(s[PARENT], []).append((s[START], s[END]))
        for idx, s in enumerate(spans):
            name = s[NAME]
            if name == "op":
                continue
            self_s = (s[END] - s[START]) - _covered(children.get(idx, []))
            add(f"{name}.calls", 1)
            add(f"{name}.self_s", self_s)
            if name == "lindblad.expm":
                n = s[ATTR]
                expm_dim_max = max(expm_dim_max, n)
                add("lindblad.expm.bytes", 16 * n * n)
            elif name == "lindblad.liouvillian_matrix":
                builds += 1
                distinct_per_op.setdefault((proc, s[OP]), set()).add(s[ATTR])
            elif name == "lindblad.evolve":
                add("lindblad.evolve.samples", s[ATTR])
            elif name == "config.atomic_write_text":
                add("config.atomic_write_text.bytes", s[ATTR])
    out["lindblad.expm.dim_max"] = expm_dim_max
    distinct = sum(len(v) for v in distinct_per_op.values())
    out["lindblad.liouvillian_matrix.reuse"] = distinct / builds if builds else 0.0
    return out
