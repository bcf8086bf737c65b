"""Spans recorded from outside the package, around calls into each layer.

``traced(recorder)`` replaces the public functions listed in ``LAYERS``
with wrappers that record one span per call, wherever the package binds
the name: in the defining module, in every module that imported it, and
in the package namespace the benchmark calls through.  Calls between
layers (amplitude into theta, characteristics into symplectic, picard
into itself) therefore nest.  Classes are wrapped in the package
namespace only, so the package's own isinstance checks still see the
class.  Leaving the block restores every binding.

A span is a row ``[name, start_ns, end_ns, parent, note]``; rows are kept
in memory, in start order, and written out when the benchmark ends.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager

# Public names only.  gf2 has none here: it runs inside the other layers,
# so its time shows in their spans.
LAYERS = {
    "theta": ("PeriodMatrix", "truncation_radius", "theta_report", "theta_constant_table"),
    "amplitude": ("xi_g", "P_i_g"),
    "characteristics": (
        "quartic_coordinate_check",
        "enumerate_syzygetic_tetrads",
        "enumerate_fundamental_systems",
        "enumerate_gopel_systems",
        "is_syzygetic",
    ),
    "symplectic": (
        "enumerate_forms",
        "arf",
        "sp_apply",
        "random_symplectic",
        "weil_pairing",
        "form_difference",
    ),
    "boundary": ("DualGraph", "th_components"),
    "picard": ("slope_combination", "general_type_test"),
}

# The work count a call reports: truncation_radius -> (genus, radius).
NOTES = {"theta.truncation_radius": lambda args, result: (args[0].g, result)}


class Recorder:
    def __init__(self) -> None:
        self.rows: list[list] = []
        self._stack = [-1]

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around one case."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        note = NOTES.get(name)

        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    self.rows[idx][4] = note(args, result)
                return result
            finally:
                self._close(idx)

        return wrapper

    def _open(self, name: str) -> int:
        idx = len(self.rows)
        self.rows.append([name, time.perf_counter_ns(), 0, self._stack[-1], None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.rows[idx][2] = time.perf_counter_ns()

    def dump(self, path, extra: dict) -> None:
        names = sorted({r[0] for r in self.rows})
        code = {n: k for k, n in enumerate(names)}
        payload = dict(extra, names=names, columns=["name", "start_ns", "end_ns", "parent", "note"])
        payload["spans"] = [[code[r[0]], r[1], r[2], r[3], r[4]] for r in self.rows]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, separators=(",", ":")))


@contextmanager
def traced(recorder: Recorder):
    package = sys.modules["thetachar"]
    modules = [m for n, m in list(sys.modules.items()) if n.startswith("thetachar.") and m]
    patched = []
    for layer, names in LAYERS.items():
        home = sys.modules[f"thetachar.{layer}"]
        for name in names:
            original = getattr(home, name)
            wrapper = recorder.wrap(f"{layer}.{name}", original)
            targets = [package] if isinstance(original, type) else [package, *modules]
            for module in targets:
                if vars(module).get(name) is original:
                    setattr(module, name, wrapper)
                    patched.append((module, name, original))
    try:
        yield
    finally:
        for module, name, original in reversed(patched):
            setattr(module, name, original)


class SpanIndex:
    """Durations, self times and child work counts derived from the rows."""

    def __init__(self, rows: list[list]) -> None:
        self.rows = rows
        n = len(rows)
        self.dur = [r[2] - r[1] for r in rows]
        self.self_ns = list(self.dur)
        self.root = list(range(n))
        self.radius = [None] * n  # (g, R) of a truncation_radius child
        for i, (name, _, _, parent, note) in enumerate(rows):
            if parent < 0:
                continue
            self.self_ns[parent] -= self.dur[i]
            self.root[i] = self.root[parent]
            if name == "theta.truncation_radius":
                self.radius[parent] = note

    def where(self, name: str):
        return [i for i, r in enumerate(self.rows) if r[0] == name]

    def per_root(self, names, value) -> dict:
        """Sum value(i) over spans named in names, grouped by root span."""
        out: dict = {}
        for i, r in enumerate(self.rows):
            if r[0] in names:
                out[self.root[i]] = out.get(self.root[i], 0) + value(i)
        return out

    def layer_self_ms(self, root_name: str) -> dict:
        """Mean self time per root span named root_name, by layer, in ms."""
        roots = set(self.where(root_name))
        totals: dict = {}
        for i, r in enumerate(self.rows):
            if self.root[i] in roots:
                layer = r[0].split(".", 1)[0]
                totals[layer] = totals.get(layer, 0) + self.self_ns[i]
        return {k: v / 1e6 / max(1, len(roots)) for k, v in sorted(totals.items())}
