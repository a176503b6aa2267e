"""Span tracing from outside the program.

``Tracer.install`` replaces each wrap point (a public function, at the name
its caller looks up) with a timing wrapper and ``uninstall`` restores the
originals. Spans live in memory as (name, start, end, parent, cell, info)
and are written out once the run ends. A wrap point that no longer exists
is recorded as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

# (module, attribute path). The span is named "<module tail>.<attribute>".
WRAP_POINTS = [
    ("turbowdm.harness", "_load_code"),
    ("turbowdm.harness", "build_frame"),
    ("turbowdm.harness", "rrc_shape"),
    ("turbowdm.harness", "wdm_mux"),
    ("turbowdm.harness", "select_channel"),
    ("turbowdm.harness", "matched_filter"),
    ("turbowdm.harness", "nlms_equalize"),
    ("turbowdm.harness", "ddpll"),
    ("turbowdm.harness", "turbo_loop"),
    ("turbowdm.harness", "run_trial"),
    ("turbowdm.fiber", "propagate_link"),
    ("turbowdm.fiber", "edc"),
    ("turbowdm.fiber", "dbp"),
    ("turbowdm.turbo", "nlms_tap_preconvergence"),
    ("turbowdm.turbo", "rls_estimate"),
    ("turbowdm.turbo", "lmmse_equalize"),
    ("turbowdm.turbo", "decode"),
    ("turbowdm.turbo", "post_fec_ber"),
    ("turbowdm.turbo", "gmi_bits_per_2d"),
    ("turbowdm.constellation", "extrinsic_llrs"),
    ("turbowdm.constellation", "symbol_priors"),
    ("turbowdm.constellation", "soft_stats"),
    ("turbowdm.fec", "LdpcCode.encode"),
]

# Per-layer metric -> (unit, kind, span names). Kinds: "self" sums self
# time, "calls" counts spans, "info:<key>" sums a value taken from the
# wrapped call's return, "ratio:<key>" divides that sum by the call count.
LAYER_METRICS = {
    "fec.load_s": ("s", "self", ["harness._load_code"]),
    "fec.load_calls": ("count", "calls", ["harness._load_code"]),
    "fec.encode_s": ("s", "self", ["fec.LdpcCode.encode"]),
    "fec.encode_calls": ("count", "calls", ["fec.LdpcCode.encode"]),
    "fec.decode_s": ("s", "self", ["turbo.decode"]),
    "fec.decode_calls": ("count", "calls", ["turbo.decode"]),
    "fec.decoder_iters": ("count", "info:iters", ["turbo.decode"]),
    "fec.converged_ratio": ("ratio", "ratio:converged", ["turbo.decode"]),
    "fiber.forward_s": ("s", "self", ["fiber.propagate_link"]),
    "fiber.forward_calls": ("count", "calls", ["fiber.propagate_link"]),
    "fiber.comp_s": ("s", "self", ["fiber.edc", "fiber.dbp"]),
    "waveform.tx_s": (
        "s", "self", ["harness.build_frame", "harness.rrc_shape", "harness.wdm_mux"],
    ),
    "waveform.rx_s": ("s", "self", ["harness.select_channel", "harness.matched_filter"]),
    "sync_dsp.nlms_s": ("s", "self", ["harness.nlms_equalize"]),
    "sync_dsp.pll_s": ("s", "self", ["harness.ddpll"]),
    "constellation.demap_s": ("s", "self", ["constellation.extrinsic_llrs"]),
    "constellation.demap_calls": ("count", "calls", ["constellation.extrinsic_llrs"]),
    "constellation.priors_s": (
        "s", "self", ["constellation.symbol_priors", "constellation.soft_stats"],
    ),
    "turbo.precon_s": ("s", "self", ["turbo.nlms_tap_preconvergence"]),
    "turbo.rls_s": ("s", "self", ["turbo.rls_estimate"]),
    "turbo.lmmse_s": ("s", "self", ["turbo.lmmse_equalize"]),
    "turbo.loop_self_s": ("s", "self", ["harness.turbo_loop"]),
    "turbo.iterations": ("count", "info:iterations", ["harness.turbo_loop"]),
    "metrics.s": ("s", "self", ["turbo.post_fec_ber", "turbo.gmi_bits_per_2d"]),
    "harness.cells": ("count", "calls", ["harness.run_trial"]),
    "harness.self_s": ("s", "self", ["harness.run_trial"]),
}


def _decode_info(out) -> dict:
    # decode returns (a-posteriori L-values, hard bits, converged, iterations)
    return {"iters": int(out[3]), "converged": int(bool(out[2]))}


def _turbo_info(out) -> dict:
    # one record per iteration; iteration 0 is the pass before any feedback
    return {"iterations": len(out.records) - 1}


INFO = {"turbo.decode": _decode_info, "harness.turbo_loop": _turbo_info}


def span_name(module: str, attr: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{attr}"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, cell, info]
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._cell = -1  # cell id: sequence number of the run_trial call
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module, attr in WRAP_POINTS:
            name = span_name(module, attr)
            try:
                owner = importlib.import_module(module)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                fn = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            self._originals.append((owner, leaf, fn))
            setattr(owner, leaf, self._wrap(name, fn))

    def uninstall(self) -> None:
        for owner, leaf, fn in reversed(self._originals):
            setattr(owner, leaf, fn)
        self._originals.clear()

    def _wrap(self, name: str, fn):
        info_of = INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "harness.run_trial":
                self._cell += 1
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                    self._cell, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if info_of is not None:
                try:
                    span[5] = info_of(out)
                except (TypeError, IndexError, AttributeError, ValueError):
                    pass  # return shape changed: the derived count shows absent
            return out

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover. Spans
        of one process nest strictly, so children never overlap."""
        self_t = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                self_t[s[3]] -= s[2] - s[1]
        return self_t

    def layer_metrics(self) -> tuple[dict[str, tuple[float, str]], list[str]]:
        """Per-layer metric values and the names of metrics whose wrap points
        (or return values) were absent."""
        self_t = self.self_times()
        out: dict[str, tuple[float, str]] = {}
        absent = []
        for metric, (unit, kind, names) in LAYER_METRICS.items():
            spans = [(s, t) for s, t in zip(self.spans, self_t) if s[0] in names]
            missing = any(n in self.absent for n in names)
            if kind == "self":
                value = sum(t for _, t in spans)
            elif kind == "calls":
                value = len(spans)
            else:
                key = kind.split(":", 1)[1]
                infos = [s[5] for s, _ in spans]
                missing |= any(i is None for i in infos)
                value = sum(i[key] for i in infos if i is not None)
                if kind.startswith("ratio:"):
                    value = value / len(spans) if spans else 0.0
            if missing:
                absent.append(metric)
                value = 0.0
            out[metric] = (float(value), unit)
        return out, absent

    def dump(self, path) -> None:
        """Write the spans as one JSON object per line."""
        keys = ("name", "start", "end", "parent", "cell", "info")
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, **dict(zip(keys, s))}) + "\n")
