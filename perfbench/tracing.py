"""Spans around the public functions of hilbertcone's layers, from outside.

:class:`Tracer` replaces every public function of ``cli``, ``core``,
``contraction``, ``simplex`` and ``bounds`` (the functions each module lists
in ``__all__``) by a timing wrapper, in every ``hilbertcone`` module
namespace that binds it, and wraps ``__post_init__`` of the value classes to
time construction.  ``uninstall`` puts every original back.

A span is (id, name, start, end, parent id, op id).  Spans are kept in memory
only while ``record`` is set and written out by the caller; per-name call
counts, inclusive and self times are always accumulated.  A span's self time
is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "core", "contraction", "simplex", "bounds")
CONSTRUCTORS = {
    "core": ("PositiveVector", "SimplexPoint"),
    "contraction": ("NonnegMatrix", "GridKernel"),
}
PHI_FUNCTIONS = frozenset(
    f"contraction.{f}" for f in
    ("birkhoff_phi", "birkhoff_tau", "projective_diameter", "grid_kernel_phi", "grid_kernel_tau")
)


class _Frame:
    __slots__ = ("name", "start", "child", "span_id")

    def __init__(self, name, start, span_id):
        self.name = name
        self.start = start
        self.child = 0.0
        self.span_id = span_id


class Tracer:
    """Installs and removes the wrappers and accumulates what they measure."""

    def __init__(self):
        self._patched: list[tuple[object, str, object]] = []
        self._stack: list[_Frame] = []
        self._next_id = 0
        self.op_id = -1
        self.record = False
        self.spans: list[tuple] = []
        self.reset()

    def reset(self) -> None:
        """Zero the accumulated counters (spans already recorded are kept)."""
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_time = defaultdict(float)
        self.construct_calls = defaultdict(int)  # outermost constructions, per layer
        self.construct_s = defaultdict(float)
        self.parse_bytes = 0
        self.markov_hd_calls = 0
        self.ops_with_phi = 0
        self._op_phi = 0
        self._markov_depth = 0

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if name == "hilbertcone" or name.startswith("hilbertcone.")]
        for layer in LAYERS:
            mod = sys.modules[f"hilbertcone.{layer}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(fn, f"{layer}.{attr}")
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            self._patch(m, key, wrapper)
            for cls_name in CONSTRUCTORS.get(layer, ()):
                cls = getattr(mod, cls_name)
                init = cls.__dict__["__post_init__"]
                self._patch(cls, "__post_init__", self._wrap(init, f"{layer}.{cls_name}"))

    def _patch(self, owner, key, value) -> None:
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    # -- ops and spans ----------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._op_phi = 0

    def end_op(self) -> None:
        if self._op_phi:
            self.ops_with_phi += 1

    def _wrap(self, fn, name):
        tracer = self
        layer = name.split(".", 1)[0]
        is_construct = fn.__name__ == "__post_init__"
        constructors = tuple(f"{layer}.{c}" for c in CONSTRUCTORS.get(layer, ()))
        is_phi = name in PHI_FUNCTIONS
        is_markov = name == "contraction.markov_converge"
        is_hd = name == "core.hilbert_distance"
        is_parse = name == "cli.parse_input"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = _Frame(name, 0.0, tracer._next_id)
            tracer._next_id += 1
            if is_parse:
                tracer.parse_bytes += len(args[0])
            elif is_phi:
                tracer._op_phi += 1
            elif is_hd and tracer._markov_depth:
                tracer.markov_hd_calls += 1
            tracer._markov_depth += is_markov
            stack.append(frame)
            frame.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer._markov_depth -= is_markov
                dur = end - frame.start
                tracer.calls[name] += 1
                tracer.incl[name] += dur
                tracer.self_time[name] += dur - frame.child
                if parent is not None:
                    parent.child += dur
                # SimplexPoint.__post_init__ calls PositiveVector's: count one object.
                if is_construct and (parent is None or parent.name not in constructors):
                    tracer.construct_calls[layer] += 1
                    tracer.construct_s[layer] += dur
                if tracer.record:
                    tracer.spans.append((frame.span_id, name, frame.start, end,
                                         None if parent is None else parent.span_id,
                                         tracer.op_id))

        return wrapper

    # -- derived figures --------------------------------------------------

    def layer_self(self, layer: str) -> float:
        return sum(v for k, v in self.self_time.items() if k.split(".", 1)[0] == layer)

    def figures(self, op_time: float) -> dict:
        """The per-layer figures accumulated since the last :meth:`reset`.

        ``op_time`` is the wall time of the ops traced meanwhile; each layer's
        ``share`` is its self time divided by it.
        """
        incl, calls, selft = self.incl, self.calls, self.self_time
        phi_calls = sum(calls[n] for n in PHI_FUNCTIONS)
        markov_calls = calls["contraction.markov_converge"]
        shares = {f"{layer}.share": self.layer_self(layer) / op_time for layer in LAYERS}
        return shares | {
            "cli.self_s": selft["cli.run_command"],
            "cli.parse_input.s": incl["cli.parse_input"],
            "cli.parse_input.bytes": self.parse_bytes,
            "core.construct.s": self.construct_s["core"],
            "core.construct.calls": self.construct_calls["core"],
            "core.hilbert_distance.s": incl["core.hilbert_distance"],
            "core.hilbert_distance.calls": calls["core.hilbert_distance"],
            "core.t_distance.s": incl["core.t_distance"],
            "contraction.construct.s": self.construct_s["contraction"],
            "contraction.phi.s": sum(incl[n] for n in PHI_FUNCTIONS),
            "contraction.phi.calls": phi_calls,
            "contraction.phi_calls_per_op": phi_calls / self.ops_with_phi if phi_calls else 0.0,
            "contraction.verify_contraction.s": incl["contraction.verify_contraction"],
            "contraction.markov_converge.self_s": selft["contraction.markov_converge"],
            "contraction.markov.hd_calls_per_op":
                self.markov_hd_calls / markov_calls if markov_calls else 0.0,
            "simplex.ball_vertices.self_s": selft["simplex.ball_vertices"],
            "simplex.tile.self_s": selft["simplex.tile"],
            "simplex.theta_inverse.s": incl["simplex.theta_inverse"],
            "simplex.theta_inverse.calls": calls["simplex.theta_inverse"],
            "simplex.hilbert_via_theta.s": incl["simplex.hilbert_via_theta"],
            "simplex.render_svg.s": incl["simplex.render_svg"],
            "bounds.self_s": self.layer_self("bounds"),
            "bounds.calls": sum(v for k, v in calls.items() if k.startswith("bounds.")),
        }
