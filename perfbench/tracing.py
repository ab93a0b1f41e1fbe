"""Outside-in span tracing of the infogan_lab modules.

Tracing replaces public functions with timing wrappers in every package
namespace that holds them (``trainer.gen_forward``, ``evaluate.gen_forward``,
``autodiff.forward_op``, ...), so calls are caught where they are looked up
without editing the package. ``Tape.backward``, ``Tape.__enter__`` and
``Tape.__exit__`` are wrapped on the class: backward becomes a span, and the
enter/exit pair tracks whether a tape is recording and how many nodes each
tape held.

Every span records (id, parent id, iteration id, name, start ns, end ns)
into a flat in-memory integer array (names are interned), so a long traced
run stays small; ``write_spans`` saves them when the run ends. Iteration
id 0 is set-up; the timed loop numbers its iterations from 1.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

# Public functions traced, by the module that defines them.
TRACED = {
    "trainer": ("train_step", "d_step", "gq_step", "adam_step"),
    "models": ("gen_forward", "disc_q_forward"),
    "latent": ("sample_latent", "log_q"),
    "objectives": ("gan_losses", "generator_loss", "mi_lower_bound", "infogan_losses"),
    "data_io": ("synth_templates", "load_mnist_idx", "save_checkpoint", "load_checkpoint", "write_image_grid"),
    "evaluate": (
        "estimate_mi_bound",
        "categorical_classifier_eval",
        "traversal_grid",
        "channel_bound_check",
        "verify_lemma",
    ),
    "gradsuite": ("op_grad_checks", "full_loss_graph_check"),
    "autodiff": ("grad_check",),
}

# Spans whose name gains a ".taped" / ".untaped" suffix by whether a tape records.
TAPE_SPLIT = {"models.gen_forward", "models.disc_q_forward"}

SPAN_FIELDS = ("id", "parent", "iteration", "name", "start_ns", "end_ns")

FORWARD_OP = "autodiff.forward_op"
BACKWARD = "autodiff.backward"


class Tracer:
    """Span recorder plus the patches that feed it; one per traced run."""

    def __init__(self, package):
        self.package = package
        self.iteration = 0
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._spans = array("q")   # 6 integers per span, see SPAN_FIELDS
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self._stack: list[int] = [0]
        self._next_id = 1
        self._tape_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def spans(self):
        """Recorded spans as (id, parent, iteration, name, start_ns, end_ns) tuples."""
        cols = self._spans
        for i in range(0, len(cols), len(SPAN_FIELDS)):
            sid, parent, it, nid, t0, t1 = cols[i : i + len(SPAN_FIELDS)]
            yield sid, parent, it, self.names[nid], t0, t1

    def span_count(self) -> int:
        return len(self._spans) // len(SPAN_FIELDS)

    def _timed(self, nid: int, fn, args, kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self._spans.extend((sid, parent, self.iteration, nid, t0, t1))

    def _wrap(self, fn, name: str):
        if name in TAPE_SPLIT:
            untaped, taped = self.name_id(name + ".untaped"), self.name_id(name + ".taped")

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return self._timed(taped if self._tape_depth else untaped, fn, args, kwargs)
        else:
            nid = self.name_id(name)

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return self._timed(nid, fn, args, kwargs)
        return traced

    def _wrap_forward_op(self, fn):
        counts = self.counts
        op_ids: dict[str, int] = {}

        @functools.wraps(fn)
        def traced(name, inputs, attrs=None):
            if name == "matmul":
                (m, k), (_, n) = inputs[0].shape, inputs[1].shape
                counts[(self.iteration, "autodiff.matmul_fwd_flops")] += 2 * m * k * n
                counts[(self.iteration, "autodiff.matmul_fwd_bytes")] += 8 * (m * k + k * n + m * n)
            nid = op_ids.get(name)
            if nid is None:
                nid = op_ids[name] = self.name_id(f"{FORWARD_OP}.{name}")
            return self._timed(nid, fn, (name, inputs, attrs), {})

        return traced

    def _wrap_tape(self, tape_cls):
        enter, exit_, backward = tape_cls.__enter__, tape_cls.__exit__, tape_cls.backward

        @functools.wraps(enter)
        def traced_enter(tape):
            self._tape_depth += 1
            return enter(tape)

        @functools.wraps(exit_)
        def traced_exit(tape, *exc):
            self._tape_depth -= 1
            self.counts[(self.iteration, "autodiff.tape_nodes")] += len(tape.nodes)
            return exit_(tape, *exc)

        nid = self.name_id(BACKWARD)

        @functools.wraps(backward)
        def traced_backward(tape, *args, **kwargs):
            return self._timed(nid, backward, (tape, *args), kwargs)

        return {"__enter__": traced_enter, "__exit__": traced_exit, "backward": traced_backward}

    # -- installing ------------------------------------------------------

    def _modules(self):
        prefix = self.package.__name__
        return [m for name, m in sorted(sys.modules.items()) if m is not None and (name == prefix or name.startswith(prefix + "."))]

    def install(self) -> None:
        """Patch every package namespace that holds a traced function."""
        if self._patches:
            return
        modules = self._modules()
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        wrappers = {}
        for mod_name, fn_names in TRACED.items():
            for fn_name in fn_names:
                fn = getattr(by_name[mod_name], fn_name, None)
                if fn is not None:
                    wrappers[id(fn)] = (fn, self._wrap(fn, f"{mod_name}.{fn_name}"))
        autodiff = by_name["autodiff"]
        wrappers[id(autodiff.forward_op)] = (autodiff.forward_op, self._wrap_forward_op(autodiff.forward_op))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])
        for attr, wrapper in self._wrap_tape(autodiff.Tape).items():
            self._patches.append((autodiff.Tape, attr, vars(autodiff.Tape)[attr]))
            setattr(autodiff.Tape, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reporting -------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(",".join(SPAN_FIELDS) + "\n")
            for span in self.spans():
                f.write(",".join(str(v) for v in span) + "\n")

    def per_unit(self) -> dict[int, dict[str, float]]:
        """Per iteration id: '<name>.calls', '<name>.ms', '<name>.self_ms' and counters."""
        child_ns: dict[int, int] = defaultdict(int)
        for sid, parent, _, _, t0, t1 in self.spans():
            child_ns[parent] += t1 - t0
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for sid, _, it, name, t0, t1 in self.spans():
            row = out[it]
            row[name + ".calls"] += 1
            row[name + ".ms"] += (t1 - t0) / 1e6
            row[name + ".self_ms"] += (t1 - t0 - child_ns[sid]) / 1e6
        for (it, name), value in self.counts.items():
            out[it][name] += value
        return out
