"""Split pretraining time by tensor op, forward and backward.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/op_split.py [--steps N] [--seed S]

Builds the `train` benchmark workload's full-size inputs with
`bench/workloads.make_train` (read, not changed), then runs N pretraining
steps of the benchmark's model and settings. Every public function of
`txrec.tensor` is wrapped, and so is every backward rule the tape records, so
each op's time is booked twice: its forward call, and its rule during
`GradTape.backward`. An op called inside another op (`embedding_lookup`'s
`gather_rows`) is booked to the outer one. The table gives milliseconds per
step; "glue" is the step time spent outside every op: input building,
masking plans and the backward sweep's own loop. `Adam.step` and
`clip_global_norm` appear as forward time.

The wrappers cost about a microsecond per call, so the total reads a little
above an unwrapped step; compare tables taken the same way.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import inspect
import sys
import time
from collections import defaultdict
from pathlib import Path

from txrec import catalog, cli, encoder, evaluator, objectives, tensor, trainer
from txrec.encoder import Encoder
from txrec.objectives import MLMHead
from txrec.rng import stream

clock = time.perf_counter
BENCH = Path(__file__).resolve().parent.parent / "bench"
MODULES = (catalog, cli, encoder, evaluator, objectives, tensor, trainer)
UNTIMED = {"active_tape"}  # called inside every op's `_result`


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


class OpSplit:
    """Forward and backward seconds, and calls, per op name."""

    def __init__(self):
        self.forward: dict[str, float] = defaultdict(float)
        self.backward: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._open: list[str] = []   # ops being run, outermost first

    def _op(self, name, fn):
        def timed(*args, **kwargs):
            if self._open:           # booked to the outer op
                return fn(*args, **kwargs)
            self._open.append(name)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.forward[name] += clock() - t0
                self.calls[name] += 1
                self._open.pop()

        return timed

    def _record(self, record):
        def timed_record(tape, out, fn, inputs):
            name = self._open[0] if self._open else "?"

            def timed_rule(g, *slots):
                t0 = clock()
                fn(g, *slots)
                self.backward[name] += clock() - t0

            record(tape, out, timed_rule, inputs)

        return timed_record

    @contextlib.contextmanager
    def installed(self):
        """Wrap the ops wherever a txrec module binds them; restore on exit."""
        targets = {name: fn for name, fn in vars(tensor).items()
                   if inspect.isfunction(fn) and fn.__module__ == tensor.__name__
                   and not name.startswith("_") and name not in UNTIMED}
        targets["Adam.step"] = tensor.Adam.step
        wrapped = {id(fn): self._op(name, fn) for name, fn in targets.items()}
        patched = []
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped and inspect.isfunction(value):
                    patched.append((module, attr, value))
                    setattr(module, attr, wrapped[id(value)])
        patched.append((tensor.Adam, "step", tensor.Adam.step))
        tensor.Adam.step = wrapped[id(targets["Adam.step"])]
        patched.append((tensor.GradTape, "record", tensor.GradTape.record))
        tensor.GradTape.record = self._record(tensor.GradTape.record)
        try:
            yield self
        finally:
            for owner, attr, value in reversed(patched):
                setattr(owner, attr, value)


def pretrainer(workloads, data):
    """A function running `steps` pretraining steps of a fresh copy of the
    benchmark's model, with its settings; the batch holds every sequence, so
    one epoch is one step."""
    cfg = workloads.paper_config(data.vocab.size, dropout=0.1)
    init = stream(data.seed, "init")
    enc = Encoder(cfg, init)
    head = MLMHead(cfg.d, data.vocab.size, init)

    def run(steps: int) -> None:
        trainer.pretrain(data.sequences, data.catalog, data.vocab, enc, head,
                         trainer.TrainConfig(n_epochs=steps, pretrain_batch=len(data.sequences),
                                             lr=1e-3, seed=data.seed),
                         workloads.LOSS, workloads.LIMITS)

    return run


def split(steps: int, seed: int, size: str = "full") -> tuple[OpSplit, float]:
    """The op split of `steps` pretraining steps on the `train` workload's
    inputs at `size` ("full" or "companion"), after one warm-up step, and the
    wall seconds per step."""
    workloads = _load_workloads()
    data = workloads.make_train(seed, **workloads.SIZES["train"][size])
    pretrainer(workloads, data)(1)
    run = pretrainer(workloads, data)
    with OpSplit().installed() as rec:
        t0 = clock()
        run(steps)
        took = clock() - t0
    return rec, took / steps


def table(rec: OpSplit, step_s: float, steps: int) -> str:
    ms = 1e3 / steps
    rows = sorted(rec.calls, key=lambda n: -(rec.forward[n] + rec.backward[n]))
    lines = [f"{'op':<22}{'calls':>8}{'fwd ms':>10}{'bwd ms':>10}{'sum ms':>10}"]
    for name in rows:
        fwd, bwd = rec.forward[name] * ms, rec.backward[name] * ms
        lines.append(f"{name:<22}{rec.calls[name] / steps:>8.0f}{fwd:>10.2f}{bwd:>10.2f}"
                     f"{fwd + bwd:>10.2f}")
    in_ops = (sum(rec.forward.values()) + sum(rec.backward.values())) * ms
    lines.append(f"{'glue':<22}{'':>8}{'':>10}{'':>10}{step_s * 1e3 - in_ops:>10.2f}")
    lines.append(f"{'step':<22}{'':>8}{'':>10}{'':>10}{step_s * 1e3:>10.2f}")
    return "\n".join(lines)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=40)
    parser.add_argument("--seed", type=int, default=201)
    args = parser.parse_args(argv)
    rec, step_s = split(args.steps, args.seed)
    print(table(rec, step_s, args.steps))


if __name__ == "__main__":
    main()
