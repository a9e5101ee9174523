"""Traced execution of one benchmark op, for the per-layer numbers.

    python3 bench/tracer.py '<op as JSON>'

Run in a fresh child per op, so every cache starts cold.  The tracer
does the op's work by calling the package's public functions itself,
one layer at a time and bottom-up (filters, spectrum, coann, alpha,
classify), and records a span around each call.  Because the layers
cache their results, a span holds the work its layer adds over the
layers below it.  The op's entry point comes last: the suite one
statement at a time in registry order, or ``classification``.  The
search op calls the enumerator the way ``mine()`` does.

Spans are kept in memory and printed as one JSON object when the op
ends.  CLI report rendering is not traced.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

# The layer functions each command needs, in bottom-up order.  The
# lists are the listed functions each CLI command reaches at the
# commit that introduced the benchmark.
LAYERS = {
    "info": ("filters.all_filters", "spectrum.prime_filters",
             "spectrum.minimal_primes", "spectrum.maximal_filters",
             "spectrum.hull_topology", "coann.coannulet_family",
             "coann.coannihilator_family", "coann.all_ideals",
             "alpha.alpha_family", "classify.structure_maps"),
    "coann": ("coann.coannulet_family", "coann.coannihilator_family",
              "coann.all_ideals", "coann.omega_family"),
    "classify": ("filters.all_filters", "spectrum.prime_filters",
                 "spectrum.minimal_primes", "spectrum.hull_topology",
                 "coann.coannulet_family", "classify.structure_maps"),
    "verify": ("filters.all_filters", "spectrum.prime_filters",
               "spectrum.minimal_primes", "spectrum.maximal_filters",
               "spectrum.hull_topology", "coann.coannulet_family",
               "coann.coannihilator_family", "coann.all_ideals",
               "coann.omega_family", "alpha.alpha_family",
               "alpha.prime_alpha_filters", "classify.structure_maps",
               "classify.classification"),
    "validate": (),
}
ENTRY_CLASSIFICATION = ("info", "classify")

SEARCH_COUNTS = ("examined", "pruned", "found", "emitted", "iso_rejected")


class Tracer:
    """Spans in memory: (id, name, parent id, start, end) in seconds."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = [len(self.spans), name, parent, time.perf_counter(), None]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield
        finally:
            record[4] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args):
        with self.span(name):
            return fn(*args)

    @contextmanager
    def wrapped(self, module, attr: str, name: str):
        """Trace every call of ``module.attr`` made through the module,
        until the block ends."""
        inner = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                return inner(*args, **kwargs)

        setattr(module, attr, traced)
        try:
            yield
        finally:
            setattr(module, attr, inner)


def _function(dotted: str):
    import importlib
    module, attr = dotted.split(".")
    return getattr(importlib.import_module(f"reslat.{module}"), attr)


def _trace_search(tracer: Tracer, args: list[str], counts: dict) -> None:
    from reslat.classify import classification
    from reslat.search import (enumerate_lattices, enumerate_residuated,
                               parse_predicate)
    max_size = int(args[args.index("--max-size") + 1])
    pred = parse_predicate(args[args.index("--predicate") + 1])
    counts.update({"lattices": 0, "matching": 0,
                   **{k: 0 for k in SEARCH_COUNTS}})
    for n in range(1, max_size + 1):
        skeletons = tracer.call("search.enumerate_lattices",
                                enumerate_lattices, n)
        for skel in skeletons:
            counts["lattices"] += 1
            algebras, stats = tracer.call("search.enumerate_residuated",
                                          enumerate_residuated, skel)
            for key in SEARCH_COUNTS:
                counts[key] += getattr(stats, key)
            for alg in algebras:
                verdicts = tracer.call("classify.classification",
                                       classification, alg)
                counts["matching"] += bool(pred(verdicts))


def _trace_documents(tracer: Tracer, kind: str, inputs: list[str],
                     counts: dict) -> None:
    import reslat.algebra
    from reslat.classify import classification
    from reslat.io import parse_stream
    from reslat.suite import registry_idents, verify_suite
    layers = [(name, _function(name)) for name in LAYERS[kind]]
    counts.update({"statements": 0, "failed": 0})
    for path in inputs:
        text = Path(path).read_text(encoding="utf-8")
        # validate() looks check_tables up in its module at each call.
        with tracer.wrapped(reslat.algebra, "check_tables",
                            "algebra.check_tables"):
            docs = tracer.call("io.parse_stream", parse_stream, text)
        for doc in docs:
            alg = doc.algebra
            for name, fn in layers:
                tracer.call(name, fn, alg)
            if kind in ENTRY_CLASSIFICATION:
                tracer.call("classify.classification", classification, alg)
            elif kind == "verify":
                for ident in registry_idents():
                    (report,) = tracer.call(f"suite.{ident}", verify_suite,
                                            alg, (ident,))
                    counts["statements"] += 1
                    counts["failed"] += not report.passed


def trace_op(kind: str, args: list[str], inputs: list[str]) -> dict:
    """Do one op's work under a tracer; return its spans and counts."""
    tracer = Tracer()
    counts: dict = {}
    with tracer.span(f"op.{kind}"):
        if kind == "search":
            _trace_search(tracer, args, counts)
        else:
            _trace_documents(tracer, kind, inputs, counts)
    return {"spans": tracer.spans, "counts": counts}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: tracer.py '<op as JSON>'", file=sys.stderr)
        return 64
    op = json.loads(argv[0])
    result = trace_op(op["kind"], op["args"], op["inputs"])
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
