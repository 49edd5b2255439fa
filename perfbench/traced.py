"""One benchmark operation in a fresh interpreter, with tracing on.

    python3 perfbench/traced.py READY_FD RESULT_PATH CLI ARGS...

Runs the command line front end in-process, as `child.py` does (and
reports its set-up time on READY_FD the same way), after wrapping the
layer entry points of the library with timers and counters.  The spans are recorded here, around the calls into each
layer, so the library itself is not changed.  It writes
`{"rc", "stdout", "metrics"}` as JSON to RESULT_PATH.

Every metric is a sum over the calls made by this one operation; a
layer that is not called reads 0.  A function the library no longer has
(or an `annihilated_subspace` without the `matrix=` hook) leaves its
metrics out instead of failing the run.

Times are inclusive and counted once per outermost call, so a nested
call of the same function is not counted twice.  The action time is
measured through the `matrix=` hook of `annihilated_subspace`, so it
covers whatever source the caller passes, the CLI's disk cache included;
the elimination time `gf2.kernel.s` is computed by the parent as the
annihilated-subspace time minus the action time.
"""

import contextlib
import functools
import importlib
import inspect
import io
import json
import os
import sys
import time

from steenrod_transfer import cli

PACKAGE = "steenrod_transfer"

# Timed layer entry points: (module, function) -> name of the span.
SPANS = {
    ("bv", "coinvariant_quotient"): "bv.coinvariant_quotient",
    ("transfer", "transfer_chain"): "transfer.transfer_chain",
    ("cobar", "is_cocycle"): "cobar.is_cocycle",
    ("cobar", "class_of"): "cobar.class_of",
}

# lru_cache'd functions whose cache_info() is reported.
LRU = {
    "action_matrix": "bv",
    "degree_basis": "bv",
    "dual_basis": "milnor",
    "cell_basis": "cobar",
    "differential_matrix": "cobar",
    "f_star": "transfer",
    "_class_solver": "cobar",
    "_coproduct_mono": "milnor",
}


def _module(name):
    try:
        return importlib.import_module(f"{PACKAGE}.{name}")
    except ImportError:
        return None


class Tracer:
    def __init__(self):
        self.metrics = {}
        self._open = set()

    def add(self, name, value):
        self.metrics[name] = self.metrics.get(name, 0) + value

    def timed(self, name, fn, counted=False):
        """Wrap fn so that outermost calls add their wall time to name.s
        (and, if counted, one to name.calls)."""
        self.metrics.setdefault(name + ".s", 0.0)
        if counted:
            self.metrics.setdefault(name + ".calls", 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in self._open:
                return fn(*args, **kwargs)
            self._open.add(name)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add(name + ".s", time.perf_counter() - start)
                self._open.discard(name)
                if counted:
                    self.add(name + ".calls", 1)

        return wrapper


def replace_everywhere(original, wrapper):
    """Point every module of the package that holds original at wrapper,
    so callers that imported the name directly go through it too."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def instrument_annihilated(tracer):
    bv = _module("bv")
    original = getattr(bv, "annihilated_subspace", None)
    if original is None:
        return
    signature = inspect.signature(original)
    hook = "matrix" in signature.parameters and hasattr(bv, "action_matrix")
    tracer.metrics["bv.ambient_dim"] = 0
    if hook:
        tracer.metrics.update({"bv.action_matrix.s": 0.0, "bv.action_matrix.rows": 0, "gf2.kernel.bits": 0})

    def call(*args, **kwargs):
        rows = 0
        if hook:
            bound = signature.bind(*args, **kwargs)
            source = bound.arguments.get("matrix") or bv.action_matrix

            def timed_matrix(op, rank, degree):
                nonlocal rows
                start = time.perf_counter()
                mat = source(op, rank, degree)
                tracer.add("bv.action_matrix.s", time.perf_counter() - start)
                rows += mat.nrows
                return mat

            bound.arguments["matrix"] = timed_matrix
            args, kwargs = bound.args, bound.kwargs
        result = original(*args, **kwargs)
        tracer.add("bv.ambient_dim", result.ambient_dim)
        if hook:
            tracer.add("bv.action_matrix.rows", rows)
            tracer.add("gf2.kernel.bits", rows * result.ambient_dim)
        return result

    replace_everywhere(original, tracer.timed("bv.annihilated_subspace", call))


def instrument(tracer):
    instrument_annihilated(tracer)
    for (modname, fname), span in SPANS.items():
        original = getattr(_module(modname), fname, None)
        if original is None:
            continue
        if fname == "transfer_chain":
            tracer.metrics["transfer.words"] = 0

            def count_words(*args, _fn=original, **kwargs):
                img = _fn(*args, **kwargs)
                tracer.add("transfer.words", len(img.words))
                return img

            wrapped = tracer.timed(span, functools.wraps(original)(count_words))
        else:
            wrapped = tracer.timed(span, original, counted=fname == "class_of")
        replace_everywhere(original, wrapped)
    criteria = getattr(_module("checks"), "CRITERIA", {})
    for name, fn in list(criteria.items()):
        criteria[name] = tracer.timed(f"checks.{name}", fn)


def lru_metrics():
    out = {}
    for fname, modname in LRU.items():
        info = getattr(getattr(_module(modname), fname, None), "cache_info", None)
        if info is not None:
            stats = info()
            out[f"lru.{fname}.hits"] = stats.hits
            out[f"lru.{fname}.misses"] = stats.misses
    return out


def main(argv):
    fd, result_path, args = int(argv[0]), argv[1], argv[2:]
    os.write(fd, repr(time.monotonic()).encode())
    os.close(fd)
    tracer = Tracer()
    instrument(tracer)
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        try:
            rc = cli.main(args)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
    metrics = {**tracer.metrics, **lru_metrics()}
    with open(result_path, "w") as fh:
        json.dump({"rc": rc, "stdout": buffer.getvalue(), "metrics": metrics}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
