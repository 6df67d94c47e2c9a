"""Outside-in span tracer for one `mfcp` CLI stage.

Run as a child process in place of `python3 -m mfcp.cli`:

    PERFBENCH_SPANS=spans.json python3 perfbench/tracer.py <stage> --config <file>

It wraps every public module-level function of the `mfcp` modules before
`cli.main` runs, keeps the spans in memory and writes them to
`$PERFBENCH_SPANS` when the stage ends. Nothing under `src/` is edited: the
wrappers replace the module attributes, including the names other modules
bound with `from .data import ...`.

A span is `[name, start_s, end_s, parent, thread, attrs]`. Times come from
`time.perf_counter()`; `parent` is the index of the enclosing span or -1.
Each thread keeps its own span stack. A span opened on an empty stack in a
worker thread takes the innermost open span of the main thread as parent,
which is `conformal.multi_split_calibrate` while the calibration pool runs.
"""

import inspect
import json
import os
import sys
import threading
import time

MODULES = ("cli", "data", "lofi", "linalg", "nn", "mfae", "conformal")


def _macs(net, n):
    """(total, frozen) multiply-accumulates of one forward pass over n rows."""
    total = frozen = 0
    for layer, trainable in zip(net.layers, net.trainable):
        m = n * layer.n_in * layer.n_out
        total += m
        if not trainable:
            frozen += m
    return total, frozen


def _rows(a):
    return a.shape[0] if getattr(a, "ndim", 1) == 2 else 1


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "attrs", "monitor_x")

    def __init__(self, name, parent, thread):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.attrs = None
        self.monitor_x = None
        self.start = self.end = 0.0


class Tracer:
    """Collects spans for the wrapped functions of one process."""

    def __init__(self):
        self.spans = []  # appended from several threads; list.append is atomic
        self._local = threading.local()
        self._main_stack = []
        self.main_entry_wall = None

    def _stack(self):
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name, stack):
        if stack:
            parent = stack[-1]
        elif stack is not self._main_stack and self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        span = Span(name, parent, threading.get_ident())
        self.spans.append(span)
        return span

    def wrap(self, name, fn):
        hook = _HOOKS.get(name)

        def traced(*args, **kwargs):
            stack = self._stack()
            span = self._open(name, stack)
            if hook is not None:
                hook.before(span, stack, args, kwargs)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook.after(span, args, kwargs, result)
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def install(self, package):
        """Wrap the public functions of each module and rebind every alias."""
        modules = [getattr(package, short) for short in MODULES]
        wrapped = {}
        for short, module in zip(MODULES, modules):
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrapped[id(obj)] = self.wrap(f"{short}.{attr}", obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    setattr(module, attr, wrapped[id(obj)])
        cli_main = package.cli.main

        def main(argv=None):
            self.main_entry_wall = time.time()
            return cli_main(argv)

        package.cli.main = main

    def dump(self, path, spawn_wall):
        index = {id(s): i for i, s in enumerate(self.spans)}
        doc = {
            "spawn_wall": spawn_wall,
            "main_entry_wall": self.main_entry_wall,
            "spans": [
                [s.name, s.start, s.end, -1 if s.parent is None else index[id(s.parent)], s.thread,
                 s.attrs]
                for s in self.spans
            ],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


# --- per-function attributes ---------------------------------------------------
#
# Work counts are computed from the arguments (layer shapes, batch rows,
# parameter sizes, file sizes), not measured by hardware counters.


class _Hook:
    def before(self, span, stack, args, kwargs):
        pass

    def after(self, span, args, kwargs, result):
        pass


class _Forward(_Hook):
    def before(self, span, stack, args, kwargs):
        net, x = args[0], args[1]
        total, frozen = _macs(net, _rows(x))
        enclosing = stack[-1] if stack else None
        val = (enclosing is not None and enclosing.name == "nn.train"
               and enclosing.monitor_x is not None and x is enclosing.monitor_x)
        span.attrs = {"macs": total, "frozen_macs": frozen, "val": val}


class _Backward(_Hook):
    def before(self, span, stack, args, kwargs):
        net, grad_out = args[0], args[2]
        n = _rows(grad_out)
        total = frozen = 0
        # every layer propagates the input gradient; trainable layers also
        # form their weight gradient
        for layer, trainable in zip(net.layers, net.trainable):
            m = n * layer.n_in * layer.n_out
            total += m * (2 if trainable else 1)
            if not trainable:
                frozen += m
        span.attrs = {"macs": total, "frozen_macs": frozen}


class _Adam(_Hook):
    def before(self, span, stack, args, kwargs):
        span.attrs = {"updates": sum(p.size for p in args[1])}


class _Train(_Hook):
    def before(self, span, stack, args, kwargs):
        monitor = kwargs.get("monitor", args[5] if len(args) > 5 else None)
        if monitor is not None:
            span.monitor_x = monitor[0]

    def after(self, span, args, kwargs, result):
        span.monitor_x = None
        span.attrs = {"best_epoch": result.best_epoch}


def _csv_bytes(path, params_path):
    """Size of a fields CSV plus its sibling params CSV."""
    if params_path is None:
        from mfcp.data import params_path_for

        params_path = getattr(params_path_for, "__wrapped__", params_path_for)(path)
    return os.path.getsize(path) + os.path.getsize(params_path)


class _LoadCsv(_Hook):
    def after(self, span, args, kwargs, result):
        params_path = kwargs.get("params_path", args[1] if len(args) > 1 else None)
        span.attrs = {"bytes": _csv_bytes(args[0], params_path)}


class _SaveCsv(_Hook):
    def after(self, span, args, kwargs, result):
        params_path = kwargs.get("params_path", args[2] if len(args) > 2 else None)
        span.attrs = {"bytes": _csv_bytes(args[1], params_path)}


_HOOKS = {
    "nn.forward": _Forward(),
    "nn.backward": _Backward(),
    "nn.adam_step": _Adam(),
    "nn.train": _Train(),
    "data.load_csv": _LoadCsv(),
    "data.save_csv": _SaveCsv(),
}


def main():
    spawn_wall = float(os.environ.get("PERFBENCH_SPAWN_WALL", "nan"))
    spans_path = os.environ["PERFBENCH_SPANS"]
    import mfcp
    import mfcp.cli  # noqa: F401  (the package does not import its CLI)

    tracer = Tracer()
    tracer.install(mfcp)
    code = 1
    try:
        code = mfcp.cli.main(sys.argv[1:])
    finally:
        tracer.dump(spans_path, spawn_wall)
    return code


if __name__ == "__main__":
    sys.exit(main())
