"""Outside-in tracer: wraps the package's public functions without editing it.

Every function listed in the ``__all__`` of a library module is replaced, at
every binding in the ``xychain`` namespaces (``from .x import f`` makes
copies), by a wrapper that records a span ``[name, start, end, parent, op,
info]`` in memory.  ``cli.main`` is wrapped too and is the root span of each
operation.  :meth:`Tracer.restore` puts every original binding back.

Self time of a span is its duration minus the time covered by its children;
calls are single-threaded and nested, so children never overlap.
"""

import functools
import sys
from time import perf_counter

PACKAGE = "xychain"
LAYERS = ("qseries", "qracah", "chain", "linalg", "freefermion", "spinoracle")
ROOT = ("cli", "main")

NAME, START, END, PARENT, OP, INFO = range(6)


def _dim(args, kwargs, result):
    return int(args[0].shape[0])


def _validate_outcome(args, kwargs, result):
    return result


def _spin_dim(args, kwargs, result):
    return int(result.shape[0])


def _levels(args, kwargs, result):
    return int(result.energies.size)


def _doubled_dim(args, kwargs, result):
    return int(result.system.H.shape[0])


def _chain_space_dim(args, kwargs, result):
    return 2 ** int(args[0].n_sites)


#: Extra facts recorded on a span, taken from a call's arguments or result.
PROBES = {
    "linalg.jacobi_eigh": _dim,
    "chain.validate_draw": _validate_outcome,
    "spinoracle.build_spin_hamiltonian": _spin_dim,
    "freefermion.many_body_spectrum": _levels,
    "freefermion.eigendecompose": _doubled_dim,
    "spinoracle.jw_certify": _chain_space_dim,
}


class Tracer:
    """Record nested spans of the package's public calls."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._patched = []

    def _targets(self):
        """Map ``id(function) -> (span name, function)`` for wrapped functions."""
        targets = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr in module.__all__:
                value = getattr(module, attr)
                if callable(value) and not isinstance(value, type):
                    targets[id(value)] = (f"{layer}.{attr}", value)
        main = getattr(sys.modules[f"{PACKAGE}.{ROOT[0]}"], ROOT[1])
        targets[id(main)] = (".".join(ROOT), main)
        return targets

    def _wrap(self, name, function):
        spans = self.spans
        stack = self._stack
        probe = PROBES.get(name)

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if probe is not None:
                span[INFO] = probe(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Replace every binding of every traced function by its wrapper."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        targets = self._targets()
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in targets.items()}
        for module_name, module in list(sys.modules.items()):
            if module_name != PACKAGE and not module_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in targets and value is targets[id(value)][1]:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        return self

    def restore(self):
        """Put back every original binding."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc_info):
        self.restore()
        return False


def self_times(spans):
    """Self time of every span: duration minus the duration of its children."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def descendant_counts(spans, prefix):
    """Number of descendants of each span whose name starts with ``prefix``."""
    counts = [0] * len(spans)
    # children are appended after their parent, so one reverse pass suffices
    for index in range(len(spans) - 1, -1, -1):
        parent = spans[index][PARENT]
        if parent >= 0:
            counts[parent] += counts[index] + spans[index][NAME].startswith(prefix)
    return counts
