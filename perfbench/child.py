"""One pi0rand CLI invocation, as the benchmark's child process.

    python3 child.py SIDECAR TRACE -- <pi0rand arguments>

Imports ``pi0rand.cli`` (found through PYTHONPATH), calls ``cli.main`` on the
arguments and exits with its return code. SIDECAR receives JSON with the
CLOCK_MONOTONIC times at which the import returned (the parent compares it
with its spawn time) and at which ``cli.main`` started and returned, the
host-speed probes (see calib.py) and the library versions. With TRACE = 1,
every public function and class ``__init__`` of the six pi0rand modules is
wrapped in a span before ``cli.main`` runs; the spans stay in memory and go
to SIDECAR + ".npz" at exit.
"""

import functools
import json
import sys
import time
from array import array

import calib


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    """Spans as parallel flat arrays: name id, start, end, parent index, items."""

    def __init__(self):
        self.names = []
        self.name, self.parent, self.n = array("i"), array("i"), array("q")
        self.start, self.end = array("d"), array("d")
        self.stack = [-1]

    def wrap(self, label, fn, items=None):
        if label not in self.names:
            self.names.append(label)
        nid = self.names.index(label)
        name, parent, n, start, end, stack = self.name, self.parent, self.n, self.start, self.end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name.append(nid)
            parent.append(stack[-1])
            n.append(items(args) if items else 1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def install(self):
        """Wrap the public API in every pi0rand namespace that binds it."""
        import numpy as np  # only after pi0rand.cli, which imports it itself
        import pi0rand
        from pi0rand import cli, pi0, pvalues, simkit, statdist, tuning

        modules = (statdist, pvalues, pi0, tuning, simkit, cli)
        namespaces = (pi0rand, *modules)
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                label = f"{short}.{attr}"
                if isinstance(obj, type):
                    if "__init__" in vars(obj):
                        obj.__init__ = self.wrap(label, obj.__init__)
                elif callable(obj):
                    traced = self.wrap(label, obj)
                    for ns in namespaces:
                        for key, value in list(vars(ns).items()):
                            if value is obj:
                                setattr(ns, key, traced)
        quantile_items = lambda args: int(np.size(args[1]))  # noqa: E731 - (self, v)
        for law in (pvalues.ZTestLaw, pvalues.TwoSampleTLaw):
            law.quantile = self.wrap("pvalues.law_quantile", law.quantile, quantile_items)

    def save(self, path):
        import numpy as np

        np.savez(
            path,
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            n=np.frombuffer(self.n, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def main():
    sidecar, trace, sep, *argv = sys.argv[1:]
    if sep != "--" or trace not in ("0", "1"):
        sys.exit("usage: child.py SIDECAR TRACE -- ARGS...")
    sampler = calib.Sampler()
    import pi0rand.cli as cli

    imported = _now()
    tracer = Tracer() if trace == "1" else None
    if tracer:
        tracer.install()
    t0 = _now()
    rc = cli.main(argv)
    t1 = _now()
    sampler.stop()
    sys.stdout.flush()
    info = {
        "imported": imported,
        "main": [t0, t1],
        "probe_start": sampler.start.tolist(),
        "probe_took": sampler.took.tolist(),
        "versions": {
            "pi0rand": sys.modules["pi0rand"].__version__,
            "numpy": sys.modules["numpy"].__version__,
            "scipy": sys.modules["scipy"].__version__,
            "python": sys.version.split()[0],
        },
    }
    if tracer:
        tracer.save(sidecar + ".npz")
        info["span_names"] = tracer.names
    with open(sidecar, "w", encoding="utf-8") as fh:
        json.dump(info, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
