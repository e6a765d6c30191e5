"""Run one klmdp CLI verb in this process and report its timings as JSON.

Started by ``run.py`` once per timed round, with BLAS pinned to one thread in
the environment.  Usage::

    python3 bench/child.py SPEC_JSON

``SPEC_JSON`` holds ``src`` (the directory holding the ``klmdp`` package),
``argv`` (the verb and its arguments), ``mode`` (``setup``: stop at the first
solver call; ``time``: untraced; ``trace``: all layers wrapped), ``report``
(where to write the report) and, when tracing, ``spans`` (where to write the
spans).
"""

from __future__ import annotations

import json
import resource
import sys


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import klmdp.cli  # part of set-up: the import is timed as users pay it

    from tracer import SetupDone, SolverClock, Tracer, span_cost_s

    tracer = None
    if spec["mode"] == "trace":
        tracer = Tracer()
        tracer.install()
    clock = SolverClock(stop_at_first=spec["mode"] == "setup")
    clock.install(klmdp.cli)
    try:
        rc = klmdp.cli.main(spec["argv"])
    except SetupDone:
        rc = 0
    sys.stdout.flush()

    report = {
        "rc": rc,
        "package": klmdp.__file__,
        "first_solver_call": clock.first_call,
        "solve_s": clock.solve_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        report["layers"] = tracer.layer_totals()
        report["counts"] = dict(tracer.counts)
        report["spans"] = len(tracer.spans)
        report["solver_layers_s"] = tracer.solver_layers_s()
        report["overhead_est_s"] = len(tracer.spans) * span_cost_s()
        report["absent"] = tracer.absent
        tracer.write_spans(spec["spans"])
    with open(spec["report"], "w") as f:
        json.dump(report, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
