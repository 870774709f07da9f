"""One benchmark pass in a fresh interpreter, so every op starts cold.

    python3 perfbench/worker.py WORKLOAD CORPUS_DIR THETA_SEED TRACE RUN MODEL...

Times its own set-up (importing ``dimerkit`` and ``dimerkit.cli`` and
loading the model files), then runs one op per model in the given order,
timing each op from call to return and checking its output after the clock
stops.  Times are taken at the reference speed of ``pace.py``, and raw.
With ``TRACE`` 1 the calls into the package are wrapped in spans.  With
``RUN`` 0 the worker only measures set-up.  Prints one JSON object.

Module-level caches in the package key on model equality, so a second op on
an equal model would find warm state that a CLI call never has; the worker
refuses to visit any model twice.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _setup(corpus: str, names: list[str]):
    from pace import Pacer  # stdlib signal and time only

    pacer = Pacer()
    pacer.start()
    import dimerkit
    import dimerkit.cli  # noqa: F401  (every CLI call pays this import)

    models = {n: dimerkit.load_model(os.path.join(corpus, n + ".json")) for n in names}
    return pacer.stop(), models


def main(argv: list[str]) -> int:
    workload, corpus, theta_seed = argv[0], argv[1], int(argv[2])
    trace, run, names = argv[3] == "1", argv[4] == "1", argv[5:]
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.dirname(os.path.abspath(__file__))]
    (setup_s, setup_raw_s), models = _setup(corpus, names)

    import json
    import resource

    import checks
    from spans import Tracer

    run_op = {"certify": checks.certify_op, "tiling": checks.tiling_op,
              "spectrum": checks.spectrum_op}[workload]
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    ops, visited = [], set()
    try:
        for i, name in enumerate(names if run else []):
            if name in visited:
                raise SystemExit(f"model {name} visited twice in one process")
            visited.add(name)
            op = run_op(i, name, os.path.join(corpus, name + ".json"),
                        models[name], theta_seed, tracer)
            op["index"] = i
            ops.append(op)
    finally:
        if tracer:
            tracer.uninstall()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    json.dump(
        {
            "setup_s": setup_s,
            "setup_raw_s": setup_raw_s,
            "peak_rss_mb": peak_mb,
            "ops": ops,
            "spans": tracer.spans if tracer else [],
        },
        sys.stdout,
    )
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
