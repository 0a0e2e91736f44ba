"""One measured operation in a fresh process; prints a JSON line.

    worker.py setup CONFIG            time to the first training step
    worker.py run CONFIG OUT [SPANS]  one ``dualclust run``; traced when
                                      SPANS (a file to write) is given

The caller puts the package on PYTHONPATH and pins the BLAS threads.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time


def setup(config_path: str) -> dict:
    """Package import, load_config, build_dataset and resolve: what a
    run does before its first training step."""
    start = time.perf_counter()
    from dualclust import cli

    config = cli.load_config(config_path)
    dataset = cli.build_dataset(config.dataset)
    config.resolve(dataset)
    return {"setup_s": time.perf_counter() - start}


def run(config_path: str, out: str, spans_path: str | None) -> dict:
    from dualclust import cli

    tracer = None
    if spans_path is not None:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    # The CLI prints a completion line; keep stdout for the result.
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = cli.main(["run", "--config", config_path, "--out", out])
        run_s = time.perf_counter() - start
    if tracer is not None:
        tracer.write(spans_path)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    return {"exit_code": code, "run_s": run_s, "peak_rss_mb": peak_kib * 1024 / 1e6}


def main(argv: list) -> int:
    if argv[:1] == ["setup"] and len(argv) == 2:
        result = setup(argv[1])
    elif argv[:1] == ["run"] and len(argv) in (3, 4):
        result = run(argv[1], argv[2], argv[3] if len(argv) == 4 else None)
    else:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
