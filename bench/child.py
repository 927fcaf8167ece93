"""One benchmark run in a fresh interpreter: set up, run the workload's stages.

    python3 bench/child.py <workload> <seed> <out_dir> <result.json> <mode>

``mode`` is ``setup`` (import and build the manifest, then stop), ``plain``
(run the stages untraced) or ``trace`` (run them with every layer wrapped and
write the spans next to the result).  The result file records the monotonic
clock at the first stage's start, so the parent can measure set-up time from
the moment it started this process.
"""

from __future__ import annotations

import os

# pin BLAS/OpenMP before numpy is imported: load comes from this one process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def clock() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(argv: list[str]) -> int:
    name, seed, out_dir, result_path, mode = argv
    from lineagekg import cli
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    manifest = cli.RunManifest(**workload.manifest_fields(int(seed), out_dir))
    manifest.validate()
    ready = clock()
    result = {"ready": ready}
    if mode != "setup":
        tracer = None
        if mode == "trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        log: list[str] = []
        status = 0
        start = time.perf_counter()
        for stage in workload.stages or (None,):
            status, _ = cli.run_pipeline(manifest, echo=log.append, only_stage=stage)
            if status:
                break
        run_s = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(Path(result_path).with_suffix(".spans.json"))
        result.update(
            status=status, run_s=run_s, log=log,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result.update(numpy=numpy.__version__,
                  blas=f"{blas.get('name')} {blas.get('version')}")
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
