"""One benchmark command in a fresh process.

Usage: python3 child.py JOB_JSON SPAWNED

The job names the checkout's ``src`` directory, the config file, the CLI
arguments, whether to trace and where to write the result. SPAWNED is the
parent's monotonic clock reading just before it started this process. The set-up
time runs from that reading to the point where the config has been loaded
and validated, imports of numpy, scipy and mdsclt included.
"""

import json
import os
import resource
import sys
import time


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _blas_threads():
    """(library path, thread count) of the OpenBLAS loaded by numpy."""
    import ctypes

    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if line.count(" ") >= 5}
    libs = sorted(p for p in paths if "openblas" in os.path.basename(p).lower())
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return path, int(fn())
    return None, None


def _environment() -> dict:
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    lib, threads = _blas_threads()
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version"),
                     "library": os.path.basename(lib) if lib else None},
            "blas_threads": threads,
            "env": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MDSCLT_THREADS")}}


def main(job_path: str, spawned: float) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    import numpy  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401

    from mdsclt import cli, harness

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(job["src"]) + os.sep):
        raise SystemExit(f"mdsclt imported from {cli.__file__}, not {job['src']}")
    with open(job["config"]) as fh:
        harness.ExperimentConfig.from_json(json.load(fh))
    setup_s = time.monotonic() - spawned

    rec = None
    if job["trace"]:
        import spans

        rec = spans.Recorder()
        spans.install(rec)

    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    code = cli.dispatch(job["argv"])
    wall_s = time.perf_counter() - t0
    cpu_s = _cpu_s() - cpu0
    out = {"exit_code": code, "setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
           "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
           "spans": rec.spans if rec else None,
           "environment": _environment() if job["environment"] else None}
    with open(job["result"], "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1], float(sys.argv[2])))
