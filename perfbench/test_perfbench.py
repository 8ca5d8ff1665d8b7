"""Self-tests of the benchmark's own arithmetic.

Run from the root of a checkout: python3 -m pytest perfbench
"""

import copy
import json
import os
import statistics
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import run
import spans


def _span(sid, parent, start, end, thread=0):
    return {"name": f"s{sid}", "id": sid, "parent": parent, "thread": thread,
            "start": start, "end": end, "attrs": {}}


def test_self_time_counts_overlapping_children_from_two_threads_once():
    parent = _span(1, None, 0.0, 10.0)
    on_first = _span(2, 1, 1.0, 5.0, thread=1)
    on_second = _span(3, 1, 3.0, 8.0, thread=2)
    grandchild = _span(4, 2, 2.0, 4.0, thread=1)
    selfs = spans.self_times([parent, on_first, on_second, grandchild])
    assert selfs[1] == pytest.approx(10.0 - 7.0)  # union [1, 8], not 4 + 5
    assert selfs[2] == pytest.approx(4.0 - 2.0)
    assert selfs[3] == pytest.approx(5.0)


def test_union_length_clips_to_the_parent_and_merges_touching_intervals():
    assert spans.union_length([(-1.0, 2.0), (2.0, 3.0), (9.0, 12.0)], 0.0, 10.0) \
        == pytest.approx(4.0)
    assert spans.union_length([], 0.0, 10.0) == 0.0


def test_recorder_attributes_pool_work_to_the_waiting_span():
    rec = spans.Recorder()
    leaf = rec.wrap("leaf", lambda: threading.get_ident())

    def outer():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return [f.result() for f in [pool.submit(leaf) for _ in range(4)]]

    rec.wrap("outer", outer)()
    by_name = {}
    for s in rec.spans:
        by_name.setdefault(s["name"], []).append(s)
    (top,) = by_name["outer"]
    assert top["parent"] is None
    assert [s["parent"] for s in by_name["leaf"]] == [top["id"]] * 4


@pytest.mark.parametrize("n, percentile, rank", [
    (19, 50.0, None), (99, 50.0, None), (100, 90.0, 90), (999, 90.0, 900),
    (1000, 99.0, 990), (9999, 99.0, 9900), (10000, 99.9, 9990),
])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, percentile, rank):
    values = list(np.random.default_rng(n).permutation(n) + 1.0)
    pct, value = spans.tail(values)
    assert pct == percentile
    if rank is None:
        assert value == np.median(values)
    else:
        assert value == rank  # values are 1..n, so the value is its rank
        assert sum(v > value for v in values) >= spans.TAIL_MIN_BEYOND


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_workload_config_is_a_pure_function_of_the_seed(workload):
    first = run.make_config(workload, 7)
    snapshot = copy.deepcopy(first)
    json.dumps(first)
    run.make_config(workload, 8)
    assert run.make_config(workload, 7) == snapshot == first
    other = run.make_config(workload, 8)
    assert {k for k in first if first[k] != other[k]} == {"seed"}


def _traced(spans_of_process, completed=1):
    return {"ok": True, "traced": True, "completed": completed, "wall_s": 1.0,
            "spans": [dict(_span(i, p, a, b, t), name=name)
                      for name, i, p, a, b, t in spans_of_process]}


def test_per_layer_keeps_span_ids_of_each_process_apart():
    # Both processes hand out ids 1-4; the same id names different layers.
    first = _traced([
        ("cli.dispatch", 1, None, 0.0, 10.0, 0),
        ("harness.run", 2, 1, 1.0, 9.0, 0),
        ("matrixcore.SymmetricMatrix", 3, 2, 2.0, 6.0, 1),
        ("matrixcore.SymmetricMatrix", 4, 2, 4.0, 8.0, 2),
        ("matrixcore.double_center", 5, 3, 2.0, 3.0, 1),
    ])
    second = _traced([
        ("cli.dispatch", 1, None, 0.0, 5.0, 0),
        ("harness.run", 2, 1, 0.0, 4.0, 0),
        ("pointmodel.sample", 3, 2, 0.0, 1.0, 1),
        ("noise.perturb", 4, 2, 1.0, 3.0, 2),
    ])

    def layers(results):
        metrics, _ = run.per_layer("mask_n3000", results)
        return {k: v["value"] for k, v in metrics.items()}

    alone, other, pooled = layers([first]), layers([second]), layers([first, second])
    # busy: (4 + 4) / (2 threads x 8) and (1 + 2) / (2 x 4), pooled by median.
    assert alone["harness.busy_frac"] == pytest.approx(0.5)
    assert other["harness.busy_frac"] == pytest.approx(0.375)
    assert pooled["harness.busy_frac"] == pytest.approx(0.4375)
    # SymmetricMatrix self times 3 and 4 s come from the first process only.
    assert pooled["matrixcore.SymmetricMatrix.self_ms"] \
        == alone["matrixcore.SymmetricMatrix.self_ms"] == pytest.approx(3500.0)
    assert pooled["matrixcore.SymmetricMatrix.calls"] == 2
    # harness.run self: 8 - |[2, 8]| = 2 s and 4 - |[0, 3]| = 1 s.
    assert pooled["harness.run.self_ms"] == pytest.approx(1500.0)
    assert pooled["cli.dispatch.self_ms"] == pytest.approx(
        statistics.median([2000.0, 1000.0]))


def test_counting_eigensolver_leaves_eigenpairs_bit_identical():
    # ARPACK's default start vector differs between processes, so the
    # comparison fixes v0; it runs in a subprocess because install() patches
    # modules process-wide.
    code = """
import numpy as np
import scipy.sparse.linalg as spla
import spans
rng = np.random.default_rng(0)
x = rng.standard_normal((400, 2))
a = x @ x.T + rng.standard_normal((400, 400))
a = (a + a.T) / 2
v0 = rng.standard_normal(400)
plain = spla.eigsh(a, k=6, which="LA", v0=v0)
rec = spans.Recorder()
spans.install(rec)
counted = rec.wrap("solve", spla.eigsh)(a, k=6, which="LA", v0=v0)
assert all(np.array_equal(p, c) for p, c in zip(plain, counted))
assert rec.spans[-1]["attrs"]["matvecs"] > 6
"""
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([here, run.SRC]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
