"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json

import pytest

import bench_workloads as bw
import run
from bench_session import ROOT, load_reference, open_session, pair_key


def _batch(workload, seed, index=0):
    s = open_session()
    make_batch, _ = bw.WORKLOADS[workload]
    return s, make_batch(s, load_reference(), bw.batch_rng(workload, seed, index))


@pytest.mark.parametrize("workload", sorted(bw.WORKLOADS))
def test_same_seed_gives_identical_inputs(workload):
    first = repr(_batch(workload, 7)[1])
    assert repr(_batch(workload, 7)[1]) == first
    if workload in ("oracle-certify", "pbw-modules"):   # the seeded ones
        assert repr(_batch(workload, 8)[1]) != first


def test_other_seed_changes_samples_but_hits_the_reference():
    ref = load_reference()
    _, one = _batch("oracle-certify", 1)
    s, two = _batch("oracle-certify", 2)
    assert set(map(repr, one)) != set(map(repr, two))
    assert all(pair_key(*op) in ref["mul"] for op in one + two)
    # pairs of one class share their tables: one cold call, two warm ones
    classes = bw.oracle_classes(s)
    same = [op for op in two if op in classes[_class_of(classes, two[0])]]
    _, lat, failed = run.run_batch("oracle-certify", s, ref, same[:3])
    assert len(lat) == 3 and failed == 0


def _class_of(classes, pair):
    return next(key for key, pairs in classes.items() if pair in pairs)


def test_oracle_run_has_more_cold_operations_than_the_tail_keeps():
    s, ops = _batch("oracle-certify", 1)
    classes = bw.oracle_classes(s)
    # classes with a middle sum strictly between 0 and d build their tables
    # over every middle subspace, which takes seconds
    cold = len({key for key in (_class_of(classes, op) for op in ops)
                if 0 < key[1] < bw.ORACLE_D})
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    batches = round(seconds / bw.BATCH_SECONDS["oracle-certify"])
    assert cold * batches > run.TAIL_BEYOND


def test_wrong_product_is_counted_as_failed():
    s, ops = _batch("schur-mul", 3)
    sa = s.schur_algebra
    right = sa.mul_general
    sa.mul_general = lambda x, y: right(x, y).scale(s.qv.rf_const(2))
    _, _, failed = run.run_batch("schur-mul", s, load_reference(), ops[:2])
    assert failed == 2


def test_raising_operation_is_counted_as_failed():
    s, ops = _batch("oracle-certify", 3)

    def broken(left, right, primes):
        raise ValueError("broken")
    s.oracle.structure_constants = broken
    _, _, failed = run.run_batch("oracle-certify", s, load_reference(), ops[:1])
    assert failed == 1


def _declared(section):
    return [m["name"] for m in run.declared(section)]


@pytest.mark.parametrize("workload", sorted(bw.WORKLOADS))
def test_smoke_run_prints_declared_metrics(workload):
    result, detail = run.run(workload, 1, 0.0, 0, limit=2)
    assert result["correct"] and result["failed"] == 0
    assert detail["failed_ratio"] == 0
    assert list(result["metrics"]) == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_prints_declared_layer_metrics():
    result, _ = run.run("pbw-modules", 1, 0.0, 1, limit=20)
    assert result["correct"]
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert list(metrics) == _declared("per_layer")
    assert metrics["pbw.normalize_calls"] > 0
    assert metrics["schur_algebra.cache_entries"] > 0


def test_traced_run_counts_shared_sub_expansions():
    result, _ = run.run("schur-mul", 1, 0.0, 1, limit=4)
    assert result["correct"]
    ratio = result["metrics"]["schur_algebra.express_repeat_ratio"]["value"]
    assert 0 < ratio < 1


def test_tail_keeps_ten_operations_above_it():
    pct, value = run.tail([float(i) for i in range(100)])
    assert (pct, value) == (90.0, 89.0)
    assert run.tail([1.0, 3.0, 2.0]) == (100.0, 3.0)
