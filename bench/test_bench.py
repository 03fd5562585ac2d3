"""Tests of the benchmark itself, on its tiny `--smoke` sizes.

    python3 -m pytest bench/test_bench.py
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def bench(workload, trace, seed=3):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def test_spec_names_the_workloads_and_core_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"] for m in SPEC["end_to_end"]} >= {"setup_s", "wall_s", "peak_rss_mb"}


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace, section):
    record, result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, record["errors"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))
    if trace:
        assert record["unmeasured"] == []


def test_traced_run_checks_kernel_counters():
    record, result = bench("grow-d2", 1)
    m = result["metrics"]
    n = wl.GROW_SMOKE_N["grow-d2"]
    assert m["kernel.node_allocations"]["value"] == 2 * n
    assert m["kernel.lex_s"]["value"] == 0
    assert m["trace.overhead"]["value"] > 0
    assert Path(BENCH.parent / record["spans_file"]).is_file()


def test_same_seed_same_inputs():
    assert wl.op_seeds("grow-d2", 5) == wl.op_seeds("grow-d2", 5)
    assert wl.op_seeds("grow-d2", 5) != wl.op_seeds("grow-d2", 6)


def test_corrupted_output_counts_as_failed_op(monkeypatch):
    workload = run.Workload("grow-d2", smoke=True)
    n = workload.n
    # right symbol counts, but the walk dips below zero at once
    corrupt = " ".join(["0"] + ["2"] * n + ["0"] * n)
    monkeypatch.setattr(
        run.Workload, "command",
        lambda self, seed, spans=None, op=0: [sys.executable, "-c", f"print({corrupt!r})"],
    )
    run.WORK.mkdir(exist_ok=True)
    ops, _ = run.measure(workload, [1, 2], 0.2, 0, deadline=time.perf_counter() + 60)
    assert ops and all(op.error == "Lukasiewicz walk is not an excursion" for op in ops)
    clock = run.Clock(2, [0.1], [run.REFERENCE_NOMINAL_S])
    assert run.end_to_end(ops, clock)["ok_ratio"]["value"] == 0


@pytest.mark.parametrize(
    "body,why",
    [
        ("2 0 0 0", "internal nodes"),
        ("2 2 0 3 0", "symbols"),
        ("0 2 2 0 0", "excursion"),
    ],
)
def test_code_checker(body, why):
    assert run.check_code("2 2 0 0 0", 2, 2) is None
    assert why in run.check_code(body, 2, 2)


@pytest.mark.parametrize(
    "body,why",
    [
        ("(o(oo)o)", "counts"),
        ("(oo)(ooo)", "unbalanced"),
        ("((ooo)o)o", "short"),
        ("(oooo(o))", "more than d"),
    ],
)
def test_paren_checker(body, why):
    assert run.check_paren("(o(ooo)o)", 3, 2) is None
    assert why in run.check_paren(body, 3, 2)


def test_verify_checker_rejects_wrong_counts():
    sizes = wl.VERIFY_SMOKE
    d, n, samples = sizes["chi"]
    report = {
        "chi": {"classes": wl.count_trees(d, n), "samples": samples, "seed": 9,
                "p_value": 0.5},
        "bijection": [
            {"params": {"d": d, "n": n}, "pass": True, "inputs": wl.bijection_inputs(d, n)}
            for d, n in sizes["suite"]
        ],
        "round_trips": [
            {"d": d, "internal": sizes["trip_n"], "trips": sizes["trips"],
             "returned": sizes["trips"]}
            for d in sizes["trip_ds"]
        ],
    }
    assert run.check_verify(json.dumps(report), sizes, 9) is None
    report["bijection"][-1]["inputs"] -= 1
    assert "certified" in run.check_verify(json.dumps(report), sizes, 9)
    report["bijection"][-1]["inputs"] += 1
    report["round_trips"][0]["returned"] -= 1
    assert "round trips returned" in run.check_verify(json.dumps(report), sizes, 9)
    report["round_trips"][0]["returned"] += 1
    report["chi"]["p_value"] = 1e-9
    assert "chi-square" in run.check_verify(json.dumps(report), sizes, 9)
