"""Tests of the benchmark itself: names, determinism, negative control.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
Workloads are shrunk (short windows, few tenants) so the suite is quick;
the properties do not depend on size.
"""

import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import loadgen  # noqa: E402
import readback  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]+$")


@pytest.fixture(autouse=True)
def small_workloads(monkeypatch):
    monkeypatch.setattr(loadgen.Varmail, "window_ns", 4_000_000)
    monkeypatch.setattr(loadgen.Varmail, "files_per_thread", 20)
    monkeypatch.setattr(loadgen.Fileserver, "window_ns", 4_000_000)
    monkeypatch.setattr(loadgen.Fileserver, "files_per_thread", 20)
    monkeypatch.setattr(loadgen.Fleet, "tenants", 40)
    monkeypatch.setattr(loadgen.Fleet, "warmup_ns", 200_000)
    monkeypatch.setattr(loadgen.Fleet, "window_ns", 2_000_000)


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_metric_names_and_units_match_pattern():
    for name, unit in list(run.END_TO_END) + run.per_layer_units():
        assert NAME.match(name) and len(name) <= 64, name
        assert UNIT.match(unit) and len(unit) <= 16, unit


def test_benchmark_json_lists_what_the_command_prints():
    bench = benchmark_json()
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] \
        == run.per_layer_units()
    assert sorted(w["name"] for w in bench["workloads"]) \
        == sorted(loadgen.WORKLOADS)


@pytest.mark.parametrize("name", sorted(loadgen.WORKLOADS))
def test_same_seed_same_simulated_metrics(name):
    first = run.Round(name, 7, sub=1)
    again = run.Round(name, 7, sub=1)
    assert first.sim == again.sim
    assert first.latencies_ns == again.latencies_ns
    assert first.failed == 0 and first.mismatches == 0


@pytest.mark.parametrize("name", sorted(loadgen.WORKLOADS))
def test_held_out_seed_gives_another_op_stream(name):
    a = run.Round(name, 1)
    b = run.Round(name, 2)
    assert a.latencies_ns != b.latencies_ns
    assert a.sim != b.sim


@pytest.mark.parametrize("name", sorted(loadgen.WORKLOADS))
def test_negative_control_fails_the_read_back_check(name):
    assert run.Round(name, 3, corrupt=True).mismatches >= 1


def test_cli_exits_nonzero_on_corruption(capsys):
    assert run.main(["--workload", "varmail", "--seed", "3",
                     "--seconds", "0", "--corrupt", "1"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1


def test_cli_prints_every_end_to_end_metric(capsys):
    assert run.main(["--workload", "varmail", "--seed", "3",
                     "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {n: m["unit"] for n, m in result["metrics"].items()} \
        == dict(run.END_TO_END)


def test_traced_run_matches_untraced_and_counts_calls(tmp_path, monkeypatch,
                                                      capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "fleet", "--seed", "4", "--seconds", "0",
                     "--trace", "1"]) == 0
    metrics = json.loads(
        capsys.readouterr().out.strip().splitlines()[-1])["metrics"]
    assert set(metrics) == {n for n, _ in run.per_layer_units()}
    for layer in ("vfs", "ring", "qos", "shard", "hinfs", "journal", "nvmm",
                  "mem", "engine", "mmio", "client"):
        assert metrics["%s.calls" % layer]["value"] > 0, layer
    assert (tmp_path / run.OUT_DIR / "spans-fleet-4.json").exists()
    # Uninstalling restores every original method.
    for _, cls, names in spans.TARGETS:
        for method in names:
            assert not hasattr(cls.__dict__[method], "__wrapped__")


def test_mid_quantiles():
    assert run.mid_quantiles(list(range(1, 101)), (50, 99)) \
        == {50: 50.5, 99: 99.5}
    # A plateau: the estimate moves with the share the plateau holds.
    low = run.mid_quantiles([1] * 40 + [2] * 60, (50,))[50]
    high = run.mid_quantiles([1] * 45 + [2] * 55, (50,))[50]
    assert 1 < high < low < 2


def test_corrupt_one_byte_finds_the_stamped_copy():
    wl = loadgen.Varmail("9-0")
    wl.setup()
    path = sorted(wl.shadow.durable)[0]
    devices = readback.devices_of(wl.fs)
    assert readback.corrupt_one_byte(devices, wl.shadow.durable[path]) >= 1
