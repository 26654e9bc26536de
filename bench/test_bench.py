"""Smoke tests of the benchmark itself, at tiny sizes (n=2, k=1).

    python3 -m pytest bench/test_bench.py -q

They run the real child processes and take about 20 s.
"""

from __future__ import annotations

import importlib
import json
import os
import random
import signal
import sys
import time
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import loop  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import MODULES, Tracer, is_traced  # noqa: E402

NAMES = ("roundtrip", "expand", "extend", "selfcheck")
# counts that depend only on the inputs, so they repeat exactly on one seed
EXACT = ("poly.mul.", "exactla.rref.", "jets.ricci_defect.")


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def tiny_run(name, trace, seed=3):
    result, lines = run.run(name, seed, 60, trace, workloads.TINY[name], max_ops=2)
    digest = next(line for line in lines if line.startswith("outputs_sha256="))
    return result, digest


def units(result):
    return {k: v["unit"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("name", NAMES)
def test_end_to_end_metrics_are_emitted(name):
    result, _ = tiny_run(name, False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    assert units(result) == declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_traced_runs_repeat_exactly(name):
    first, digest1 = tiny_run(name, True)
    second, digest2 = tiny_run(name, True)
    assert first["correct"] and second["correct"]
    assert units(first) == declared("per_layer")
    assert digest1 == digest2
    for key, value in first["metrics"].items():
        if key.startswith(EXACT) and not key.endswith(".self_s"):
            assert second["metrics"][key]["value"] == value["value"], key


def test_tracer_restores_every_name():
    modules = [importlib.import_module(f"jetiso.{m}") for m in MODULES]
    before = {(mod.__name__, k): v for mod in modules for k, v in vars(mod).items()}
    poly_mul = importlib.import_module("jetiso.poly").Poly.mul
    tracer = Tracer()
    tracer.install()
    try:
        cli = importlib.import_module("jetiso.cli")
        verify = importlib.import_module("jetiso.verify")
        # bound by name, and under a private alias, outside the defining module
        assert is_traced(cli._extend_jet) and is_traced(verify.validate_jet)
        assert is_traced(importlib.import_module("jetiso.exactla").rref)
        assert is_traced(importlib.import_module("jetiso.poly").Poly.mul)
    finally:
        tracer.uninstall()
    after = {(mod.__name__, k): v for mod in modules for k, v in vars(mod).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert importlib.import_module("jetiso.poly").Poly.mul is poly_mul


def test_self_times_and_kept_pairs():
    from jetiso.poly import Poly

    rng = random.Random(0)

    def rand_poly():
        return Poly(3, {tuple(rng.randrange(4) for _ in range(3)): rng.randint(1, 5)
                        for _ in range(12)})

    tracer = Tracer()
    tracer.install()
    try:
        pairs = [(rand_poly(), rand_poly()) for _ in range(5)]
        start = time.perf_counter()
        for a, b in pairs:
            a.mul(b, 4)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    tracer.fold()
    kept = sum(1 for a, b in pairs for ma in a.coeffs for mb in b.coeffs
               if sum(ma) + sum(mb) <= 4)
    assert tracer.counts["poly.mul.kept_pairs"] == kept
    assert tracer.counts["poly.mul.term_pairs"] == sum(len(a.coeffs) * len(b.coeffs)
                                                      for a, b in pairs)
    assert tracer.calls["poly.mul"] == 5
    assert sum(tracer.self_s.values()) <= wall


def test_corrupted_output_is_counted_as_failed(tmp_path):
    w = workloads.make("expand", workloads.TINY["expand"])
    plan = w.prepare(5)
    deadline = time.monotonic() + 60
    res = run.run_loop(w, plan, 5, 60, False, str(tmp_path), deadline, max_ops=2)
    failed, _ = run.check_ops(w, plan, 5, res["ops"])
    assert failed == []
    path = res["ops"][1]["out"]
    doc = workloads.load(path)
    entry = doc["parts"][0]["components"][0]
    entry["value"] = str(Fraction(entry["value"]) + 1)
    workloads.dump(doc, path)
    failed, _ = run.check_ops(w, plan, 5, res["ops"])
    assert failed == [1]


def test_derived_jets_stay_valid_and_match_the_library():
    from jetiso.jets import CurvatureJet, transform_jet, validate_jet
    from jetiso.tensor import SignedPerm

    # n=3 and order 2, so the Ricci identity ties level 2 to level 0 and
    # wrong dilation weights show
    base = workloads._base_jets(2, 3, 2, 1)
    for sig, bases in zip(workloads.signatures(3), base):
        jet_doc = bases[0]["jet"]
        jet = CurvatureJet.from_json_obj(jet_doc)
        for perm, signs, t in workloads.transforms(sig, 2)[:4]:
            got = CurvatureJet.from_json_obj(workloads.transform_jet_doc(jet_doc, perm, signs, t))
            assert validate_jet(got) == []
            lib = transform_jet(jet, SignedPerm(perm, signs))
            assert got == CurvatureJet(jet.space, [lv.scaled(t ** (level + 2))
                                                   for level, lv in enumerate(lib.levels)])
        wrong = workloads.transform_jet_doc(jet_doc, (0, 1, 2), (1, 1, 1), Fraction(2))
        wrong["levels"][2]["components"] = [
            {"idx": e["idx"], "value": str(Fraction(e["value"]) * 2)}
            for e in wrong["levels"][2]["components"]]
        assert validate_jet(CurvatureJet.from_json_obj(wrong)) != []


def test_speed_probe_takes_its_own_time_out_and_scales():
    probe = loop.SpeedProbe(1.0)
    probe.starts = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    probe.times = [0.001, 0.001, 0.001, 0.002, 0.002, 0.002, 0.002]
    busy, scaled = probe.scaled(2.5, 7.5)
    assert busy == pytest.approx(5.0 - 0.009)
    assert scaled == pytest.approx(busy * loop.REF_PROBE_S / 0.0018)
    # no probe inside: the five nearest stand in
    busy, scaled = probe.scaled(2.5, 2.6)
    assert busy == pytest.approx(0.1)
    assert scaled == pytest.approx(0.1 * loop.REF_PROBE_S / 0.0014)


def test_speed_probe_samples_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    with loop.SpeedProbe(0.005) as probe:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert len(probe.times) >= loop.MIN_PROBES
    assert probe.starts == sorted(probe.starts)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
