"""Wire format guarantees shared by every JSON document type.

Byte determinism matters because the CLI promises stable output, so
equal objects built in different component orders must serialize
identically.  The CLI's writer is held to ``json.dumps(doc.to_json_obj(),
indent=2) + "\n"``, and the reader to ``parse_rational`` on every value.
"""

import itertools
import json
import random
from fractions import Fraction

import pytest

from jetiso.cli import _write_json, main
from jetiso.freealg import q_poly, qtilde_poly
from jetiso.jets import CurvatureJet, MultiTensor, SymJet, symmetrize_jet
from jetiso.metriclab import (
    PolyMetric,
    const_curvature_jet,
    curvature_jet_at_origin,
    random_normal_metric,
)
from jetiso.tensor import Space, SymPairTensor

F = Fraction
L3 = Space(3, (-1, 1, 1))
SPACES = [Space(3, (1, 1, 1)), L3]


def dumps(obj):
    return json.dumps(obj.to_json_obj(), indent=2)


class TestByteDeterminism:
    def test_sym_pair_tensor_order_independent(self):
        a = SymPairTensor(L3, 1, {((0,), (1, 2)): F(1, 3), ((2,), (0, 0)): F(-2)})
        b = SymPairTensor(L3, 1, {((2,), (0, 0)): F(-2), ((0,), (1, 2)): F(1, 3)})
        assert dumps(a) == dumps(b)

    def test_unsorted_keys_normalize(self):
        a = SymPairTensor(L3, 2, {((2, 0), (1, 0)): F(5)})
        b = SymPairTensor(L3, 2, {((0, 2), (0, 1)): F(5)})
        assert a == b and dumps(a) == dumps(b)

    def test_jet_documents_stable(self):
        g1 = random_normal_metric(L3, 4, random.Random(9))
        g2 = random_normal_metric(L3, 4, random.Random(9))
        j1 = curvature_jet_at_origin(g1, 2)
        j2 = curvature_jet_at_origin(g2, 2)
        assert dumps(j1) == dumps(j2)
        assert dumps(symmetrize_jet(j1)) == dumps(symmetrize_jet(j2))
        assert dumps(g1) == dumps(g2)


class TestScalarWireFormat:
    def test_values_are_plain_fraction_strings(self):
        h = SymPairTensor(L3, 1, {((0,), (1, 2)): F(-4, 6)})
        entry = h.to_json_obj()["components"][0]
        assert entry["value"] == "-2/3"
        h2 = SymPairTensor(L3, 1, {((0,), (1, 2)): F(8, 4)})
        assert h2.to_json_obj()["components"][0]["value"] == "2"

    def test_zero_components_omitted(self):
        t = MultiTensor(L3, 2, {(0, 1): F(0)})
        assert t.to_json_obj()["components"] == []
        h = SymPairTensor(L3, 1, {((0,), (0, 1)): F(0)})
        assert h.to_json_obj()["components"] == []


class TestDocumentShapes:
    def test_jet_and_symjet_distinguished_by_level_key(self):
        g = random_normal_metric(L3, 3, random.Random(10))
        jet = curvature_jet_at_origin(g, 1)
        jet_obj = jet.to_json_obj()
        sym_obj = symmetrize_jet(jet).to_json_obj()
        assert "arity" in jet_obj["levels"][0]
        assert "degree" in sym_obj["levels"][0]
        assert "arity" not in sym_obj["levels"][0]

    def test_top_level_keys(self):
        g = random_normal_metric(L3, 3, random.Random(11))
        assert set(g.to_json_obj()) == {"n", "signature", "parts"}
        jet = curvature_jet_at_origin(g, 1)
        assert set(jet.to_json_obj()) == {"n", "signature", "order", "levels"}

    def test_documents_survive_text_round_trip(self):
        g = random_normal_metric(L3, 4, random.Random(12))
        jet = curvature_jet_at_origin(g, 2)
        s = symmetrize_jet(jet)
        for obj, cls in ((g, PolyMetric), (jet, CurvatureJet), (s, SymJet)):
            text = json.dumps(obj.to_json_obj())
            assert cls.from_json_obj(json.loads(text)) == obj

    def test_signature_mismatch_detected(self):
        obj = MultiTensor.zero(L3, 2).to_json_obj()
        obj["signature"] = [1, 1, 2]
        try:
            MultiTensor.from_json_obj(obj)
        except ValueError:
            pass
        else:
            raise AssertionError("bad signature accepted")


def documents(space):
    """Every document kind the CLI writes, over ``space``, with Fraction and
    negative values, zero levels, order 0 and a metric without parts; and a
    tensor document of each kind."""
    g = random_normal_metric(space, 4, random.Random(13))
    jet = curvature_jet_at_origin(g, 2)
    s = symmetrize_jet(jet)
    model = const_curvature_jet(space, F(-2, 3), 2)
    return {
        "metric": g, "jet": jet, "symjet": s,
        "model-jet": model, "model-symjet": symmetrize_jet(model),
        "zero-jet": CurvatureJet.zero(space, 2), "zero-symjet": SymJet.zero(space, 1),
        "order-0-jet": jet.truncated(0), "order-0-symjet": s.truncated(0),
        "metric-without-parts": PolyMetric(space, {}),
        "multitensor": jet.levels[1], "sympairtensor": g.parts[3],
        "empty-multitensor": MultiTensor.zero(space, 4),
    }


DOCUMENT_CASES = [pytest.param(space, name, id=f"{name}-{''.join('+-'[e < 0] for e in space.signature)}")
                  for space in SPACES for name in documents(space)]


class TestWriter:
    """The CLI writes each document without building it; its bytes are
    those of the plain document through ``json.dumps(..., indent=2)``."""

    @pytest.mark.parametrize("space, name", DOCUMENT_CASES)
    def test_bytes_equal_json_dumps(self, space, name, tmp_path):
        doc = documents(space)[name]
        path = tmp_path / "doc.json"
        _write_json(doc.json_frame(), str(path))
        assert path.read_bytes() == (json.dumps(doc.to_json_obj(), indent=2) + "\n").encode()

    def test_documents_cover_the_cases(self):
        for space in SPACES:
            docs = documents(space)
            values = [c["value"] for name in ("jet", "model-jet", "metric")
                      for level in docs[name].to_json_obj().get("levels", [])
                      + docs[name].to_json_obj().get("parts", [])
                      for c in level["components"]]
            assert any("/" in v for v in values) and any(v.startswith("-") for v in values)
            assert not any(docs["model-jet"].levels[1:])
            assert docs["order-0-jet"].order == docs["order-0-symjet"].order == 0
            assert docs["metric-without-parts"].to_json_obj()["parts"] == []

    @pytest.mark.parametrize("tilde", [False, True], ids=["q", "qtilde"])
    @pytest.mark.parametrize("k", [0, 1, 2, 5, 8])
    def test_qpoly_json(self, k, tilde, capsys):
        # q_0 has the empty word, q_1 no terms
        argv = ["qpoly", "-k", str(k), "--format", "json"] + (["--tilde"] if tilde else [])
        assert main(argv) == 0
        element = qtilde_poly(k) if tilde else q_poly(k)
        obj = {"name": ("qtilde" if tilde else "q") + f"_{k}", "degree": k,
               "terms": element.to_json_obj()}
        assert capsys.readouterr().out == json.dumps(obj, indent=2) + "\n"


E2 = Space(2, (1, 1))


def tensor_of(entries, arity=4):
    return MultiTensor.from_components(E2, arity, entries)


class TestReader:
    """Each distinct value string is parsed once per call; what it reads is
    what ``parse_rational`` reads from every entry."""

    def test_one_string_at_many_keys(self):
        keys = list(itertools.product(range(2), repeat=4))
        t = tensor_of([{"idx": list(idx), "value": "-3/7"} for idx in keys])
        assert t.coeffs == {idx: F(-3, 7) for idx in keys}
        t = tensor_of([{"idx": list(idx), "value": "4"} for idx in keys])
        assert t.coeffs == dict.fromkeys(keys, 4)
        assert all(type(v) is int for v in t.coeffs.values())

    @pytest.mark.parametrize("text, value", [("2/4", F(1, 2)), ("-0", 0), ("+3", 3),
                                             ("1e2", 100), ("-6/3", -2)])
    def test_non_canonical_literals(self, text, value):
        # each literal at two keys and after its canonical form at a third
        entries = [{"idx": [0, 1, 0, 1], "value": text}, {"idx": [1, 0, 1, 0], "value": text},
                   {"idx": [0, 0, 0, 0], "value": str(value)}, {"idx": [0, 0, 0, 0], "value": text}]
        t = tensor_of(entries)
        want = {(0, 1, 0, 1): value, (1, 0, 1, 0): value, (0, 0, 0, 0): 2 * value}
        assert t.coeffs == {idx: v for idx, v in want.items() if v}
        if value:
            assert type(t.coeffs[(0, 1, 0, 1)]) is type(value)

    def test_repeated_keys_add_up(self):
        t = tensor_of([{"idx": [0, 1, 0, 1], "value": "1/3"}, {"idx": [0, 1, 0, 1], "value": "1/3"},
                       {"idx": [1, 0, 0, 1], "value": "1/3"}, {"idx": [1, 0, 0, 1], "value": "-1/3"},
                       {"idx": [1, 1, 0, 0], "value": "1/3"}, {"idx": [1, 1, 0, 0], "value": 1}])
        assert t.coeffs == {(0, 1, 0, 1): F(2, 3), (1, 1, 0, 0): F(4, 3)}
        h = SymPairTensor.from_components(E2, 1, [
            {"sym": [0], "pair": [0, 1], "value": "5"}, {"sym": [0], "pair": [1, 0], "value": "5"}])
        assert h.coeffs == {((0,), (0, 1)): 10}

    def test_bad_literal_after_good_copies(self):
        good = [{"idx": [0, 1, 0, 1], "value": v} for v in ("1/2", "3", "1/2", "3")]
        with pytest.raises(ValueError, match="bad rational literal: '1/x'"):
            tensor_of(good + [{"idx": [1, 0, 1, 0], "value": "1/x"}])

    @pytest.mark.parametrize("value", [True, 1.0, [1], None], ids=["bool", "float", "list", "null"])
    def test_non_string_refused_after_its_string(self, value):
        entries = [{"idx": [0, 1, 0, 1], "value": "1"}, {"idx": [1, 0, 1, 0], "value": value}]
        with pytest.raises(ValueError, match="not an exact rational"):
            tensor_of(entries)
