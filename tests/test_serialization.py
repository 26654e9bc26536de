"""Wire format guarantees shared by every JSON document type.

Byte determinism matters because the CLI promises stable output, so
equal objects built in different component orders must serialize
identically.
"""

import json
import random
from fractions import Fraction

from jetiso.jets import CurvatureJet, MultiTensor, SymJet, symmetrize_jet
from jetiso.metriclab import (
    PolyMetric,
    curvature_jet_at_origin,
    random_normal_metric,
)
from jetiso.tensor import Space, SymPairTensor

F = Fraction
L3 = Space(3, (-1, 1, 1))


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
