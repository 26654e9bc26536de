"""End-to-end command line behavior, driven through main(argv).

Exit code contract: 0 success, 1 failed verification, 2 bad input.
"""

import copy
import functools
import hashlib
import json
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from jetiso.cli import main
from jetiso.jets import CurvatureJet, symmetrize_jet, validate_jet
from jetiso.metriclab import (
    PolyMetric,
    curvature_jet_at_origin,
    metric_from_symjet,
    random_normal_metric,
)
from jetiso.tensor import MultiTensor, Space, SymPairTensor


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestQpoly:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "qpoly", "-k", "4")
        assert code == 0
        assert out == "-6/5*X4 + 16/15*X2*X2\n"

    def test_tilde_output(self, capsys):
        code, out, _ = run(capsys, "qpoly", "-k", "4", "--tilde")
        assert code == 0
        assert out == "-3/5*X4 + 1/5*X2*X2\n"

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "qpoly", "-k", "5", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["name"] == "q_5"
        assert obj["degree"] == 5
        terms = {tuple(t["word"]): t["coeff"] for t in obj["terms"]}
        assert terms[(5,)] == "-4/3"
        assert terms[(2, 3)] == "8/3"
        assert terms[(3, 2)] == "8/3"

    def test_degree_guard(self, capsys):
        code, _, err = run(capsys, "qpoly", "-k", "13")
        assert code == 2
        assert "error:" in err and "--max" in err
        code, out, _ = run(capsys, "qpoly", "-k", "13", "--max", "13")
        assert code == 0 and out.strip()

    def test_negative_degree(self, capsys):
        code, _, err = run(capsys, "qpoly", "-k", "-1")
        assert code == 2
        assert "error:" in err


class TestDims:
    def test_agreement_line(self, capsys):
        code, out, _ = run(capsys, "dims", "-n", "2", "-k", "0")
        assert code == 0
        assert out == "dimN=1 dimC_lower=1 rank=1\n"

    def test_n3_k1(self, capsys):
        code, out, _ = run(capsys, "dims", "-n", "3", "-k", "1")
        assert code == 0
        fields = dict(part.split("=") for part in out.split())
        assert fields["dimN"] == fields["dimC_lower"] == fields["rank"]

    def test_bad_n(self, capsys):
        code, _, err = run(capsys, "dims", "-n", "1", "-k", "0")
        assert code == 2 and "error:" in err


@pytest.fixture
def example_dir(tmp_path, capsys):
    out = tmp_path / "ex"
    code, _, _ = run(capsys, "example", "--name", "const-curvature",
                     "--kappa", "1", "-n", "3", "--order", "2",
                     "--out", str(out))
    assert code == 0
    return out


class TestExamplePipeline:
    def test_files_written(self, example_dir):
        for name in ("symjet.json", "jet.json", "metric.json"):
            assert (example_dir / name).is_file()

    def test_jet_matches_example(self, example_dir, capsys, tmp_path):
        out = tmp_path / "jet2.json"
        code, _, _ = run(capsys, "jet", str(example_dir / "metric.json"),
                         "-o", str(out))
        assert code == 0
        assert json.loads(out.read_text()) == json.loads(
            (example_dir / "jet.json").read_text()
        )

    def test_expand_recovers_metric(self, example_dir, capsys):
        code, out, _ = run(capsys, "expand", str(example_dir / "jet.json"))
        assert code == 0
        assert json.loads(out) == json.loads((example_dir / "metric.json").read_text())

    def test_expand_from_symjet(self, example_dir, capsys):
        code, out, _ = run(capsys, "expand", str(example_dir / "symjet.json"))
        assert code == 0
        assert json.loads(out) == json.loads((example_dir / "metric.json").read_text())

    def test_roundtrip_reports_exact(self, example_dir, capsys):
        code, out, _ = run(capsys, "roundtrip", str(example_dir / "metric.json"))
        assert code == 0
        assert out == "roundtrip exact through degree 4\n"

    def test_roundtrip_reports_first_difference(self, example_dir, capsys, monkeypatch):
        def perturbed(s):
            g = metric_from_symjet(s)
            parts = dict(g.parts)
            parts[3] = parts[3] + SymPairTensor(g.space, 3, {((0, 0, 1), (2, 2)): 1,
                                                             ((1, 1, 2), (0, 1)): 2})
            return PolyMetric(g.space, parts)

        monkeypatch.setattr("jetiso.cli.metric_from_symjet", perturbed)
        code, out, _ = run(capsys, "roundtrip", str(example_dir / "metric.json"))
        assert code == 1
        assert out == ("roundtrip FAILED through degree 4: first difference at degree 3, "
                       "2 components differ\n")

    def test_extend_adds_level(self, example_dir, capsys):
        code, out, _ = run(capsys, "extend", str(example_dir / "jet.json"))
        assert code == 0
        obj = json.loads(out)
        assert obj["order"] == 3
        assert len(obj["levels"]) == 4

    def test_lorentz_example(self, tmp_path, capsys):
        out = tmp_path / "lor"
        code, _, _ = run(capsys, "example", "--kappa=-2/3", "-n", "3",
                         "--signature=-++", "--order", "1",
                         "--out", str(out))
        assert code == 0
        obj = json.loads((out / "metric.json").read_text())
        assert obj["signature"] == [-1, 1, 1]

    def test_unknown_example_name(self, tmp_path, capsys):
        code, _, err = run(capsys, "example", "--name", "nope",
                           "--out", str(tmp_path / "x"))
        assert code == 2 and "error:" in err

    def test_negative_order(self, tmp_path, capsys):
        code, out, err = run(capsys, "example", "--order", "-1", "--out", str(tmp_path / "x"))
        assert code == 2 and "error: need order >= 0" in err and out == ""
        assert not (tmp_path / "x").exists()


class TestSeriesRoute:
    def test_example_and_extend_never_solve(self, tmp_path, capsys, monkeypatch):
        # the CLI converts a symjet to a jet through the metric; the
        # Bianchi solve is only the algebraic oracle of verify and the tests
        def refuse(*args, **kwargs):
            raise AssertionError("the Bianchi system was built")

        monkeypatch.setattr("jetiso.jets._bianchi_system", refuse)
        for signature in ("+++", "-++"):
            out = tmp_path / signature
            code, _, err = run(capsys, "example", "--kappa", "2/3", "-n", "3",
                               f"--signature={signature}", "--order", "2", "--out", str(out))
            assert code == 0 and err == ""
            code, text, err = run(capsys, "extend", str(out / "jet.json"))
            assert code == 0 and err == ""
            assert json.loads(text)["order"] == 3


class TestExpandErrors:
    def test_order_beyond_input(self, example_dir, capsys):
        code, _, err = run(capsys, "expand", str(example_dir / "symjet.json"),
                           "--order", "9")
        assert code == 2
        assert "error:" in err

    def test_order_refused_before_validation(self, example_dir, tmp_path, capsys):
        # an out-of-range argument exits 2 without validating the jet it is about
        obj = json.loads((example_dir / "jet.json").read_text())
        obj["levels"][0]["components"][0]["value"] = "1/7"
        bad = tmp_path / "broken.json"
        bad.write_text(json.dumps(obj))
        code, out, err = run(capsys, "expand", str(bad), "--order", "99")
        assert code == 2 and out == ""
        assert "only determines the expansion through degree 4" in err
        assert len(err.splitlines()) == 1 and "level=" not in err

    def test_negative_order(self, example_dir, capsys):
        code, out, err = run(capsys, "expand", str(example_dir / "symjet.json"),
                             "--order", "-1")
        assert code == 2 and "error:" in err and out == ""

    def test_invalid_jet_rejected_with_violations(self, example_dir, tmp_path, capsys):
        obj = json.loads((example_dir / "jet.json").read_text())
        obj["levels"][0]["components"].append({"idx": [0, 0, 0, 1], "value": "1"})
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        code, _, err = run(capsys, "expand", str(bad))
        assert code == 1
        assert "identity=" in err

    @pytest.mark.parametrize("command", ["expand", "extend"])
    def test_invalid_jet_prints_each_violation(self, command, example_dir, tmp_path, capsys):
        obj = json.loads((example_dir / "jet.json").read_text())
        obj["levels"][0]["components"][0]["value"] = "1/7"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        violations = validate_jet(CurvatureJet.from_json_obj(obj))
        assert len(violations) > 1
        out_file = tmp_path / "out.json"
        code, out, err = run(capsys, command, str(bad), "-o", str(out_file))
        assert code == 1 and out == "" and not out_file.exists()
        assert err == "".join(f"{v}\n" for v in violations)

    def test_malformed_json(self, tmp_path, capsys):
        f = tmp_path / "x.json"
        f.write_text("{ not json")
        code, _, err = run(capsys, "expand", str(f))
        assert code == 2 and "error:" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "expand", "/no/such/file.json")
        assert code == 2 and "error:" in err

    def test_extend_rejects_symjet(self, example_dir, capsys):
        code, _, err = run(capsys, "extend", str(example_dir / "symjet.json"))
        assert code == 2 and "error:" in err


class TestOutputPaths:
    """An output path that cannot be written is bad input: one error line, exit 2."""

    def assert_refused(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write ") and err.count("\n") == 1

    def test_missing_directory(self, example_dir, tmp_path, capsys):
        self.assert_refused(capsys, "expand", str(example_dir / "jet.json"),
                            "-o", str(tmp_path / "missing" / "x.json"))

    def test_directory_as_file(self, example_dir, tmp_path, capsys):
        self.assert_refused(capsys, "jet", str(example_dir / "metric.json"), "-o", str(tmp_path))

    def test_file_as_directory(self, tmp_path, capsys):
        taken = tmp_path / "afile"
        taken.write_text("kept\n")
        self.assert_refused(capsys, "example", "--out", str(taken))
        assert taken.read_text() == "kept\n"

    @pytest.mark.parametrize("command, name", [("expand", "jet.json"), ("expand", "symjet.json"),
                                               ("jet", "metric.json"), ("extend", "jet.json")])
    def test_stdout_equals_file(self, command, name, example_dir, tmp_path, capsys):
        out = tmp_path / "out.json"
        code, text, _ = run(capsys, command, str(example_dir / name), "-o", "-")
        assert code == 0
        assert run(capsys, command, str(example_dir / name), "-o", str(out))[0] == 0
        assert text.encode() == out.read_bytes()


class TestRoundtripCommand:
    def test_random_metric(self, tmp_path, capsys):
        g = random_normal_metric(Space(2, (-1, 1)), 4, random.Random(5))
        f = tmp_path / "g.json"
        f.write_text(json.dumps(g.to_json_obj()))
        code, out, _ = run(capsys, "roundtrip", str(f))
        assert code == 0
        assert "roundtrip exact through degree 4" in out

    def test_negative_order(self, example_dir, capsys):
        code, out, err = run(capsys, "roundtrip", str(example_dir / "metric.json"), "-k", "-3")
        assert code == 2 and "error:" in err and out == ""


@functools.cache
def n2_documents():
    """Valid n=2 metric (degree 3), jet and symjet (order 1) documents.

    Built on first use, not at import, so a fault in the conversions fails
    the tests that read them one by one.  Cached: callers copy a document
    before changing it."""
    g = random_normal_metric(Space(2, (-1, 1)), 3, random.Random(7))
    jet = curvature_jet_at_origin(g, 1)
    return {"metric": g.to_json_obj(), "jet": jet.to_json_obj(),
            "symjet": symmetrize_jet(jet).to_json_obj()}


# the commands that read each kind of document
COMMANDS = {"metric": ("jet", "roundtrip"), "jet": ("expand", "extend"),
            "symjet": ("expand",)}
KINDS = sorted(COMMANDS)


class TestInputContract:
    @pytest.mark.parametrize("bad", [5, -1, True])
    @pytest.mark.parametrize("command", ["jet", "roundtrip", "expand", "extend"])
    def test_index_out_of_range(self, command, bad, tmp_path, capsys):
        kind = {"expand": "symjet", "extend": "jet"}.get(command, "metric")
        doc = copy.deepcopy(n2_documents()[kind])
        levels = doc["parts"] if kind == "metric" else doc["levels"]
        component = levels[0]["components"][0]
        component["idx" if kind == "jet" else "sym"][0] = bad
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(doc))
        code, _, err = run(capsys, command, str(f))
        assert code == 2
        assert "error:" in err and "bad component index" in err

    @pytest.mark.parametrize("value", [True, 0.1, 1.0], ids=["bool", "float", "integral-float"])
    @pytest.mark.parametrize("kind,command", [(kind, command) for kind in sorted(COMMANDS)
                                              for command in COMMANDS[kind]])
    def test_inexact_value(self, kind, command, value, tmp_path, capsys):
        # JSON's 0.1 is not one tenth and true is not a number: a value
        # must be a rational string or an int
        doc = copy.deepcopy(n2_documents()[kind])
        levels = doc["parts"] if kind == "metric" else doc["levels"]
        levels[0]["components"][-1]["value"] = value
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(doc))
        code, out, err = run(capsys, command, str(f))
        assert code == 2 and out == ""
        assert f"error: {f} is not a" in err
        assert f"not an exact rational: {value!r}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind,command", [(kind, command) for kind in sorted(COMMANDS)
                                              for command in COMMANDS[kind]])
    def test_huge_exponent_refused_at_once(self, kind, command, tmp_path, capsys):
        # 10**999999999 would take minutes to build; the literal is refused unread
        doc = copy.deepcopy(n2_documents()[kind])
        levels = doc["parts"] if kind == "metric" else doc["levels"]
        levels[0]["components"][-1]["value"] = "1e-999999999"
        f = tmp_path / "huge.json"
        f.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, out, err = run(capsys, command, str(f))
        assert time.perf_counter() - start < 5
        assert code == 2 and out == ""
        assert "bad rational literal: '1e-999999999'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind,command", [(kind, command) for kind in sorted(COMMANDS)
                                              for command in COMMANDS[kind]])
    def test_long_digit_string_refused(self, kind, command, tmp_path, capsys):
        # int() would refuse 5000 digits with a message about an interpreter
        # setting; the loader refuses them first, without echoing them
        doc = copy.deepcopy(n2_documents()[kind])
        levels = doc["parts"] if kind == "metric" else doc["levels"]
        levels[0]["components"][-1]["value"] = "7" * 5000
        f = tmp_path / "long.json"
        f.write_text(json.dumps(doc))
        code, out, err = run(capsys, command, str(f))
        assert code == 2 and out == ""
        assert "bad rational literal" in err
        assert "set_int_max_str_digits" not in err and "7" * 100 not in err
        assert "Traceback" not in err

    def test_huge_exponent_kappa_refused(self, tmp_path, capsys):
        code, _, err = run(capsys, "example", "--kappa", "1e999999999", "--out", str(tmp_path))
        assert code == 2 and "error: bad curvature value '1e999999999'" in err

    # expand reads through _load_jet_like, jet through _load_metric
    @pytest.mark.parametrize("command", ["expand", "jet"])
    def test_deeply_nested_json(self, command, tmp_path, capsys):
        # the decoder recurses once per bracket
        f = tmp_path / "deep.json"
        f.write_text("[" * 100000)
        code, out, err = run(capsys, command, str(f))
        assert code == 2 and out == ""
        assert err == f"error: {f} is not valid JSON: nested too deeply\n"

    @pytest.mark.parametrize("kind", sorted(COMMANDS))
    def test_int_values_read_as_strings(self, kind, tmp_path, capsys):
        doc = copy.deepcopy(n2_documents()[kind])
        converted = 0
        for level in doc["parts"] if kind == "metric" else doc["levels"]:
            for component in level["components"]:
                if "/" not in component["value"]:
                    component["value"] = int(component["value"])
                    converted += 1
        assert converted
        outputs = []
        for name, obj in (("strings.json", n2_documents()[kind]), ("ints.json", doc)):
            f = tmp_path / name
            f.write_text(json.dumps(obj))
            code, out, _ = run(capsys, COMMANDS[kind][0], str(f))
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1] != ""

    @pytest.mark.parametrize("level", [0, 1])
    def test_non_gauge_symjet_level(self, level, tmp_path, capsys):
        # the symjet loader takes any Sym^(l+2) tensor Sym^2 level; the
        # synthesis rejects the metric part it generates, of degree l + 2
        doc = copy.deepcopy(n2_documents()["symjet"])
        doc["levels"][level]["components"].append(
            {"sym": [0] * (level + 2), "pair": [0, 0], "value": "1"})
        f = tmp_path / "s.json"
        f.write_text(json.dumps(doc))
        code, out, err = run(capsys, "expand", str(f))
        assert code == 2 and out == ""
        assert f"error: part of degree {level + 2} is not a gauge tensor" in err

    @pytest.mark.parametrize("command", ["jet", "roundtrip"])
    def test_non_gauge_metric_part(self, command, tmp_path, capsys):
        doc = {"n": 2, "signature": [1, 1], "parts": [
            {"degree": 2, "components": [{"sym": [0, 0], "pair": [0, 0], "value": "1"}]}]}
        f = tmp_path / "g.json"
        f.write_text(json.dumps(doc))
        code, _, err = run(capsys, command, str(f))
        assert code == 2
        assert "part of degree 2 is not a gauge tensor" in err

    @pytest.mark.parametrize("kind,command", [(kind, command) for kind in ("jet", "symjet")
                                              for command in COMMANDS[kind]])
    def test_negative_order_refused(self, kind, command, tmp_path, capsys):
        # order -1 matches an empty level list, but no jet has order -1
        doc = dict(n2_documents()[kind], order=-1, levels=[])
        f = tmp_path / "empty.json"
        f.write_text(json.dumps(doc))
        code, out, err = run(capsys, command, str(f))
        assert code == 2 and out == ""
        assert f"error: {f} is not a jet file: need order >= 0" in err


# every field of each document kind that holds a list, as a path
LIST_FIELDS = {"jet": [("levels",), ("levels", 0, "components")],
               "symjet": [("levels",), ("levels", 0, "components")],
               "metric": [("parts",), ("parts", 0, "components")]}
LIST_CASES = [pytest.param(kind, path, command, id=f"{kind}-{path[-1]}-{command}")
              for kind, paths in LIST_FIELDS.items() for path in paths
              for command in COMMANDS[kind]]


class TestListFields:
    """A dict or a string where a document holds a list is bad input: an empty
    one would read as no entries, and a non-empty one as keys or characters."""

    @pytest.mark.parametrize("value", [{}, "", {"idx": [0]}, "ab"],
                             ids=["empty-dict", "empty-string", "dict", "string"])
    @pytest.mark.parametrize("kind,path,command", LIST_CASES)
    def test_non_list_refused(self, kind, path, command, value, tmp_path, capsys):
        doc = copy.deepcopy(n2_documents()[kind])
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        f = tmp_path / "doc.json"
        f.write_text(json.dumps(doc))
        code, out, err = run(capsys, command, str(f), *(["-o", str(tmp_path / "out.json")]
                                                         if command != "roundtrip" else []))
        assert code == 2 and out == ""
        assert err.endswith(f"{path[-1]} must be a list\n")
        assert not (tmp_path / "out.json").exists()


# every field of each document kind that gives a size, as a path
SIZE_FIELDS = {"jet": [("n",), ("order",), ("levels", 0, "arity")],
               "symjet": [("n",), ("order",), ("levels", 0, "degree")],
               "metric": [("n",), ("parts", 0, "degree")]}
SIZE_CASES = [pytest.param(kind, path, command, id=f"{kind}-{path[-1]}-{command}")
              for kind, paths in SIZE_FIELDS.items() for path in paths
              for command in COMMANDS[kind]]


class TestSizeFields:
    """A size field that JSON gives as an integral float or a bool is
    refused with exit 2 by every command that reads the document."""

    @pytest.mark.parametrize("as_float", [True, False], ids=["float", "bool"])
    @pytest.mark.parametrize("kind,path,command", SIZE_CASES)
    def test_non_int_size_field(self, kind, path, command, as_float, tmp_path, capsys):
        doc = copy.deepcopy(n2_documents()[kind])
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        # the float keeps the field's value, so only its type is wrong
        parent[path[-1]] = float(parent[path[-1]]) if as_float else True
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(doc))
        code, _, err = run(capsys, command, str(f))
        assert code == 2
        assert f"error: {f} is not a" in err
        assert f"{path[-1]} must be an int" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", [1.0, True], ids=["float", "bool"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_non_int_signature_entry(self, kind, value, tmp_path, capsys):
        doc = copy.deepcopy(n2_documents()[kind])
        doc["signature"][1] = value
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(doc))
        code, _, err = run(capsys, COMMANDS[kind][0], str(f))
        assert code == 2
        assert "signature must be a tuple of +-1" in err


def _paths(node, path=()):
    """Every position below the root of a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


@st.composite
def malformed_documents(draw):
    """A valid n=2 document with one field changed, and a command to read it."""
    kind = draw(st.sampled_from(KINDS))
    doc = copy.deepcopy(n2_documents()[kind])
    path = draw(st.sampled_from(list(_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    change = draw(st.sampled_from(["out_of_range", "negative", "length", "type", "missing"]))
    if change == "out_of_range":
        parent[key] = draw(st.integers(2, 9))
    elif change == "negative":
        parent[key] = draw(st.integers(-9, -1))
    elif change == "length" and isinstance(parent[key], list):
        if parent[key] and draw(st.booleans()):
            parent[key].pop()
        else:
            parent[key].append(0)
    elif change == "type":
        parent[key] = draw(st.sampled_from(["x", None, 1.5, 2.0, True, [], {}]))
    else:  # "missing", or "length" on a scalar
        del parent[key]
    return draw(st.sampled_from(COMMANDS[kind])), doc


class TestMalformedInputFuzz:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(case=malformed_documents())
    def test_exit_code_contract(self, case, tmp_path_factory):
        command, doc = case
        f = tmp_path_factory.mktemp("fuzz") / "doc.json"
        f.write_text(json.dumps(doc))
        assert main([command, str(f)]) in (0, 1, 2)


class TestVerifyCommand:
    def test_single_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "freealg")
        assert code == 0
        lines = out.strip().splitlines()
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert lines[-1].endswith("checks passed")

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "nonsense")
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize("flag,value,message", [
        ("--max-k", "-1", "error: need max-k >= 0"),
        ("--trials", "0", "error: need trials >= 1"),
    ], ids=["max-k", "trials"])
    def test_vacuous_argument(self, capsys, flag, value, message):
        code, out, err = run(capsys, "verify", "--suite", "extension", "-n", "3",
                             "--max-k", "1", flag, value)
        assert code == 2 and message in err and out == ""

    def test_broken_series_route_fails_checks(self, capsys, monkeypatch):
        # one wrong curvature component: the symmetrization of the jet is not
        # a gauge tensor, which fails a check (exit 1) and is no bad input
        def broken(g, order):
            jet = curvature_jet_at_origin(g, order)
            t = jet.levels[0]
            coeffs = dict(t.coeffs)
            coeffs[(0, 1, 0, 1)] = t.get((0, 1, 0, 1)) + 1
            return CurvatureJet(jet.space, [MultiTensor(t.space, t.arity, coeffs)] + jet.levels[1:])

        monkeypatch.setattr("jetiso.verify.curvature_jet_at_origin", broken)
        code, out, err = run(capsys, "verify", "--suite", "roundtrip", "-n", "2", "--max-k", "0")
        assert code == 1 and err == ""
        assert "FAIL roundtrip.metric-n2-k0" in out.splitlines()

    @pytest.mark.parametrize("n", ["1", "0", "-3"])
    def test_small_n_refused(self, capsys, n):
        code, out, err = run(capsys, "verify", "-n", n, "--max-k", "0")
        assert code == 2 and out == ""
        assert "error: need n >= 2" in err
        assert "Traceback" not in err


class TestParser:
    def test_no_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2


class TestDeterminism:
    def test_example_output_is_stable(self, tmp_path, capsys):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            code, _, _ = run(capsys, "example", "--order", "2", "--out", str(out))
            assert code == 0
        for name in ("symjet.json", "jet.json", "metric.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_pinned_documents(self, tmp_path, capsys):
        # the bytes of every document the CLI writes for these inputs
        h = hashlib.sha256()
        for signature in ("+++", "-++"):
            out = tmp_path / signature
            code, _, _ = run(capsys, "example", "--kappa", "2/3", "-n", "3",
                             f"--signature={signature}", "--order", "2", "--out", str(out))
            assert code == 0
            for name in ("symjet.json", "jet.json", "metric.json"):
                h.update((out / name).read_bytes())
            for argv in (("jet", "metric.json"), ("expand", "jet.json"),
                         ("expand", "symjet.json"), ("extend", "jet.json")):
                code, text, err = run(capsys, argv[0], str(out / argv[1]))
                assert code == 0 and err == ""
                h.update(text.encode())
        assert h.hexdigest() == "51610c9bd35c9dc301f4328c44cf22a29f93d373bfacfbe8ae78b1a52705e86e"
