import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import neumaier
from neumaier import spectra
from neumaier.classify import Analysis
from neumaier.cli import main
from neumaier.graphs import (
    complete_multipartite,
    decode_graph6,
    encode_graph6,
    johnson2,
    petersen,
    rook,
)

runner = CliRunner()
# the module, not the function ``neumaier.classify`` of the same name: the
# commands import what they call from it when they run
classify_module = importlib.import_module("neumaier.classify")


def invoke(args, **kw):
    return runner.invoke(main, args, auto_envvar_prefix="NEUMAIER", **kw)


def test_analyze_complete_graph():
    res = invoke(["analyze"], input="Bw\n")
    assert res.exit_code == 0
    rec = json.loads(res.output.splitlines()[0])
    assert rec["taxonomy"] == "CompleteExcluded"


def test_analyze_rook():
    res = invoke(["analyze"], input=encode_graph6(rook(3)) + "\n")
    assert res.exit_code == 0
    rec = json.loads(res.output.splitlines()[0])
    assert rec["taxonomy"] == "NeumaierSRG"
    assert rec["params"]["s"] == 2 and rec["params"]["e"] == 1


def test_analyze_order_preserving():
    lines = [encode_graph6(g) for g in (rook(3), petersen(), johnson2(4))]
    res = invoke(["analyze"], input="\n".join(lines) + "\n")
    out = [json.loads(line)["graph6"] for line in res.output.splitlines()]
    assert out == lines


def test_analyze_worker_count_does_not_change_output():
    # 12 graphs are two tasks of 8, so two CPUs run a pool of two
    lines = "\n".join(
        encode_graph6(g) for g in (rook(3), petersen(), johnson2(4), rook(2)) * 3
    ) + "\n"
    a = invoke(["analyze", "--workers", "1"], input=lines)
    b = invoke(["analyze", "--workers", "3"], input=lines)
    assert a.output == b.output


def test_analyze_parse_error_names_line():
    res = invoke(["analyze"], input="Bw\nB\n")
    assert res.exit_code == 2
    assert "line 2" in res.output or "line 2" in (res.stderr or "")


def test_analyze_csv_header():
    res = invoke(["analyze", "--format", "csv"], input="Bw\n")
    header = res.output.splitlines()[0]
    assert header == "graph6,taxonomy,v,k,lambda,s,e,distinct_count,theta_min,theta_max2"
    row = res.output.splitlines()[1].split(",")
    assert row[0] == "Bw" and row[1] == "CompleteExcluded"


def test_analyze_human_and_csv_rows():
    lines = "".join(encode_graph6(g) + "\n" for g in (rook(3), petersen()))
    res = invoke(["analyze", "--format", "csv"], input=lines)
    assert res.output.splitlines()[1:] == [
        "H{S{aSf,NeumaierSRG,9,4,1,2,1,3,-2,1",
        "I?LRCecq?,EdgeRegularNoRegularClique,10,3,0,,,3,-2,1",
    ]
    res = invoke(["analyze", "--format", "human"], input=lines)
    assert res.output == """\
graph H{S{aSf  (n=9)
  taxonomy: NeumaierSRG
  (v,k,lambda) = (9,4,1)
  mu = 2
  s = 2, e = 1
  spectrum: {4^1, 1^4, -2^4}  distinct=3
  [     lem1] holds
  [ sandwich] holds
  [  hoffman] holds
  [ delsarte] holds
  [     walk] holds
  [   minus2] holds
  [     four] holds
  [extension] holds

graph I?LRCecq?  (n=10)
  taxonomy: EdgeRegularNoRegularClique
  (v,k,lambda) = (10,3,0)
  mu = 1
  spectrum: {3^1, 1^5, -2^4}  distinct=3
  [     lem1] holds
  [ sandwich] holds
  [  hoffman] holds
  [ delsarte] skipped
  [     walk] holds (vacuous)
  [   minus2] skipped
  [     four] holds (vacuous)
  [extension] skipped

"""


def test_analyze_env_var_format(monkeypatch):
    res = runner.invoke(
        main, ["analyze"], input="Bw\n",
        env={"NEUMAIER_ANALYZE_FORMAT": "csv"},
        auto_envvar_prefix="NEUMAIER",
    )
    assert res.output.startswith("graph6,taxonomy")


def test_tol_is_not_an_option():
    # clusters come from the exact multiplicities, so there is no
    # tolerance; and every sweep verifies all eight theorems
    for args in (["analyze", "--tol", "1e-7"], ["sweep", "--n", "4", "--tol", "1e-7"],
                 ["sweep", "--n", "4", "--theorems", "four"]):
        res = invoke(args, input="Bw\n")
        assert res.exit_code == 2
        assert "No such option" in res.output and args[-2] in res.output


def test_generate_round_trips():
    res = invoke(["generate", "rook", "3"])
    assert res.exit_code == 0
    assert decode_graph6(res.output.strip()) == rook(3)
    res = invoke(["generate", "johnson2", "5"])
    assert decode_graph6(res.output.strip()) == johnson2(5)
    res = invoke(["generate", "multipartite", "3", "2"])
    assert decode_graph6(res.output.strip()) == complete_multipartite(3, 2)
    res = invoke(["generate", "petersen"])
    assert decode_graph6(res.output.strip()) == petersen()


def test_generate_bad_parameters():
    assert invoke(["generate", "rook", "1"]).exit_code == 2
    assert invoke(["generate", "rook"]).exit_code == 2
    assert invoke(["generate", "nosuch", "3"]).exit_code != 0
    res = invoke(["generate", "complete", "513"])
    assert res.exit_code == 2
    assert "vertex count 513 outside [0, 512]" in res.output


def test_sweep_exhaustive_n4():
    res = invoke(["sweep", "--n", "4", "--format", "json", "--workers", "1"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["ok"] is True
    assert doc["total"] == 64
    assert doc["taxonomy"]["NeumaierSRG"] == 3
    assert doc["neumaier_four_eigenvalue_count"] == 0


def test_sweep_worker_count_does_not_change_output():
    a = invoke(["sweep", "--n", "5", "--format", "json", "--workers", "1"])
    b = invoke(["sweep", "--n", "5", "--format", "json", "--workers", "4"])
    # everything but the two timing fields
    docs = [json.loads(res.output) for res in (a, b)]
    for doc in docs:
        del doc["elapsed_s"], doc["graphs_per_s"]
    assert docs[0] == docs[1]


def test_process_pools_are_bounded_by_tasks_and_cpus(serial_pool, monkeypatch):
    from neumaier.classify import sweep_labeled

    # on 2 CPUs the sweep cuts about 8 chunks per process that runs, however
    # many workers above one are asked for
    assert sweep_labeled(5, workers=4).aggregate.total == 1024
    assert sweep_labeled(5, workers=10**6).aggregate.total == 1024
    assert sweep_labeled(6, workers=129).aggregate.total == 32768
    assert serial_pool == [(2, 16)] * 3
    serial_pool.clear()
    # no pool of one: 2 graphs are one task of 8, and one CPU runs alone
    two = "\n".join(encode_graph6(g) for g in (rook(3), petersen())) + "\n"
    assert invoke(["analyze", "--workers", "1000000"], input=two).exit_code == 0
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert sweep_labeled(5, workers=4).aggregate.total == 1024
    assert serial_pool == []
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    res = invoke(["analyze", "--workers", "1000000"], input=two * 10)
    assert res.exit_code == 0 and len(res.output.splitlines()) == 20
    # 20 graphs are 3 tasks, below the 64 CPUs
    assert serial_pool == [(3, 3)]


def fresh_interpreter(code: str) -> str:
    """stdout of ``code`` run by a new interpreter on this package."""
    src = Path(neumaier.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    return out.stdout.strip()


def test_cli_import_leaves_the_process_pool_out():
    # only runs that make a pool of two or more processes load it; the
    # tests above with several workers still cover it
    code = "import sys, neumaier.cli; print('concurrent.futures.process' in sys.modules)"
    assert fresh_interpreter(code) == "False"


def test_cli_import_leaves_the_classifier_out():
    # --help and generate need neither the classifier nor the kernels; the
    # submodule classify, once imported, leaves the function on the package
    code = (
        "import sys, neumaier.cli\n"
        "print(sorted({'neumaier.classify', 'neumaier.spectra', 'neumaier._kernels._slow'}"
        " & set(sys.modules)))\n"
        "import neumaier.classify\n"
        "print(neumaier.classify is sys.modules['neumaier.classify'].classify)"
    )
    assert fresh_interpreter(code).splitlines() == ["[]", "True"]


def test_package_exports_resolve_to_their_modules():
    for name, module in neumaier._EXPORTS.items():
        value = getattr(importlib.import_module(f"neumaier.{module}"), name)
        assert getattr(neumaier, name) is value, name
    assert set(neumaier._EXPORTS) <= set(dir(neumaier))
    with pytest.raises(AttributeError, match="no_such_name"):
        neumaier.no_such_name


def test_sweep_reports_time_and_throughput(tmp_path):
    doc = json.loads(invoke(["sweep", "--n", "4", "--format", "json", "--workers", "1"]).output)
    assert doc["elapsed_s"] > 0
    assert doc["graphs_per_s"] == pytest.approx(doc["total"] / doc["elapsed_s"], rel=0.01)
    human = invoke(["sweep", "--n", "4", "--workers", "1"]).output.splitlines()
    assert re.fullmatch(r"sweep time: \d+\.\d{3} s, \d+ graphs/s", human[-1])
    assert human[-2] == "verdict: all assertions hold"
    # a corpus sweep is not timed
    corpus = tmp_path / "corpus.g6"
    corpus.write_text(encode_graph6(rook(3)) + "\n")
    doc = json.loads(invoke(["sweep", "--input", str(corpus), "--format", "json"]).output)
    assert "elapsed_s" not in doc and "graphs_per_s" not in doc
    human = invoke(["sweep", "--input", str(corpus)]).output
    assert "sweep time" not in human and human.endswith("verdict: all assertions hold\n")


def test_sweep_verdict_is_the_exit_code(monkeypatch):
    # a strictly Neumaier sighting fails an exhaustive sweep even with
    # six distinct eigenvalues; every format reports the verdict it exits on
    real = classify_module.sweep_labeled

    def with_sighting(n, workers):
        result = real(n, workers)
        result.aggregate.strictly_neumaier.append(("C~", 6))
        return result

    monkeypatch.setattr(classify_module, "sweep_labeled", with_sighting)
    res = invoke(["sweep", "--n", "4", "--workers", "1"])
    assert res.exit_code == 4
    assert res.output.splitlines()[-2] == "verdict: FAILED"
    res = invoke(["sweep", "--n", "4", "--workers", "1", "--format", "json"])
    assert res.exit_code == 4 and json.loads(res.output)["ok"] is False


def test_sweep_corpus_input_reports_violations(tmp_path, monkeypatch):
    # srg = None makes rook(3) look strictly Neumaier to every verifier
    monkeypatch.setattr(Analysis, "srg", property(lambda self: None))
    corpus = tmp_path / "corpus.g6"
    witness = encode_graph6(rook(3))
    corpus.write_text(witness + "\n")
    res = invoke(["sweep", "--input", str(corpus), "--format", "json"])
    assert res.exit_code == 4
    doc = json.loads(res.output)
    assert doc["ok"] is False and doc["violations"]["hoffman"] == [witness]
    res = invoke(["sweep", "--input", str(corpus)])
    assert res.exit_code == 4
    lines = res.output.splitlines()
    assert f"witnesses[hoffman]: {witness}" in lines
    assert lines[-1] == "verdict: FAILED"


def test_sweep_corpus_input(tmp_path):
    corpus = tmp_path / "corpus.g6"
    corpus.write_text(
        "\n".join(encode_graph6(g) for g in (rook(3), petersen(), johnson2(5))) + "\n"
    )
    res = invoke(["sweep", "--input", str(corpus), "--format", "human"])
    assert res.exit_code == 0
    assert "theorem matrix" in res.output
    assert "all assertions hold" in res.output


def test_sweep_csv_matrix(tmp_path):
    corpus = tmp_path / "corpus.g6"
    corpus.write_text(encode_graph6(rook(3)) + "\n")
    res = invoke(["sweep", "--input", str(corpus), "--format", "csv"])
    assert res.output.splitlines()[0] == "theorem,holds,vacuous,skipped,violated"


def test_sweep_argument_validation():
    assert invoke(["sweep"]).exit_code == 2
    assert invoke(["sweep", "--n", "9"]).exit_code == 2
    assert invoke(["sweep", "--n", "4", "--workers", "0"]).exit_code == 2


def test_refute_trail():
    res = invoke(["refute", "--k", "9", "--theta", "1", "--theta2", "-4", "--e", "2"])
    assert res.exit_code == 0
    assert "theta1 = -k/(e+theta) = -3" in res.output
    assert "contradiction: True" in res.output


def test_refute_json():
    res = invoke(["refute", "--k", "6", "--theta", "0", "--theta2", "-7",
                  "--e", "1", "--format", "json"])
    doc = json.loads(res.output)
    assert doc["derived"]["theta1"] == -6.0
    assert doc["contradiction"] is True


def test_refute_precondition_exit_code():
    res = invoke(["refute", "--k", "4", "--theta", "5", "--theta2", "-3", "--e", "1"])
    assert res.exit_code == 2
    assert "k > theta" in res.output or "k > theta" in (res.stderr or "")


def test_output_file(tmp_path):
    out = tmp_path / "out.jsonl"
    res = invoke(["analyze", "--output", str(out)], input="Bw\n")
    assert res.exit_code == 0
    assert json.loads(out.read_text())["taxonomy"] == "CompleteExcluded"


def test_spectral_resolution_error_exits_3(monkeypatch):
    # evenly spaced numeric eigenvalues: no tolerance clusters them into
    # the three exact distinct eigenvalues of rook(3)
    monkeypatch.setattr(spectra, "jacobi_eigenvalues",
                        lambda flat, n: [float(i) for i in range(n)])
    line = encode_graph6(rook(3)) + "\n"
    for args in (["analyze"], ["sweep", "--input", "-"]):
        res = invoke(args, input=line)
        assert res.exit_code == 3
        assert isinstance(res.exception, SystemExit)
        assert res.output.splitlines() == [
            "internal consistency error: no tolerance in [1e-13, 1.0] yields 3 clusters"
        ]


def assert_one_line_exit_2(res, message):
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)  # no traceback
    assert res.stdout == ""
    assert res.stderr.splitlines() == [message]


@pytest.mark.parametrize("command", ["analyze", "sweep"])
def test_missing_input_file_exits_2(tmp_path, command):
    missing, out = tmp_path / "missing.g6", tmp_path / "out.json"
    out.write_text("kept\n")
    res = invoke([command, "--input", str(missing), "--output", str(out)])
    assert_one_line_exit_2(res, f"cannot read {missing}: No such file or directory")
    assert out.read_text() == "kept\n"


def test_unwritable_output_file_exits_2(tmp_path, monkeypatch):
    # a sweep finds out before it runs
    monkeypatch.setattr(classify_module, "sweep_labeled", lambda *a: pytest.fail("the sweep ran"))
    for out in (str(tmp_path / "nodir" / "x.json"), ""):
        message = f"cannot write {out}: No such file or directory"
        assert_one_line_exit_2(invoke(["analyze", "--output", out], input="Bw\n"), message)
        assert_one_line_exit_2(invoke(["sweep", "--n", "6", "--output", out]), message)
    assert not (tmp_path / "nodir").exists()


def test_non_ascii_input_file_names_the_line(tmp_path):
    corpus, out = tmp_path / "bad.g6", tmp_path / "out.json"
    corpus.write_bytes(b"Bw\n\xff\n")
    message = "line 2: header byte 255 outside [63, 126] (byte offset 0)"
    res = invoke(["analyze", "--input", str(corpus), "--output", str(out)])
    assert_one_line_exit_2(res, message)
    assert not out.exists()
    # the same bytes from stdin
    assert_one_line_exit_2(invoke(["analyze"], input=corpus.read_bytes()), message)
