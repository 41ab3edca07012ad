import json
import warnings

import pytest

import svsim.cli
from svsim import ParseError, parse_circuit
from svsim.cli import main


def _run(tmp_path, name: str, text: str) -> tuple[int, dict | None]:
    path = tmp_path / f"{name}.qc"
    path.write_text(text)
    out = tmp_path / f"{name}.json"
    code = main(["--circuit", str(path), "--ranks", "2", "--report", "json",
                 "--out", str(out)])
    return code, json.loads(out.read_text()) if out.exists() else None


def test_non_finite_matrix_is_a_parse_error(tmp_path, capsys):
    text = "qubits 1\nH 0\nU2 0  nan 0  0 0  0 0  1 0\nM\n"
    with pytest.raises(ParseError, match="line 3.*non-finite"):
        parse_circuit(text)
    code, report = _run(tmp_path, "nan", text)
    assert code == 1 and report is None
    assert "non-finite" in capsys.readouterr().err


def test_overflowing_matrix_is_a_parse_error_without_warnings(tmp_path, capsys):
    # the unitarity residual of this matrix overflows to NaN
    text = "qubits 1\nH 0\nU2 0  0 0  0 0  0 0  1e300 1e300\nM\n"
    with pytest.raises(ParseError, match="line 3.*not unitary"):
        parse_circuit(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, report = _run(tmp_path, "overflow", text)
    assert code == 1 and report is None
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("svsim: ")


def test_unwritable_out_exits_2(tmp_path, capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("run_circuit called before --out was checked")

    monkeypatch.setattr(svsim.cli, "run_circuit", no_run)
    out = tmp_path / "missing" / "x.json"
    with pytest.raises(SystemExit) as exit_info:
        main(["--builder", "benchmark:8", "--out", str(out)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"svsim: cannot write {out}: ")


def test_existing_out_is_kept_on_a_layout_error_and_replaced_on_success(tmp_path):
    out = tmp_path / "report.json"
    out.write_text("earlier report\n" * 100)
    with pytest.raises(SystemExit) as exit_info:
        main(["--builder", "benchmark:8", "--ranks", "3", "--out", str(out)])
    assert exit_info.value.code == 2
    assert out.read_text() == "earlier report\n" * 100
    assert main(["--builder", "benchmark:8", "--report", "json", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["qubits"] == 8


@pytest.mark.parametrize("line", ["PHASE 0 2000", "CPHASE 0 1 -2000"])
def test_huge_phase_exponent_runs_as_the_identity(tmp_path, line):
    code, report = _run(tmp_path, "huge", f"qubits 2\nH 0\nH 1\n{line}\nM\n")
    _, identity = _run(tmp_path, "identity", "qubits 2\nH 0\nH 1\nM\n")
    assert code == 0
    assert report["expectations"] == identity["expectations"]


@pytest.mark.parametrize("argv", [
    ["--builder", "benchmark:8", "--ranks", "3"],
    ["--builder", "benchmark:8", "--local-qubits", "9"],
    ["--builder", "benchmark:8", "--ranks", "1024", "--fast-bytes", "4096",
     "--chunk-bytes", "256"],
    ["--builder", "benchmark:8", "--ranks", "1024", "--optimize-labels"],
    ["--builder", "benchmark:8", "--local-qubits", "-1", "--optimize-labels"],
    ["--builder", "benchmark:8", "--fast-bytes", "100000", "--chunk-bytes", "100"],
    ["--builder", "benchmark:8", "--fast-bytes", "4096", "--chunk-bytes", "4096"],
    ["--builder", "benchmark:40"],
])
def test_layout_tier_and_memory_errors_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.startswith("svsim: ")


OLD_JSON_KEYS = ["qubits", "ranks", "localQubits", "mode", "gateOperations",
                 "interRankBytes", "interRankMessages", "tierBytes", "tierTransferCount",
                 "codebookOverflowFlags", "expectations", "wallTimeSeconds"]
OLD_CSV_COLUMNS = ["qubits", "ranks", "localQubits", "mode", "gateOperations",
                   "interRankBytes", "interRankMessages", "tierBytes", "tierTransferCount",
                   "magnitudeOverflow", "phaseOverflow", "qubit", "qx", "qy", "qz"]


@pytest.fixture(scope="module")
def byte_adder_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("adder") / "adder.json"
    assert main(["--builder", "adder:9:300:211", "--ranks", "4", "--mode", "be",
                 "--report", "json", "--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_byte_report_shows_norm_deviation_and_codebook_resolution(byte_adder_report):
    report = byte_adder_report
    assert list(report)[:len(OLD_JSON_KEYS)] == OLD_JSON_KEYS
    assert report["normDeviation"] == 0.0002215920306996022
    assert report["normToleranceExceeded"] is True
    assert report["codebookResolution"] == {"magnitudes": 0.1464466094067262,
                                            "phases": 0.012271846303085532}


def test_byte_report_appends_codebook_table_sizes(byte_adder_report):
    report = byte_adder_report
    assert list(report)[-2:] == ["codebookResolution", "codebookEntries"]
    assert report["codebookEntries"] == {"magnitudes": 256, "phases": 256}
    assert report["codebookOverflowFlags"] == {"magnitudes": True, "phases": True}
    assert report["normDeviation"] == 0.0002215920306996022


def test_fp_report_has_no_codebook_entries(tmp_path):
    code, report = _run(tmp_path, "fp", "qubits 2\nH 0\nM\n")
    assert code == 0 and report["mode"] == "fp64"
    assert list(report)[-2:] == ["codebookResolution", "codebookEntries"]
    assert report["codebookEntries"] is None


@pytest.mark.parametrize("mode", ["fp64", "be"])
def test_report_table_shows_codebook_entries(mode, capsys):
    assert main(["--builder", "adder:2:1:2", "--ranks", "2", "--mode", mode,
                 "--report", "table"]) == 0
    lines = capsys.readouterr().out.splitlines()
    entries = [line for line in lines if line.startswith("codebook entries   : ")]
    assert entries == ["codebook entries   : " + ("n/a" if mode == "fp64"
                                                   else "magnitudes=4 phases=4")]


@pytest.mark.parametrize("mode", ["fp64", "be"])
def test_report_appends_accuracy_to_csv_and_table(mode, capsys):
    argv = ["--builder", "adder:3:5:2", "--ranks", "2", "--mode", mode]
    assert main(argv + ["--report", "csv"]) == 0
    header, first = capsys.readouterr().out.splitlines()[:2]
    assert header.split(",") == OLD_CSV_COLUMNS + [
        "normDeviation", "normToleranceExceeded", "magnitudeResolution", "phaseResolution"]
    accuracy = first.split(",")[len(OLD_CSV_COLUMNS):]
    assert accuracy[1] == "False" and float(accuracy[0]) < 1e-12
    assert (accuracy[2:] == ["", ""]) == (mode == "fp64")
    assert main(argv + ["--report", "table"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("norm deviation     : ") and "within tolerance" in line
               for line in lines)
    resolution = [line for line in lines if line.startswith("codebook resolution: ")]
    assert len(resolution) == 1 and ("n/a" in resolution[0]) == (mode == "fp64")


def test_report_without_measurement_has_no_norm_deviation(tmp_path):
    code, report = _run(tmp_path, "unmeasured", "qubits 2\nH 0\n")
    assert code == 0 and report["expectations"] == []
    assert report["normDeviation"] is None and report["normToleranceExceeded"] is False
    assert report["codebookResolution"] is None
