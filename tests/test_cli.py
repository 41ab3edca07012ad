import json

import pytest

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


@pytest.mark.parametrize("line", ["PHASE 0 2000", "CPHASE 0 1 -2000"])
def test_huge_phase_exponent_runs_as_the_identity(tmp_path, line):
    code, report = _run(tmp_path, "huge", f"qubits 2\nH 0\nH 1\n{line}\nM\n")
    _, identity = _run(tmp_path, "identity", "qubits 2\nH 0\nH 1\nM\n")
    assert code == 0
    assert report["expectations"] == identity["expectations"]
