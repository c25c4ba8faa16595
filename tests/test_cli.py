"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import build_parser, main
from repro.circuits import emit_qasm
from repro.generators import qaoa_regular


@pytest.fixture
def qasm_file(tmp_path):
    path = tmp_path / "circuit.qasm"
    path.write_text(emit_qasm(qaoa_regular(8, 3, seed=1)))
    return str(path)


class TestCLI:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_compile_command(self, qasm_file, capsys):
        assert main(["compile", qasm_file, "--side", "4"]) == 0
        out = capsys.readouterr().out
        assert "2Q gates" in out
        assert "fidelity" in out

    def test_compile_writes_program_json(self, qasm_file, tmp_path, capsys):
        out_path = tmp_path / "program.json"
        assert (
            main(["compile", qasm_file, "--side", "4", "-o", str(out_path)]) == 0
        )
        doc = json.loads(out_path.read_text())
        assert doc["format_version"] == 2
        assert doc["columns"]["gates"]["a"]
        assert len(doc["stage_offsets"]["gates"]) > 1

    def test_compare_command(self, qasm_file, capsys):
        assert main(["compare", qasm_file]) == 0
        out = capsys.readouterr().out
        assert "Atomique" in out
        assert "Superconducting" in out

    def test_bench_command(self, capsys):
        assert main(["bench"]) == 0
        out = capsys.readouterr().out
        assert "QAOA-regu5-40" in out
