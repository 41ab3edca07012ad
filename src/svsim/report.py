"""Run reports: the counter columns plus the expectation table.

JSON carries full precision and the exact field names below; CSV emits one
row per qubit with the run-level columns repeated, in a fixed column order;
the table form prints counters followed by two-decimal expectation values.
All fields except wallTimeSeconds are deterministic for a fixed
configuration.

Accuracy fields follow the counters: the measured norm's deviation from 1
(None without a measurement), whether it exceeds the storage mode's
``norm_tolerance``, and in byte mode the codebook's quantisation bound per
table, ``Codebook.resolution()`` (None in fp modes).  They come after the
older JSON keys and CSV columns, whose names and order do not change.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

from .engine import RunResult
from .state import PrecisionMode

CSV_COLUMNS = [
    "qubits", "ranks", "localQubits", "mode", "gateOperations",
    "interRankBytes", "interRankMessages", "tierBytes", "tierTransferCount",
    "magnitudeOverflow", "phaseOverflow", "qubit", "qx", "qy", "qz",
    "normDeviation", "normToleranceExceeded", "magnitudeResolution", "phaseResolution",
]


@dataclass(frozen=True)
class RunReport:
    qubits: int
    ranks: int
    local_qubits: int
    mode: str
    gate_operations: int
    inter_rank_bytes: int
    inter_rank_messages: int
    tier_bytes: int
    tier_transfer_count: int
    codebook_overflow: dict
    expectations: list[dict]
    wall_time_seconds: float
    norm_deviation: float | None
    norm_tolerance_exceeded: bool
    codebook_resolution: dict | None

    def to_dict(self) -> dict:
        return {
            "qubits": self.qubits,
            "ranks": self.ranks,
            "localQubits": self.local_qubits,
            "mode": self.mode,
            "gateOperations": self.gate_operations,
            "interRankBytes": self.inter_rank_bytes,
            "interRankMessages": self.inter_rank_messages,
            "tierBytes": self.tier_bytes,
            "tierTransferCount": self.tier_transfer_count,
            "codebookOverflowFlags": self.codebook_overflow,
            "expectations": self.expectations,
            "wallTimeSeconds": self.wall_time_seconds,
            "normDeviation": self.norm_deviation,
            "normToleranceExceeded": self.norm_tolerance_exceeded,
            "codebookResolution": self.codebook_resolution,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        shared = [
            self.qubits, self.ranks, self.local_qubits, self.mode,
            self.gate_operations, self.inter_rank_bytes, self.inter_rank_messages,
            self.tier_bytes, self.tier_transfer_count,
            self.codebook_overflow["magnitudes"], self.codebook_overflow["phases"],
        ]
        resolution = self.codebook_resolution or {}
        accuracy = ["" if value is None else repr(value) for value in (
            self.norm_deviation, self.norm_tolerance_exceeded,
            resolution.get("magnitudes"), resolution.get("phases"))]
        for row in self.expectations:
            writer.writerow(
                shared + [row["qubit"], repr(row["qx"]), repr(row["qy"]), repr(row["qz"])]
                + accuracy)
        if not self.expectations:
            writer.writerow(shared + ["", "", "", ""] + accuracy)
        return buffer.getvalue()

    def to_table(self) -> str:
        lines = [
            f"qubits             : {self.qubits}",
            f"ranks              : {self.ranks}",
            f"local qubits       : {self.local_qubits}",
            f"mode               : {self.mode}",
            f"gate operations    : {self.gate_operations}",
            f"inter-rank bytes   : {self.inter_rank_bytes}",
            f"inter-rank messages: {self.inter_rank_messages}",
            f"tier bytes         : {self.tier_bytes}",
            f"tier transfers     : {self.tier_transfer_count}",
            f"codebook overflow  : magnitudes={self.codebook_overflow['magnitudes']} "
            f"phases={self.codebook_overflow['phases']}",
            f"norm deviation     : {self._norm_text()}",
            f"codebook resolution: {self._resolution_text()}",
            f"wall time (s)      : {self.wall_time_seconds:.3f}",
        ]
        if self.expectations:
            lines.append("")
            lines.append("Qubit  <Qx>  <Qy>  <Qz>")
            for row in self.expectations:
                lines.append(
                    f"{row['qubit']:5d}  {row['qx']:.2f}  {row['qy']:.2f}  {row['qz']:.2f}")
        return "\n".join(lines) + "\n"

    def _norm_text(self) -> str:
        if self.norm_deviation is None:
            return "n/a"
        verdict = "exceeds" if self.norm_tolerance_exceeded else "within"
        tolerance = PrecisionMode(self.mode).norm_tolerance
        return f"{self.norm_deviation:.3e} ({verdict} tolerance {tolerance:g})"

    def _resolution_text(self) -> str:
        if self.codebook_resolution is None:
            return "n/a"
        return (f"magnitudes={self.codebook_resolution['magnitudes']:.3g} "
                f"phases={self.codebook_resolution['phases']:.3g}")

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return self.to_csv()
        if fmt == "table":
            return self.to_table()
        raise ValueError(f"unknown report format {fmt!r}")


def build_report(result: RunResult) -> RunReport:
    """Aggregate a run into its report; expectations come out in program labels."""
    report = result.report_in_program_labels()
    expectations = []
    if report is not None:
        expectations = [
            {"qubit": q, "qx": report.qx[q], "qy": report.qy[q], "qz": report.qz[q]}
            for q in range(report.n_qubits)
        ]
    overflow = {"magnitudes": False, "phases": False}
    resolution = None
    if result.codebook is not None:
        overflow = {"magnitudes": result.codebook.mag_overflow,
                    "phases": result.codebook.phase_overflow}
        resolution = dict(zip(("magnitudes", "phases"), result.codebook.resolution()))
    deviation = None if report is None else report.norm_deviation
    return RunReport(
        qubits=result.circuit.n_qubits,
        ranks=result.layout.rank_count,
        local_qubits=result.layout.local_qubits,
        mode=result.mode.value,
        gate_operations=result.gate_operations,
        inter_rank_bytes=result.total_bytes_sent,
        inter_rank_messages=result.total_messages,
        tier_bytes=result.total_tier_bytes,
        tier_transfer_count=result.total_tier_transfers,
        codebook_overflow=overflow,
        expectations=expectations,
        wall_time_seconds=result.wall_time_seconds,
        norm_deviation=deviation,
        norm_tolerance_exceeded=deviation is not None and deviation > result.mode.norm_tolerance,
        codebook_resolution=resolution,
    )
