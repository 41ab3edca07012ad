"""Partitioned state-vector simulator with exact traffic accounting.

Simulates gate circuits on a state vector split across in-process rank
workers, with adaptive two-byte amplitude encoding, a two-tier memory model
per rank, and ledgers that count every byte the exchanges and tier stagings
move.
"""
from . import gates
from .builders import build_adder, build_benchmark, decode_register
from .circuit import Circuit, ParseError, RegisterMap, parse_circuit, serialize_circuit
from .codec import Codebook, canonicalize
from .engine import RunResult, run_circuit
from .layout import ExchangePlan, PartitionLayout, TrafficLedger, memory_bytes, plan_exchange
from .measure import ExpectationReport, measure_all
from .optimize import optimize_labels, predicted_exchange_bytes, relabel
from .oracle import DenseState, dense_expectations, oracle_run
from .report import RunReport, build_report
from .state import LocalState, PrecisionMode
from .tier import TierConfig, naive_staging_bytes, plan_passes, recommended_fast_bytes
from .transport import Transport, TransportError

__version__ = "0.1.0"

__all__ = [
    "gates",
    "build_adder", "build_benchmark", "decode_register",
    "Circuit", "ParseError", "RegisterMap", "parse_circuit", "serialize_circuit",
    "Codebook", "canonicalize",
    "RunResult", "run_circuit",
    "ExchangePlan", "PartitionLayout", "TrafficLedger", "memory_bytes", "plan_exchange",
    "ExpectationReport", "measure_all",
    "optimize_labels", "predicted_exchange_bytes", "relabel",
    "DenseState", "dense_expectations", "oracle_run",
    "RunReport", "build_report",
    "LocalState", "PrecisionMode",
    "TierConfig", "naive_staging_bytes", "plan_passes", "recommended_fast_bytes",
    "Transport", "TransportError",
    "__version__",
]
