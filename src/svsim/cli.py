"""Command-line runner.

Examples:

    svsim --builder benchmark:12 --ranks 4 --mode be --report json
    svsim --builder adder:2:1:2 --report table
    svsim --circuit program.qc --ranks 2 --fast-bytes 65536 --chunk-bytes 4096

``--mode`` picks what storage keeps per amplitude: fp64 (complex128, 16 B),
fp32 (complex64, 8 B) or be (a 2-byte codebook code).  Each of the
``--ranks`` partitions holds the qubits left after the rank bits.

Exit status 0 on success, 1 on circuit parse errors (a qubit count above 64
among them), 2 on usage problems (bad flags or builder specs, unreadable or
unwritable files, an inconsistent layout or tier setting, or a state larger
than the machine's memory).
"""
from __future__ import annotations

import argparse
import contextlib
import os
import sys

from .builders import build_adder, build_benchmark
from .circuit import Circuit, ParseError, parse_circuit
from .engine import run_circuit
from .layout import partition
from .optimize import optimize_labels, relabel
from .report import build_report
from .state import PrecisionMode
from .tier import TierConfig

MODES = {"fp64": PrecisionMode.FP64, "fp32": PrecisionMode.FP32, "be": PrecisionMode.BYTE}


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svsim",
        description="Partitioned state-vector simulator with exact traffic counters.")
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--circuit", metavar="PATH", help="circuit file to run")
    source.add_argument("--builder", metavar="SPEC",
                        help="benchmark:N or adder:M:a:b[:c]")
    parser.add_argument("--ranks", type=int, default=1,
                        help="number of partitions (power of two)")
    parser.add_argument("--mode", choices=sorted(MODES), default="fp64")
    parser.add_argument("--fast-bytes", type=int, default=None,
                        help="fast-tier capacity per rank; omit to disable tiering")
    parser.add_argument("--chunk-bytes", type=int, default=None,
                        help="tier staging chunk size (power of two)")
    parser.add_argument("--lookahead", type=int, default=None,
                        help="gates examined ahead by the staging planner (default 64); "
                             "needs --fast-bytes and --chunk-bytes")
    parser.add_argument("--optimize-labels", action="store_true",
                        help="relabel qubits to reduce predicted exchange traffic")
    parser.add_argument("--report", choices=["json", "csv", "table"], default="table")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="write the report here instead of standard output")
    return parser


def _load_circuit(args, parser: argparse.ArgumentParser) -> Circuit:
    if args.circuit is not None:
        try:
            with open(args.circuit, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            parser.exit(2, f"svsim: cannot open {args.circuit}: {exc.strerror}\n")
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            # the text before the bad byte decodes, and one more character
            # makes splitlines count the line the byte is on
            line_no = len((data[:exc.start].decode("utf-8") + ".").splitlines())
            raise ParseError(line_no, f"not UTF-8 text (byte {data[exc.start]:#04x})") from None
        return parse_circuit(text)

    parts = args.builder.split(":")
    try:
        if parts[0] == "benchmark" and len(parts) == 2:
            return build_benchmark(int(parts[1]))
        if parts[0] == "adder" and len(parts) in (4, 5):
            width = int(parts[1])
            addends = [int(p) for p in parts[2:]]
            circuit, _ = build_adder(width, addends)
            return circuit
    except ValueError as exc:
        parser.exit(2, f"svsim: bad builder spec {args.builder!r}: {exc}\n")
    parser.exit(2, f"svsim: unknown builder {args.builder!r} "
                   "(expected benchmark:N or adder:M:a:b[:c])\n")


def main(argv: list[str] | None = None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)

    try:
        circuit = _load_circuit(args, parser)
    except ParseError as exc:
        print(f"svsim: {args.circuit}: {exc}", file=sys.stderr)
        return 1

    if (args.fast_bytes is None) != (args.chunk_bytes is None):
        parser.exit(2, "svsim: --fast-bytes and --chunk-bytes go together\n")
    if args.lookahead is not None and args.fast_bytes is None:
        parser.exit(2, "svsim: --lookahead needs --fast-bytes and --chunk-bytes\n")

    # opened before the run, so an unwritable path costs no simulation; "a"
    # leaves an existing file as it is until the report replaces it, and a
    # file this run creates goes again if the run fails
    created = bool(args.out) and not os.path.lexists(args.out)
    out = None
    if args.out:
        try:
            out = open(args.out, "a", encoding="utf-8")
        except OSError as exc:
            parser.exit(2, f"svsim: cannot write {args.out}: {exc.strerror}\n")

    try:
        with out or contextlib.nullcontext():
            try:
                lookahead = (TierConfig.lookahead_window if args.lookahead is None
                             else args.lookahead)
                tier_config = (None if args.fast_bytes is None else
                               TierConfig(args.fast_bytes, args.chunk_bytes, lookahead))
                if args.optimize_labels:
                    layout = partition(circuit.n_qubits, args.ranks)
                    circuit = relabel(circuit, optimize_labels(circuit, layout))
                result = run_circuit(circuit, ranks=args.ranks, mode=MODES[args.mode],
                                     tier_config=tier_config)
            except ValueError as exc:
                parser.exit(2, f"svsim: {exc}\n")

            rendered = build_report(result).render(args.report)
            if out is None:
                sys.stdout.write(rendered)
                return 0
            try:
                if out.seekable():
                    out.truncate(0)
                out.write(rendered)
                out.flush()
            except OSError as exc:
                parser.exit(2, f"svsim: cannot write {args.out}: {exc.strerror}\n")
    except BaseException:
        if created:
            os.remove(args.out)
        raise
    return 0


if __name__ == "__main__":
    sys.exit(main())
