"""Command-line interface: gen, marginals, reconstruct, roundtrip, tomo-demo.

Exit codes: 0 success, 2 usage/contract/IO problems, 3 typed algorithm
failures.  Data files are byte-deterministic given the flags; report files
additionally carry wall-clock timings.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, fields
from typing import NoReturn

from .errors import AlgorithmError, ContractError
from .harness import batch_stats, run_trials, sample_haar_state
from .reconstruct import ReconstructionConfig, _outcome_fields, reconstruct_tripartite
from .states import Dims, PureState, fidelity, partial_trace
from .serialize import _replacing, dumps, read_matrix_file, write_matrix_file
from .tomography import (
    PROFILES,
    build_profile,
    default_spacings,
    grid_fidelity,
    planar_density,
    reconstruct_grid,
)

ROUNDTRIP_MIN_FIDELITY = 1.0 - 1e-8

_TOLERANCE_FLAGS = tuple(f.name for f in fields(ReconstructionConfig))


def _parse_triple(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected three comma-separated integers, got {text!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _config_from(args) -> ReconstructionConfig:
    overrides = {
        name: getattr(args, name)
        for name in _TOLERANCE_FLAGS
        if getattr(args, name, None) is not None
    }
    return ReconstructionConfig(**overrides)


def _report_text(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _write_report(path, payload: dict) -> None:
    if path is not None:
        with _replacing() as stage:
            stage(path, _report_text(payload))


def _report_failure(path, exc: AlgorithmError, context: dict) -> NoReturn:
    """Write the failure report for ``exc`` and raise it again, for ``main`` to name."""
    _write_report(path, {**_outcome_fields(exc), "detail": str(exc), **context})
    raise exc


def _cmd_gen(args) -> int:
    dims = Dims(*args.dims)
    state = sample_haar_state(dims, args.seed)
    write_matrix_file(args.out, state)
    return 0


def _cmd_marginals(args) -> int:
    obj = read_matrix_file(getattr(args, "in"))
    reduced = partial_trace(obj, tuple(args.keep))
    write_matrix_file(args.out, reduced)
    return 0


def _cmd_reconstruct(args) -> int:
    t0 = time.perf_counter()
    dims = Dims(*args.dims)
    rho_ab = read_matrix_file(args.ab)
    rho_bc = read_matrix_file(args.bc)
    truth = None if args.truth is None else read_matrix_file(args.truth)
    if truth is not None and (not isinstance(truth, PureState) or truth.dims != dims):
        raise ContractError(f"--truth must be a pure_state file with dims {dims.as_tuple()}")
    cfg = _config_from(args)
    t_load = time.perf_counter()
    try:
        report = reconstruct_tripartite(rho_ab, rho_bc, dims, cfg)
    except AlgorithmError as exc:
        t_done = time.perf_counter()
        timings = {"load_s": t_load - t0, "reconstruct_s": t_done - t_load, "total_s": t_done - t0}
        _report_failure(args.report, exc, {"config": asdict(cfg), "timings": timings})
    t_done = time.perf_counter()
    with _replacing() as stage:  # --out and --report both, or neither
        stage(args.out, dumps(report.state))
        t_written = time.perf_counter()
        payload = {
            **_outcome_fields(report),
            "genericity_flags": report.genericity_flags,
            "config": asdict(cfg),
            "timings": {
                "load_s": t_load - t0,
                "reconstruct_s": t_done - t_load,
                "write_s": t_written - t_done,
                "total_s": t_written - t0,
            },
        }
        if truth is not None:
            payload["fidelity"] = fidelity(truth, report.state)
        if args.report is not None:
            stage(args.report, _report_text(payload))
    return 0


def _cmd_roundtrip(args) -> int:
    t0 = time.perf_counter()
    dims = Dims(*args.dims)
    cfg = _config_from(args)
    records = run_trials(dims, args.trials, args.seed_base, cfg)
    summary = batch_stats(records)
    elapsed = time.perf_counter() - t0
    _write_report(
        args.report,
        {
            "dims": list(dims.as_tuple()),
            "trials": args.trials,
            "seed_base": args.seed_base,
            "config": asdict(cfg),
            "summary": summary,
            "records": [asdict(r) for r in records],
            "timings": {"total_s": elapsed},
        },
    )
    ok = summary["success_rate"] == 1.0 and (
        summary["fidelity"] is not None
        and summary["fidelity"]["min"] >= ROUNDTRIP_MIN_FIDELITY
    )
    return 0 if ok else 3


def _cmd_tomo_demo(args) -> int:
    t0 = time.perf_counter()
    shape = tuple(args.grid)
    cfg = _config_from(args)
    spacings = default_spacings(shape)
    truth = build_profile(args.profile, shape, spacings)
    rho_xy = planar_density(truth, "XY")
    rho_yz = planar_density(truth, "YZ")
    base = {
        "profile": args.profile,
        "grid": list(shape),
        "spacings": list(spacings),
        "config": asdict(cfg),
    }
    try:
        recovered = reconstruct_grid(rho_xy, rho_yz, shape, spacings, cfg)
    except AlgorithmError as exc:
        timings = {"total_s": time.perf_counter() - t0}
        _report_failure(args.report, exc, {**base, "timings": timings})
    fid = grid_fidelity(truth, recovered)
    elapsed = time.perf_counter() - t0
    _write_report(
        args.report,
        {**base, "outcome": "success", "fidelity": fid, "timings": {"total_s": elapsed}},
    )
    return 0


def _add_tolerance_flags(parser: argparse.ArgumentParser) -> None:
    for name in _TOLERANCE_FLAGS:
        parser.add_argument(f"--{name.replace('_', '-')}", dest=name, type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tripure",
        description="Reconstruct tripartite pure states from their AB and BC marginals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="sample a Haar-random pure state into a file")
    p.add_argument("--dims", type=_parse_triple, required=True, metavar="dA,dB,dC")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("marginals", help="write a reduced density matrix")
    p.add_argument("--in", dest="in", required=True, metavar="FILE")
    p.add_argument("--keep", required=True, choices=["AB", "BC", "A", "B", "C"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_marginals)

    p = sub.add_parser("reconstruct", help="recover the pure state from rho_AB and rho_BC")
    p.add_argument("--ab", required=True)
    p.add_argument("--bc", required=True)
    p.add_argument("--dims", type=_parse_triple, required=True, metavar="dA,dB,dC")
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None)
    p.add_argument("--truth", default=None, help="pure_state file to score fidelity against")
    _add_tolerance_flags(p)
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("roundtrip", help="batch Haar round-trip verification")
    p.add_argument("--dims", type=_parse_triple, required=True, metavar="dA,dB,dC")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed-base", dest="seed_base", type=int, default=0)
    p.add_argument("--report", default=None)
    _add_tolerance_flags(p)
    p.set_defaults(func=_cmd_roundtrip)

    p = sub.add_parser("tomo-demo", help="planar-projection demo on a named wavefunction")
    p.add_argument("--grid", type=_parse_triple, required=True, metavar="nx,ny,nz")
    p.add_argument("--profile", required=True, choices=list(PROFILES))
    p.add_argument("--report", default=None)
    _add_tolerance_flags(p)
    p.set_defaults(func=_cmd_tomo_demo)

    return parser


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _attach_tolerance_values(argv: list[str]) -> list[str]:
    """``--flag value`` as ``--flag=value`` for a tolerance flag and a negative number.

    argparse takes a value such as ``-1e-8`` for an option, not a number, so
    the ``--flag value`` form would fail before the value reaches the
    contract check that ``--flag=-1e-8`` gets.  An abbreviated flag is joined
    too and left for argparse to resolve; a following option is left alone,
    so a missing value keeps argparse's message.
    """
    flags = [f"--{name.replace('_', '-')}" for name in _TOLERANCE_FLAGS]
    out: list[str] = []
    for token in argv:
        prev = out[-1] if out else ""
        abbreviates = len(prev) > 2 and "=" not in prev and any(f.startswith(prev) for f in flags)
        if abbreviates and token.startswith("-") and _is_number(token):
            out[-1] = f"{prev}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = _attach_tolerance_values(sys.argv[1:] if argv is None else list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (ContractError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    except AlgorithmError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())
