"""Command-line front end.

Exit codes: 0 success (valid / feasible), 2 infeasible, 3 undetermined,
64 usage error, 70 numerical failure (diagnostic JSON on stderr).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import distances, formats, separation, unitary
from .channels import MemoryChannel, validate_comb
from .discrimination import causal_discriminable, parallel_discriminable
from .matcore import LabeledOperator
from .sampling import haar_unitary, rng_from
from .testers import Tester, validate_tester

EX_USAGE = 64
EX_NUMERICAL = 70


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EX_USAGE)


def _restart_count(text: str) -> int:
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, indent=1, default=_jsonable)
    print()


def _jsonable(x):
    """The ``json.dump`` hook: numpy scalars and arrays as Python values, and a
    report dataclass as its fields in declaration order, less those marked
    ``field(metadata={"json": False})``; nested reports print the same way."""
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return {f.name: getattr(x, f.name) for f in dataclasses.fields(x)
                if f.metadata.get("json", True)}
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, np.ndarray):
        return x.tolist()
    raise TypeError(f"not JSON serializable: {type(x)!r}")


def _load(path, parser, expect=None):
    try:
        obj = formats.load(path)
    except (OSError, formats.FormatError) as exc:
        parser.error(str(exc))
    if expect is not None and not isinstance(obj, expect):
        names = getattr(expect, "__name__", str(expect))
        parser.error(f"{path}: expected a {names} file")
    return obj


def _as_comb(obj, path, parser) -> MemoryChannel:
    if isinstance(obj, MemoryChannel):
        return obj
    if isinstance(obj, LabeledOperator) and len(obj.labels) == 2:
        return MemoryChannel(obj.sorted(), 1)
    parser.error(f"{path}: expected a comb or single-use choi file")


def cmd_validate(args, parser) -> int:
    obj = _load(args.file, parser)
    if isinstance(obj, MemoryChannel):
        v = validate_comb(obj, args.tol)
    elif isinstance(obj, Tester):
        v = validate_tester(obj, args.tol)
    else:
        parser.error(f"{args.file}: validate expects a comb or tester file")
    _emit(v)
    return 0 if v.valid else 1


_STATUS_CODE = {"feasible": 0, "infeasible": 2, "undetermined": 3}


def cmd_discriminate(args, parser) -> int:
    a = _as_comb(_load(args.c0, parser), args.c0, parser)
    b = _as_comb(_load(args.c1, parser), args.c1, parser)
    if args.mode == "parallel":
        rep = parallel_discriminable(
            a.choi, b.choi, restarts=args.restarts, seed=args.seed
        )
    else:
        rep = causal_discriminable(a, b, restarts=args.restarts, seed=args.seed)
    _emit(rep)
    return _STATUS_CODE[rep.status]


def cmd_distance(args, parser) -> int:
    a = _as_comb(_load(args.c0, parser), args.c0, parser)
    b = _as_comb(_load(args.c1, parser), args.c1, parser)
    if args.kind == "cb":
        if a.uses != 1 or b.uses != 1:
            parser.error("cb distance is defined for single-use channels")
        est = distances.cb_distance(
            a.choi, b.choi, restarts=args.restarts, seed=args.seed
        )
    else:
        est = distances.memory_distance(
            a, b, restarts=args.restarts, seed=args.seed
        )
    _emit(est)
    return 0


def cmd_theta(args, parser) -> int:
    u = _load(args.file, parser, expect=np.ndarray)
    theta = unitary.angular_spread(u)
    _emit({"theta": theta, "discriminability": unitary.discriminability(u)})
    return 0


def cmd_theta_laws(args, parser) -> int:
    rng = rng_from(args.seed)
    worst_conj = worst_sub = worst_add_strict = 0.0
    wrap_cases = 0
    guarded = 0
    strict = 0
    for _ in range(args.samples):
        x = haar_unitary(args.dim, rng)
        y = haar_unitary(args.dim, rng)
        rep = unitary.check_spread_laws(x, y, seed=int(rng.integers(2**31)))
        worst_conj = max(worst_conj, rep.conjugation_gap)
        if rep.guard:
            guarded += 1
            worst_sub = max(worst_sub, -rep.subadditivity_slack)
            if rep.additive_guard:
                strict += 1
                worst_add_strict = max(worst_add_strict, rep.tensor_gap)
            else:
                wrap_cases += 1
    _emit({
        "samples": args.samples,
        "dim": args.dim,
        "guard_satisfied": guarded,
        "additive_guard_satisfied": strict,
        "wrap_regime_cases": wrap_cases,
        "max_conjugation_gap": worst_conj,
        "max_subadditivity_violation": worst_sub,
        "max_tensor_gap_under_additive_guard": worst_add_strict,
    })
    return 0


def cmd_paper_example(args, parser) -> int:
    d = args.d
    inst = separation.build_example(d)
    if args.psi:
        psi = np.asarray(_load(args.psi, parser, expect=np.ndarray)).reshape(-1)
    else:
        psi = np.zeros(d, dtype=complex)
        psi[0] = 1.0
    imp = separation.verify_parallel_impossible(
        inst, seed=args.seed, solver_restarts=args.restarts
    )
    tester, table = separation.causal_protocol(inst, psi)
    tv = validate_tester(tester, 1e-9)
    delta_err = float(np.abs(table - np.eye(2)).max())
    report = {
        "d": d,
        "combs": separation.comb_validation_summary(inst),
        "parallel_impossibility": imp,
        "protocol": {
            "delta_matrix": table.tolist(),
            "max_delta_error": delta_err,
            "tester_valid": tv.valid,
            "tester_max_residual": tv.max_residual,
        },
    }
    _emit(report)
    return 0


def build_parser() -> _Parser:
    p = _Parser(prog="combtester",
                description="memory-channel combs, testers, discrimination and distances")
    # each subcommand takes only the shared options it reads, as its own
    # argument, so that paper-example's restart default stays its own
    seed = dict(type=int, default=0)
    restarts = dict(type=_restart_count, default=20)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="check a comb or tester file")
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.add_argument("file")
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("discriminate", help="decide perfect discriminability")
    sp.add_argument("--seed", **seed)
    sp.add_argument("--restarts", **restarts)
    sp.add_argument("--mode", choices=("parallel", "causal"), required=True)
    sp.add_argument("c0")
    sp.add_argument("c1")
    sp.set_defaults(func=cmd_discriminate)

    sp = sub.add_parser("distance", help="estimate a channel distance")
    sp.add_argument("--seed", **seed)
    sp.add_argument("--restarts", **restarts)
    sp.add_argument("--kind", choices=("cb", "memory"), required=True)
    sp.add_argument("c0")
    sp.add_argument("c1")
    sp.set_defaults(func=cmd_distance)

    sp = sub.add_parser("theta", help="angular spread of a unitary")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_theta)

    sp = sub.add_parser("theta-laws", help="randomized spread-law property suite")
    sp.add_argument("--seed", **seed)
    sp.add_argument("--samples", type=int, default=200)
    sp.add_argument("--dim", type=int, default=2)
    sp.set_defaults(func=cmd_theta_laws)

    sp = sub.add_parser("paper-example",
                        help="build and verify the adaptive-vs-parallel counterexample")
    sp.add_argument("--seed", **seed)
    sp.add_argument("--restarts", **restarts)
    sp.add_argument("--d", type=int, default=2)
    sp.add_argument("--psi", default=None,
                    help="matrix file with the protocol input state (default |0>)")
    # the parallel objective is convex, so a few confirmation restarts suffice
    # and keep the d=4 run well inside its time budget
    sp.set_defaults(func=cmd_paper_example, restarts=3)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except SystemExit:
        raise
    except (np.linalg.LinAlgError, ValueError, RuntimeError) as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        print(file=sys.stderr)
        return EX_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
