"""Command-line driver: verification suites, dilation runs, transform
evaluation.  JSON in, JSON/CSV out.

Exit codes: 0 success, 2 configuration error, 3 positivity failure,
4 domain (membership) failure, 1 internal error or failed verification.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import os
import sys
import time

from . import serialize
from ._linalg import min_eig_hermitian
from .berezin import DivergenceError, PolyballPoint, berezin_transform, in_polyball
from .naimark import KernelNotPSDError, dilation_verify, naimark_dilate
from .pluriharm import fantappie_transform, herglotz_transform, poisson_transform
from .verify import RunConfig, verify_suite

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_NOT_PSD = 3
EXIT_DOMAIN = 4

log = logging.getLogger("polyball")


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(","))


_FLAGS = {
    "n": dict(type=_int_list, default=(2, 1),
              help="generators per factor, comma separated (default 2,1)"),
    "degrees": dict(type=_int_list, default=(3, 3),
                    help="per-factor truncation degrees (default 3,3)"),
    "max_len": dict(type=int, default=3, help="kernel word-length cap (default 3)"),
    "tol": dict(type=float, default=1e-8),
    "rank_tol": dict(type=float, default=1e-10),
    "seed": dict(type=int, default=0),
    "r_grid": dict(type=_float_list, default=(0.3, 0.6, 0.9)),
}

# the flags each subcommand reads, plus --output; also its report's config block
_COMMAND_FLAGS = {
    "verify": ("n", "degrees", "max_len", "tol", "rank_tol", "seed", "r_grid"),
    "dilate": ("tol", "rank_tol"),
    "transform": ("r_grid",),
}


def _add_flags(p: argparse.ArgumentParser, command: str) -> None:
    for name in _COMMAND_FLAGS[command]:
        p.add_argument("--" + name.replace("_", "-"), dest=name, **_FLAGS[name])
    p.add_argument("--output", type=str, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyball",
        description="Numerical operator theory on noncommutative regular polyballs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run the identity verification suite")
    _add_flags(pv, "verify")

    pd = sub.add_parser("dilate", help="dilate a PSD multi-Toeplitz kernel")
    pd.add_argument("kernel", help="kernel JSON file")
    _add_flags(pd, "dilate")

    pt = sub.add_parser("transform", help="evaluate a transform at a point")
    pt.add_argument("inputs", help="inputs JSON file")
    pt.add_argument("--kind", choices=("berezin", "poisson", "herglotz", "fantappie"),
                    required=True)
    _add_flags(pt, "transform")
    return parser


def _config_from_args(args) -> RunConfig:
    """RunConfig of the subcommand's flags, defaults for the rest; validated."""
    given = vars(args)
    cfg = RunConfig(**{f.name: given[f.name] for f in dataclasses.fields(RunConfig)
                       if f.name in given})
    cfg.validate()
    return cfg


def _config_json(cfg: RunConfig, command: str) -> dict:
    values = {name: getattr(cfg, name) for name in _COMMAND_FLAGS[command]}
    return {k: list(v) if isinstance(v, tuple) else v for k, v in values.items()}


def _emit(report: dict, output: str | None) -> None:
    if output:
        serialize.dump(report, output)
        log.info("wrote %s", output)
    else:
        json.dump(report, sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")


def cmd_verify(args) -> int:
    cfg = _config_from_args(args)
    results = verify_suite(cfg)
    report = {
        "config": _config_json(cfg, "verify"),
        "identities": [r.to_json() for r in results],
        "all_pass": all(r.passed for r in results),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: "
              f"max_error={r.max_error:.3e} tolerance={r.tolerance:.3e}")
    _emit(report, cfg.output)
    return EXIT_OK if report["all_pass"] else EXIT_INTERNAL


def cmd_dilate(args) -> int:
    cfg = _config_from_args(args)
    kernel = serialize.kernel_from_json(serialize.load(args.kernel))
    try:
        dil = naimark_dilate(kernel, rank_tol=cfg.rank_tol)
    except KernelNotPSDError as ex:
        print(str(ex), file=sys.stderr)
        return EXIT_NOT_PSD
    rep = dilation_verify(dil, kernel, rank_tol=cfg.rank_tol)
    report = {
        "config": _config_json(cfg, "dilate"),
        "kernel": {"side": kernel.side, "n": list(kernel.n),
                   "e_dim": kernel.e_dim, "max_len": kernel.max_len,
                   "gram_min_eig": min_eig_hermitian(kernel.gram())},
        "space_dim": dil.space_dim,
        "window_len": dil.window_len,
        "embedding": serialize.matrix_to_json(dil.embedding),
        "isometries": [
            [serialize.matrix_to_json(m) for m in row] for row in dil.isometries
        ],
        "defects": {
            "reproduction_error": rep.reproduction_error,
            "isometry_defect": rep.isometry_defect,
            "commutator_defect": rep.commutator_defect,
            "embedding_defect": rep.embedding_defect,
            "minimal": rep.minimal,
            "dimension_gap": rep.dimension_gap,
        },
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    print(f"dilated to dimension {dil.space_dim}; "
          f"max defect {rep.max_defect:.3e}; minimal={rep.minimal}")
    _emit(report, cfg.output)
    if not rep.max_defect <= cfg.tol or not rep.minimal:
        print(f"dilation failed verification: max defect {rep.max_defect:.3e} "
              f"(tolerance {cfg.tol:.3e}), minimal={rep.minimal}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


def _transform_value(kind: str, data: dict, X: PolyballPoint):
    if kind == "berezin":
        g = serialize.operator_from_json(data["g"])
        return berezin_transform(g, X), 0.0
    mu = serialize.cbmap_from_json(data["mu"])
    fn = {"poisson": poisson_transform, "herglotz": herglotz_transform,
          "fantappie": fantappie_transform}[kind]
    res = fn(mu, X)
    return res.value, res.tail_bound


def cmd_transform(args) -> int:
    cfg = _config_from_args(args)
    data = serialize.load(args.inputs)
    X = serialize.point_from_json(data["X"])
    membership = in_polyball(X)
    if not membership.member:
        print(f"point is not in the open polyball: row norms "
              f"{[f'{r:.4f}' for r in membership.row_norms]}, "
              f"defect min eigenvalue {membership.defect_min_eig:.6e}",
              file=sys.stderr)
        return EXIT_DOMAIN
    value, tail = _transform_value(args.kind, data, X)
    report = {
        "config": _config_json(cfg, "transform"),
        "kind": args.kind,
        "membership": {
            "row_norms": membership.row_norms,
            "defect_min_eig": membership.defect_min_eig,
        },
        "value": serialize.matrix_to_json(value),
        "value_dim": value.shape[0],
        "tail_bound": tail,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    print(f"{args.kind} transform: dim {value.shape[0]}, tail bound {tail:.3e}")
    _emit(report, cfg.output)
    if X.h_dim == 1 and cfg.output:
        base, _ = os.path.splitext(cfg.output)
        csv_path = base + ".csv"
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["r", "value_re", "value_im", "tail_bound"])
            for r in cfg.r_grid:
                v, t = _transform_value(args.kind, data, X.scaled(r))
                writer.writerow([r, float(v[0, 0].real), float(v[0, 0].imag), t])
        log.info("wrote %s", csv_path)
    return EXIT_OK


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("POLYBALL_LOG", "WARNING").upper(),
        format="%(name)s %(levelname)s %(message)s",
    )
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        return EXIT_CONFIG if ex.code not in (0, None) else 0
    try:
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "dilate":
            return cmd_dilate(args)
        if args.command == "transform":
            return cmd_transform(args)
        return EXIT_CONFIG
    except (ValueError, KeyError, OSError, DivergenceError) as ex:
        if isinstance(ex, KernelNotPSDError):
            print(str(ex), file=sys.stderr)
            return EXIT_NOT_PSD
        print(f"configuration error: {ex}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as ex:  # pragma: no cover - defensive
        print(f"internal error: {ex}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
