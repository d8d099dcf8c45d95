"""Command-line front end.

One subcommand per analysis, one report per run. Reports embed the
resolved configuration, seed, package version, and wall-clock duration;
everything except the duration is byte-stable for a fixed configuration
on one numpy/BLAS build, at any BLAS thread count (sorted keys, floats at
12 significant digits; the sums are fixed-order sums of sub-dots that
OpenBLAS does not thread).

Exit codes: 0 success, 2 input or configuration error, 3 internal
invariant violation. An identity failure is a bug, never a warning.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import sys
import time
from collections.abc import Mapping, Sequence

import numpy as np

from . import __version__
from .analysis import (
    aqn_total_noise,
    cumulative_scale_bias,
    effective_temperature_fit,
    gamma_stats,
    gemm_error_propagation,
)
from .corrections import AqnSchedule, Correction, MbsConfig, OfConfig, aqn_pieces
from .decompose import (
    InvariantViolation,
    _check_identity,
    _check_norms,
    _check_split,
    _naming,
    decompose_quantizers,
    scale_precision_sweep,
    tensor_stats,
)
from .quantize import BlockQuantConfig, _Workspace
from .tensorstore import (
    ContainerReader,
    ContainerWriter,
    SynthSpec,
    TensorStoreError,
    atomic_write_bytes,
    synth_tensors,
)


# --- deterministic serialization --------------------------------------------------


class ReportError(ValueError):
    """A result that a JSON or CSV report cannot carry (nan, inf)."""


# the report's scalar types; a bool is an int, and a numpy float64 a float
_SCALARS = (float, np.floating, int, np.integer, np.bool_, type(None))


def _scalar_text(v) -> str:
    # floats first, the most of any report; math.isfinite, not np.isfinite,
    # which costs a ufunc call on a Python float
    if isinstance(v, (float, np.floating)):
        if not math.isfinite(v):
            raise ReportError(f"non-finite report value: {float(v)!r}")
        return "%.12g" % float(v)
    if v is None:
        return "null"
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    raise TypeError(f"not a scalar: {type(v)!r}")


def _json_text(obj, indent: int = 0) -> str:
    # scalars before the Mapping and Sequence ABC checks, which are slow
    if isinstance(obj, _SCALARS):
        return _scalar_text(obj)
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, Mapping):
        if not obj:
            return "{}"
        items = [f'{inner}"{k}": {_json_text(obj[k], indent + 1)}'
                 for k in sorted(obj, key=str)]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, Sequence):
        if not obj:
            return "[]"
        items = [f"{inner}{_json_text(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    return _scalar_text(obj)


def _flatten(obj, prefix: str, rows: list) -> None:
    if isinstance(obj, Mapping):
        for k in sorted(obj, key=str):
            _flatten(obj[k], f"{prefix}.{k}" if prefix else str(k), rows)
    elif isinstance(obj, np.ndarray):
        _flatten(obj.tolist(), prefix, rows)
    elif isinstance(obj, Sequence) and not isinstance(obj, str):
        for i, v in enumerate(obj):
            _flatten(v, f"{prefix}[{i}]", rows)
    elif isinstance(obj, str):
        rows.append((prefix, obj))
    else:
        rows.append((prefix, _scalar_text(obj)))


def _csv_text(report: dict) -> str:
    rows: list = []
    _flatten(report, "", rows)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["key", "value"])
    writer.writerows(rows)
    return buf.getvalue()


# --- input plumbing ----------------------------------------------------------------


def _parse_synth(text: str, seed: int, count: int) -> SynthSpec:
    if ":" not in text:
        raise ValueError("synth spec must be distribution:shape, e.g. gaussian:64x64")
    dist, _, shape_text = text.partition(":")
    try:
        shape = tuple(int(p) for p in shape_text.lower().split("x"))
    except ValueError as exc:
        raise ValueError(f"bad synth shape: {shape_text!r}") from exc
    return SynthSpec(distribution=dist, shape=shape, seed=seed, count=count)


@contextlib.contextmanager
def _tensors(args):
    """The one way a command gets its input: name -> tensorstore.TensorSource,
    either the StoredTensors of the open --input container or the
    SynthTensors of --synth, each read only when the command asks. Every
    command reads its tensors piece by piece, so it holds one piece of
    either source; a synthetic tensor is drawn as it is read. gemm also
    holds one weight-sized array, its weight's total error
    (analysis.gemm_error_propagation)."""
    if args.input and args.synth:
        raise ValueError("--input and --synth are mutually exclusive")
    if args.input:
        with ContainerReader(args.input) as reader:
            yield reader.tensors
    elif args.synth:
        spec = _parse_synth(args.synth, args.seed, getattr(args, "count", 1))
        yield synth_tensors(spec)
    else:
        raise ValueError("need --input or --synth")


def _quant_config(args) -> BlockQuantConfig:
    return BlockQuantConfig(block_size=args.block_size,
                            scale_mantissa_bits=args.scale_mantissa_bits)


# --- subcommands -------------------------------------------------------------------


def cmd_decompose(args) -> dict:
    with _tensors(args) as tensors:
        report = tensor_stats(tensors, _quant_config(args))
    return report.to_json_dict()


def cmd_sweep(args) -> dict:
    m_list = list(range(args.max_mantissa_bits + 1))
    per_tensor = {}
    pooled_n2 = np.zeros((len(m_list), 4))  # total, scale, dz, grid
    pooled_cross = np.zeros(len(m_list))
    total_elems = 0
    with _tensors(args) as tensors:
        for name in sorted(tensors):
            series = scale_precision_sweep(tensors[name], m_list, args.block_size, name)
            size = tensors[name].size
            per_tensor[name] = series
            for i, row in enumerate(series):
                pooled_n2[i] += np.array([row["mse_total"], row["mse_scale"],
                                          row["mse_dz"], row["mse_grid"]]) * size
                pooled_cross[i] += row["cross"] * size
            total_elems += size
    pooled = []
    for i, m in enumerate(m_list):
        tot, sc, dz, gr = pooled_n2[i] / total_elems
        floor = dz + gr
        pooled.append({"M": m, "mse_total": tot, "mse_scale": sc, "mse_dz": dz,
                       "mse_grid": gr, "cross": pooled_cross[i] / total_elems,
                       "floor_mse": floor,
                       "total_over_floor": tot / floor if floor > 0 else 1.0})
    return {"per_tensor": per_tensor, "pooled": pooled}


def _corrected_splits(args, fix: Correction) -> list[tuple]:
    """(name, size, plain Q's split, fix's split) of each input tensor, in
    name order: both against the tensor's one Q*(x), in one pass over it,
    and checked as they are made (_check_split; OF writes into the
    deadzone, so its <e_scale, e_dz> need not be 0.0). fix's phases and the
    split's take one workspace in turn."""
    work = _Workspace()
    splits = []
    with _tensors(args) as tensors:
        for name in sorted(tensors):
            x = tensors[name]
            with _naming(name):
                before, after = decompose_quantizers(
                    x, fix.quant.block_size, [fix.quant, fix], work=work)
            _check_split(name, before)
            _check_split(name, after, keeps_deadzone=fix.of is None)
            splits.append((name, x.size, before, after))
    return splits


def cmd_mbs(args) -> dict:
    # an option error names no tensor: the correction checks itself
    fix = Correction(_quant_config(args), mbs=MbsConfig(macro_block_size=args.macro_block),
                     mbs_mode=args.mbs_mode)
    records = []
    for name, size, before, after in _corrected_splits(args, fix):
        floor = before.n2_dz + before.n2_grid
        records.append({
            "name": name,
            "mse_before": before.n2_total / size,
            "mse_after": after.n2_total / size,
            "n2_scale_before": before.n2_scale,
            "n2_scale_after": after.n2_scale,
            "scale_reduction": before.n2_scale / after.n2_scale
                               if after.n2_scale > 0 else 1.0,
            "floor_mse": floor / size,
            "total_over_floor": after.n2_total / floor if floor > 0 else 1.0,
            "cross_share_before": 2.0 * before.ip_scale_grid / before.n2_total
                                  if before.n2_total > 0 else 0.0,
            "cross_share_after": 2.0 * after.ip_scale_grid / after.n2_total
                                 if after.n2_total > 0 else 0.0,
        })
    return {"mbs_mode": args.mbs_mode, "macro_block": args.macro_block,
            "records": records}


def cmd_of(args) -> dict:
    quant, of = _quant_config(args), OfConfig(alpha=args.of_alpha)
    mbs = MbsConfig(macro_block_size=args.macro_block) if args.with_mbs else None
    fix = Correction(quant, mbs=mbs, of=of, mbs_mode=args.mbs_mode)
    records = []
    for name, size, before, after in _corrected_splits(args, fix):
        records.append({
            "name": name,
            "alpha": of.alpha,
            "mse_before": before.n2_total / size,
            "mse_after": after.n2_total / size,
            "n2_scale_before": before.n2_scale,
            "n2_scale_after": after.n2_scale,
            "scale_dz_share_after": 2.0 * after.ip_scale_dz / after.n2_total
                                    if after.n2_total > 0 else 0.0,
            "dz_rate_before": after.dz_fraction,
            "dz_rate_after": after.dz_zero_fraction,
            "dz_recovery_ratio": after.dz_zero_fraction / after.dz_fraction
                                 if after.dz_fraction > 0 else 0.0,
        })
    return {"with_mbs": args.with_mbs, "records": records}


def cmd_gamma(args) -> dict:
    with _tensors(args) as tensors:
        stats = gamma_stats(tensors, _quant_config(args))
    return stats.summary_dict()


def cmd_cltsum(args) -> dict:
    return cumulative_scale_bias(args.layers, "uniform", args.trials, args.seed,
                                 delta_mode=args.delta_mode,
                                 blocks_per_layer=args.blocks_per_layer)


def _sigma_list(text: str) -> list[float]:
    sigmas = []
    for entry in text.split(","):
        try:
            sigmas.append(float(entry))
        except ValueError:
            raise ValueError(f"--sigma-eta: {entry!r} is not a number") from None
    return sigmas


def cmd_temp(args) -> dict:
    if args.vocab < 2:
        raise ValueError("need at least 2 logits")
    rng = np.random.default_rng(args.seed)
    logits = rng.standard_normal(args.vocab)

    def fit(sigma):
        return effective_temperature_fit(logits, float(sigma), draws=args.draws,
                                         seed=args.seed)

    if args.sigma_eta:
        fits = [fit(s) for s in _sigma_list(args.sigma_eta)]
    else:
        # sweep the noise-to-signal ratio 2 sigma^2 / Var(dl); the sigma-0
        # point needs neither the quadrature nor the entropy Monte Carlo and
        # measures Var(dl) on the fit's pairs
        fits = [fit(0.0)]
        fits += [fit(np.sqrt(r * fits[0].var_delta_ell / 2.0)) for r in (0.25, 0.5, 1.0)]
    rows = [{
        "sigma_eta": f.sigma_eta,
        "t_predicted": f.t_predicted,
        "t_hat": f.t_hat,
        "t_hat_at_bound": f.t_hat_at_bound,
        "rel_gap": abs(f.t_hat - f.t_predicted) / f.t_predicted,
        "entropy_clean": f.entropy_clean,
        "entropy_noised": f.entropy_noised,
    } for f in fits]
    # every fit of one seed draws the same pairs, so one Var(dl) serves all
    return {"vocab": args.vocab, "draws": args.draws,
            "var_delta_ell": fits[0].var_delta_ell, "rows": rows}


def cmd_gemm(args) -> dict:
    mbs = MbsConfig(macro_block_size=args.macro_block) if args.with_mbs else None
    with _tensors(args) as tensors:
        name = next((n for n in sorted(tensors) if tensors[n].ndim == 2), None)
        if name is None:
            raise ValueError("need a 2-D weight tensor")
        # only the picked weight is read
        prop = gemm_error_propagation(tensors[name], _quant_config(args),
                                      cov=args.cov_var, samples=args.samples,
                                      seed=args.seed, mbs=mbs, mbs_mode=args.mbs_mode)
    _check_norms(f"GEMM traces of {name}", prop.var_scale, prop.var_dz, prop.var_grid,
                 prop.var_total)
    _check_identity(f"GEMM traces of {name}", prop.identity_residual)
    out = prop.summary_dict()
    out["weight"] = name
    return out


def cmd_aqn(args) -> dict:
    schedule = AqnSchedule(sigma_start=args.sigma_start, sigma_end=args.sigma_end,
                           num_stages=args.stages)
    if not 0 <= args.stage < args.stages:
        raise ValueError("stage out of range")
    sigmas = schedule.stage_sigmas()
    results = {
        "stage_sigmas": sigmas,
        "sigma_grid": args.sigma_grid,
        "total_noise": [aqn_total_noise(args.sigma_grid, schedule, k)
                        for k in range(args.stages)],
        "multipliers": dict(schedule.multipliers),
    }
    if args.noised_out:
        # each tensor is read twice, piece by piece (its rms, then its noise;
        # a synthetic one is drawn twice), and each noised piece is written
        # as soon as it is made
        with _tensors(args) as tensors:
            entries = [(name, "F64", tensors[name].shape) for name in tensors]
            with ContainerWriter(args.noised_out, entries) as out:
                for name in out.names:
                    out.write_pieces(name, aqn_pieces(
                        tensors[name], float(sigmas[args.stage]), args.seed,
                        multiplier=schedule.multiplier_for(name), name=name))
        results["noised_out"] = args.noised_out
        results["stage"] = args.stage
    return results


# --- parser ------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and kept for the
    process: its objects form reference cycles that only the cyclic GC
    frees, so a parser per call would leave garbage in in-process callers."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--out", default=None, help="report path (default: stdout)")

    io_p = argparse.ArgumentParser(add_help=False)
    io_p.add_argument("--input", default=None, help="tensor container path")
    io_p.add_argument("--synth", default=None,
                      help="synthetic source, distribution:shape (gaussian:64x64)")
    io_p.add_argument("--count", type=int, default=1,
                      help="number of synthetic tensors")

    quant_p = argparse.ArgumentParser(add_help=False)
    quant_p.add_argument("--block-size", type=int, default=32)
    quant_p.add_argument("--scale-mantissa-bits", type=int, default=0)

    mbs_p = argparse.ArgumentParser(add_help=False)
    mbs_p.add_argument("--macro-block", type=int, default=128)
    mbs_p.add_argument("--mbs-mode", choices=("exhaustive", "closed_form"),
                       default="exhaustive")

    parser = argparse.ArgumentParser(
        prog="mxblock",
        description="Block quantization error analysis toolkit.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", parents=[common, io_p, quant_p],
                       help="three-way error decomposition per tensor")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("sweep", parents=[common, io_p, quant_p],
                       help="error vs scale mantissa width")
    p.add_argument("--max-mantissa-bits", type=int, default=8)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("mbs", parents=[common, io_p, quant_p, mbs_p],
                       help="macro-block scaling before/after report")
    p.set_defaults(func=cmd_mbs)

    p = sub.add_parser("of", parents=[common, io_p, quant_p, mbs_p],
                       help="outlier fallback before/after report")
    p.add_argument("--of-alpha", type=float, default=0.5)
    p.add_argument("--with-mbs", action="store_true")
    p.set_defaults(func=cmd_of)

    p = sub.add_parser("gamma", parents=[common, io_p, quant_p],
                       help="scale overshoot distribution")
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("cltsum", parents=[common],
                       help="cumulative scale-bias simulation")
    p.add_argument("--layers", type=int, default=48)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--delta-mode", choices=("per_layer", "block_mean"),
                   default="per_layer")
    p.add_argument("--blocks-per-layer", type=int, default=1)
    p.set_defaults(func=cmd_cltsum)

    p = sub.add_parser("temp", parents=[common],
                       help="predicted vs fitted effective temperature")
    p.add_argument("--vocab", type=int, default=100)
    p.add_argument("--draws", type=int, default=100_000)
    p.add_argument("--sigma-eta", default=None,
                   help="comma-separated noise levels (default: ratio sweep)")
    p.set_defaults(func=cmd_temp)

    p = sub.add_parser("gemm", parents=[common, io_p, quant_p, mbs_p],
                       help="GEMM error propagation report")
    p.add_argument("--cov-var", type=float, default=1.0,
                   help="isotropic input variance")
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--with-mbs", action="store_true")
    p.set_defaults(func=cmd_gemm)

    p = sub.add_parser("aqn", parents=[common, io_p],
                       help="noise schedule listing, optional noised container")
    p.add_argument("--sigma-start", type=float, default=0.01)
    p.add_argument("--sigma-end", type=float, default=0.001)
    p.add_argument("--stages", type=int, default=10)
    p.add_argument("--sigma-grid", type=float, default=0.0)
    p.add_argument("--stage", type=int, default=0)
    p.add_argument("--noised-out", default=None)
    p.set_defaults(func=cmd_aqn)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        if args.seed < 0:               # numpy's own refusal names no option
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        results = args.func(args)
        config = {k: v for k, v in vars(args).items() if k not in ("func", "command")}
        report = {
            "command": args.command,
            "version": __version__,
            "config": config,
            "seed": args.seed,
            "duration_seconds": time.perf_counter() - started,
            "results": results,
        }
        text = _json_text(report) + "\n" if args.format == "json" else _csv_text(report)
        if args.out:
            atomic_write_bytes(args.out, text.encode("utf-8"))
        else:
            sys.stdout.write(text)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except (TensorStoreError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
