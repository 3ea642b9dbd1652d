"""Command-line pipeline: gen, stats, train, apply, eval, centroids, project.

Every subcommand writes its primary output to ``--out`` and drops a JSON
run manifest next to it (``<out>.manifest.json``) with the resolved flags,
inputs, outputs, and toolkit version, so any artifact can be reproduced
from its manifest alone.  Input files are never modified.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
from pathlib import Path

from . import __version__
from .embeddings import EmbeddingSet, check_lr_rates, load_set, rate_tag, save_set
from .errors import VpfaError
from .retrieval import (
    apply_panning,
    centroid_distances,
    compare_centroids,
    evaluate,
    project_2d,
)
from .stats import analyze_set, check_analysis
from .synthgen import SynthConfig, generate
from .trainer import TrainConfig, train, training_pairs
from .vpnet import NetConfig, check_init, load_params, parameter_count, save_params

STATS_TABLES = ("split_cosine", "cca", "pearson")  # the --csv-prefix tables, in write order
# numpy holds an array's size in bytes in a C ssize_t, so gen's matrix has at most this many values
GEN_MAX_VALUES = sys.maxsize // 8

try:  # glibc's; other C libraries leave freed memory to their allocator
    _MALLOC_TRIM = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):
    _MALLOC_TRIM = None
# A dropped set below this size keeps at most this much resident; releasing the
# free heap for it would cost the next large heap array its page faults (5 ms of
# the desk set's 60 ms eval, whose 32 MB score matrix is served from the heap).
RELEASE_MIN_BYTES = 4 << 20


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        inputs, outputs = _files(args)
        _check_outputs(inputs, outputs)
        args.handler(args, outputs)
        _write_manifest(args, inputs, outputs)
    except (VpfaError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    return 0


def _files(args: argparse.Namespace) -> tuple[list[str], list[str]]:
    """The files a command reads and writes (manifest aside); nothing else names them.

    Outputs are ordered ``--out``, train's ``--log``, the ``--csv-prefix`` tables, ``--csv``.
    """
    data = getattr(args, "data", None)
    inputs = [*(data if isinstance(data, list) else [data]), getattr(args, "params", None)]
    outputs = [args.out]
    if args.command == "train":
        outputs.append(args.log or f"{args.out}.log.csv")
    if getattr(args, "csv_prefix", None):
        outputs += [f"{args.csv_prefix}.{table}.csv" for table in STATS_TABLES]
    outputs.append(getattr(args, "csv", None))
    return [p for p in inputs if p], [p for p in outputs if p]


def _check_outputs(inputs: list[str], outputs: list[str]) -> None:
    """Refuse, before anything is written, an output (the manifest included) that is an
    input, another output or a directory, or whose directory does not exist."""
    # realpath, not Path.resolve: a symlink loop must end in a clean write error
    sources = {Path(os.path.realpath(p)): p for p in inputs}
    seen: dict[Path, str] = {}
    for out in [*outputs, _manifest_path(outputs[0])]:
        path = Path(os.path.realpath(out))
        if path in sources:
            raise VpfaError(f"output {out} would overwrite input {sources[path]}")
        if path in seen:
            raise VpfaError(f"outputs {seen[path]} and {out} name the same file")
        if path.is_dir():
            raise VpfaError(f"output {out} is a directory")
        if not path.parent.is_dir():
            raise VpfaError(f"output {out}: no directory {path.parent}")
        seen[path] = out


def _parse_rates(text: str) -> list[int]:
    try:
        rates = [int(r) for r in text.split(",") if r.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad rate list {text!r}, expected e.g. 2,3,4")
    if not rates:
        raise argparse.ArgumentTypeError("empty rate list")
    return rates


def _parse_alpha(text: str) -> tuple[int, float]:
    try:
        rate, value = text.split("=", 1)
        return int(rate), float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad shift magnitude {text!r}, expected R=V")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vpfa",
        description="Feature-space alignment toolkit for cross-resolution embeddings",
    )
    parser.add_argument("--version", action="version", version=f"vpfa {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "bin"), default="bin")
    common.add_argument("--out", required=True,
                        help="primary output; its manifest is <out>.manifest.json")
    one_set = argparse.ArgumentParser(add_help=False, parents=[common])
    one_set.add_argument("--data", required=True)

    gen = sub.add_parser("gen", parents=[common], help="generate a synthetic cross-resolution set")
    gen.add_argument("--dim", type=int, default=64)
    gen.add_argument("--ids", type=int, default=200, help="number of identities")
    gen.add_argument("--per-res", type=int, default=10, help="samples per identity per resolution")
    gen.add_argument("--rates", type=_parse_rates, default=None, help="LR rates, e.g. 2,3,4")
    gen.add_argument(
        "--alpha", type=_parse_alpha, action="append", default=None, metavar="R=V",
        help="shift magnitude for rate R (repeatable; default: V equals R)",
    )
    gen.add_argument("--sigma-proto", type=float, default=0.08, help="identity prototype spread")
    gen.add_argument("--sigma-id", type=float, default=0.02, help="within-identity sample noise")
    gen.add_argument("--sigma-res", type=float, default=0.01, help="shift noise")
    gen.add_argument("--cameras", type=int, default=2)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument(
        "--direction-seed", type=int, default=None,
        help="seed the planted direction separately (to share it across sets)",
    )
    gen.set_defaults(handler=_cmd_gen)

    stats = sub.add_parser("stats", parents=[one_set],
                           help="resolution-direction statistics of a set")
    stats.add_argument("--rates", type=_parse_rates, default=None)
    stats.add_argument("--cca-eps", type=float, default=1e-6)
    stats.add_argument("--cca-rows", choices=("per_sample", "identity_mean"), default="per_sample")
    stats.add_argument("--pearson-ids", type=int, default=50)
    stats.add_argument("--group-size", type=int, default=2)
    stats.add_argument("--seed", type=int, default=0)
    stats.add_argument("--csv-prefix", default=None, help="also write one CSV per table")
    stats.set_defaults(handler=_cmd_stats)

    tr = sub.add_parser("train", parents=[one_set], help="train the panning network on a set")
    tr.add_argument("--log", default=None, help="loss log CSV (default: <out>.log.csv)")
    tr.add_argument("--hidden", type=int, default=2048)
    tr.add_argument("--epochs", type=int, default=120)
    tr.add_argument("--lr", type=float, default=2e-4)
    tr.add_argument("--wd", type=float, default=1e-5)
    tr.add_argument("--batch", type=int, default=32)
    tr.add_argument("--pairs", type=int, default=5000)
    tr.add_argument("--bootstrap-frac", type=float, default=0.5)
    tr.add_argument("--init-std", type=float, default=1e-3)
    tr.add_argument("--init-seed", type=int, default=0)
    tr.add_argument("--train-seed", type=int, default=0)
    tr.add_argument("--rates", type=_parse_rates, default=None,
                    help="restrict pairing to these LR rates (default: all)")
    tr.set_defaults(handler=_cmd_train)

    ap = sub.add_parser("apply", parents=[one_set],
                        help="pan a set's features through trained parameters")
    ap.add_argument("--params", required=True)
    ap.add_argument("--target", choices=("lr", "all"), default="lr")
    ap.set_defaults(handler=_cmd_apply)

    ev = sub.add_parser("eval", parents=[one_set],
                        help="rank LR queries against the HR gallery of a set")
    ev.add_argument("--metric", choices=("cosine", "euclidean"), default="cosine")
    ev.add_argument("--no-camera-filter", action="store_true")
    ev.add_argument("--csv", default=None, help="also write per-query AP table")
    ev.set_defaults(handler=_cmd_eval)

    ce = sub.add_parser("centroids", parents=[one_set],
                        help="HR-LR centroid distances, optionally before/after panning")
    ce.add_argument("--params", default=None, help="compare distances before vs after panning")
    ce.add_argument("--csv", default=None, help="also write per-identity table")
    ce.set_defaults(handler=_cmd_centroids)

    pr = sub.add_parser("project", parents=[common],
                        help="2-d principal-component coordinates as CSV")
    pr.add_argument("--data", action="append", required=True, help="input set (repeatable)")
    pr.add_argument("--ids", type=int, default=None, help="restrict to first N sorted identities")
    pr.set_defaults(handler=_cmd_project)

    return parser


def _manifest_path(primary_output: str) -> str:
    return f"{primary_output}.manifest.json"


def _write_manifest(args: argparse.Namespace, inputs: list[str], outputs: list[str]) -> None:
    flags = {
        k: v for k, v in vars(args).items() if k != "handler" and not callable(v)
    }
    manifest = {
        "command": args.command,
        "toolkit_version": __version__,
        "flags": flags,
        "inputs": sorted(inputs),
        "outputs": outputs,
    }
    text = json.dumps(manifest, indent=2, sort_keys=True, default=str)
    _write_lines(_manifest_path(outputs[0]), [text])


def _write_lines(path: str, lines) -> None:
    with open(path, "w") as fh:
        fh.writelines(f"{line}\n" for line in lines)


def _load_queries(path: str, fmt: str) -> tuple[EmbeddingSet, EmbeddingSet]:
    """The LR queries and the HR gallery of the set at ``path``, as copies; the
    loaded set is dropped, and its memory handed back from ``RELEASE_MIN_BYTES``
    up, before they return."""
    eset = load_set(path, fmt)
    query = eset.partition(eset.rate_array != 0)
    gallery = eset.partition(eset.rate_array == 0)
    dropped = eset.matrix.nbytes
    del eset
    if dropped >= RELEASE_MIN_BYTES:
        _release_free_memory()
    return query, gallery


def _release_free_memory() -> None:
    """Return the allocator's free pages to the system (glibc's ``malloc_trim``).

    glibc serves an array under its mmap threshold (up to 32 MB) from the heap
    and gives a freed one back only from the heap's top, so without this a
    dropped set still counts toward the peak or not depending on what earlier
    work left above it.
    """
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


def _cmd_gen(args: argparse.Namespace, outputs: list[str]) -> None:
    alpha = dict(args.alpha or [])
    rates = args.rates or (sorted(alpha) if alpha else [2])
    for rate in rates:
        alpha.setdefault(rate, float(rate))
    cfg = SynthConfig(
        dim=args.dim,
        num_identities=args.ids,
        samples_per_res=args.per_res,
        id_spread=args.sigma_proto,
        sample_noise=args.sigma_id,
        shift_noise=args.sigma_res,
        shift_magnitude=alpha,
        cameras=args.cameras,
        rates=tuple(rates),
        seed=args.seed,
        direction_seed=args.direction_seed,
    )
    values = args.ids * args.per_res * (1 + len(rates)) * args.dim
    if values > GEN_MAX_VALUES:
        raise ValueError(
            f"--ids {args.ids} x --per-res {args.per_res} x {1 + len(rates)} resolutions x "
            f"--dim {args.dim} is {values} values, over the limit of {GEN_MAX_VALUES} "
            "float64 values in one array")
    eset = generate(cfg)
    save_set(eset, args.out, args.format)
    print(f"wrote {len(eset)} records (dim {eset.dim}) to {args.out}")


def _cmd_stats(args: argparse.Namespace, outputs: list[str]) -> None:
    # Every flag is checked before the set is read.
    if args.rates is not None:
        check_lr_rates(args.rates)
    check_analysis(args.cca_eps, args.pearson_ids, args.group_size, args.seed)
    eset = load_set(args.data, args.format)
    report = analyze_set(
        eset,
        rates=args.rates,
        cca_eps=args.cca_eps,
        cca_rows=args.cca_rows,
        num_identities=args.pearson_ids,
        group_size=args.group_size,
        seed=args.seed,
    )
    lines = [
        f"source: {args.data}",
        f"records: {len(eset)}",
        f"dim: {eset.dim}",
        f"identities: {len(eset.identities())}",
        f"cca_eps: {args.cca_eps:g}",
        f"cca_rows: {args.cca_rows}",
    ]
    tables = (["rate,cosine,half1,half2"], ["rate,kind,r1,r2,r3"],
              ["rate,mean_r,std_r,proportion_above,groups"])  # in STATS_TABLES order
    for rate in sorted(report.split_cosine):
        sc = report.split_cosine[rate]
        cca = report.cca[rate]
        pe = report.pearson[rate]
        lines += [
            f"rate{rate}.split_cosine: {sc.cosine:.6f}",
            f"rate{rate}.split_half_sizes: {sc.half_sizes[0]}/{sc.half_sizes[1]}",
            f"rate{rate}.cca_cross: " + ",".join(f"{c:.6f}" for c in cca.cross_res),
            f"rate{rate}.cca_random: " + ",".join(f"{c:.6f}" for c in cca.random_baseline),
            f"rate{rate}.cca_pairs: {cca.rows}",
            f"rate{rate}.cca_components: {cca.components}",
            f"rate{rate}.pearson_mean_r: {pe.mean_r:.6f}",
            f"rate{rate}.pearson_std_r: {pe.std_r:.6f}",
            f"rate{rate}.pearson_prop_above: {pe.proportion_above:.6f}",
            f"rate{rate}.pearson_groups: {pe.group_count}",
        ]
        tables[0].append(f"{rate},{sc.cosine:.17g},{sc.half_sizes[0]},{sc.half_sizes[1]}")
        tables[1].append(f"{rate},cross," + ",".join(f"{c:.17g}" for c in cca.cross_res))
        tables[1].append(f"{rate},random," + ",".join(f"{c:.17g}" for c in cca.random_baseline))
        tables[2].append(f"{rate},{pe.mean_r:.17g},{pe.std_r:.17g},"
                         f"{pe.proportion_above:.17g},{pe.group_count}")
    _write_lines(args.out, lines)
    for path, table in zip(outputs[1:], tables):
        _write_lines(path, table)
    print("\n".join(lines))


def _cmd_train(args: argparse.Namespace, outputs: list[str]) -> None:
    # Every flag is checked before the set is read.
    cfg = TrainConfig(
        epochs=args.epochs,
        learning_rate=args.lr,
        weight_decay=args.wd,
        batch_size=args.batch,
        num_pairs=args.pairs,
        seed=args.train_seed,
        bootstrap_fraction=args.bootstrap_frac,
    )
    check_init(args.hidden, args.init_std, args.init_seed)
    if args.rates is not None:
        check_lr_rates(args.rates)
    eset = load_set(args.data, args.format)
    net_cfg = NetConfig(
        dim=eset.dim, hidden=args.hidden, init_std=args.init_std, seed=args.init_seed
    )
    z_lr, z_hr = training_pairs(eset, cfg, rates=args.rates)
    # The optimizer never reads the set: free it before train allocates the
    # parameters and two moments (3 x 193 MB at the paper's shape).
    del eset
    # tanh moves each coordinate by less than 1, so a larger mean shift cannot be aligned
    shift = float(abs(z_hr.mean(axis=0) - z_lr.mean(axis=0)).max())
    if shift >= 1.0:
        print(f"warning: the mean HR - LR shift of the training pairs reaches {shift:.6g} in "
              "one coordinate; the tanh gate corrects each coordinate by less than 1, so "
              "the network cannot align it", file=sys.stderr)
    params, log = train(z_lr, z_hr, net_cfg, cfg)
    save_params(params, args.out)
    _write_lines(outputs[1], ["epoch,mean_loss"] + [
        f"{epoch},{loss:.17g}" for epoch, loss in enumerate(log.epoch_loss, start=1)
    ])
    count = parameter_count(net_cfg.dim, net_cfg.hidden)
    print(f"trained {count} parameters (dim {net_cfg.dim}, hidden {net_cfg.hidden})")
    if log.epoch_loss:
        print(f"loss: first epoch {log.epoch_loss[0]:.6g}, last epoch {log.epoch_loss[-1]:.6g}")
    print(f"wall time: {log.wall_time:.2f}s; parameters written to {args.out}")


def _cmd_apply(args: argparse.Namespace, outputs: list[str]) -> None:
    eset = load_set(args.data, args.format)
    params = load_params(args.params)
    out_set = apply_panning(params, eset, target=args.target)
    save_set(out_set, args.out, args.format)
    print(f"panned {args.target} records of {args.data} -> {args.out}")


def _cmd_eval(args: argparse.Namespace, outputs: list[str]) -> None:
    query, gallery = _load_queries(args.data, args.format)
    report = evaluate(
        query,
        gallery,
        metric=args.metric,
        cross_camera_filter=not args.no_camera_filter,
    )
    lines = [
        f"source: {args.data}",
        f"metric: {report.metric}",
        f"camera_filter: {'off' if args.no_camera_filter else 'on'}",
        f"num_queries: {report.num_queries}",
        f"num_skipped: {report.num_skipped}",
    ]
    for k in sorted(report.rank_k):
        lines.append(f"rank{k}: {report.rank_k[k]:.6f}")
    lines.append(f"map: {report.mean_ap:.6f}")
    _write_lines(args.out, lines)
    for path in outputs[1:]:
        _write_lines(path, ["query_index,identity,ap"] + [
            f"{qi},{identity},{ap:.17g}" for qi, identity, ap in report.per_query_ap
        ])
    print("\n".join(lines))


def _cmd_centroids(args: argparse.Namespace, outputs: list[str]) -> None:
    query, gallery = _load_queries(args.data, args.format)
    lines = [f"source: {args.data}"]
    if args.params:
        report = compare_centroids(gallery, query, apply_panning(load_params(args.params), query))
        csv_rows = ["identity,distance_before,distance_after,reduction"]
        lines.append(f"identities: {len(report.per_identity)}")
        lines.append(f"mean_reduction: {report.mean_reduction:.6f}")
        for identity, row in sorted(report.per_identity.items()):
            lines.append(
                f"id{identity}: before {row.distance_before:.6f} "
                f"after {row.distance_after:.6f} reduction {row.reduction:.6f}"
            )
            csv_rows.append(
                f"{identity},{row.distance_before:.17g},"
                f"{row.distance_after:.17g},{row.reduction:.17g}"
            )
    else:
        distances = centroid_distances(gallery, query)
        csv_rows = ["identity,distance"]
        lines.append(f"identities: {len(distances)}")
        for identity, dist in sorted(distances.items()):
            lines.append(f"id{identity}: distance {dist:.6f}")
            csv_rows.append(f"{identity},{dist:.17g}")
    _write_lines(args.out, lines)
    for path in outputs[1:]:
        _write_lines(path, csv_rows)
    print("\n".join(lines[:8] + (["..."] if len(lines) > 8 else [])))


def _cmd_project(args: argparse.Namespace, outputs: list[str]) -> None:
    sets = [load_set(path, args.format) for path in args.data]
    rows = project_2d(sets, num_identities=args.ids)
    _write_lines(args.out, ["identity,resolution,x,y"] + [
        f"{identity},{rate_tag(rate)},{x:.17g},{y:.17g}" for identity, rate, x, y in rows
    ])
    print(f"wrote {len(rows)} projected points to {args.out}")


if __name__ == "__main__":
    main()
