"""Command-line front end.

Subcommands:

    analyze      one network: analytical constant, optional certified
                 interval upper bounds and sampled lower bounds
    benchmark    a directory of fixture networks: one CSV row per network
    convergence  sampled lower bound as a function of the sample count

A package error exits with the code its class carries (errors.WdnError);
an output file that cannot be written exits 1.  The README lists the codes.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
import time
from pathlib import Path

from . import analytical, sampling
from .bounds import FlowBox, default_box, load_bounds
from .errors import BoundsError, InpError, UsageError, WdnError
from .inp import COMPONENTS, parse_inp
from .network import Network, build_network
from .report import AnalysisReport

BENCHMARK_ORDER = ("three_node", "eight_node", "anytown", "net2", "net3", "obcl")
METHODS = ("analytical", "osl", "interval", "point")


def _int_at_least(lo: int, what: str):
    """An argparse type: an integer >= lo, else a usage error naming what."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"{text!r} is not a {what} integer")
        return value
    return parse


_positive_int = _int_at_least(1, "positive")


def _names(text: str) -> list[str]:
    """Comma list of names, in order, blanks dropped."""
    return [tok.strip() for tok in text.split(",") if tok.strip()]


def _names_from(allowed: tuple[str, ...], what: str):
    """An argparse type: a comma list of names from allowed."""
    def parse(text: str) -> list[str]:
        unknown = [name for name in _names(text) if name not in allowed]
        if unknown:
            raise argparse.ArgumentTypeError(
                f"unknown {what} {unknown[0]!r} (choose from {','.join(allowed)})")
        return _names(text)
    return parse


def _sample_counts(text: str) -> tuple[int, ...]:
    """Comma list of positive integers, sorted with duplicates dropped."""
    counts = sorted({_positive_int(tok) for tok in _names(text)})
    if not counts:
        raise argparse.ArgumentTypeError("no sample counts given")
    return tuple(counts)


def _read_network(inp_path: Path) -> tuple[str, Network]:
    try:
        text = inp_path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise InpError(f"cannot read {inp_path}: {exc}") from None
    desc = parse_inp(text)
    return inp_path.stem, build_network(desc)


def _read_box(args, net: Network) -> tuple[FlowBox, str]:
    if args.default_bounds:
        return default_box(net), "default"
    if args.bounds is None:
        raise BoundsError("no bounds file given (use --bounds FILE or --default-bounds)")
    path = Path(args.bounds)
    return load_bounds(path, net), str(path)


def _timed(fn, *fn_args, **fn_kwargs):
    t0 = time.perf_counter()
    value = fn(*fn_args, **fn_kwargs)
    return value, time.perf_counter() - t0


def _emit(text: str, out: str | None) -> None:
    """Write text to the file out, or to stdout when out is not given."""
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _run_methods(net: Network, box: FlowBox, methods: set[str], modes: set[str],
                 samples: int, sampler: str, seed: int, report: AnalysisReport) -> None:
    est, sec = _timed(analytical.k_network, net, box)
    report.add("analytical", est, sec)
    if "osl" in methods:
        # the one-sided constant equals K, so it is the same estimate
        report.add("osl", est, sec)
    if "interval" in methods:
        if "max" in modes:
            est, sec = _timed(analytical.k_upper_max, net, box)
            report.add("interval_max", est, sec)
        if "sqrt" in modes:
            est, sec = _timed(analytical.k_upper_sqrt, net, box)
            report.add("interval_sqrt", est, sec)
    if "point" in methods:
        if "max" in modes:
            (est, _), sec = _timed(sampling.k_lower_trace, net, box, sampler, samples,
                                   mode="max", seed=seed)
            report.add("point_max", est, sec)
        if "sqrt" in modes:
            (est, _), sec = _timed(sampling.k_lower_trace, net, box, sampler, samples,
                                   mode="sqrt", seed=seed)
            report.add("point_sqrt", est, sec)


def cmd_analyze(args) -> int:
    name, net = _read_network(Path(args.inp))
    box, bounds_src = _read_box(args, net)
    modes = {"max", "sqrt"} if args.mode == "both" else {args.mode}
    if "point" in args.methods:
        sampling.check_sample_count(args.sampler, args.samples)

    config = {
        "samples": args.samples,
        "sampler": args.sampler,
        "seed": args.seed,
        "mode": args.mode,
        "bounds": bounds_src,
    }
    report = AnalysisReport.for_network(name, net, config)
    report.warnings = list(net.desc.warnings)
    _run_methods(net, box, set(args.methods), modes, args.samples, args.sampler, args.seed,
                 report)

    if args.out:
        Path(args.out).write_text(report.to_json() + "\n")
    if args.format == "json":
        print(report.to_json())
    elif args.format == "csv":
        row = report.to_csv_row()
        writer = csv.DictWriter(sys.stdout, fieldnames=list(row), lineterminator="\n")
        writer.writeheader()
        writer.writerow(row)
    else:
        sys.stdout.write(report.to_table())
    return 0


def _discover_fixtures(fixture_dir: Path, wanted: list[str] | None) -> list[tuple[str, Path, Path]]:
    found = {}
    for inp_path in sorted(fixture_dir.glob("*.inp")):
        bounds_path = inp_path.with_name(inp_path.stem + "_bounds.csv")
        found[inp_path.stem] = (inp_path, bounds_path)
    names = list(found)
    ordered = [n for n in BENCHMARK_ORDER if n in found]
    ordered += sorted(n for n in names if n not in BENCHMARK_ORDER)
    if wanted is not None:
        missing = [n for n in wanted if n not in found]
        if missing:
            raise UsageError(f"networks not found in {fixture_dir}: {missing}")
        ordered = [n for n in ordered if n in wanted]
    return [(n, found[n][0], found[n][1]) for n in ordered]


def cmd_benchmark(args) -> int:
    fixture_dir = Path(args.fixture_dir)
    if not fixture_dir.is_dir():
        raise UsageError(f"{fixture_dir} is not a directory")
    fixtures = _discover_fixtures(fixture_dir, args.networks or None)
    # every network would fail on it, so it is a usage error, not an error row
    sampling.check_sample_count(args.sampler, args.samples)

    estimate_cols = ("analytical", "point_max", "point_sqrt",
                     "interval_max", "interval_sqrt")
    fields = ["network", *COMPONENTS, *estimate_cols, "status"]
    rows = []
    for name, inp_path, bounds_path in fixtures:
        try:
            _, net = _read_network(inp_path)
            box = load_bounds(bounds_path, net)
            report = AnalysisReport.for_network(name, net, {})
            _run_methods(net, box, {"interval", "point"}, {"max", "sqrt"},
                         args.samples, args.sampler, args.seed, report)
            row = report.to_csv_row(estimate_cols)
            row["status"] = "ok"
        except WdnError as exc:
            row = {f: "" for f in fields}
            row["network"] = name
            row["status"] = f"error: {type(exc).__name__}: {exc}"
        rows.append(row)

    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    _emit(buffer.getvalue(), args.out)
    return 0


def cmd_convergence(args) -> int:
    _, net = _read_network(Path(args.inp))
    box, _ = _read_box(args, net)
    # build every sequence first, so one that cannot serve this network
    # (Sobol above its table's dimensions or its point count) fails before
    # any trace runs; the CSV is written only once every trace has run, so
    # one that fails leaves stdout empty and an existing --out file as it was
    for kind in args.samplers:
        sampling.SampleSequence(kind, net.n_links, args.seed)
        sampling.check_sample_count(kind, args.n_grid[-1])

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["n", "sampler", "mode", "estimate"])
    for kind in args.samplers:
        _, trace = sampling.k_lower_trace(
            net, box, kind, args.n_grid[-1], mode=args.mode, seed=args.seed,
            checkpoints=args.n_grid,
        )
        writer.writerows([n, kind, args.mode, repr(estimate)] for n, estimate in trace)
    _emit(buffer.getvalue(), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wdn-lipschitz",
        description="Lipschitz constants of water-network hydraulics: closed "
                    "form, certified interval upper bounds, sampled lower bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def bounds_options(p: argparse.ArgumentParser) -> None:
        group = p.add_mutually_exclusive_group()
        group.add_argument("--bounds", help="flow bounds CSV (link_id,q_min,q_max)")
        group.add_argument("--default-bounds", action="store_true",
                           help="derive bounds from pump maximum flows")

    def point_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--samples", type=_positive_int, default=100_000,
                       help="point method sample count (default %(default)s)")
        p.add_argument("--sampler", choices=sampling.SAMPLER_KINDS, default="sobol",
                       help="point method sampler (default %(default)s)")

    def seed_option(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=_int_at_least(0, "nonnegative"), default=0,
                       help="seed for the random sampler (default %(default)s)")

    # options must be spelled in full: otherwise convergence would read a
    # stray --sampler as an abbreviation of its --samplers
    p_analyze = sub.add_parser("analyze", help="analyze one network", allow_abbrev=False)
    p_analyze.add_argument("inp", help="EPANET-style INP file")
    bounds_options(p_analyze)
    point_options(p_analyze)
    seed_option(p_analyze)
    p_analyze.add_argument("--methods", type=_names_from(METHODS, "method"),
                           default="analytical",
                           help="comma list of analytical,osl,interval,point "
                                "(analytical always runs; default %(default)s)")
    p_analyze.add_argument("--mode", choices=["max", "sqrt", "both"], default="both",
                           help="objective mode for interval/point methods")
    p_analyze.add_argument("--format", choices=["table", "json", "csv"], default="table")
    p_analyze.add_argument("--out", help="also write the JSON report here")
    p_analyze.set_defaults(fn=cmd_analyze)

    p_bench = sub.add_parser("benchmark", help="run the fixture benchmark",
                             allow_abbrev=False)
    p_bench.add_argument("fixture_dir", help="directory of <name>.inp and <name>_bounds.csv")
    p_bench.add_argument("--networks", type=_names, help="comma list of fixture names to run")
    point_options(p_bench)
    seed_option(p_bench)
    p_bench.add_argument("--out", help="results CSV path (default: stdout)")
    p_bench.set_defaults(fn=cmd_benchmark)

    p_conv = sub.add_parser("convergence", help="sampled estimate vs sample count",
                            allow_abbrev=False)
    p_conv.add_argument("inp", help="EPANET-style INP file")
    bounds_options(p_conv)
    seed_option(p_conv)
    p_conv.add_argument("--samplers", type=_names_from(sampling.SAMPLER_KINDS, "sampler"),
                        default="random,halton,sobol",
                        help="comma list of samplers (default %(default)s)")
    p_conv.add_argument("--n-grid", type=_sample_counts, default="10,100,1000,10000,100000",
                        help="comma list of sample counts (default %(default)s)")
    p_conv.add_argument("--mode", choices=["max", "sqrt"], default="max")
    p_conv.add_argument("--out", help="trace CSV path (default: stdout)")
    p_conv.set_defaults(fn=cmd_convergence)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except WdnError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
