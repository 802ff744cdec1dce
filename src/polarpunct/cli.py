"""Command-line front end.

Subcommands:

* ``construct`` -- emit a reliability profile and code spec as JSON,
* ``puncture``  -- emit a puncture pattern and its diagnostics,
* ``propagate`` -- emit the source-to-destination map of an index set,
* ``simulate``  -- run a Monte-Carlo sweep, emit CSV/JSON,
* ``compare``   -- run two sweep configs and emit a joint CSV.

Exit code 0 on success, 1 with a message on stderr for configuration
errors. Config files are JSON with the same field names as the
``simulate`` flags; flags override file values.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from functools import partial

from . import channel as chan
from . import construct as cons
from . import degrade, puncture, sim
from ._version import __version__
from .bitops import bit_reverse


def _numbers(text: str, kind) -> list:
    return [kind(tok) for tok in text.replace(",", " ").split()]


def _read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _write_json(payload: dict, out: str | None) -> None:
    """``payload`` as :func:`sim.write_json` writes it, to ``out`` or to stdout without one."""
    if out:
        sim.write_atomic(out, partial(sim.write_json, payload))
    else:
        sim.write_json(payload, sys.stdout)


def _cmd_construct(args) -> int:
    profile = cons.build_profile(args.construction, args.n)
    spec = cons.select_information_set(profile, args.k + args.crc, crc_bits=args.crc)
    payload = profile.to_json_dict()
    code = spec.to_json_dict()
    payload.update({key: code[key] for key in ("I", "F", "k", "crc_bits")})
    _write_json(payload, args.out)
    return 0


def _cmd_puncture(args) -> int:
    if args.construction is None and args.k is not None:
        raise ValueError("--k needs --construction")
    if args.construction is None and args.crc:
        raise ValueError("--crc needs --construction")
    if args.construction is not None and args.k is None:
        raise ValueError("--construction needs --k")
    if args.scheme and args.compare:
        raise ValueError("--scheme and --compare exclude each other")
    schemes = [name.strip() for name in (args.compare or args.scheme or puncture.QUP).split(",")]
    if args.compare and len(schemes) != 2:
        raise ValueError(f"--compare needs exactly two schemes, got {args.compare!r}")
    if args.custom_file and puncture.CUSTOM not in schemes:
        raise ValueError(f"--custom-file needs scheme 'custom', got {', '.join(schemes)}")
    coded = _read_json(args.custom_file) if args.custom_file else None
    profile = spec = None
    if args.construction is not None:
        profile = cons.build_profile(args.construction, args.n)
        spec = cons.select_information_set(profile, args.k + args.crc, crc_bits=args.crc)
    entries = []
    reports = []
    for scheme in schemes:
        pattern = puncture.make_pattern(scheme, args.n, args.q, spec, profile, coded)
        entry = pattern.to_json_dict()
        if spec is not None and profile.error_prob is not None:
            report = puncture.analyze_pattern(pattern, spec, profile)
            entry["report"] = report.to_json_dict()
            reports.append(report)
        entries.append(entry)

    payload: dict = {"patterns": entries}
    if len(reports) == 2:
        payload["comparison"] = dataclasses.asdict(puncture.compare_patterns(*reports))
    _write_json(payload, args.out)
    return 0


def _cmd_propagate(args) -> int:
    indices = _numbers(args.set, int)
    if args.domain == "coded":
        indices = bit_reverse(indices, args.n)
    pmap = degrade.propagate(indices, args.n)
    _write_json(pmap.to_json_dict(), args.out)
    return 0


def _config_from_args(args) -> sim.SimConfig:
    base = _read_json(args.config) if args.config else {}
    overrides = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(sim.SimConfig)}
    overrides["sweep"] = _numbers(args.sweep, float) if args.sweep else None
    if args.custom_file:
        overrides["custom_coded"] = _read_json(args.custom_file)
    return sim.SimConfig.from_json_dict(base, **{k: v for k, v in overrides.items() if v is not None})


def _cmd_simulate(args) -> int:
    cfg = _config_from_args(args)
    formats = tuple(args.format.split(","))
    sim.check_formats(formats)  # before the sweep, which a bad format would waste
    result = sim.run_sweep(cfg, workers=args.workers)
    paths = sim.emit(result, args.out, formats)
    for point in result.points:
        print(f"{point.sweep_param:g}: frames={point.frames} "
              f"FER={point.fer:.4g} BER={point.ber:.4g}")
    print("wrote " + ", ".join(paths))
    return 0


def _cmd_compare(args) -> int:
    configs = [sim.SimConfig.from_json_dict(_read_json(path))
               for path in (args.config_a, args.config_b)]
    if configs[0].sweep != configs[1].sweep:
        raise ValueError("the two configs must share the same sweep for a joint report")
    a, b = (sim.run_sweep(cfg, workers=args.workers) for cfg in configs)
    lines = ["sweep_param,FER_a,BER_a,FER_b,BER_b"]
    for pa, pb in zip(a.points, b.points):
        lines.append(f"{pa.sweep_param},{pa.fer},{pa.ber},{pb.fer},{pb.ber}")
    sim.write_atomic(args.out + ".csv", lambda fh: fh.write("\n".join(lines) + "\n"))
    sim.emit(a, args.out + "_a", ("json",))
    sim.emit(b, args.out + "_b", ("json",))
    print(f"wrote {args.out}.csv")
    return 0


def _add_construction_flags(p, required: bool) -> None:
    p.add_argument("--construction", required=required, help="bec:EPS | ga:ESN0_DB | pw[:BETA]")
    p.add_argument("--k", type=int, required=required, help="information bits")
    p.add_argument("--crc", type=int, default=0, choices=cons.CRC_WIDTHS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="polar-punct",
                                     description="polar-code rate-matching toolkit")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="emit reliability profile and code spec")
    p.add_argument("--n", type=int, required=True)
    _add_construction_flags(p, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("puncture", help="emit a puncture pattern and diagnostics")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--scheme", choices=puncture.SCHEMES, help="default: qup")
    p.add_argument("--custom-file", help="JSON list of coded-symbol positions")
    p.add_argument("--compare", help="comma pair of schemes, e.g. qup,wqp")
    _add_construction_flags(p, required=False)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_puncture)

    p = sub.add_parser("propagate", help="emit the propagation map of an index set")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--set", required=True, help="comma-separated indices")
    p.add_argument("--domain", default="source", choices=("source", "coded"))
    p.add_argument("--out")
    p.set_defaults(func=_cmd_propagate)

    p = sub.add_parser("simulate", help="run a Monte-Carlo sweep")
    p.add_argument("--config", help="JSON config file; flags override")
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--crc", type=int, choices=cons.CRC_WIDTHS, dest="crc_bits")
    p.add_argument("--construction")
    p.add_argument("--puncture", choices=sim.PUNCTURINGS, dest="puncturing")
    p.add_argument("--custom-file")
    p.add_argument("--q", type=int)
    p.add_argument("--decoder", choices=sim.DECODERS)
    p.add_argument("--list-size", type=int, dest="list_size")
    p.add_argument("--channel", choices=chan.KINDS)
    p.add_argument("--sweep", help="comma-separated channel parameters")
    p.add_argument("--seed", type=int, dest="master_seed")
    p.add_argument("--max-frames", type=int, dest="max_frames")
    p.add_argument("--min-errors", type=int, dest="min_frame_errors")
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default="sim_out")
    p.add_argument("--format", default="json,csv")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("compare", help="run two configs and emit a joint CSV")
    p.add_argument("--config-a", required=True)
    p.add_argument("--config-b", required=True)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default="compare_out")
    p.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
