"""Command line entry points.

Exit codes: 0 on success, 1 on usage or input errors, 2 when a runtime
invariant check fails (which always indicates a bug, not bad input).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from . import errors
from .harness import (
    REPETITION_NGRAM,
    check_regression_baseline,
    compare,
    load_run_config,
    oracle_regression,
    regression_means,
    render_metrics_csv,
    render_regression_csv,
    run,
    RunConfig,
    snapshot,
    StepTrace,
    write_compare_outputs,
    write_run_outputs,
)
from .metrics import kv_bytes_from_occupancies, repetition_rate


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load(path: str, args) -> RunConfig:
    """The config at ``path`` with the ``--seed`` and ``--debug-invariants`` overrides."""
    config = load_run_config(path)
    if args.seed is not None:
        config = replace(config, model=replace(config.model, seed=args.seed))
    if args.debug_invariants:
        config = replace(config, debug_invariants=True)
    return config


def _cmd_run(args) -> int:
    result = run(_load(args.config, args))
    if args.out is not None:
        write_run_outputs(result, args.out)
    trace = result.trace
    occupancy = result.occupancies()
    nbytes = kv_bytes_from_occupancies(occupancy, trace.model, trace.policy, trace.bytes_per_scalar)
    print(
        f"policy={trace.policy.kind} steps={len(trace.records)} "
        f"final_occupancy={sum(map(sum, occupancy))} final_bytes={nbytes} "
        f"evictions={trace.total_evictions()}"
    )
    if args.out is not None:
        print(f"wrote trace.json, metrics.csv, snapshot.json to {args.out}")
    return 0


def _cmd_compare(args) -> int:
    configs = [_load(path, args) for path in args.configs]
    columns = compare(configs, teacher_forced=not args.free_running)
    if args.out is not None:
        write_compare_outputs(columns, args.out)
    for col in columns:
        err = f" mean_error={col.mean_error:.6g}" if col.error_mean is not None else ""
        print(
            f"{col.label}: final_bytes={col.trace.records[-1].bytes} final_ratio={col.ratio[-1]:.4f} "
            f"evictions={col.trace.total_evictions()} repetition={col.repetition:.4f}{err}"
        )
    if args.out is not None:
        print(f"wrote compare.csv, summary.csv, and per-policy traces to {args.out}")
    return 0


def _cmd_oracle(args) -> int:
    config = _load(args.config, args)
    rows = oracle_regression(config, args.instances)
    text = render_regression_csv(rows)
    if args.out_file:
        with open(args.out_file, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {len(rows)} rows to {args.out_file}")
    else:
        sys.stdout.write(text)
    for policy, mean in sorted(regression_means(rows).items()):
        print(f"mean_error[{policy}] = {mean:.6g}")
    if args.baseline:
        with open(args.baseline, "r", encoding="utf-8") as fh:
            check_regression_baseline(rows, fh.read())
        print(f"matches baseline {args.baseline}")
    return 0


def _cmd_metrics(args) -> int:
    with open(args.trace, "r", encoding="utf-8") as fh:
        try:
            document = json.load(fh)
        # Nesting past the recursion limit, bad JSON and bytes that are not UTF-8.
        except (RecursionError, ValueError) as exc:
            raise errors.TraceMismatch(f"cannot parse trace {args.trace}: {exc}") from exc
    trace = StepTrace.from_dict(document)
    sys.stdout.write(render_metrics_csv(trace))
    report = repetition_rate(trace.consumed_tokens(), args.ngram)
    print(
        f"repetition n={report.n}: {report.distinct_grams}/{report.total_grams} distinct, "
        f"rate={report.repetition_rate:.4f}"
    )
    return 0


def _cmd_inspect(args) -> int:
    json.dump(snapshot(run(_load(args.config, args))), sys.stdout, sort_keys=True, indent=1)
    sys.stdout.write("\n")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="morphkv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, out_flag=True, many_configs=False):
        if many_configs:
            p.add_argument("configs", nargs="+", help="two or more run config files")
        else:
            p.add_argument("--config", required=True, help="run config file")
        p.add_argument("--seed", type=int, default=None, help="override the model seed")
        p.add_argument("--debug-invariants", action="store_true", help="check invariants every step")
        if out_flag:
            p.add_argument("--out", default=None, help="directory for output files")

    p_run = sub.add_parser("run", help="decode under one policy and report the trace")
    add_common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="align several policies over one model")
    add_common(p_cmp, many_configs=True)
    p_cmp.add_argument(
        "--free-running",
        action="store_true",
        help="let each policy follow its own greedy tokens instead of replaying the first run",
    )
    p_cmp.set_defaults(func=_cmd_compare)

    p_orc = sub.add_parser("oracle", help="score retention rules against the exhaustive optimum")
    add_common(p_orc, out_flag=False)
    p_orc.add_argument("--instances", type=int, default=200, help="seeded instances to score")
    p_orc.add_argument("--out-file", default=None, help="write the regression CSV here")
    p_orc.add_argument("--baseline", default=None, help="committed CSV to compare against")
    p_orc.set_defaults(func=_cmd_oracle)

    p_met = sub.add_parser("metrics", help="recompute metrics from a saved trace")
    p_met.add_argument("--trace", required=True, help="trace.json from a previous run")
    p_met.add_argument("--ngram", type=int, default=REPETITION_NGRAM, help="n-gram length of the repetition rate")
    p_met.set_defaults(func=_cmd_metrics)

    p_ins = sub.add_parser("inspect", help="run a config and dump the final cache snapshot")
    add_common(p_ins, out_flag=False)
    p_ins.set_defaults(func=_cmd_inspect)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except errors.InternalInvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # A config can ask for arrays no machine holds (a huge prompt or
        # vocabulary); that is bad input, not a bug.
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
