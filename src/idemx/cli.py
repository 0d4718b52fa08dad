"""Command-line front end.

Subcommands: check-axioms, support, classify, extend, recover, search,
campaign, replay.  Exit codes: 0 all checks passed, 1 failures found,
2 usage or parse errors.  A reader that closes standard output early
(``idemx campaign | head``) gets what it read; the command runs on and
exits with its own code.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .campaign import (
    CATALOGUE,
    CampaignConfig,
    replay_witnesses,
    run_campaign,
)
from .errors import IdemxError, ParseError
from .extenders import build_extender, retraction_from_open_sets, supports_retraction
from .functionals import AXIOMS, Functional, RealFunction, check_axioms, classify, support
from .instances import _number, _point_keys, load_setmap, parse_instance, read_json, setmap_to_json
from .setmaps import search_retraction
from .spaces import SubspaceEmbedding


def _functional_from(path: str):
    obj = parse_instance(path)
    if not isinstance(obj, Functional):
        raise ParseError(f"{path} does not describe a functional")
    return obj


def _embedding_from(path: str) -> SubspaceEmbedding:
    obj = parse_instance(path)
    if not isinstance(obj, SubspaceEmbedding):
        raise ParseError(f"{path} does not describe an embedding")
    return obj


def _function_on(space, path: str) -> RealFunction:
    data = read_json(path)
    values = data.get("values", data)
    if not isinstance(values, dict):
        raise ParseError(f"{path}: expected {{'values': {{point: value}}}}")
    missing = [p for p in space.points if p not in values]
    if missing:
        raise ParseError(f"{path}: missing values for {missing}")
    _point_keys(values, space.points, f"{path}: values")
    vals = tuple(_number(values[p], f"{path}: values[{p}]") for p in space.points)
    return RealFunction(space, vals)


def _cmd_check_axioms(args) -> int:
    mu = _functional_from(args.functional)
    axioms = args.axiom or list(AXIOMS)
    reports = check_axioms(mu, axioms, trials=args.trials, tol=args.tol, seed=args.seed)
    failures = 0
    for a in axioms:
        rep = reports[a]
        mark = "pass" if rep.passed else "FAIL"
        print(f"{a:24s} {mark}")
        if not rep.passed:
            failures += 1
            w = rep.witness
            print(f"    f={w.f}" + (f" g={w.g}" if w.g else "") + (f" c={w.c}" if w.c is not None else ""))
            print(f"    lhs={w.lhs} rhs={w.rhs}")
    return 1 if failures else 0


def _cmd_support(args) -> int:
    mu = _functional_from(args.functional)
    pts = sorted(support(mu, budget=args.budget, tol=args.tol, seed=args.seed))
    print(json.dumps(pts))
    return 0


def _cmd_classify(args) -> int:
    mu = _functional_from(args.functional)
    cls = classify(mu, budget=args.budget, tol=args.tol, seed=args.seed)
    out = {"class": cls.kind}
    if cls.support is not None:
        out["support"] = sorted(cls.support)
    if cls.density is not None:
        out["density"] = {
            p: ("-inf" if v == float("-inf") else v)
            for p, v in zip(cls.density.space.points, cls.density.lam)
        }
    print(json.dumps(out, sort_keys=True))
    return 0 if cls.kind != "none" else 1


def _cmd_extend(args) -> int:
    e = _embedding_from(args.embedding)
    r = load_setmap(read_json(args.map))
    u = build_extender(r, e, args.kind)
    f = _function_on(e.subspace, args.function)
    g = u.apply(f)
    print(json.dumps({p: v for p, v in zip(g.space.points, g.values)}, sort_keys=True))
    return 0


def _cmd_recover(args) -> int:
    e = _embedding_from(args.embedding)
    r = load_setmap(read_json(args.map))
    u = build_extender(r, e, args.kind)
    if args.method == "supports":
        rec = supports_retraction(u, tol=args.tol)
    else:
        variant = "max_usc" if args.kind == "max" else "min_lsc"
        rec = retraction_from_open_sets(u, variant, tol=args.tol)
    print(json.dumps(setmap_to_json(rec)["map"], sort_keys=True))
    return 0 if rec == r else 1


def _cmd_search(args) -> int:
    e = _embedding_from(args.embedding)
    r = search_retraction(e, args.semicontinuity)
    if r is None:
        print("none")
        return 1
    print(json.dumps(setmap_to_json(r)["map"], sort_keys=True))
    return 0


def _at_least_zero(convert, what: str):
    """The type of a numeric flag whose values are ``what`` >= 0."""

    def parse(text: str):
        try:
            x = convert(text)
        except ValueError:
            x = math.nan
        if not (math.isfinite(x) and x >= 0):
            raise argparse.ArgumentTypeError(f"must be {what} >= 0, got {text!r}")
        return x

    return parse


_tol = _at_least_zero(float, "a finite number")  # --tol
_count = _at_least_zero(int, "an integer")  # --seed, --budget, --trials


def _parse_caps(pairs) -> dict[str, int]:
    caps = {}
    for item in pairs or []:
        if "=" not in item:
            raise ParseError(f"--cap expects name=value, got {item!r}")
        key, _, val = item.partition("=")
        try:
            caps[key] = int(val)
        except ValueError as exc:
            raise ParseError(f"--cap {item!r}: value must be an integer") from exc
    return caps


def _cmd_campaign(args) -> int:
    suites = tuple(args.suite) if args.suite is not None else tuple(CATALOGUE)
    cfg = CampaignConfig(
        seed=args.seed,
        suites=suites,
        size_caps=_parse_caps(args.cap),
        tol=args.tol,
        output=args.out,
        fmt=args.format,
    )
    report = run_campaign(cfg)
    print(report.summary())
    if args.out:
        print(f"report written to {args.out}")
    return 1 if report.total_failed else 0


def _cmd_replay(args) -> int:
    outcomes = replay_witnesses(args.report, tol=args.tol)
    if not outcomes:
        print("no witnesses to replay")
        return 0
    bad = 0
    for o in outcomes:
        mark = "reproduced" if o.reproduced else "NOT reproduced"
        print(f"{o.suite:32s} {mark}: {o.detail}")
        if not o.reproduced:
            bad += 1
    return 1 if bad else 0


class _Parser(argparse.ArgumentParser):
    """Usage errors end as one-line ParseErrors, like every other bad input."""

    def error(self, message):
        raise ParseError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="idemx",
        description="Finite-model checks for min/max-preserving functional extenders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tol", type=_tol, default=1e-9)
        p.add_argument("--seed", type=_count, default=42)

    p = sub.add_parser("check-axioms", help="check identities of a functional")
    p.add_argument("functional", help="functional instance file")
    p.add_argument("--axiom", action="append", choices=AXIOMS, help="repeatable")
    p.add_argument("--trials", type=_count, default=64)
    common(p)
    p.set_defaults(fn=_cmd_check_axioms)

    p = sub.add_parser("support", help="locate the support of a functional")
    p.add_argument("functional")
    p.add_argument("--budget", type=_count, default=200)
    common(p)
    p.set_defaults(fn=_cmd_support)

    p = sub.add_parser("classify", help="classify a functional")
    p.add_argument("functional")
    p.add_argument("--budget", type=_count, default=64)
    common(p)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("extend", help="apply a retraction-derived extender")
    p.add_argument("--embedding", required=True)
    p.add_argument("--map", required=True)
    p.add_argument("--kind", choices=("min", "max"), default="min")
    p.add_argument("--function", required=True, help="values on the subspace")
    p.set_defaults(fn=_cmd_extend)

    p = sub.add_parser("recover", help="recover the map behind an extender")
    p.add_argument("--embedding", required=True)
    p.add_argument("--map", required=True)
    p.add_argument("--kind", choices=("min", "max"), default="max")
    p.add_argument("--method", choices=("supports", "opens"), default="opens")
    p.add_argument("--tol", type=_tol, default=1e-9)
    p.set_defaults(fn=_cmd_recover)

    p = sub.add_parser("search", help="search for a set-valued retraction")
    p.add_argument("--embedding", required=True)
    p.add_argument(
        "--semicontinuity", choices=("usc", "lsc", "continuous"), default="usc"
    )
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("campaign", help="run theorem suites")
    p.add_argument("--suite", action="append", choices=list(CATALOGUE), help="repeatable; default all")
    p.add_argument("--cap", action="append", metavar="NAME=K", help="per-suite size cap")
    p.add_argument("--out", help="report path")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    common(p)
    p.set_defaults(fn=_cmd_campaign)

    p = sub.add_parser("replay", help="re-run the failure witnesses of a report")
    p.add_argument("report")
    p.add_argument("--tol", type=_tol, default=None)
    p.set_defaults(fn=_cmd_replay)

    return parser


class _Stdout:
    """Standard output for the length of a command: once the reader has
    closed the pipe, the rest of the output goes to the null device, not
    up as a BrokenPipeError, so the command runs on to its own exit code."""

    def __init__(self, stream):
        self._stream = stream

    def __getattr__(self, name):
        return getattr(self._stream, name)

    def write(self, text: str) -> int:
        try:
            return self._stream.write(text)
        except BrokenPipeError:
            self._to_null()
            return len(text)

    def flush(self) -> None:
        try:
            self._stream.flush()
        except BrokenPipeError:
            self._to_null()

    def _to_null(self) -> None:
        # what the stream still buffers goes there too, so that the
        # interpreter's last flush cannot fail
        null = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(null, self._stream.fileno())
        finally:
            os.close(null)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    stdout, sys.stdout = sys.stdout, _Stdout(sys.stdout)
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    except IdemxError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        sys.stdout.flush()
        sys.stdout = stdout


if __name__ == "__main__":
    sys.exit(main())
