"""Command-line front end: build catalog pairs or import user pairs, run named
verification suites with seeds and tolerances, and emit JSON plus a text summary.

A check passes when its side conditions hold and its worst residual is finite
and within its tolerance; a failing line of the text summary names the
sub-criterion that failed.  Exit codes: 0 all checks pass, 1 at least one
check failed, 2 the imported pair could not be parsed or holds a NaN or inf,
64 invalid configuration (a usage error, unknown check, knob or pair,
inapplicable check, an empty --checks list or one naming a check twice, a knob
whose target check the run leaves out, negative seed, a NaN, infinite or
negative tolerance, or an unwritable --out path), 70 internal error (traceback
on stderr).  Reports are byte-identical across runs with the same
configuration and seed, apart from the timestamp field."""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import math
import sys
import traceback
from dataclasses import asdict, dataclass, fields, replace

from . import __version__
from .catalog import CatalogEntry, catalog_names, get_entry, supq1
from .checks import REGISTRY, applicable_checks, conventions_report, run_check, sampled_pass
from .config import DEFAULT_TOL, EXP_METHOD, P_CAP, PRNG_NAME, Tolerances
from .matched import MatchedPair

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_IMPORT_ERROR = 2
EXIT_BAD_CONFIG = 64
EXIT_INTERNAL = 70

#: terms of the displayed tables at or below this magnitude print as absent;
#: it shapes the text summary only, never a verdict
DISPLAY_CUTOFF = 1e-12


class ConfigError(ValueError):
    pass


class PairImportError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 64, invalid configuration; argparse's own 2 is the
    bad-import code here.  Subparsers are built from the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_CONFIG, f"{self.prog}: error: {message}\n")


@dataclass
class RunConfig:
    pair: str
    checks: list[str] | None = None         # None: every applicable check
    samples: int = 200
    seed: int = 42
    tol: Tolerances = DEFAULT_TOL
    out: str | None = None
    corrupt: str | None = None
    p: int | None = None

    def validate(self):
        if self.checks is not None:
            if not self.checks:
                raise ConfigError("--checks names no check")
            for name in self.checks:
                if name not in REGISTRY:
                    raise ConfigError(
                        f"unknown check {name!r}; known: {', '.join(REGISTRY)}")
            if len(set(self.checks)) < len(self.checks):
                raise ConfigError(f"--checks names a check twice: {','.join(self.checks)}")
        knobs = [c.knob for c in REGISTRY.values()]
        if self.corrupt is not None and self.corrupt not in knobs:
            raise ConfigError(
                f"unknown corruption knob {self.corrupt!r}; known: " + ", ".join(knobs))
        if self.samples < 1:
            raise ConfigError("samples must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        for f in fields(self.tol):
            value = getattr(self.tol, f.name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"tolerance {f.name} must be finite and nonnegative, "
                                  f"got {value}")


def _load_target(config: RunConfig):
    name = config.pair
    if name == "supq1":
        if config.p is None:
            raise ConfigError("pair 'supq1' needs --p")
        try:
            return supq1(config.p)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if config.p is not None:
        raise ConfigError("--p only applies to the 'supq1' family")
    if name in catalog_names():
        return get_entry(name)
    # otherwise treat as a JSON import path
    try:
        with open(name, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"unknown pair and unreadable path: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise PairImportError(f"matched-pair file is not UTF-8 text: {exc}") from exc
    try:
        return MatchedPair.from_json(text)
    except Exception as exc:
        raise PairImportError(f"could not parse matched-pair JSON: {exc}") from exc


def run(config: RunConfig) -> tuple[int, dict, str]:
    config.validate()
    target = _load_target(config)
    allowed = applicable_checks(target)
    checks = list(allowed) if config.checks is None else config.checks
    for name in checks:
        if name not in allowed:
            raise ConfigError(
                f"check {name!r} is not applicable to pair {config.pair!r} "
                f"(applicable: {', '.join(allowed)})")
    if config.corrupt is not None:
        aim = next(c.name for c in REGISTRY.values() if c.knob == config.corrupt)
        if aim not in checks:
            raise ConfigError(
                f"corruption knob {config.corrupt!r} targets check {aim!r}, "
                f"which this run does not include")

    # one sampled pass for every selected sampled check, then each check's fold
    sampled = sampled_pass(target, checks, config.samples, config.seed, config.corrupt)
    results = [run_check(name, target, config.samples, config.seed, config.tol,
                         corrupt=config.corrupt, sampled=sampled) for name in checks]
    conventions = (conventions_report(target)
                   if isinstance(target, CatalogEntry) else [])

    report = {
        "meta": {
            "version": __version__,
            "seed": config.seed,
            "samples": config.samples,
            "prng": PRNG_NAME,
            "exp_method": EXP_METHOD,
            "tolerances": asdict(config.tol),
            "corrupt": config.corrupt,
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        },
        "pair": config.pair if config.p is None else f"{config.pair}(p={config.p})",
        "conventions": conventions,
        "results": results,
    }
    all_pass = all(r["pass"] for r in results)
    return (EXIT_OK if all_pass else EXIT_CHECK_FAILED, report,
            text_summary(target, report))


def text_summary(target, report: dict) -> str:
    lines = [f"pair: {report['pair']}   seed: {report['meta']['seed']}   "
             f"prng: {report['meta']['prng']}   exp: {report['meta']['exp_method']}"]
    if report["meta"]["corrupt"]:
        lines.append(f"CORRUPTION ACTIVE: {report['meta']['corrupt']}")
    lines.append("")
    for r in report["results"]:
        status = "PASS" if r["pass"] else "FAIL"
        lines.append(f"  [{status}] {r['check']:<18} residual {r['max_residual']:.3e}"
                     f"  (tol {r['tolerance']:.1e}, samples {r.get('samples', 0)})"
                     + ("" if r["pass"] else f"  at {r['worst_criterion']}"))
    if report["conventions"]:
        lines.append("")
        lines.append("conventions vs published tables:")
        for c in report["conventions"]:
            sign = "" if c["sign"] is None else f" sign {c['sign']:+.0f}"
            lines.append(f"  - {c['table']}:{sign} residual {c['residual']:.1e}; {c['note']}")
    if isinstance(target, CatalogEntry):
        lines.append("")
        lines.extend(_display_notation_tables(target))
    return "\n".join(lines) + "\n"


def _display_notation_tables(entry: CatalogEntry) -> list[str]:
    """Bracket/cobracket tables in the published notation for side-by-side reading."""
    mp = entry.mp
    labels = ["y(a)", "y(2)"] + [f"y(R)_{k+1}" for k in range(entry.p - 1)] \
        + [f"y(I)_{k+1}" for k in range(entry.p - 1)]
    order = list(range(2)) + [2 + 2 * k for k in range(entry.p - 1)] \
        + [3 + 2 * k for k in range(entry.p - 1)]
    lines = ["solvable brackets:"]
    k = mp.dim_c
    for ii, i in enumerate(order):
        for j in order[ii + 1:]:
            vec = mp.c_structure[i, j]
            terms = [f"{vec[lidx]:+g} {labels[order.index(lidx)]}"
                     for lidx in range(k) if abs(vec[lidx]) > DISPLAY_CUTOFF]
            rhs = " ".join(terms) if terms else "0"
            lines.append(f"  [{labels[ii]}, {labels[order.index(j)]}] = {rhs}")
    delta = mp.delta
    dual_labels = [l.replace("y", "y*") for l in labels]
    lines.append("cobracket on the annihilator:")
    for ii, i in enumerate(order):
        c = delta[i, :k, :k]
        terms = []
        for a in range(k):
            for b in range(a + 1, k):
                if abs(c[a, b]) > DISPLAY_CUTOFF:
                    la = dual_labels[order.index(a)]
                    lb = dual_labels[order.index(b)]
                    terms.append(f"{c[a, b]:+g} {la}^{lb}")
        lines.append(f"  delta({dual_labels[ii]}) = {' '.join(terms) if terms else '0'}")
    if entry.p == 1:
        lines.append("planar brackets (e-basis P1, P2, J):")
        e = mp.e_algebra
        names = ["P1", "P2", "J"]
        for i in range(3):
            for j in range(i + 1, 3):
                vec = e.structure[i, j]
                terms = [f"{vec[l]:+g} {names[l]}" for l in range(3)
                         if abs(vec[l]) > DISPLAY_CUTOFF]
                lines.append(f"  [{names[i]}, {names[j]}] = {' '.join(terms) if terms else '0'}")
    return lines


def _write_file(path: str, payload: str):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _dump_report(report: dict, out: str | None, summary: str):
    payload = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out == "-":
        sys.stdout.write(payload)
        sys.stderr.write(summary)
    else:
        path = out or "poissonlie-report.json"
        _write_file(path, payload)
        sys.stdout.write(summary)
        sys.stdout.write(f"report written to {path}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser; it is static, so it is built once per process."""
    parser = _Parser(
        prog="poissonlie",
        description="verify Poisson-Lie structures built from matched pairs")
    sub = parser.add_subparsers(dest="command", required=True)

    ver = sub.add_parser("verify", help="run verification suites on a pair")
    ver.add_argument("pair", help="catalog name (su11, su21, su31, su41, supq1) "
                                  "or path to a matched-pair JSON file")
    ver.add_argument("--checks", default=None,
                     help="comma-separated subset of: " + ", ".join(REGISTRY))
    ver.add_argument("--samples", type=int, default=200)
    ver.add_argument("--seed", type=int, default=42)
    ver.add_argument("--tol-algebraic", type=float, default=None)
    ver.add_argument("--tol-fd", type=float, default=None)
    ver.add_argument("--out", default=None, help="report path, '-' for stdout")
    ver.add_argument("--corrupt", default=None,
                     help="negative-control knob: "
                     + ", ".join(c.knob for c in REGISTRY.values()))
    ver.add_argument("--p", type=int, default=None,
                     help=f"family parameter for supq1, 1 to {P_CAP}")

    cat = sub.add_parser("catalog", help="list or export catalog pairs")
    cat_sub = cat.add_subparsers(dest="catalog_command", required=True)
    cat_sub.add_parser("list", help="list catalog pair names")
    exp = cat_sub.add_parser("export", help="export a pair as JSON")
    exp.add_argument("name")
    exp.add_argument("--out", default="-")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "catalog":
        if args.catalog_command == "list":
            for name in catalog_names():
                print(name)
            return EXIT_OK
        try:
            # one line, through json's C encoder: the parsed document is the
            # same as an indented one's, at a sixth of the time on su41
            payload = json.dumps(get_entry(args.name).mp.to_json_dict(), sort_keys=True) + "\n"
            if args.out == "-":
                sys.stdout.write(payload)
            else:
                _write_file(args.out, payload)
        except (KeyError, ConfigError) as exc:
            sys.stderr.write(f"error: {exc}\n")
            return EXIT_BAD_CONFIG
        return EXIT_OK

    tol = DEFAULT_TOL
    if args.tol_algebraic is not None:
        tol = replace(tol, algebraic=args.tol_algebraic)
    if args.tol_fd is not None:
        tol = replace(tol, fd=args.tol_fd)
    config = RunConfig(
        pair=args.pair,
        checks=None if args.checks is None else
        [c.strip() for c in args.checks.split(",") if c.strip()],
        samples=args.samples,
        seed=args.seed,
        tol=tol,
        out=args.out,
        corrupt=args.corrupt,
        p=args.p,
    )
    try:
        code, report, summary = run(config)
        _dump_report(report, config.out, summary)
    except ConfigError as exc:
        sys.stderr.write(f"invalid configuration: {exc}\n")
        return EXIT_BAD_CONFIG
    except PairImportError as exc:
        sys.stderr.write(f"import error: {exc}\n")
        return EXIT_IMPORT_ERROR
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL
    return code


if __name__ == "__main__":
    sys.exit(main())
