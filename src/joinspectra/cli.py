"""Command-line interface.

Verbs: charpoly, spectrum, gcp, corona, lex, verify, fixtures.  charpoly,
gcp, corona and lex are one handler: each names an entry of
`verification.CONSTRUCTIONS` (the --route value, or degree-shift, corona and
lex), which gives the route name, the blocks and the truth --verify checks
against; spectrum reads the same table.  Exit codes form a stable contract:
0 success, 1 internal failure (or verification mismatch), 2 malformed
input, 3 violated route precondition.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys
from fractions import Fraction

from . import spectra
from .errors import DomainError, PreconditionError, SpecError
from .graphs import graph_from_obj
from .joins import JoinSpec
from .kernel import BACKEND
from .oracle import check
from .polynomials import Polynomial, square_free_decomposition
from .verification import CONSTRUCTIONS, run_random_suite, verify_spec


def dumps_result(obj) -> str:
    """Canonical JSON emission; re-serializing a parse of this is byte-identical."""
    return json.dumps(obj, indent=2, sort_keys=True)


def _write(text: str, args) -> None:
    """Print text, or write it as UTF-8 with a final newline to the -o path.

    The file is rewritten in place and then cut to length, never opened with
    O_TRUNC: on ext4, closing a file that was truncated to zero and written
    starts its writeback, a cost every call would pay.
    Only a regular file is cut, so /dev/null, /dev/stdout and pipes work.
    """
    if not args.output:
        print(text)
        return
    data = memoryview((text + "\n").encode("utf-8"))
    # O_BINARY (Windows only) keeps "\n" line ends and the byte count exact
    fd = os.open(args.output, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        written = 0
        while written < len(data):
            written += os.write(fd, data[written:])
        st = os.fstat(fd)
        if stat.S_ISREG(st.st_mode) and st.st_size > written:
            os.ftruncate(fd, written)
    finally:
        os.close(fd)


def _emit(obj, args) -> None:
    _write(dumps_result(obj), args)


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise SpecError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from None


def _load_spec(path: str) -> JoinSpec:
    return JoinSpec.from_json_obj(_read_json(path))


def _factored_hint(p: Polynomial) -> list[dict]:
    return [
        {"factor": f.to_strings(), "multiplicity": mult}
        for f, mult in square_free_decomposition(p)
    ]


def _emit_checked(obj: dict, verdict, args) -> int:
    """Emit obj with the oracle's verdict, if there is one, under "oracle";
    a mismatch exits 1."""
    if verdict is not None:
        obj["oracle"] = {"equal": verdict.equal, "first_mismatch": verdict.first_mismatch, "detail": verdict.detail}
    _emit(obj, args)
    return 0 if verdict is None or verdict.equal else 1


def _parse_rational(text: str, what: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise SpecError(f"bad {what}: {text!r} is not a rational p/q") from None


def _tolerance(text: str) -> float:
    """A --tol value: a finite number >= 0; nan, inf or a negative value would switch the check off."""
    try:
        tol = float(text)
    except ValueError:
        tol = None
    if tol is None or not 0 <= tol < math.inf:
        raise argparse.ArgumentTypeError(f"tolerance must be a finite number >= 0, got {text!r}")
    return tol


def _case_count(text: str) -> int:
    """A --cases value: a positive integer; zero or fewer cases would check nothing and pass."""
    try:
        cases = int(text)
    except ValueError:
        cases = 0
    if cases < 1:
        raise argparse.ArgumentTypeError(f"case count must be a positive integer, got {text!r}")
    return cases


def cmd_charpoly(args) -> int:
    """charpoly, gcp, corona and lex: the characteristic polynomial of the
    construction args.route names; with --verify, checked against its truth."""
    obj = _read_json(args.spec)
    if args.route == "lex":
        # a single inner graph stands for one copy per host vertex
        components = obj.get("components") if isinstance(obj, dict) else None
        if isinstance(components, list) and len(components) == 1 and "host" in obj:
            obj = dict(obj, components=components * graph_from_obj(obj["host"]).n)
    spec = JoinSpec.from_json_obj(obj)
    options, extra = (), {}
    if args.route == "degree-shift":
        t = _parse_rational(args.t, "t value")
        options, extra = (t,), {"t": str(t)}
    route, cb, truth = CONSTRUCTIONS[args.route](spec, *options)
    poly = spectra.coupled_charpoly(cb)
    out = {
        "route": route,
        "degree": len(poly.nums) - 1,
        "charpoly": poly.to_strings(),
        "factored_hint": _factored_hint(poly),
        **extra,
    }
    verdict = check(poly, truth()) if getattr(args, "verify", False) else None
    return _emit_checked(out, verdict, args)


def cmd_spectrum(args) -> int:
    route, cb, truth = CONSTRUCTIONS[args.route](_load_spec(args.spec))
    report = spectra.coupled_spectrum(cb)
    eigenvalues = report.eigenvalues()
    obj = {
        "route": route,
        "charpoly": report.charpoly.to_strings(),
        "inherited": [[v, m, b] for v, m, b in report.inherited],
        "reduced": [[v, m, b] for v, m, b in report.reduced],
        "coupling": report.coupling.to_strings(),
        "coupling_roots": list(report.coupling_roots),
        "eigenvalues": eigenvalues,
    }
    verdict = check(report.charpoly, truth(), eigenvalues, args.tol) if args.verify else None
    return _emit_checked(obj, verdict, args)


def cmd_verify(args) -> int:
    if args.spec:
        cases = [verify_spec(_load_spec(args.spec), name=args.spec)]
    else:
        cases = run_random_suite(args.seed, args.cases)
    passed = sum(1 for c in cases if c.passed)
    if args.json:
        _emit([{"name": c.name, "passed": c.passed, "detail": c.detail} for c in cases], args)
    else:
        lines = [f"{'PASS' if c.passed else 'FAIL'}  {c.name}  {c.detail}" for c in cases]
        lines.append(f"{passed}/{len(cases)} passed  (kernel backend: {BACKEND})")
        _write("\n".join(lines), args)
    return 0 if passed == len(cases) else 1


def cmd_fixtures(args) -> int:
    # imported here: no other verb needs the fixtures at start-up
    from .fixtures import run_fixture_checks

    results = run_fixture_checks(tol=args.tol, with_oracle=not args.no_oracle)
    if args.json:
        _emit(
            [{"name": r.name, "route": r.route, "passed": r.passed, "detail": r.detail} for r in results],
            args,
        )
    else:
        width = max(len(r.name) for r in results)
        lines = [f"{r.name:<{width}}  {'PASS' if r.passed else 'FAIL'}  [{r.route}] {r.detail}" for r in results]
        _write("\n".join(lines), args)
    return 0 if all(r.passed for r in results) else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once: parsing leaves it unchanged, so every call shares it.

    Each verb's `func` is its handler as it was when the parser was built;
    `main` calls whatever this module binds to that name when it runs, so a
    handler replaced on the module afterwards is the one called.
    """
    parser = argparse.ArgumentParser(
        prog="joinspectra",
        description="Exact characteristic polynomials and spectra of graph joins.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p, spec_required=True):
        if spec_required:
            p.add_argument("spec", help="path to a join spec JSON file")
        p.add_argument("-o", "--output", help="write the output to this path instead of stdout")

    p = sub.add_parser("charpoly", help="exact characteristic polynomial of a join spec")
    add_common(p)
    p.add_argument("--route", choices=["auto", "adjacency", "universal", "subset"], default="auto")
    p.set_defaults(func=cmd_charpoly)

    p = sub.add_parser("spectrum", help="classified spectrum of a join spec")
    add_common(p)
    p.add_argument("--route", choices=["auto", "regular", "balanced"], default="auto")
    p.add_argument("--tol", type=_tolerance, default=1e-8, help="relative eigenvalue tolerance of --verify")
    p.add_argument("--verify", action="store_true", help="also compare against the dense oracle")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("gcp", help="charpoly of A - t*D for the join, at rational t")
    add_common(p)
    p.add_argument("--t", required=True, help="rational value, e.g. 1/2 or -2")
    p.set_defaults(func=cmd_charpoly, route="degree-shift")

    p = sub.add_parser("corona", help="corona charpoly (spec host = base graph, components = companions)")
    add_common(p)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=cmd_charpoly, route="corona")

    p = sub.add_parser("lex", help="lexicographic-product universal charpoly")
    add_common(p)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=cmd_charpoly, route="lex")

    p = sub.add_parser("verify", help="formula vs oracle, for one spec or a seeded random suite")
    p.add_argument("spec", nargs="?", help="optional spec file; omit to run the random suite")
    p.add_argument("-o", "--output", help="write the output to this path instead of stdout")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=_case_count, default=50)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("fixtures", help="run the golden end-to-end fixtures")
    add_common(p, spec_required=False)
    p.add_argument("--tol", type=_tolerance, default=1e-8, help="relative eigenvalue tolerance of the spectrum checks")
    p.add_argument("--json", action="store_true")
    p.add_argument("--no-oracle", action="store_true", help="skip dense-oracle comparisons")
    p.set_defaults(func=cmd_fixtures)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[args.func.__name__](args)
    except SpecError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (PreconditionError, DomainError) as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - the contract maps everything else to 1
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
