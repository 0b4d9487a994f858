"""Command-line front-end.

Subcommands load semiring tables or presentations into a workspace
directory, compute spectra, topologies, section semirings, hardenings,
and submodule lattices, and run the named verification checks. All output
is deterministic for fixed inputs and configuration.

Exit codes: 0 success; 2 usage; 3 malformed input; 4 unknown name;
5 precondition violated; 6 verification failed; 7 internal cross-check
tripped; 8 resource limit exceeded; 141 standard output closed by its
reader (128 + SIGPIPE), with no message.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import List, Optional

from . import accept, corpus
from .errors import (
    FormatError,
    PreconditionError,
    SemispecError,
    UnknownNameError,
    VerificationError,
)
from .kernel import (
    FiniteSemiring,
    load_semiring,
    read_json_object,
    semiring_from_dict,
    semiring_to_dict,
    verify_axioms,
)
from .localize import harden
from .presented import finite_quotient, presentation_from_json
from .sheaf import SheafContext, equalizer_sections
from .spectra import enumerate_space, space_to_dot, space_to_json
from .valuation import build_mra, vstar_homeo_check

ENV_WORKSPACE = "SEMISPEC_WORKSPACE"


def workspace_dir() -> str:
    return os.environ.get(ENV_WORKSPACE, os.path.join(os.getcwd(), ".semispec"))


def _workspace_path(name: str) -> str:
    """The registry file of name; a name that could leave the workspace
    directory or that no file system accepts is refused."""
    if not name or any(c and c in name for c in ("/", os.sep, os.altsep, "\0")):
        raise FormatError(f"bad registry name {name!r}")
    return os.path.join(workspace_dir(), f"{name}.json")


def _store(name: str, A: FiniteSemiring) -> None:
    path = _workspace_path(name)
    os.makedirs(workspace_dir(), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(semiring_to_dict(A), fh, sort_keys=True, indent=1)


def resolve(name: str) -> FiniteSemiring:
    """Workspace entry if present, else a corpus builtin."""
    path = _workspace_path(name)
    if os.path.exists(path):
        return load_semiring(path)
    if name in corpus.corpus_names():
        return corpus.get(name)
    raise UnknownNameError(
        f"no workspace entry or builtin named {name!r} "
        f"(workspace {workspace_dir()}; builtins: {', '.join(corpus.corpus_names())})"
    )


def _parse_element(A: FiniteSemiring, token: str) -> int:
    if A.names is not None and token in A.names:
        return A.names.index(token)
    try:
        v = int(token)
    except ValueError:
        raise UnknownNameError(f"{A.label}: no element named {token!r}")
    if not 0 <= v < A.size:
        raise PreconditionError(f"{A.label}: element index {v} out of range")
    return v


def _split_elements(text: str) -> List[str]:
    """The comma-separated tokens of text, empty ones dropped; a comma
    inside parentheses belongs to an element name such as (1,0)."""
    out, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            out.append(text[start:i])
            start = i + 1
    out.append(text[start:])
    return [t for t in out if t]


# ---------------------------------------------------------------------------
# subcommands


def cmd_load(args: argparse.Namespace) -> int:
    d = read_json_object(args.path)
    default = os.path.splitext(os.path.basename(args.path))[0]
    if "gens" in d:  # a presentation has no label
        A, _classify = finite_quotient(
            presentation_from_json(d), degree=args.degree, coeff=args.coeff
        )
    else:
        A = semiring_from_dict(d)
        default = A.label or default
    name = default if args.name is None else args.name
    A = A.replace(label=name)
    _store(name, A)
    print(f"loaded {name}: {A.size} elements")
    return 0


def cmd_axioms(args: argparse.Namespace) -> int:
    A = resolve(args.name)
    violations = verify_axioms(A)
    if not violations:
        print(f"{args.name}: all semiring axioms hold ({A.size} elements)")
        return 0
    for v in violations:
        print(f"{args.name}: {v.code} fails at {v.witness}")
    raise VerificationError(f"{args.name}: {len(violations)} axiom violations")


def _print_points(A: FiniteSemiring, kind: str) -> None:
    space = enumerate_space(A, kind)
    word = "prime ideals" if kind == "spec" else "prime kernels"
    print(f"{A.label}: {space.npoints} {word}")
    for i, m in enumerate(space.point_masks):
        members = ", ".join(A.name_of(a) for a in range(A.size) if (m >> a) & 1)
        print(f"  [{i}] {{{members}}}")


def cmd_spec(args: argparse.Namespace) -> int:
    _print_points(resolve(args.name), "spec")
    return 0


def cmd_sp(args: argparse.Namespace) -> int:
    _print_points(resolve(args.name), "sp")
    return 0


def cmd_topology(args: argparse.Namespace) -> int:
    A = resolve(args.name)
    space = enumerate_space(A, args.kind)
    out = space_to_dot(space) if args.dot else space_to_json(space)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(out)
        print(f"wrote {args.output}")
    else:
        print(out)
    return 0


def cmd_sheaf(args: argparse.Namespace) -> int:
    A = resolve(args.name)
    ctx = SheafContext(A, args.kind)
    cover = [_parse_element(A, t) for t in _split_elements(args.cover)]
    target = _parse_element(A, args.target) if args.target is not None else None
    secs = equalizer_sections(ctx, cover, target=target)
    report = {
        "base": A.label,
        "kind": args.kind,
        "cover": [A.name_of(c) for c in cover],
        "target": A.name_of(target) if target is not None else None,
        "sections": secs.table.size,
        "section_names": list(secs.table.names or []),
        "base_map_injective": secs.base_injective,
        "base_map_bijective": secs.from_base.is_bijective(),
        "localization_comparison_iso": secs.compare_is_iso,
    }
    print(json.dumps(report, sort_keys=True, indent=1))
    return 0


def cmd_harden(args: argparse.Namespace) -> int:
    A = resolve(args.name)
    h = harden(A)
    name = f"{args.name}-hard"
    _store(name, h.table)
    kept = h.table.size
    print(
        f"{args.name}: hardened to {kept} elements "
        f"(stored as {name}); canonical map "
        f"{'bijective' if h.phi.is_bijective() else 'collapsing'}"
    )
    return 0


def cmd_mra(args: argparse.Namespace) -> int:
    A = resolve(args.name)
    lat = build_mra(A)
    rep = vstar_homeo_check(lat)
    name = f"{args.name}-modules"
    _store(name, lat.table)
    report = {
        "base": A.label,
        "modules": lat.table.size,
        "stored_as": name,
        "homeomorphism": {
            "bijective": rep.bijective,
            "openness": rep.openness,
            "basis": rep.basis,
            "points": rep.points,
        },
    }
    print(json.dumps(report, sort_keys=True, indent=1))
    if not rep.ok:
        raise VerificationError(f"{args.name}: spectrum comparison failed")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    results = (
        accept.run_all()
        if args.ident == "all"
        else [accept.run_criterion(args.ident)]
    )
    for r in results:
        print(r.line())
    if not all(r.passed for r in results):
        raise VerificationError("verification failed")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process on first use.

    Building costs about a millisecond, mostly argparse's message lookups,
    against a few hundredths of that for a parse, so callers of `main` in
    one process share one parser. It is built on the first call rather
    than at import, so each subcommand's `fn` is whatever `cmd_*` function
    the module holds then. A subcommand must not change the parser: parses
    share it, and `parse_args` returns a fresh namespace each time.
    """
    p = argparse.ArgumentParser(
        prog="semispec",
        description="Finite commutative semirings: spectra, sheaves, "
        "hardening, and submodule-lattice valuations.",
        epilog="Environment: SEMISPEC_WORKSPACE (registry directory).",
    )
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("load", help="register a semiring table or presentation")
    q.add_argument("path")
    q.add_argument(
        "--name",
        help="registry name (default: the table's label, else the file's base name)",
    )
    q.add_argument(
        "--degree", type=int, default=2,
        help="presentation: the closure from the generators rewrites terms "
        "and keeps normal forms of up to twice this degree (default 2); its "
        "table is kept only if it is a model of the relations",
    )
    q.add_argument(
        "--coeff", type=int, default=2,
        help="presentation: coefficients of up to 2*coeff^2 times the number "
        "of monomials of degree at most --degree (default 2); a closure that "
        "does not end within these exits 8, and only a quotient proved "
        "infinite exits 5",
    )
    q.set_defaults(fn=cmd_load)

    q = sub.add_parser("axioms", help="check the semiring axioms")
    q.add_argument("name")
    q.set_defaults(fn=cmd_axioms)

    q = sub.add_parser("spec", help="list the prime ideals")
    q.add_argument("name")
    q.set_defaults(fn=cmd_spec)

    q = sub.add_parser("sp", help="list the prime kernels")
    q.add_argument("name")
    q.set_defaults(fn=cmd_sp)

    q = sub.add_parser("topology", help="export the spectrum topology")
    q.add_argument("name")
    q.add_argument("--kind", choices=("spec", "sp"), default="spec")
    fmt = q.add_mutually_exclusive_group()
    fmt.add_argument("--dot", action="store_true", help="DOT specialization graph")
    fmt.add_argument("--json", action="store_true", help="JSON (default)")
    q.add_argument("--output", help="write to file instead of stdout")
    q.set_defaults(fn=cmd_topology)

    q = sub.add_parser("sheaf", help="sections over a principal cover")
    q.add_argument("name")
    q.add_argument(
        "--cover", required=True,
        help="comma-separated elements, by name or table index; a comma "
        "inside parentheses is part of a name, as in (1,0),(h,1)",
    )
    q.add_argument("--kind", choices=("spec", "sp"), default="spec")
    q.add_argument(
        "--target", help="element whose basic open is covered, by name or table index"
    )
    q.set_defaults(fn=cmd_sheaf)

    q = sub.add_parser("harden", help="localize at the semi-invertible elements")
    q.add_argument("name")
    q.set_defaults(fn=cmd_harden)

    q = sub.add_parser("mra", help="submodule lattice and its spectrum comparison")
    q.add_argument("name")
    q.set_defaults(fn=cmd_mra)

    q = sub.add_parser("verify", help="run a named check, or all of them")
    q.add_argument(
        "ident",
        help="one of: all, " + ", ".join(sorted(accept.IDENTS)),
    )
    q.set_defaults(fn=cmd_verify)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command line (default: sys.argv[1:]) and return its exit
    code; a usage error raises SystemExit(2). The parser is shared by every
    call in the process (see build_parser)."""
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed reader shows here, not at exit
        return code
    except BrokenPipeError:  # exit as SIGPIPE would; no flush fails at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except SemispecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
