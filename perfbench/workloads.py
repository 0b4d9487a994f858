"""The benchmark's three workloads: inputs made from a seed, the operations
run on them, and the seed-invariant answer each operation gives.

All three are closed loops with one client and no threads: the next
operation starts only when the previous one has returned.

verify
    The ten acceptance checks, issued one by one through
    ``cli.main(["verify", <ident>])`` in ``accept.CRITERIA`` order. This is
    the headline number and most of the tier-1 suite's time. Nearly all of
    it goes to ``ideals.nat_ideal_member`` (check 1), ``poly`` evaluation
    (check 2) and ``localize.bx_witness_equal`` (check 3); the ideal lattice
    and the spectra are barely touched. The checks fix their own samples,
    so this workload ignores the seed.

ladder
    The size-scaling curve: every corpus member except ``trivial1`` plus
    four products of 16 to 32 elements, each run through ``all_ideals``,
    ``spec_enumerate``, ``sp_enumerate``, ``dimension``, ``harden``,
    ``SheafContext`` and ``equalizer_sections`` on one principal cover of
    the whole space, with ``build_mra`` on idempotent members of up to 8
    elements. The spectrum cap is raised to 32 so the 32-element rung is
    measured. Calls repeat on one semiring object, so caching derived
    structure per semiring shows here. Idempotent and
    non-idempotent members send ``sp`` down both of its code paths. No
    ``poly``, fraction or ``nat`` code runs.

session
    A scripted command-line session in a fresh workspace: ``load`` of five
    table files and one presentation, ``harden`` and ``mra`` that store new
    entries, reads of every stored name through ``axioms``, ``spec``, ``sp``,
    ``topology`` and ``sheaf``, the cheap checks through ``verify``, and
    three designed error exits (unknown name, non-cover, and a presentation
    bound refused up front with exit 8). Every command rebuilds its semiring
    from JSON, so per-object caching cannot help: the opposite of
    ``ladder``. The presentation load is the only ``presented`` work in the
    benchmark; presentations of degree 3 or more are left out because they
    take minutes.

Not measured: the 48-element rung ``boolxy*chain3`` (about 5 s per lattice
call; a pass holding it takes 25 s or more, so a run could time only one
pass, and such passes moved by a fifth between runs on a shared machine),
64-element rungs (about 15 s per spectrum call), ``build_mra`` on ``boolxy``
(does not finish in minutes) and the pytest suite (it reads hypothesis'
example database, so it does not repeat).

The seed permutes the element order of every input table before the program
sees it. Answers are counts, sizes, exit codes and the count lines of the
CLI output, which the permutation does not change, so one pin serves every
seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from typing import Callable, Dict, List, Tuple

from semispec import corpus, make_semiring
from semispec.kernel import semiring_to_dict
from semispec.errors import ResourceError

# (name, action); an action returns the operation's answer as a string.
Op = Tuple[str, Callable[[], str]]

LADDER_PRODUCTS = [
    ("boolxy", "bool2"),
    ("satnat8", "bool2"),
    ("z4", "satnat8"),
    ("satnat8", "chain4"),
]

class Refused(Exception):
    """An operation ended in ResourceError or exit code 8."""


def permuted(A, rng: random.Random):
    """A copy of A whose elements are listed in a random order."""
    order = list(A.elements)
    rng.shuffle(order)
    return make_semiring(
        order,
        lambda a, b: A.add[a][b],
        lambda a, b: A.mul[a][b],
        A.zero,
        A.one,
        A.label,
        [A.name_of(a) for a in order],
    )


def principal_cover(A, space) -> List[int]:
    """Elements whose basic opens cover the whole space, chosen by a rule
    that reads only open sizes and element names, so every seed picks the
    same named elements: largest proper opens first, skipping any that add
    no point, and the unit if proper opens leave a point uncovered."""
    order = sorted(A.elements, key=lambda a: (-bin(space.basis[a]).count("1"), A.name_of(a)))
    cover, got = [], 0
    for a in order:
        d = space.basis[a]
        if d != space.full and d & ~got:
            cover.append(a)
            got |= d
    if got != space.full:
        cover.append(A.one)
    return cover


# ---------------------------------------------------------------------------
# verify


def verify_ops(seed: int, scratch: str) -> List[Op]:
    from semispec import accept, cli

    return [(ident, _cli_action(cli, ["verify", ident], _whole)) for _n, ident, _f in accept.CRITERIA]


# ---------------------------------------------------------------------------
# ladder


def ladder_inputs(seed: int) -> list:
    """Corpus members and products, each product after a share of the
    members, so that quick and slow operations alternate through a pass."""
    rng = random.Random(seed)
    small = [corpus.get(n) for n in corpus.corpus_names() if n != "trivial1"]
    tables = []
    k = len(LADDER_PRODUCTS)
    for i, (a, b) in enumerate(LADDER_PRODUCTS):
        tables += small[i * len(small) // k:(i + 1) * len(small) // k]
        tables.append(corpus.product_semiring(corpus.get(a), corpus.get(b), f"{a}*{b}"))
    return [permuted(A, rng) for A in tables]


def ladder_ops(seed: int, scratch: str) -> List[Op]:
    from semispec import dimension, harden, is_idempotent, sp_enumerate, spec_enumerate
    from semispec.ideals import all_ideals
    from semispec.sheaf import SheafContext, equalizer_sections
    from semispec.valuation import build_mra

    # One state per semiring: the semiring and what earlier operations
    # computed from it.
    states: List[Dict[str, object]] = [{"A": A} for A in ladder_inputs(seed)]

    def spec(st):
        st["spec"] = spec_enumerate(st["A"])
        return str(st["spec"].npoints)

    def context(st):
        st["ctx"] = SheafContext(st["A"], "spec")
        return str(st["ctx"].space.npoints)

    def sections(st):
        ctx = st["ctx"]
        secs = equalizer_sections(ctx, principal_cover(st["A"], ctx.space))
        return f"{secs.table.size} iso={secs.compare_is_iso}"

    calls = [
        ("all_ideals", lambda st: str(len(all_ideals(st["A"])))),
        ("spec", spec),
        ("sp", lambda st: str(sp_enumerate(st["A"]).npoints)),
        ("dimension", lambda st: str(dimension(st["spec"]))),
        ("harden", lambda st: str(harden(st["A"]).table.size)),
        ("SheafContext", context),
        ("equalizer_sections", sections),
    ]
    mra = ("build_mra", lambda st: str(build_mra(st["A"]).table.size))
    ops: List[Op] = []
    for st in states:
        A = st["A"]
        for name, call in calls + ([mra] if is_idempotent(A) and A.size <= 8 else []):
            ops.append((f"{A.label}/{name}", lambda call=call, st=st: call(st)))
    return ops


# ---------------------------------------------------------------------------
# session

# Workspace name, corpus member or product, and a whole-space principal
# cover by element names (the ladder's rule, fixed here so that building
# the session computes nothing).
SESSION_TABLES = [
    ("t-boolx", ("boolx",), ["1+x", "1"]),
    ("t-chain3xbool", ("chain3", "bool2"), ["(1,0)", "(h,1)"]),
    ("t-satnat8", ("satnat8",), ["2", "1"]),
    ("t-boolxy", ("boolxy",), ["1+x", "1+xy", "1+y", "1"]),
    ("t-satnat8xbool2", ("satnat8", "bool2"), ["(1,0)", "(2,1)"]),
]
PRESENTATION = {"gens": ["x"], "rels": [["x*x", "x"]], "idempotent": True}
# Small idempotent entries whose submodule lattice `mra` stores.
SESSION_MRA = ["t-boolx", "t-chain3xbool", "q-x"]
SESSION_BUILTINS = ["bool2", "boolnil", "boolpair", "chain4", "f2", "satnat4", "trop5", "z4"]
SESSION_CHECKS = ["ktt", "sp-injectivity", "radical", "sheaf-lemma", "hardness", "property-suites"]


def session_inputs(seed: int, scratch: str) -> Dict[str, Dict[str, str]]:
    """Write the input files; return, per table, element name -> index."""
    rng = random.Random(seed)
    for d in ("in", "out"):
        os.makedirs(os.path.join(scratch, d), exist_ok=True)
    index: Dict[str, Dict[str, str]] = {}
    for name, parts, _cover in SESSION_TABLES:
        A = corpus.get(parts[0])
        if len(parts) == 2:
            A = corpus.product_semiring(A, corpus.get(parts[1]), name)
        A = permuted(A, rng)
        with open(os.path.join(scratch, "in", f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(semiring_to_dict(A), fh)
        index[name] = {A.name_of(a): str(a) for a in A.elements}
    with open(os.path.join(scratch, "in", "q-x.json"), "w", encoding="utf-8") as fh:
        json.dump(PRESENTATION, fh)
    return index


Command = Tuple[str, List[str], Callable[[str], str]]


def session_commands(index: Dict[str, Dict[str, str]], scratch: str) -> List[Command]:
    """The scripted session as (label, argv, answer extractor) triples. The
    label names elements and files the same way for every seed."""
    inp = os.path.join(scratch, "in")
    out = os.path.join(scratch, "out")
    cmds: List[Command] = []

    def add(argv, ex, label=None):
        cmds.append((label or " ".join(_shown(a) for a in argv), argv, ex))

    for name, _parts, _cover in SESSION_TABLES:
        add(["load", os.path.join(inp, f"{name}.json"), "--name", name], _whole)
    add(["load", os.path.join(inp, "q-x.json"), "--name", "q-x", "--degree", "2", "--coeff", "2"], _whole)
    cover_names = {name: cover for name, _p, cover in SESSION_TABLES}
    cover_names["q-x"] = ["1"]
    names = list(cover_names)
    # Each command runs over every entry before the next command, so the
    # slow entries recur through the pass instead of running back to back.
    for name in names:
        add(["axioms", name], _whole)
    for name in names:
        add(["spec", name], _first_line)
    for name in names:
        add(["sp", name], _first_line)
    for name in names:
        add(["topology", name, "--json"], _topology_json)
    for name in names:
        add(["topology", name, "--kind", "sp", "--dot"], _dot_counts)
    for name in names:
        add(["topology", name, "--dot", "--output", os.path.join(out, f"{name}.dot")], _whole_ignoring_paths)
    # Product element names contain commas, so those go by index; the
    # others by name, since the CLI reads a numeric token as a name first.
    for kind in ("spec", "sp"):
        for name in names:
            cover = ",".join(index[name][e] if "," in e else e for e in cover_names[name])
            label = f"sheaf {name} --kind {kind} --cover {' '.join(cover_names[name])}"
            add(["sheaf", name, "--kind", kind, "--cover", cover], _sheaf_report, label)
    for name in names:
        add(["harden", name], _whole)
    for verb in ("axioms", "spec", "sp"):
        for name in names:
            add([verb, f"{name}-hard"], _first_line)
    # Submodule lattices can exceed the default spectrum cap of 16, so they
    # are read back through sp, whose kernel route has no such cap.
    for name in SESSION_MRA:
        add(["mra", name], _mra_report)
        add(["axioms", f"{name}-modules"], _first_line)
        add(["sp", f"{name}-modules"], _first_line)
    for name in SESSION_BUILTINS:
        add(["axioms", name], _whole)
        add(["spec", name], _first_line)
        add(["sp", name], _first_line)
        add(["topology", name, "--json"], _topology_json)
    for ident in SESSION_CHECKS:
        add(["verify", ident], _whole)
    add(["spec", "no-such-name"], _whole)
    add(["sheaf", "t-boolx", "--cover", "0"], _whole)
    add(["load", os.path.join(inp, "q-x.json"), "--name", "q-big", "--degree", "10", "--coeff", "10"], _whole)
    return cmds


def session_ops(seed: int, scratch: str) -> List[Op]:
    from semispec import cli

    index = session_inputs(seed, scratch)
    return [
        (f"{i:03d} {label}", _cli_action(cli, argv, ex))
        for i, (label, argv, ex) in enumerate(session_commands(index, scratch))
    ]


def _shown(arg: str) -> str:
    return os.path.basename(arg) if os.sep in arg else arg


# ---------------------------------------------------------------------------
# answers


def _cli_action(cli, argv: List[str], extract: Callable[[str], str]) -> Callable[[], str]:
    def run() -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
        if rc == 8:
            raise Refused(f"exit 8: {' '.join(argv)}")
        return f"rc={rc} {extract(buf.getvalue()) if rc == 0 else ''}".rstrip()

    return run


def _whole(text: str) -> str:
    return text.strip()


def _whole_ignoring_paths(text: str) -> str:
    return " ".join(_shown(w) for w in text.split())


def _first_line(text: str) -> str:
    return text.splitlines()[0] if text else ""


def _topology_json(text: str) -> str:
    d = json.loads(text)
    opens = {tuple(v) for v in d["basis"].values()}
    return f"{d['kind']} points={len(d['points'])} subtractive={sum(p['subtractive'] for p in d['points'])} basic_opens={len(opens)}"


def _dot_counts(text: str) -> str:
    lines = text.splitlines()
    return f"nodes={sum('[label=' in l for l in lines)} edges={sum('->' in l for l in lines)}"


def _sheaf_report(text: str) -> str:
    d = json.loads(text)
    keys = ("sections", "base_map_injective", "base_map_bijective", "localization_comparison_iso")
    return " ".join(f"{k}={d[k]}" for k in keys)


def _mra_report(text: str) -> str:
    d = json.loads(text)
    return f"modules={d['modules']} " + " ".join(f"{k}={v}" for k, v in sorted(d["homeomorphism"].items()))


# Each workload's function takes the seed and a scratch directory, and
# returns its operations in the order they run.
WORKLOADS = {"verify": verify_ops, "ladder": ladder_ops, "session": session_ops}
REFUSALS = (Refused, ResourceError)
