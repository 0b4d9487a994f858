"""Per-layer metrics of the traced run, and the end-to-end metric and
workload each one should move.

A later change that speeds up one layer cites its row here: the per-layer
number is where the saving should show, and the end-to-end metric on the
named workload is what must improve. ``BENCHMARK.json`` lists the same
names; ``test_perfbench.py`` checks that the two agree.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from tracer import LAYERS

ALL_LAYERS = LAYERS + ("core",)
CLI_COMMANDS = ("load", "axioms", "spec", "sp", "topology", "sheaf", "harden", "mra", "verify")
CHECKS = (
    "spec-nat", "bool-poly-sp", "bx-hardening", "sheaf-lemma", "ktt",
    "sp-injectivity", "radical", "universal-valuation", "hardness", "property-suites",
)

# A metric reads the tracer summary and returns a number, or None when a
# traced name it needs is absent from the package.
Reader = Callable[[dict], Optional[float]]


def calls(name: str) -> Reader:
    return lambda s: s["stats"][name]["calls"] if name in s["stats"] else None


def self_s(name: str) -> Reader:
    return lambda s: s["stats"][name]["self_s"] if name in s["stats"] else None


def counter(key: str, needs: str) -> Reader:
    return lambda s: s["counters"].get(key, 0) if needs in s["stats"] else None


def ratio(num: Reader, den: Reader) -> Reader:
    def read(s):
        n, d = num(s), den(s)
        if n is None or d is None:
            return None
        return n / d if d else 0.0

    return read


def layer_sum(layer: str, field: str) -> Reader:
    def read(s):
        vals = [v[field] for v in s["stats"].values() if v["layer"] == layer]
        return sum(vals) if vals else None

    return read


# (name, unit, better, reader, what it should move)
Row = Tuple[str, str, str, Reader, str]

LADDER_IDEALS = "wall_s on ladder, and its printed op_p90_ms (ideal lattice: caching, joins, semi-naive closure)"
LADDER_SPECTRA = "wall_s on ladder (spectra by propagation search)"
VERIFY_NAT = "wall_s on verify (one Apery table per generator set)"
VERIFY_POLY = "wall_s on verify (criterion 2 on bitmasks)"
VERIFY_BX = "wall_s on verify (incremental products in the witness scan)"
LADDER_SHEAF = "wall_s on ladder at its 32-element rung; a small share of verify (checks 4, 9, 10)"
MRA = "wall_s on verify (check 8) and on session, and the printed op_p90_ms of session"
PRESENTED = "wall_s on session, and its printed op_p90_ms"
KERNEL_LOAD = "wall_s and the printed op_p50_ms on session, and setup_s on every workload"
KERNEL_ISO = "wall_s on verify and ladder (the sp cross-check)"
CLI = "wall_s on session, and its printed op_p50_ms and op_p90_ms"

ROWS: List[Row] = [
    ("ideals.all_ideals.calls", "count", "lower", calls("ideals.all_ideals"), LADDER_IDEALS),
    ("ideals.all_ideals.self_s", "s", "lower", self_s("ideals.all_ideals"), LADDER_IDEALS),
    ("core.ideal_closure_mask.calls", "count", "lower", calls("core.ideal_closure_mask"), LADDER_IDEALS),
    ("ideals.closures_per_ideal", "ratio", "lower",
     ratio(counter("ideals.all_ideals.closures", "core.ideal_closure_mask"),
           counter("ideals.all_ideals.returned", "ideals.all_ideals")), LADDER_IDEALS),
    ("ideals.is_prime.calls", "count", "lower", calls("ideals.is_prime"), LADDER_IDEALS),
    ("ideals.is_prime.self_s", "s", "lower", self_s("ideals.is_prime"), LADDER_IDEALS),
    ("spectra.spec_enumerate.self_s", "s", "lower", self_s("spectra.spec_enumerate"), LADDER_SPECTRA),
    ("spectra.sp_enumerate.self_s", "s", "lower", self_s("spectra.sp_enumerate"), LADDER_SPECTRA),
    ("spectra.primes_per_ideal", "ratio", "higher",
     ratio(counter("spectra.points", "spectra.spec_enumerate"),
           counter("spectra.ideals_examined", "ideals.all_ideals")), LADDER_SPECTRA),
    ("ideals.nat_ideal_member.calls", "count", "lower", calls("ideals.nat_ideal_member"), VERIFY_NAT),
    ("ideals.nat_ideal_member.self_s", "s", "lower", self_s("ideals.nat_ideal_member"), VERIFY_NAT),
    ("ideals.nat_distinct_gensets", "ratio", "higher",
     ratio(counter("ideals.nat_gensets_distinct", "ideals.nat_ideal_member"),
           calls("ideals.nat_ideal_member")), VERIFY_NAT),
    ("spectra.nat_model_verify.self_s", "s", "lower", self_s("spectra.nat_model_verify"), VERIFY_NAT),
    ("poly.bool_eval.calls", "count", "lower", calls("poly.bool_eval"), VERIFY_POLY),
    ("poly.vanishing_set.self_s", "s", "lower", self_s("poly.vanishing_set"), VERIFY_POLY),
    ("poly.monomial_kernel_set.self_s", "s", "lower", self_s("poly.monomial_kernel_set"), VERIFY_POLY),
    ("localize.bx_witness_equal.calls", "count", "lower", calls("localize.bx_witness_equal"), VERIFY_BX),
    ("localize.bx_witness_equal.self_s", "s", "lower", self_s("localize.bx_witness_equal"), VERIFY_BX),
    ("core.bx_witness_exhaustive.calls", "count", "lower", calls("core.bx_witness_exhaustive"), VERIFY_BX),
    ("core.bx_witness_exhaustive.self_s", "s", "lower", self_s("core.bx_witness_exhaustive"), VERIFY_BX),
    ("localize.localize.calls", "count", "lower", calls("localize.localize"), LADDER_SHEAF),
    ("localize.localize.self_s", "s", "lower", self_s("localize.localize"), LADDER_SHEAF),
    ("localize.harden.self_s", "s", "lower", self_s("localize.harden"), LADDER_SHEAF),
    ("sheaf.SheafContext.self_s", "s", "lower", self_s("sheaf.SheafContext"), LADDER_SHEAF),
    ("sheaf.equalizer_sections.self_s", "s", "lower", self_s("sheaf.equalizer_sections"), LADDER_SHEAF),
    ("sheaf.alexandrov_sections.self_s", "s", "lower", self_s("sheaf.alexandrov_sections"), LADDER_SHEAF),
    ("valuation.build_mra.calls", "count", "lower", calls("valuation.build_mra"), MRA),
    ("valuation.build_mra.self_s", "s", "lower", self_s("valuation.build_mra"), MRA),
    ("core.closure_mask.calls", "count", "lower", calls("core.closure_mask"), MRA),
    ("valuation.vstar_homeo_check.self_s", "s", "lower", self_s("valuation.vstar_homeo_check"), MRA),
    ("presented.finite_quotient.self_s", "s", "lower", self_s("presented.finite_quotient"), PRESENTED),
    ("presented.congruent.calls", "count", "lower", calls("presented.CongruenceIndex.congruent"), PRESENTED),
    ("presented.classes_per_query", "ratio", "higher",
     ratio(counter("presented.quotient_classes", "presented.finite_quotient"),
           counter("presented.quotient_queries", "presented.CongruenceIndex.congruent")), PRESENTED),
    ("kernel.verify_axioms.calls", "count", "lower", calls("kernel.verify_axioms"), KERNEL_LOAD),
    ("kernel.verify_axioms.self_s", "s", "lower", self_s("kernel.verify_axioms"), KERNEL_LOAD),
    ("kernel.load_semiring.calls", "count", "lower", calls("kernel.load_semiring"), KERNEL_LOAD),
    ("kernel.load_semiring.self_s", "s", "lower", self_s("kernel.load_semiring"), KERNEL_LOAD),
    ("kernel.find_iso.self_s", "s", "lower", self_s("kernel.find_iso"), KERNEL_ISO),
    ("kernel.enumerate_homs.self_s", "s", "lower", self_s("kernel.enumerate_homs"), KERNEL_ISO),
]
for _cmd in CLI_COMMANDS:
    ROWS.append((f"cli.{_cmd}.calls", "count", "lower", calls(f"cli.cmd_{_cmd}"), CLI))
    ROWS.append((f"cli.{_cmd}.self_s", "s", "lower", self_s(f"cli.cmd_{_cmd}"), CLI))
ROWS.append(("cli.workspace_bytes_written", "bytes", "lower", counter("cli.workspace_bytes_written", "cli.main"), CLI))
ROWS.append(("cli.workspace_bytes_read", "bytes", "lower", counter("cli.workspace_bytes_read", "kernel.load_semiring"), CLI))
for _ident in CHECKS:
    ROWS.append((f"accept.{_ident}_s", "s", "lower", counter(f"accept.{_ident}_s", "accept.run_criterion"),
                 "wall_s on verify (inclusive time of one check)"))
for _layer in ALL_LAYERS:
    ROWS.append((f"{_layer}.self_s", "s", "lower", layer_sum(_layer, "self_s"),
                 "wall_s on the workloads that call this layer"))
    ROWS.append((f"{_layer}.refused", "count", "lower", layer_sum(_layer, "refused"),
                 "answered_frac on the workloads that call this layer"))

# trace_overhead_frac is computed from the two runs, not the summary.
OVERHEAD = ("trace_overhead_frac", "ratio", "lower", "nothing: the cost of tracing itself")


def per_layer(summary: dict, plain_wall: float, traced_wall: float) -> Tuple[Dict[str, dict], List[str]]:
    """The per-layer metrics, and the names whose traced function is absent."""
    metrics, absent = {}, []
    for name, unit, _better, read, _moves in ROWS:
        value = read(summary)
        if value is None:
            absent.append(name)
            value = 0
        metrics[name] = {"value": value, "unit": unit}
    metrics[OVERHEAD[0]] = {"value": traced_wall / plain_wall - 1, "unit": OVERHEAD[1]}
    return metrics, absent


def declared() -> List[dict]:
    """The per_layer entries of BENCHMARK.json."""
    rows = [(n, u, b) for n, u, b, _r, _m in ROWS] + [OVERHEAD[:3]]
    return [{"name": n, "unit": u, "better": b} for n, u, b in rows]
