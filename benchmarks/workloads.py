"""The benchmark's four workloads: fixed sequences of `poissonlie verify` calls.

A workload runs closed loop in one process: each call starts when the previous
verdict is in.  Every call is checked against the verdict it must give, so the
knob table below is the benchmark's own copy of the documented negative
controls rather than the program's."""

from __future__ import annotations

from dataclasses import dataclass

#: knob -> the check it must make fail (the documented negative controls)
KNOB_TARGETS = {
    "jacobi_perturb_constant": "jacobi",
    "invariance_flip_action": "invariance",
    "eta_b_sign": "cocycle",
    "delta_b0_sign": "delta_consistency",
    "delta_sign_one_basis": "bialgebra_axioms",
    "r_scale_2": "coboundary",
    "uniqueness_drop_b0_rows": "uniqueness",
    "gstar_complex_diagonal": "manin",
    "deform_cocycle_scale_2": "deform",
    "twist_scale_2": "twist",
    "drop_reorder_correction": "semiclassical",
    "rho_sign": "dual_families",
}

SAMPLED_CHECKS = "invariance,cocycle,delta_consistency"
ALGEBRAIC_CHECKS = "jacobi,bialgebra_axioms,coboundary,uniqueness,manin,deform,twist"
MAIN_PAIRS = ("su21", "su31", "su41")


@dataclass(frozen=True)
class Call:
    """One `verify` invocation; `pair` names a catalog entry, or the JSON
    export of one made during set-up when `imported` is set."""

    pair: str
    checks: str | None = None
    samples: int | None = None
    knob: str | None = None
    imported: bool = False

    @property
    def expected_exit(self) -> int:
        return 0 if self.knob is None else 1

    def label(self) -> str:
        parts = [("json:" if self.imported else "") + self.pair]
        if self.checks:
            parts.append(self.checks)
        if self.samples is not None:
            parts.append(f"samples={self.samples}")
        if self.knob:
            parts.append(f"corrupt={self.knob}")
        return " ".join(parts)


@dataclass(frozen=True)
class Workload:
    """A named sequence of calls; BENCHMARK.json says why each was chosen."""

    name: str
    calls: tuple[Call, ...]

    def catalog_pairs(self) -> list[str]:
        return sorted({c.pair for c in self.calls if not c.imported})

    def imported_pairs(self) -> list[str]:
        return sorted({c.pair for c in self.calls if c.imported})


WORKLOADS = {w.name: w for w in (
    Workload(
        "sampled",
        tuple(Call(p, SAMPLED_CHECKS, 1000) for p in MAIN_PAIRS)
        + (Call("su21", "cocycle", knob="eta_b_sign"),)),
    Workload(
        "algebraic",
        tuple(Call(p, ALGEBRAIC_CHECKS) for p in ("su31", "su41"))
        + (Call("su31", ALGEBRAIC_CHECKS, knob="twist_scale_2"),
           Call("su31", ALGEBRAIC_CHECKS, knob="uniqueness_drop_b0_rows"))),
    Workload(
        "full-verify",
        tuple(Call(p) for p in ("su11",) + MAIN_PAIRS)
        + tuple(Call("su11", check, 20, knob)
                for knob, check in KNOB_TARGETS.items())),
    Workload(
        "imported",
        tuple(Call(p, imported=True) for p in MAIN_PAIRS)
        + (Call("su21", imported=True, knob="eta_b_sign"),)),
)}
