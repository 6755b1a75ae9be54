"""Global tolerances and numerical knobs, overridable per run."""

from __future__ import annotations

from dataclasses import dataclass

#: Residual tolerance for identities built from exact arithmetic on catalog data.
ALGEBRAIC_TOL = 1e-9
#: Residual tolerance for finite-difference cross-checks.
FD_TOL = 1e-6
#: Central-difference step used together with one Richardson step.
FD_STEP = 1e-4
#: Singular values below this count as zero in kernel computations.
SVD_TOL = 1e-8
#: Largest p for which the su(p,1) family is constructed (`supq1(p)`, or
#: `verify supq1 --p N`; the named catalog stops at su41).  Set by cost, not
#: by the mathematics: a full `verify supq1 --p 8` from the command line
#: passes every check in 0.9-1.3 s with a 209-211 MB peak RSS (one BLAS
#: thread, a shared 2-vCPU x86-64 machine, ten runs).  Run in process on a
#: fresh entry, the build takes 0.03-0.06 s, `manin` 0.22-0.25 s (g* is realized there),
#: `cocycle` 0.17-0.20 s, `invariance` 0.12-0.14 s, `twist` 0.13 s,
#: `delta_consistency` 0.08-0.10 s, `deform` 0.03-0.04 s and `uniqueness`
#: 0.01 s.  The peak is `manin`'s build of the table of g_C.
P_CAP = 8
#: Scale of the inner product on the symmetric part used by the twist element:
#: inner(u, v) = TWIST_INNER_SCALE * Re tr(uv).  Pinned by the Maurer-Cartan
#: equation of the twist; see the conventions report.
TWIST_INNER_SCALE = 0.5

#: The generator and how a seed selects elements: a call draws all v, then
#: all word lengths, then all factors of its sampled pairs once, and every
#: sampled check it runs reads those same elements.
PRNG_NAME = "numpy PCG64; per call: all v, all word lengths, all factors"
EXP_METHOD = "poissonlie.linalg.expm (stacked Pade-13 scaling-and-squaring)"


@dataclass(frozen=True)
class Tolerances:
    algebraic: float = ALGEBRAIC_TOL
    fd: float = FD_TOL
    fd_step: float = FD_STEP
    svd: float = SVD_TOL
    twist_inner_scale: float = TWIST_INNER_SCALE


DEFAULT_TOL = Tolerances()
