"""The tolerance ledger: every model-agreement bound, in one place.

Two kinds of bounds live here:

* **Differential rules** (:data:`DEFAULT_LEDGER`) — per oracle pair, per
  damping regime, optionally restricted in threshold f, each with a
  documented physical justification.  The differential checker
  (:mod:`repro.verify.differential`) compares oracle observations
  pairwise against these rules; a missing rule means the pair is *not
  checked* in that regime (e.g. Elmore against an underdamped response,
  which it cannot represent).

* **Named unit tolerances** (:data:`UNIT_TOLERANCES`) — the rtol/atol
  bounds the unit-test and benchmark suites assert.  They were
  historically scattered as literals across ``tests/test_delay.py``,
  ``tests/test_response.py`` and the figure benchmarks; routing them
  through :func:`unit_tolerance` makes every bound auditable and keeps a
  tightening (or loosening) an explicit, reviewable ledger change.

Relative error convention: rules are ordered (subject, reference) and the
checker computes ``|tau_subject - tau_reference| / tau_reference`` — the
reference is the more trusted oracle of the pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

#: Wildcard matching any damping regime in a rule.
ANY_REGIME = "*"


@dataclass(frozen=True)
class ToleranceRule:
    """One pairwise agreement bound.

    Attributes
    ----------
    subject, reference:
        Oracle names; the relative error is measured against
        ``reference``.
    regime:
        Damping regime the rule applies to ('overdamped',
        'critically_damped', 'underdamped' or ``ANY_REGIME``).
    rel_tol:
        Maximum allowed relative delay error.
    f_min, f_max:
        Inclusive threshold range the rule covers.
    justification:
        Why this bound is physically the right one — shown in the
        discrepancy report so a violation is actionable.
    """

    subject: str
    reference: str
    regime: str
    rel_tol: float
    f_min: float = 0.0
    f_max: float = 1.0
    justification: str = ""

    def matches(self, regime: str, f: float) -> bool:
        if self.regime != ANY_REGIME and self.regime != regime:
            return False
        return self.f_min <= f <= self.f_max


class ToleranceLedger:
    """Ordered rule collection; first matching rule wins.

    Declaration order is the specificity order: put narrow (regime- or
    f-restricted) rules before broad fallbacks.
    """

    def __init__(self, rules: Iterable[ToleranceRule] = ()) -> None:
        self.rules: List[ToleranceRule] = list(rules)

    def add(self, rule: ToleranceRule) -> None:
        self.rules.append(rule)

    def pairs(self) -> List[Tuple[str, str]]:
        """Distinct (subject, reference) pairs the ledger checks."""
        seen: List[Tuple[str, str]] = []
        for rule in self.rules:
            pair = (rule.subject, rule.reference)
            if pair not in seen:
                seen.append(pair)
        return seen

    def bound_for(self, subject: str, reference: str, regime: str,
                  f: float) -> Optional[ToleranceRule]:
        """First rule covering (subject, reference, regime, f), or None."""
        for rule in self.rules:
            if (rule.subject == subject and rule.reference == reference
                    and rule.matches(regime, f)):
                return rule
        return None

    def to_payload(self) -> List[Dict[str, Any]]:
        """JSON-ready form (embedded in discrepancy reports)."""
        return [{"subject": r.subject, "reference": r.reference,
                 "regime": r.regime, "rel_tol": r.rel_tol,
                 "f_min": r.f_min, "f_max": r.f_max,
                 "justification": r.justification}
                for r in self.rules]


#: The committed differential ledger.  Bounds were calibrated on the
#: committed case matrix (see tests/test_verify_differential.py) and then
#: given ~2x headroom so they fail on genuine model changes, not on
#: platform noise.
DEFAULT_LEDGER = ToleranceLedger([
    # -- two-pole Pade model vs the exact transfer function ------------
    ToleranceRule(
        "two_pole", "talbot", ANY_REGIME, 0.55, f_max=0.35,
        justification=(
            "The exact distributed response (Eq. 1) starts with a "
            "diffusion/time-of-flight latency before the far end moves; "
            "a lumped two-pole response rises immediately, so the "
            "earliest crossings carry the largest model error.  The "
            "committed matrix observes up to ~37% at f = 0.2 "
            "(compact-sized underdamped stages).")),
    ToleranceRule(
        "two_pole", "talbot", "underdamped", 0.55, f_min=0.75,
        justification=(
            "High thresholds on a ringing response sit near the overshoot "
            "plateau where dv/dt is small, so the Pade-2 waveform error "
            "converts to a large crossing-time error (observed up to ~37% "
            "at f = 0.9 on the committed matrix).")),
    ToleranceRule(
        "two_pole", "talbot", ANY_REGIME, 0.20,
        justification=(
            "Pade-2 truncation error of the exact H(s) (Eq. 1) at "
            "mid-to-high thresholds on non-ringing responses; the paper "
            "accepts the two-pole model as within ~15% of circuit "
            "simulation for practical damping (observed max ~12.4% at "
            "f = 0.5 on the committed matrix).")),
    # -- two-pole Pade model vs the MNA transient simulator ------------
    ToleranceRule(
        "two_pole", "mna", ANY_REGIME, 0.55, f_max=0.35,
        justification=(
            "Same wavefront-latency error as the talbot pair — the "
            "20-section ladder reproduces the distributed latency the "
            "lumped two-pole model lacks.")),
    ToleranceRule(
        "two_pole", "mna", "underdamped", 0.55, f_min=0.75,
        justification=(
            "Same overshoot-plateau amplification as the talbot pair, "
            "plus ladder discretization on the reference side.")),
    ToleranceRule(
        "two_pole", "mna", ANY_REGIME, 0.20,
        justification=(
            "Pade-2 truncation plus <=3% ladder discretization; dominated "
            "by the model error, hence the same budget as vs talbot.")),
    # -- MNA ladder vs the exact transfer function ---------------------
    ToleranceRule(
        "mna", "talbot", ANY_REGIME, 0.05,
        justification=(
            "A 20-section ladder of a uniform RLC line reproduces the "
            "distributed response to within a few percent "
            "(tests/test_integration.py observes <3%; the bound adds "
            "headroom for trapezoidal integration error).")),
    # -- Elmore single-pole baseline vs the two-pole model -------------
    ToleranceRule(
        "elmore", "two_pole", "overdamped", 0.60,
        justification=(
            "The single-pole model is exact only in the widely-separated "
            "pole limit; at moderately overdamped operating points the "
            "second pole still delays the early response, so tau_Elmore "
            "underestimates low-f and overestimates high-f crossings by "
            "tens of percent.  This pair bounds gross regressions (sign "
            "flips, unit slips), not model accuracy.")),
    ToleranceRule(
        "elmore", "two_pole", "critically_damped", 0.60,
        justification=(
            "At critical damping the b1-only model is still a usable "
            "order-of-magnitude delay; the 1.678 b1/2 closed form vs "
            "ln(1/(1-f)) b1 differ by <50% across the f matrix.")),
    # Underdamped Elmore is intentionally unchecked: the single-pole
    # model cannot represent ringing, and the error is unbounded as
    # zeta -> 0.  (No rule == pair skipped in that regime.)
    # -- Kahng-Muddu closed forms vs the two-pole model ----------------
    ToleranceRule(
        "kahng_muddu", "two_pole", "critically_damped", 1e-6,
        justification=(
            "At critical damping KM *is* the exact two-pole closed form "
            "(both solve (1+x)e^-x = 1-f on the double pole), so any "
            "disagreement beyond float roundoff is a real bug in one of "
            "the two implementations.  The committed matrix observes "
            "<5e-7 at every f.")),
    ToleranceRule(
        "kahng_muddu", "two_pole", "overdamped", 0.35, f_max=0.35,
        justification=(
            "KM's dominant-pole branch drops the fast pole, whose "
            "residue matters most during the early rise; the committed "
            "matrix observes ~21% at f = 0.2.")),
    ToleranceRule(
        "kahng_muddu", "two_pole", "overdamped", 0.06,
        justification=(
            "By mid-rise the fast pole has decayed and the dominant-pole "
            "branch tracks the two-pole solve to a few percent (observed "
            "max ~3.0% at f >= 0.5).")),
    ToleranceRule(
        "kahng_muddu", "two_pole", "underdamped", 4.0, f_max=0.35,
        justification=(
            "KM's underdamped asymptotic branch is qualitatively wrong "
            "for early crossings of a ringing response (observed ~2.7x "
            "at f = 0.2) — exactly the inaccuracy the reproduced paper "
            "criticizes.  This bound only guards against sign/unit "
            "errors, not model accuracy.")),
    ToleranceRule(
        "kahng_muddu", "two_pole", "underdamped", 1.8, f_max=0.6,
        justification=(
            "Envelope-decay neglect in KM's underdamped branch is still "
            "a ~1.2x effect at the 50% threshold on the committed "
            "matrix; order-of-magnitude agreement is all the baseline "
            "promises.")),
    ToleranceRule(
        "kahng_muddu", "two_pole", "underdamped", 0.50,
        justification=(
            "Near the ringing peak the KM branch recovers to "
            "double-digit-percent accuracy (observed ~28% at f = 0.9).")),
    # -- Ismail-Friedman fitted 50% delay vs the two-pole model --------
    ToleranceRule(
        "ismail_friedman", "two_pole", ANY_REGIME, 0.30,
        f_min=0.5, f_max=0.5,
        justification=(
            "Curve fit calibrated on Ismail-Friedman's own SPICE matrix; "
            "reproduced here as the *shape* baseline the paper "
            "criticizes.  Near-critical and compact-sized stages sit at "
            "the edge of the fitted range where the committed matrix "
            "observes up to ~15% disagreement.")),
])


#: Named unit-test / benchmark tolerances.  Keys are
#: '<suite>.<subject>.<kind>' where kind is 'rel' or 'abs'.
UNIT_TOLERANCES: Dict[str, float] = {
    # tests/test_delay.py -------------------------------------------------
    # Dominant-pole limit at zeta = 5: pole ratio ~100, fast-pole residue
    # ~1%, so 2% covers it with margin.
    "delay.dominant_pole_limit.rel": 0.02,
    # Critically damped closed form x = 1.67835 quoted to 6 significant
    # digits in the paper's reference solution.
    "delay.critical_closed_form.rel": 1e-4,
    # A solved crossing must sit on the threshold to solver precision.
    "delay.on_threshold.abs": 1e-9,
    # Brent vs Newton-polished solutions of the same crossing.
    "delay.brent_vs_newton.rel": 1e-9,
    # Source-form equivalence (Stage / Moments / StepResponse inputs).
    "delay.source_equivalence.rel": 1e-12,
    # tests/test_delay_underdamped.py --------------------------------------
    # Delay continuity across the l_crit classification boundary: the
    # over/underdamped branches agree to solver precision at the seam, but
    # the +-1e-9 parameter nudge itself moves the crossing by O(1e-7).
    "delay.critical_boundary_continuity.rel": 1e-6,
    # A raw (unguarded) Newton iterate is only polished to the 1e-6
    # residual its stopping rule promises — far looser than the bracketed
    # on-threshold bound above, which is the point of the guard.
    "delay.newton_crossing_residual.abs": 1e-6,
    # tests/test_response.py ----------------------------------------------
    # v(0) = 0 exactly up to float roundoff.
    "response.initial_value.abs": 1e-12,
    # Settling: |v - 1| at 5x the 1e-6 settling time.
    "response.settles_to_one.abs": 1e-5,
    # Closed-form canonical responses evaluated against their formula.
    "response.closed_form.abs": 1e-9,
    # Analytic overshoot vs a 20k-point sampled peak.
    "response.overshoot_sampled.rel": 1e-3,
    # Analytic derivative vs central finite difference.
    "response.derivative_fd.rel": 1e-5,
    # dv/dt(0) of a second-order response is exactly zero; the bound is
    # absolute because the derivative carries 1/s units (~1e9 scale), so
    # 1e-3 is ~1e-12 relative to the peak slope.
    "response.initial_slope.abs": 1e-3,
    # Closed-form overshoot exp(-pi zeta / sqrt(1 - zeta^2)) vs the
    # analytic peak evaluation: same formula, float roundoff only.
    "response.canonical_overshoot.rel": 1e-9,
    # First undershoot depth = overshoot^2 (envelope identity): analytic
    # vs analytic, float roundoff only.
    "response.undershoot_square.rel": 1e-9,
    # dv/dt at the solved peak time: peak_time is a closed form, so the
    # residual slope is float cancellation at the ~1e9 1/s scale.
    "response.derivative_at_peak.abs": 1e-2,
    # tests/test_integration.py -------------------------------------------
    # Simulator vs exact inversion: ladder discretization only.
    "integration.sim_vs_exact.rel": 0.03,
    # Two-pole vs exact inversion: the Pade error budget the paper accepts.
    "integration.pade_vs_exact.rel": 0.15,
    # Overshoot agreement between simulator and exact inversion (volts).
    "integration.overshoot.abs": 0.05,
    # Transient results against the dense per-iteration solver: the
    # reduced-ring periods and first-segment current densities pinned in
    # tests/test_integration.py, and whole waveforms (relative to each
    # one's peak) against the dense reference of
    # tests/test_transient_reference.py.  The terminal-block Schur
    # complement reorders the elimination: linear circuits stayed
    # bitwise, the pinned ring values moved by <= 1.4e-14 relative and
    # the reference waveforms by <= 4e-13.  The bound still sits 10^6x
    # inside the benchmark's 1e-3 table check, so any real change to the
    # transient numerics trips it.
    "transient.golden.rel": 1e-9,
    # benchmarks ----------------------------------------------------------
    # Newton-only vs bracketed delay solve on identical crossings.
    "bench.solvers.newton_vs_bracketed.rel": 1e-9,
    # KM closed forms far from their asymptotic validity: order-of-
    # magnitude agreement is all the baseline promises (the paper's point).
    "bench.solvers.km_vs_exact.rel": 0.5,
    # Direct (Nelder-Mead) vs Newton optimizer agreement where both
    # converge.
    "bench.solvers.direct_vs_newton.rel": 1e-4,
    # Table 1 reproduction: the paper quotes h_optRC to 0.1 mm, k_optRC
    # as an integer, and tau_optRC to 0.01 ps; the closed forms must hit
    # the tabulated values to quoting precision.
    "bench.table1.h_opt_mm.abs": 0.05,
    "bench.table1.k_opt.abs": 1.0,
    "bench.table1.tau_ps.abs": 0.1,
    # Extraction substitutes (r, c from geometry) vs the tabulated values.
    "bench.table1.extraction.rel": 0.10,
    # Simulator-characterized r_s vs the stored Table 1 value.
    "bench.table1.r_s_simulated.rel": 0.05,
    # tests/test_kernels*.py ----------------------------------------------
    # Batched kernels vs the scalar pipeline on identical stages.  The
    # kernels share the scalar path's expression graphs (moments_terms,
    # two_pole_values, critical_inductance_terms), so moments, poles,
    # responses and l_crit agree bitwise; the solved crossing itself may
    # differ between the masked-hybrid and Brent refiners by solver
    # stopping tolerance only.  Golden fixtures were re-blessed with this
    # change: critical_inductance now evaluates through the shared
    # elementwise graph (h2*h2 products instead of `**`), moving the
    # regime-defining l values of the case matrix by ~1 ulp, which rewrites
    # every content-hashed entry key; the observations themselves agree to
    # these bounds.
    "kernels.scalar_vs_vector.rel": 1e-9,
    # Brent reference solver vs the vectorized masked Newton/bisection
    # hybrid on the same response (independent refiners, same bracket).
    "kernels.brent_vs_vector.rel": 1e-9,
}


def unit_tolerance(name: str) -> float:
    """Look up a named unit-test tolerance from the ledger."""
    try:
        return UNIT_TOLERANCES[name]
    except KeyError:
        known = ", ".join(sorted(UNIT_TOLERANCES))
        raise KeyError(
            f"unknown unit tolerance {name!r}; known: {known}") from None
