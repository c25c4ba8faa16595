"""Monte Carlo noise simulation of compiled RAA programs.

Samples the *same* error processes the analytic model of
:mod:`repro.noise.fidelity` integrates — per-gate depolarizing failures,
heating-scaled two-qubit errors, per-move atom loss, cooling-swap gate
errors, and per-stage movement decoherence — as independent Bernoulli
events.  A trial "succeeds" when no error fires, so the success-rate
estimator converges to the analytic total fidelity; the test suite uses
this agreement to validate the closed-form model end to end.

Also provides loss-aware execution summaries: which trial lost which atom
on which stage (failure injection for robustness studies).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..core.program import ProgramStore
from ..hardware.parameters import HardwareParams
from ..noise.movement_noise import atom_loss_probability, heating_gate_factor


@dataclass
class TrialOutcome:
    """One Monte Carlo execution of a program."""

    success: bool
    failed_stage: int | None = None
    failure_kind: str | None = None  # "1q" | "2q" | "loss" | "cooling" | "deco"
    lost_atom: int | None = None


@dataclass
class MonteCarloResult:
    """Aggregated Monte Carlo estimate."""

    trials: int
    successes: int
    outcomes: list[TrialOutcome] = field(default_factory=list)

    @property
    def success_probability(self) -> float:
        return self.successes / self.trials if self.trials else 0.0

    @property
    def standard_error(self) -> float:
        p = self.success_probability
        return math.sqrt(max(p * (1 - p), 0.0) / self.trials) if self.trials else 0.0

    def failure_histogram(self) -> dict[str, int]:
        """Counts per failure kind."""
        hist: dict[str, int] = {}
        for o in self.outcomes:
            if not o.success and o.failure_kind:
                hist[o.failure_kind] = hist.get(o.failure_kind, 0) + 1
        return hist


def _stage_events(program: ProgramStore, params: HardwareParams):
    """Precompute per-stage Bernoulli failure probabilities.

    Returns a list of ``(stage_index, kind, probability, atom)`` events in
    execution order.  Loss events are matched to the analytic model by
    consuming ``program.atom_loss_log`` in order (one sample per moved atom
    per stage, recorded post-move).  The store's columns are sliced per
    stage; no stage views are built.
    """
    events = []
    loss_iter = iter(program.atom_loss_log)
    n = program.num_qubits
    s = program.collect()
    p_1q = 1.0 - params.f_1q
    p_deco_1q = 1.0 - math.exp(-params.t_1q / params.t1 * n)
    p_deco_move = 1.0 - math.exp(-params.t_per_move / params.t1 * n)
    p_deco_2q = 1.0 - math.exp(-params.t_2q / params.t1 * n)
    p_cool = 1.0 - params.f_2q
    for si in range(s.num_stages):
        if s.off_raman[si + 1] > s.off_raman[si]:
            for _ in range(s.off_raman[si + 1] - s.off_raman[si]):
                events.append((si, "1q", p_1q, None))
            # layered 1Q decoherence
            events.append((si, "deco", p_deco_1q, None))
        for i in range(s.off_amd[si], s.off_amd[si + 1]):
            nv = next(loss_iter)
            events.append(
                (si, "loss", atom_loss_probability(nv, params), s.amd_qubit[i])
            )
        if s.off_move[si + 1] > s.off_move[si]:
            events.append((si, "deco", p_deco_move, None))
        for i in range(s.off_gate[si], s.off_gate[si + 1]):
            p_gate = 1.0 - params.f_2q * heating_gate_factor(
                s.gate_n_vib[i], params
            )
            events.append((si, "2q", min(max(p_gate, 0.0), 1.0), None))
        if s.off_gate[si + 1] > s.off_gate[si]:
            events.append((si, "deco", p_deco_2q, None))
        for i in range(s.off_cool[si], s.off_cool[si + 1]):
            for _ in range(2 * s.cool_atoms[i]):
                events.append((si, "cooling", p_cool, None))
    return events


def run_monte_carlo(
    program: ProgramStore,
    params: HardwareParams,
    trials: int = 2000,
    seed: int = 0,
    keep_outcomes: bool = False,
) -> MonteCarloResult:
    """Estimate end-to-end success probability by sampling error events."""
    rng = np.random.default_rng(seed)
    events = _stage_events(program, params)
    probs = np.array([p for _, _, p, _ in events])
    successes = 0
    outcomes: list[TrialOutcome] = []
    for _ in range(trials):
        draws = rng.random(len(probs))
        failed = np.nonzero(draws < probs)[0]
        if failed.size == 0:
            successes += 1
            if keep_outcomes:
                outcomes.append(TrialOutcome(success=True))
        elif keep_outcomes:
            first = int(failed[0])
            si, kind, _, atom = events[first]
            outcomes.append(
                TrialOutcome(
                    success=False,
                    failed_stage=si,
                    failure_kind=kind,
                    lost_atom=atom,
                )
            )
    return MonteCarloResult(trials=trials, successes=successes, outcomes=outcomes)


def analytic_reference(program: ProgramStore, params: HardwareParams) -> float:
    """Product of (1 - p) over the same event list — must equal the MC mean
    in expectation and match :func:`repro.noise.estimate_raa_fidelity` up to
    the layering conventions shared by both."""
    prod = 1.0
    for _, _, p, _ in _stage_events(program, params):
        prod *= 1.0 - p
    return prod
