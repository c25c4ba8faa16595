"""Interactively explore the three RAA movement constraints (Figs. 9-11).

Recreates the paper's three violation scenarios with a tiny hand-built
stage plan: each second gate is rejected by ``StagePlan.place_pair`` with
its constraint enforced and placed with that constraint relaxed.  Then it
compiles the same workload with each constraint relaxed to quantify the
scheduling cost of real hardware rules (mini Fig. 22).

Run:  python examples/constraint_playground.py
"""

from repro.baselines import compile_on_atomique
from repro.core.compiler import AtomiqueConfig
from repro.core.constraints import CandidateSet, ConstraintToggles, StagePlan
from repro.core.router import RouterConfig
from repro.experiments import raa_for
from repro.generators import qaoa_random
from repro.hardware import AtomLocation, RAAArchitecture


def place(plan: StagePlan, qubit_a: int, qubit_b: int, site) -> bool:
    """Offer *site* as the pair's only candidate; True if it was placed.
    Lattice points are their own snapped form, so each candidate is the
    ``(raw, snapped)`` pair ``(site, site)``."""
    placed, _overlap_blocked = plan.place_pair(
        qubit_a, qubit_b, CandidateSet.from_pairs([(site, site)])
    )
    return placed is not None


def second_gate_placed(locations, toggles, first, second) -> bool:
    """Fill a fresh stage with gate *first*, then offer gate *second*."""
    arch = RAAArchitecture.default(side=4, num_aods=2)
    plan = StagePlan(architecture=arch, locations=locations, toggles=toggles)
    assert place(plan, *first)
    return place(plan, *second)


def show(locations, relaxed, first, second, why) -> None:
    a, b, site = second
    placed = []
    for label, toggles in (("enforced", ConstraintToggles()), ("relaxed ", relaxed)):
        placed.append(second_gate_placed(locations, toggles, first, second))
        print(f"  {label}: q{a}-q{b} at {site} placed = {placed[-1]}")
    print(f"  -> {why}\n")
    assert placed == [False, True], "the constraint no longer decides this gate"


def fig9_unintended_interaction() -> None:
    print("Constraint 1 (Fig. 9): no unintended pairs in Rydberg range")
    locations = {
        0: AtomLocation(0, 0, 0),  # SLM
        1: AtomLocation(0, 1, 1),  # SLM
        2: AtomLocation(0, 1, 0),  # SLM - the innocent bystander
        3: AtomLocation(1, 0, 0),  # AOD row 0 / col 0
        4: AtomLocation(1, 1, 1),  # AOD row 1 / col 1
        5: AtomLocation(1, 1, 0),  # AOD row 1 / col 0 - dragged along!
    }
    print("  q3-q0 placed at site (0,0): AOD row 0 -> 0, col 0 -> 0")
    show(
        locations,
        ConstraintToggles(no_unintended_interaction=False),
        (3, 0, (0.0, 0.0)),
        (4, 1, (1.0, 1.0)),
        "q5 (row 1, col 0) would land on SLM qubit q2's site",
    )


def fig10_order_preservation() -> None:
    print("Constraint 2 (Fig. 10): AOD row/col order must be preserved")
    locations = {
        0: AtomLocation(0, 0, 0),
        1: AtomLocation(0, 1, 1),
        2: AtomLocation(1, 0, 0),
        3: AtomLocation(1, 1, 1),
    }
    print("  q2-q1 placed at site (1,1): AOD row 0 -> site row 1")
    show(
        locations,
        ConstraintToggles(preserve_order=False),
        (2, 1, (1.0, 1.0)),
        (3, 0, (0.0, 0.0)),
        "AOD row 1 -> site row 0 would swap the rows in flight",
    )


def fig11_no_overlap() -> None:
    print("Constraint 3 (Fig. 11): rows/columns cannot overlap")
    locations = {
        0: AtomLocation(0, 2, 0),
        1: AtomLocation(0, 2, 3),
        2: AtomLocation(1, 0, 0),
        3: AtomLocation(1, 1, 3),
    }
    print("  q2-q0 placed at site (2,0): AOD row 0 -> site row 2")
    show(
        locations,
        ConstraintToggles(no_overlap=False),
        (2, 0, (2.0, 0.0)),
        (3, 1, (2.0, 3.0)),
        "AOD row 1 -> site row 2 would put two lines on one coordinate",
    )


def relaxation_study() -> None:
    print("cost of each constraint on QAOA-rand-40 (mini Fig. 22):")
    circuit = qaoa_random(40, edge_prob=0.1, seed=40)
    arch = raa_for(circuit)
    settings = [
        ("all constraints", ConstraintToggles()),
        ("relax C1", ConstraintToggles(no_unintended_interaction=False)),
        ("relax C2", ConstraintToggles(preserve_order=False)),
        ("relax C3", ConstraintToggles(no_overlap=False)),
    ]
    for label, toggles in settings:
        cfg = AtomiqueConfig(router=RouterConfig(toggles=toggles))
        m = compile_on_atomique(circuit, arch, cfg)
        print(
            f"  {label:16s}: depth {m.depth:4d}, "
            f"exec {m.execution_seconds * 1e3:6.2f} ms, "
            f"2Q {m.num_2q_gates}"
        )


if __name__ == "__main__":
    fig9_unintended_interaction()
    fig10_order_preservation()
    fig11_no_overlap()
    relaxation_study()
