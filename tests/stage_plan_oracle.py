"""From-scratch reference for filling one routing stage.

:meth:`StagePlan.place_pair` keeps sorted line mirrors, an occupancy index
and per-call window summaries so that each probe is a handful of float
compares.  This module is the slow, stateless checker the tests compare it
against.  A stage is a :class:`Stage` of plain dicts and every check
recomputes what it needs from them: C2/C3 by a linear scan of one line map
(:func:`line_ok`), C1 by landing every engaged AOD atom afresh
(:func:`engaged_atoms`, :func:`violates_c1`).  Nothing here shares state
with the plan, and no function mutates its inputs, so a disagreement
points at the plan.
"""

from __future__ import annotations

from dataclasses import replace
from typing import NamedTuple

from repro.core.constraints import CandidateSet, ConstraintToggles
from repro.hardware import AtomLocation, RAAArchitecture

_EPS = 1e-6

Site = tuple[float, float]


def snap(site: Site) -> Site:
    """Round both coordinates to the comparison resolution."""
    return (round(site[0] / _EPS) * _EPS, round(site[1] / _EPS) * _EPS)


def candidates(sites: list[Site]) -> CandidateSet:
    """The router's form of raw candidate *sites*: ``(raw, snapped)``
    pairs, best-first, with their extremes."""
    return CandidateSet.from_pairs([(s, snap(s)) for s in sites])


class Rules(NamedTuple):
    """What stays fixed while a stage fills: the device, where every atom
    lives and which constraints are enforced."""

    architecture: RAAArchitecture
    locations: dict[int, AtomLocation]
    toggles: ConstraintToggles


class Stage(NamedTuple):
    """One stage's state as plain containers, laid out like a plan's."""

    row_maps: dict[int, dict[int, float]]
    col_maps: dict[int, dict[int, float]]
    scheduled: dict[Site, tuple[int, int]]
    busy: set[int]


def empty_stage(architecture: RAAArchitecture) -> Stage:
    aods = range(1, architecture.num_arrays)
    return Stage({a: {} for a in aods}, {a: {} for a in aods}, {}, set())


def stage_of(plan) -> Stage:
    """A plan's public state as a :class:`Stage` (the same objects)."""
    return Stage(plan.row_maps, plan.col_maps, plan.scheduled, plan.busy_qubits)


def line_ok(
    toggles: ConstraintToggles, existing: dict[int, float], index: int, target: float
) -> bool:
    """Can line *index* map to *target* given the other entries?

    Order preservation (C2) forbids *inversions*; overlap (C3) forbids
    *equal* targets.  With both enforced the map is strictly monotone;
    relaxing C3 alone still requires a weakly monotone map.  One line
    cannot be in two places whatever the toggles.
    """
    bound = existing.get(index)
    if bound is not None:
        return abs(bound - target) < _EPS
    for other_idx, other_t in existing.items():
        if toggles.no_overlap and abs(other_t - target) < _EPS:
            return False
        if toggles.preserve_order:
            if other_idx < index and other_t > target + _EPS:
                return False
            if other_idx > index and other_t < target - _EPS:
                return False
    return True


def line_requirements(
    locations: dict[int, AtomLocation], qubit: int, site: Site
) -> list[tuple[str, int, int, float]]:
    """Row/col map entries needed to bring *qubit* to *site* (none for an
    SLM atom, which never moves)."""
    loc = locations[qubit]
    if loc.is_slm:
        return []
    return [
        ("row", loc.array, loc.row, site[0]),
        ("col", loc.array, loc.col, site[1]),
    ]


def can_add(rules: Rules, stage: Stage, qubit_a: int, qubit_b: int, site: Site) -> bool:
    """Check everything but C1 for scheduling the pair at *site*: free
    qubits, a free site inside the array, no stray SLM atom on the site
    (with C1 enforced), SLM atoms at home, and C2/C3 on every line the
    pair moves, each entry checked against the committed map plus the
    pair's earlier entries."""
    architecture, locations, toggles = rules
    if qubit_a in stage.busy or qubit_b in stage.busy:
        return False
    site = snap(site)
    if site in stage.scheduled:
        return False
    if not (
        -0.5 <= site[0] <= architecture.site_rows - 0.5
        and -0.5 <= site[1] <= architecture.site_cols - 0.5
    ):
        return False
    slm_here = slm_sites(locations).get(site)
    if (
        slm_here is not None
        and slm_here not in (qubit_a, qubit_b)
        and toggles.no_unintended_interaction
    ):
        return False
    trial = {
        "row": {a: dict(m) for a, m in stage.row_maps.items()},
        "col": {a: dict(m) for a, m in stage.col_maps.items()},
    }
    for q in (qubit_a, qubit_b):
        loc = locations[q]
        if loc.is_slm and (
            abs(loc.row - site[0]) > _EPS or abs(loc.col - site[1]) > _EPS
        ):
            return False
        for axis, aod, idx, target in line_requirements(locations, q, site):
            line = trial[axis][aod]
            if not line_ok(toggles, line, idx, target):
                return False
            line[idx] = target
    return True


def with_pair(
    locations: dict[int, AtomLocation],
    stage: Stage,
    qubit_a: int,
    qubit_b: int,
    site: Site,
) -> Stage:
    """A copy of *stage* with the pair committed at *site* (which must
    have passed :func:`can_add`)."""
    site = snap(site)
    maps = {
        "row": {a: dict(m) for a, m in stage.row_maps.items()},
        "col": {a: dict(m) for a, m in stage.col_maps.items()},
    }
    for q in (qubit_a, qubit_b):
        for axis, aod, idx, target in line_requirements(locations, q, site):
            maps[axis][aod][idx] = target
    scheduled = dict(stage.scheduled)
    scheduled[site] = (qubit_a, qubit_b)
    return Stage(maps["row"], maps["col"], scheduled, stage.busy | {qubit_a, qubit_b})


def slm_sites(locations: dict[int, AtomLocation]) -> dict[Site, int]:
    """SLM trap -> the qubit living there."""
    return {
        (float(loc.row), float(loc.col)): q
        for q, loc in locations.items()
        if loc.is_slm
    }


def engaged_atoms(
    locations: dict[int, AtomLocation], stage: Stage
) -> list[tuple[int, Site]]:
    """Every AOD atom whose row and column are both mapped, with its
    landing point."""
    out: list[tuple[int, Site]] = []
    for q, loc in locations.items():
        if not loc.is_aod:
            continue
        r = stage.row_maps[loc.array].get(loc.row)
        c = stage.col_maps[loc.array].get(loc.col)
        if r is not None and c is not None:
            out.append((q, snap((r, c))))
    return out


def occupancy(
    locations: dict[int, AtomLocation], stage: Stage
) -> dict[Site, list[int]]:
    """Landing point -> the engaged AOD atoms there, sorted."""
    out: dict[Site, list[int]] = {}
    for q, site in engaged_atoms(locations, stage):
        out.setdefault(site, []).append(q)
    return {site: sorted(atoms) for site, atoms in out.items()}


def violates_c1(locations: dict[int, AtomLocation], stage: Stage) -> bool:
    """True if any interaction point hosts a non-scheduled pair or more
    than two atoms."""
    traps = slm_sites(locations)
    for site, aod_atoms in occupancy(locations, stage).items():
        atoms = list(aod_atoms)
        if site in traps:
            atoms.append(traps[site])
        if len(atoms) == 1:
            continue
        if len(atoms) > 2:
            return True
        pair = stage.scheduled.get(site)
        if pair is None or set(atoms) != set(pair):
            return True
    return False


def reference_place(
    rules: Rules, stage: Stage, qubit_a: int, qubit_b: int, sites: list[Site]
) -> tuple[tuple[Site | None, bool], Stage]:
    """The reference probe loop over raw candidate *sites*, best-first.

    Returns ``((site, overlap_blocked), stage_after)``: the first site
    that passes :func:`can_add` and, with C1 enforced, leaves no C1
    violation once committed (or None); ``overlap_blocked`` is True when
    C3 is enforced and a site rejected by :func:`can_add` passes it with
    C3 relaxed (the Fig. 24 statistic).
    """
    toggles = rules.toggles
    relaxed = rules._replace(toggles=replace(toggles, no_overlap=False))
    overlap_blocked = False
    for site in sites:
        if not can_add(rules, stage, qubit_a, qubit_b, site):
            if toggles.no_overlap and can_add(relaxed, stage, qubit_a, qubit_b, site):
                overlap_blocked = True
            continue
        after = with_pair(rules.locations, stage, qubit_a, qubit_b, site)
        if toggles.no_unintended_interaction and violates_c1(rules.locations, after):
            continue
        return (site, overlap_blocked), after
    return (None, overlap_blocked), stage


def stage_violation(rules: Rules, gates: list[tuple[int, int, Site]]) -> str | None:
    """Replay one stage's ``(qubit_a, qubit_b, site)`` gates onto an empty
    stage; describe the first gate the enforced constraints reject, or
    return None when the whole stage is legal."""
    stage = empty_stage(rules.architecture)
    for a, b, site in gates:
        if not can_add(rules, stage, a, b, site):
            return f"gate ({a}, {b}) at {site} breaks C2/C3 or the site rules"
        stage = with_pair(rules.locations, stage, a, b, site)
    if rules.toggles.no_unintended_interaction and violates_c1(rules.locations, stage):
        return "the stage breaks C1"
    return None
