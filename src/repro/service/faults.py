"""Deterministic, seeded fault injection for the compile service.

The chaos tests need failures that happen *exactly* where and when the
test says — a worker process that dies on the second attempt of one
specific job, a socket that drops after the daemon processed a submit but
before the response left, a spool write that fails on the Nth transition.
Random fault injection cannot assert bit-identical recovery; this module
makes every fault a pure function of the call sequence.

A :class:`FaultPlan` is a list of :class:`FaultRule`\\ s, each naming an
injection **site** (a string the production code passes at the hook) plus
a trigger: explicit 1-based call indices (``at``), a period (``every``), a
seeded probability (``prob``), and an optional ``match`` substring the
call's context string must contain.  Counters are kept per rule and count
only *matching* calls, so interleaved traffic at one site cannot shift
another rule's schedule.  Given the same plan and the same sequence of
``fires()`` calls, the same faults fire — that is the whole point.

Wired sites (grep for the site string to find the hook):

======================  =====================================================
site                    effect when a rule fires
======================  =====================================================
``worker.crash``        shard worker process hard-exits (``os._exit``) —
                        the dispatcher sees ``BrokenProcessPool``
``job.slow``            the job sleeps ``seconds`` before compiling
                        (drives the per-job timeout path)
``socket.drop``         the server closes the connection after processing
                        a request, before the response frame is written
``frame.corrupt``       the last byte of an outbound binary frame is
                        flipped before the write — the client must raise
                        :class:`~repro.service.wire.WireError`, not hang
                        or accept garbage
``spool.write``         a job-record spool write raises :class:`InjectedFault`
``spool.result``        a result spool write raises :class:`InjectedFault`
``daemon.exit``         the daemon hard-exits right after a job completes
                        (the deterministic stand-in for SIGKILL mid-run)
``lease.write``         a shard-board or job-claim file write raises
                        :class:`InjectedFault` (lease churn under disk
                        trouble)
``daemon.partition``    a farm daemon's lease renewal silently writes
                        nothing while still reporting success — the lease
                        ages out and a peer takes the shard over while the
                        "partitioned" daemon believes it still owns it
``steal.race``          sleep ``seconds`` between picking a steal victim
                        and claiming it — widens the window two daemons
                        contend for one job (the claim file picks the
                        single winner)
======================  =====================================================

Plans cross process boundaries as JSON (:meth:`FaultPlan.to_spec` /
:meth:`FaultPlan.from_spec`): the service ships its plan to shard workers
through the pool initializer, and ``python -m repro serve --faults`` /
the ``REPRO_FAULTS`` environment variable arm a whole daemon subprocess.
Production deployments never install a plan, and every hook is a single
``None`` check when none is installed.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass, field
from typing import Any

#: Environment variable holding a JSON fault-plan spec; daemon processes
#: and shard workers install it at boot so subprocess chaos tests can arm
#: faults without any API call.
FAULTS_ENV = "REPRO_FAULTS"


class InjectedFault(OSError):
    """An injected disk/IO failure.

    Subclasses :class:`OSError` so production code paths treat a fired
    rule exactly like a real disk failure — nothing may special-case
    injected faults outside the tests.
    """


@dataclass(frozen=True)
class FaultRule:
    """One trigger at one site.  Fields beyond ``site`` are all optional:

    - ``at``: 1-based matching-call indices that fire;
    - ``every``: additionally fire every Nth matching call;
    - ``prob``: fire with this probability per matching call (seeded —
      deterministic for a given plan seed and call sequence);
    - ``match``: only calls whose context contains this substring count;
    - ``limit``: stop firing after this many firings;
    - ``seconds``: sleep length for ``job.slow`` sites;
    - ``exit_code``: process exit status for crash/exit sites.
    """

    site: str
    at: tuple[int, ...] = ()
    every: int | None = None
    prob: float | None = None
    match: str | None = None
    limit: int | None = None
    seconds: float = 0.05
    exit_code: int = 86

    def to_spec(self) -> dict[str, Any]:
        spec: dict[str, Any] = {"site": self.site}
        if self.at:
            spec["at"] = list(self.at)
        if self.every is not None:
            spec["every"] = self.every
        if self.prob is not None:
            spec["prob"] = self.prob
        if self.match is not None:
            spec["match"] = self.match
        if self.limit is not None:
            spec["limit"] = self.limit
        if self.seconds != 0.05:
            spec["seconds"] = self.seconds
        if self.exit_code != 86:
            spec["exit_code"] = self.exit_code
        return spec

    @classmethod
    def from_spec(cls, spec: dict[str, Any]) -> "FaultRule":
        try:
            return cls(
                site=str(spec["site"]),
                at=tuple(int(i) for i in spec.get("at", ())),
                every=(
                    int(spec["every"]) if spec.get("every") is not None else None
                ),
                prob=(
                    float(spec["prob"]) if spec.get("prob") is not None else None
                ),
                match=(
                    str(spec["match"]) if spec.get("match") is not None else None
                ),
                limit=(
                    int(spec["limit"]) if spec.get("limit") is not None else None
                ),
                seconds=float(spec.get("seconds", 0.05)),
                exit_code=int(spec.get("exit_code", 86)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad fault rule spec {spec!r}: {exc}") from exc


class FaultPlan:
    """A seeded set of fault rules with per-rule matching-call counters."""

    def __init__(self, rules: list[FaultRule], seed: int = 0) -> None:
        self.rules = list(rules)
        self.seed = seed
        self._counts = [0] * len(self.rules)
        self._fired = [0] * len(self.rules)
        # One RNG per probabilistic rule, seeded from (plan seed, rule
        # index) so rule order — not call interleaving across sites —
        # determines each rule's stream.
        self._rngs = [
            random.Random((seed << 16) ^ i) if r.prob is not None else None
            for i, r in enumerate(self.rules)
        ]

    # -- construction / shipping -------------------------------------------

    @classmethod
    def from_spec(cls, spec: str | dict[str, Any]) -> "FaultPlan":
        """Build a plan from a JSON string or an already-parsed dict."""
        if isinstance(spec, str):
            try:
                spec = json.loads(spec)
            except json.JSONDecodeError as exc:
                raise ValueError(f"bad fault plan JSON: {exc}") from exc
        if not isinstance(spec, dict):
            raise ValueError(
                f"fault plan spec must be an object, got {type(spec).__name__}"
            )
        rules = [FaultRule.from_spec(r) for r in spec.get("rules", [])]
        return cls(rules, seed=int(spec.get("seed", 0)))

    @classmethod
    def coerce(
        cls, plan: "FaultPlan | str | dict[str, Any] | None"
    ) -> "FaultPlan | None":
        if plan is None or isinstance(plan, FaultPlan):
            return plan
        return cls.from_spec(plan)

    def to_spec(self) -> dict[str, Any]:
        """JSON-safe spec that round-trips through :meth:`from_spec`."""
        return {"seed": self.seed, "rules": [r.to_spec() for r in self.rules]}

    # -- firing --------------------------------------------------------------

    def fires(self, site: str, context: str = "") -> FaultRule | None:
        """The first rule firing for this call at *site*, if any.

        Every call increments the matching-call counter of each rule whose
        site and ``match`` apply, whether or not it fires, so schedules
        stay stable as other rules come and go.
        """
        hit: FaultRule | None = None
        for i, rule in enumerate(self.rules):
            if rule.site != site:
                continue
            if rule.match is not None and rule.match not in context:
                continue
            self._counts[i] += 1
            if hit is not None:
                continue  # keep counting, but first firing rule wins
            if rule.limit is not None and self._fired[i] >= rule.limit:
                continue
            count = self._counts[i]
            firing = count in rule.at or (
                rule.every is not None and count % rule.every == 0
            )
            rng = self._rngs[i]
            if not firing and rng is not None:
                firing = rng.random() < rule.prob  # type: ignore[operator]
            if firing:
                self._fired[i] += 1
                hit = rule
        return hit


#: The process-wide installed plan.  ``None`` (the default everywhere
#: outside chaos tests) makes every hook a single attribute check.
_PLAN: FaultPlan | None = None


def install(plan: FaultPlan | str | dict[str, Any] | None) -> FaultPlan | None:
    """Install *plan* (a FaultPlan, JSON string, or spec dict) process-wide."""
    global _PLAN
    _PLAN = FaultPlan.coerce(plan)
    return _PLAN


def install_from_env() -> FaultPlan | None:
    """Install the plan from :data:`FAULTS_ENV`, if the variable is set.

    An already-installed plan is left alone so an explicit
    :func:`install` wins over the environment.
    """
    if _PLAN is not None:
        return _PLAN
    spec = os.environ.get(FAULTS_ENV)
    if not spec:
        return None
    return install(spec)


def active() -> FaultPlan | None:
    return _PLAN


def reset() -> None:
    """Remove the installed plan (test teardown)."""
    global _PLAN
    _PLAN = None


# -- hook helpers (what production call sites use) ---------------------------


def fires(site: str, context: str = "") -> FaultRule | None:
    """The firing rule for this call, or None — the raw hook."""
    if _PLAN is None:
        return None
    return _PLAN.fires(site, context)


def maybe_fail(site: str, context: str = "") -> None:
    """Raise :class:`InjectedFault` (an OSError) if a rule fires."""
    if fires(site, context) is not None:
        raise InjectedFault(f"injected {site} fault ({context or 'no context'})")


def maybe_sleep(site: str = "job.slow", context: str = "") -> None:
    """Sleep the rule's ``seconds`` if one fires."""
    rule = fires(site, context)
    if rule is not None:
        time.sleep(rule.seconds)


def maybe_exit(site: str, context: str = "") -> None:
    """Hard-exit the process (``os._exit``) if a rule fires.

    ``os._exit`` skips every finally block, atexit hook, and flush — from
    the outside it is indistinguishable from SIGKILL, which is exactly
    what the crash-recovery paths must survive.
    """
    rule = fires(site, context)
    if rule is not None:
        os._exit(rule.exit_code)
