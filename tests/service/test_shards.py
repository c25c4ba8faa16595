"""Shard-lease and job-claim primitives: the farm's election machinery.

Everything runs on injectable clocks — lease expiry, takeover, and
contention races are exercised without a single sleep.  The hypothesis
property at the bottom is the farm's core safety argument in miniature:
two daemons interleaving claim/renew/expire operations arbitrarily can
never both hold the dispatch token for one job at the same time.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import faults
from repro.service.shards import (
    DEFAULT_SHARD_LEASE_SECONDS,
    JobClaims,
    ShardBoard,
    ShardBoardError,
)


@pytest.fixture(autouse=True)
def _no_faults():
    faults.reset()
    yield
    faults.reset()


def board(tmp_path, owner, now, shards=4, lease=10.0):
    return ShardBoard(
        tmp_path / "shards",
        owner=owner,
        shards=shards,
        lease_seconds=lease,
        clock=lambda: now[0],
    )


class TestShardBoard:
    def test_free_shard_single_winner(self, tmp_path):
        now = [100.0]
        a = board(tmp_path, "a", now)
        b = board(tmp_path, "b", now)
        assert a.claim(2)
        assert not b.claim(2)  # unexpired lease held by a live peer
        lease = b.read(2)
        assert lease.owner == "a" and lease.epoch == 1
        assert not lease.expired(now[0])

    def test_claim_is_idempotent_for_the_owner(self, tmp_path):
        now = [0.0]
        a = board(tmp_path, "a", now)
        assert a.claim(0)
        assert a.claim(0)  # re-claim after e.g. a restart: still ours

    def test_expired_lease_takeover_bumps_epoch(self, tmp_path):
        now = [0.0]
        a = board(tmp_path, "a", now)
        b = board(tmp_path, "b", now)
        assert a.claim(1)
        now[0] = 10.0  # deadline is claimed_at + 10.0 → expired (<=)
        assert b.claim(1)
        lease = b.read(1)
        assert lease.owner == "b"
        assert lease.epoch == 2  # every ownership change is fenced

    def test_renew_extends_and_respects_ownership(self, tmp_path):
        now = [0.0]
        a = board(tmp_path, "a", now)
        b = board(tmp_path, "b", now)
        assert a.claim(3)
        now[0] = 9.0
        assert a.renew(3)
        now[0] = 18.0  # would have expired at 10 without the renewal
        assert not b.claim(3)  # renewed lease runs to 19
        assert not b.renew(3)  # not the owner: renew refuses
        now[0] = 19.5
        assert b.claim(3)
        assert not a.renew(3)  # a discovers the loss and must demote

    def test_renew_of_own_expired_lease_reclaims(self, tmp_path):
        now = [0.0]
        a = board(tmp_path, "a", now)
        assert a.claim(0)
        now[0] = 50.0  # long freeze: our lease lapsed, nobody took it
        assert a.renew(0)
        assert a.read(0).epoch == 2  # went through claim: epoch bumped

    def test_release_frees_instantly(self, tmp_path):
        now = [0.0]
        a = board(tmp_path, "a", now)
        b = board(tmp_path, "b", now)
        assert a.claim(0)
        a.release(0)
        assert b.claim(0)  # no lease wait after a graceful shutdown
        assert b.read(0).epoch == 2  # the handback is fenced too

    def test_shard_count_mismatch_refuses_to_boot(self, tmp_path):
        now = [0.0]
        board(tmp_path, "a", now, shards=4)
        with pytest.raises(ShardBoardError, match="shard-count mismatch"):
            board(tmp_path, "b", now, shards=8)

    def test_corrupt_lease_is_taken_over(self, tmp_path):
        now = [0.0]
        a = board(tmp_path, "a", now)
        (a.directory / "shard-0002.json").write_text("{not json")
        assert a.claim(2)
        assert a.read(2).owner == "a"

    def test_snapshot_and_live_owners(self, tmp_path):
        now = [0.0]
        a = board(tmp_path, "a", now)
        b = board(tmp_path, "b", now)
        assert a.claim(0) and b.claim(1)
        rows = a.snapshot()
        assert [r["owner"] for r in rows] == ["a", "b", None, None]
        assert rows[2]["expired"] and rows[2]["lease_age"] is None
        assert a.live_owners() == {"a", "b"}
        now[0] = 10.0
        assert a.live_owners() == set()  # both leases aged out

    def test_lease_write_fault_costs_the_claim_only(self, tmp_path):
        now = [0.0]
        a = board(tmp_path, "a", now)
        faults.install(
            {"rules": [{"site": "lease.write", "at": [1], "match": "a:"}]}
        )
        assert not a.claim(0)  # injected disk failure: claim lost...
        assert a.claim(0)  # ...but nothing is wedged; retry wins
        assert a.read(0).owner == "a"

    def test_partition_rule_makes_renew_lie(self, tmp_path):
        now = [0.0]
        a = board(tmp_path, "a", now)
        b = board(tmp_path, "b", now)
        assert a.claim(0)
        faults.install(
            {"rules": [{"site": "daemon.partition", "every": 1, "match": "a:"}]}
        )
        now[0] = 9.0
        assert a.renew(0)  # a *believes* it renewed...
        now[0] = 10.5
        assert b.claim(0)  # ...but the file aged out: b takes over
        faults.reset()
        assert not a.renew(0)  # partition heals: a discovers the loss


class TestJobClaims:
    def claims(self, tmp_path, owner, now, lease=30.0):
        return JobClaims(
            tmp_path / "claims",
            owner=owner,
            lease_seconds=lease,
            clock=lambda: now[0],
        )

    def test_single_winner(self, tmp_path):
        now = [0.0]
        a = self.claims(tmp_path, "a", now)
        b = self.claims(tmp_path, "b", now)
        assert a.claim("job-1")
        assert not b.claim("job-1")
        assert a.holds("job-1") and not b.holds("job-1")
        assert b.holder("job-1") == "a"

    def test_release_then_reclaim(self, tmp_path):
        now = [0.0]
        a = self.claims(tmp_path, "a", now)
        b = self.claims(tmp_path, "b", now)
        assert a.claim("job-1")
        a.release("job-1")
        assert b.claim("job-1")

    def test_stale_claim_is_buried(self, tmp_path):
        now = [0.0]
        a = self.claims(tmp_path, "a", now)
        b = self.claims(tmp_path, "b", now)
        assert a.claim("job-1")
        now[0] = 29.0
        assert not b.claim("job-1")  # within the lease: respected
        now[0] = 31.0
        assert b.claim("job-1")  # older than the lease: crash remnant

    def test_claim_held_past_the_lease_is_elected_again(self, tmp_path):
        now = [0.0]
        a = self.claims(tmp_path, "a", now)
        b = self.claims(tmp_path, "b", now)
        assert a.claim("job-1") and a.claim("job-2")
        now[0] = 31.0  # a sat on both claims past the lease
        assert b.claim("job-1")  # b buried a's stale claim
        assert not a.claim("job-1")  # a's token is gone: b holds the job
        assert not a.holds("job-1")
        assert a.claim("job-2")  # nobody took job-2: a wins it again
        now[0] = 40.0
        assert not b.claim("job-2")  # ... with a fresh claim

    def test_release_after_revoke_is_a_noop(self, tmp_path):
        now = [0.0]
        a = self.claims(tmp_path, "a", now)
        b = self.claims(tmp_path, "b", now)
        assert a.claim("job-1")
        b.revoke("job-1")  # reaper clears the frozen holder's claim
        assert b.claim("job-1")
        a.release("job-1")  # late release must not clobber b's token
        assert b.holder("job-1") == "b"

    def test_corrupt_claim_counts_as_stale(self, tmp_path):
        now = [0.0]
        a = self.claims(tmp_path, "a", now)
        (a.directory / "job-1.json").write_text("garbage")
        assert a.claim("job-1")
        assert json.loads((a.directory / "job-1.json").read_text())[
            "owner"
        ] == "a"


# ---------------------------------------------------------------------------
# Property: two daemons contending for one shard/job under any interleaving
# of claims, renewals, releases, and clock advances never both hold the
# dispatch token at once (satellite: the farm's no-double-dispatch core).

_OPS = st.lists(
    st.tuples(
        st.sampled_from(["claim", "renew", "release", "advance"]),
        st.sampled_from(["a", "b"]),
        st.floats(min_value=0.1, max_value=15.0),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(ops=_OPS)
def test_two_daemons_never_both_hold_one_job(tmp_path_factory, ops):
    tmp_path = tmp_path_factory.mktemp("contend")
    now = [0.0]
    lease = 5.0
    daemons = {
        name: JobClaims(
            tmp_path / "claims",
            owner=name,
            lease_seconds=lease,
            clock=lambda: now[0],
        )
        for name in ("a", "b")
    }
    # `held` models what each daemon believes; the invariant cross-checks
    # belief against the single on-disk token.
    held = {"a": False, "b": False}
    for op, who, dt in ops:
        me, other = daemons[who], daemons["a" if who == "b" else "b"]
        if op == "claim":
            if me.claim("job-x"):
                other_name = "a" if who == "b" else "b"
                if held[other_name] and not held[who]:
                    # A successful steal of a stale claim: the old holder
                    # notices at its next refresh and releases — exactly
                    # the dispatcher's superseded-attempt path.  The
                    # token-checked release must not clobber our claim.
                    other.release("job-x")
                    held[other_name] = False
                held[who] = True
        elif op == "renew":
            # Claims have no renew; holding is re-asserted via claim().
            if held[who]:
                assert me.claim("job-x")  # idempotent for the holder
        elif op == "release":
            me.release("job-x")
            held[who] = False
        else:
            now[0] += dt
        assert not (held["a"] and held["b"]), (
            "both daemons believe they hold job-x"
        )
        on_disk = daemons["a"].holder("job-x")
        for name in ("a", "b"):
            if held[name]:
                assert on_disk == name
