"""Model-equivalence tests for the SoftWalker dispatch structures.

The SoftPWB keeps heaps of free and valid slot indices and the
round-robin distributor walks its counters from a cursor.  Both must
make exactly the choices of the plain linear scans they replace: the
lowest INVALID slot on insert, the lowest VALID slot on take, and the
available core with the lowest ``(sm - cursor) % num_sms``.  Each test
drives the real structure and a scan-based reference side by side.
"""

import random
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DistributorPolicy
from repro.core.distributor import RequestDistributor, RoundRobinSelection
from repro.core.softpwb import SlotState, SoftPWB
from repro.ptw.request import WalkRequest
from repro.sim.stats import StatsRegistry


def req(vpn: int) -> WalkRequest:
    return WalkRequest(vpn=vpn, enqueue_time=0, start_level=4, node_base=0)


# ----------------------------------------------------------------------
# SoftPWB
# ----------------------------------------------------------------------
class ReferencePWB:
    """Linear-scan SoftPWB: the selection order the heaps must keep."""

    def __init__(self, entries: int) -> None:
        self.states = [SlotState.INVALID] * entries
        self.slots: list[WalkRequest | None] = [None] * entries

    def insert(self, request):
        for index, state in enumerate(self.states):
            if state is SlotState.INVALID:
                self.states[index] = SlotState.VALID
                self.slots[index] = request
                return index
        return None

    def take_valid(self):
        for index, state in enumerate(self.states):
            if state is SlotState.VALID:
                self.states[index] = SlotState.PROCESSING
                return index, self.slots[index]
        return None

    def complete(self, index):
        self.states[index] = SlotState.INVALID
        self.slots[index] = None


pwb_ops = st.lists(
    st.one_of(
        st.just(("insert",)),
        st.just(("take",)),
        st.tuples(st.just("complete"), st.integers(0, 63)),
    ),
    max_size=120,
)


@settings(max_examples=200, deadline=None)
@given(entries=st.integers(1, 12), ops=pwb_ops)
def test_softpwb_matches_linear_scan(entries, ops):
    pwb, ref = SoftPWB(entries), ReferencePWB(entries)
    for step, op in enumerate(ops):
        if op[0] == "insert":
            request = req(step)
            assert pwb.insert(request) == ref.insert(request)
        elif op[0] == "take":
            assert pwb.take_valid() == ref.take_valid()
        else:
            processing = [
                i for i, s in enumerate(ref.states) if s is SlotState.PROCESSING
            ]
            if not processing:
                continue
            index = processing[op[1] % len(processing)]
            pwb.complete(index)
            ref.complete(index)
        assert [pwb.state(i) for i in range(entries)] == ref.states
        assert pwb.requests() == [r for r in ref.slots if r is not None]
        for state in SlotState:
            assert pwb.count(state) == ref.states.count(state)
        invalid = ref.states.count(SlotState.INVALID)
        assert pwb.occupied == entries - invalid
        assert pwb.has_space == (invalid > 0)


# ----------------------------------------------------------------------
# Request Distributor
# ----------------------------------------------------------------------
@settings(max_examples=300, deadline=None)
@given(data=st.data(), num_sms=st.integers(1, 16), capacity=st.integers(1, 4))
def test_round_robin_pick_is_min_cursor_distance(data, num_sms, capacity):
    counters = data.draw(
        st.lists(
            st.integers(0, capacity), min_size=num_sms, max_size=num_sms
        ).filter(lambda cs: min(cs) < capacity)
    )
    cursor = data.draw(st.integers(0, num_sms - 1))
    dist = RequestDistributor(num_sms, capacity, StatsRegistry())
    dist._counters = counters
    policy = RoundRobinSelection()
    policy._cursor = cursor
    available = [sm for sm in range(num_sms) if counters[sm] < capacity]
    expected = min(available, key=lambda s: (s - cursor) % num_sms)
    assert dist.available() == available
    assert policy.select(dist) == expected
    assert policy._cursor == (expected + 1) % num_sms


class ReferenceDistributor:
    """List-scan distributor: the dispatch order of every built-in policy."""

    def __init__(self, num_sms, capacity, policy, idleness, seed=97):
        self.num_sms, self.capacity = num_sms, capacity
        self.policy, self.idleness = policy, idleness
        self.rng = random.Random(seed)
        self.cursor = 0
        self.counters = [0] * num_sms
        self.overflow: deque[int] = deque()
        self.sent: list[tuple[int, int]] = []

    def select(self):
        available = [
            sm for sm in range(self.num_sms) if self.counters[sm] < self.capacity
        ]
        if not available:
            return None
        if self.policy == DistributorPolicy.RANDOM:
            return self.rng.choice(available)
        if self.policy == DistributorPolicy.STALL_AWARE:
            return min(available, key=self.idleness)
        cursor = self.cursor
        sm = min(available, key=lambda s: (s - cursor) % self.num_sms)
        self.cursor = (sm + 1) % self.num_sms
        return sm

    def send(self, sm, vpn):
        self.counters[sm] += 1
        self.sent.append((sm, vpn))

    def submit(self, vpn):
        sm = self.select()
        if sm is None:
            self.overflow.append(vpn)
        else:
            self.send(sm, vpn)

    def complete(self, sm):
        self.counters[sm] -= 1
        if self.overflow:
            target = self.select()
            if target is not None:
                self.send(target, self.overflow.popleft())


dist_ops = st.lists(
    st.one_of(st.just(("submit",)), st.tuples(st.just("complete"), st.integers(0, 63))),
    max_size=150,
)


@settings(max_examples=150, deadline=None)
@given(
    num_sms=st.integers(1, 8),
    capacity=st.integers(1, 3),
    policy=st.sampled_from(
        [
            DistributorPolicy.ROUND_ROBIN,
            DistributorPolicy.RANDOM,
            DistributorPolicy.STALL_AWARE,
        ]
    ),
    idle=st.lists(st.integers(0, 5), min_size=8, max_size=8),
    ops=dist_ops,
)
def test_distributor_matches_list_scan(num_sms, capacity, policy, idle, ops):
    idleness = idle.__getitem__
    dist = RequestDistributor(
        num_sms, capacity, StatsRegistry(), policy=policy, idleness=idleness
    )
    sent: list[tuple[int, int]] = []
    dist.dispatch = lambda sm, request: sent.append((sm, request.vpn))
    ref = ReferenceDistributor(num_sms, capacity, policy, idleness)
    for step, op in enumerate(ops):
        if op[0] == "submit":
            dist.submit(req(step))
            ref.submit(step)
        else:
            busy = [sm for sm in range(num_sms) if ref.counters[sm] > 0]
            if not busy:
                continue
            sm = busy[op[1] % len(busy)]
            dist.complete(sm)
            ref.complete(sm)
        assert sent == ref.sent
        assert [dist.counter(sm) for sm in range(num_sms)] == ref.counters
        assert [r.vpn for r in dist.overflow_requests()] == list(ref.overflow)
