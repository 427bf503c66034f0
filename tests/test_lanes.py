"""`lanes.gate`, `lanes.deal` and `lanes.cuts`: every rule by which a fit and
`predict` split their work into lanes, and the one module that holds them."""

import pathlib
import threading

from hypothesis import given, strategies as st

import polygam
from polygam import lanes


def test_deal_goes_heaviest_first_to_the_least_loaded_lane():
    # 9 to lane 0, 7 to lane 1, 4 to lane 1 (7 < 9), 2 to lane 0 (9 < 11);
    # each lane lists its indices in the order dealt
    assert lanes.deal([4, 9, 2, 7], 2) == [[1, 2], [3, 0]]
    assert lanes.deal([1, 5, 3], 1) == [[1, 2, 0]]
    assert lanes.deal([], 3) == [[], [], []]


def test_deal_breaks_ties_to_the_lower_index_and_the_lower_lane():
    # the workspace build of binary_large: eight features of one weight
    assert lanes.deal([5] * 8, 2) == [[0, 2, 4, 6], [1, 3, 5, 7]]
    # equal weights go in index order; equal loads take the lower lane
    assert lanes.deal([3, 5, 3, 5], 3) == [[1], [3], [0, 2]]
    assert lanes.deal([2, 2, 4], 2) == [[2], [0, 1]]


def test_deal_to_more_lanes_than_items_leaves_lanes_empty():
    assert lanes.deal([1, 3], 4) == [[1], [0], [], []]


def rows_of(ranges, sizes):
    """Every (set, row) the ranges cover, in their order."""
    return [(s, i) for pieces in ranges for s, r in pieces for i in range(*r.indices(sizes[s]))]


@given(sizes=st.lists(st.integers(0, 60), max_size=4), n=st.integers(1, 9))
def test_cuts_cover_every_row_once_in_order_in_near_equal_ranges(sizes, n):
    ranges = lanes.cuts(sizes, n)
    assert rows_of(ranges, sizes) == [(s, i) for s, size in enumerate(sizes) for i in range(size)]
    lengths = [sum(r.stop - r.start for _, r in pieces) for pieces in ranges]
    assert all(lengths) and len(ranges) == min(n, sum(sizes))
    assert max(lengths, default=0) - min(lengths, default=0) <= 1
    for pieces in ranges:
        assert all(r.stop > r.start and r.step is None for _, r in pieces)
        assert [s for s, _ in pieces] == sorted({s for s, _ in pieces})


def test_cuts_of_one_set_end_at_total_times_k_over_n():
    assert lanes.cuts([10], 3) == [[(0, slice(0, 3))], [(0, slice(3, 6))], [(0, slice(6, 10))]]
    assert lanes.cuts([7], 1) == [[(0, slice(0, 7))]]


def test_cuts_give_fewer_rows_than_lanes_fewer_ranges():
    assert lanes.cuts([2], 3) == [[(0, slice(0, 1))], [(0, slice(1, 2))]]
    assert lanes.cuts([0], 2) == []
    assert lanes.cuts([], 2) == []


def test_cuts_of_a_valid_then_train_pair_run_as_one_sequence():
    # the row pass: 5,000 validation rows, then 35,000 training rows
    assert lanes.cuts([5000, 35000], 2) == [[(0, slice(0, 5000)), (1, slice(0, 15000))],
                                            [(1, slice(15000, 35000))]]
    assert lanes.cuts([60, 180], 1) == [[(0, slice(0, 60)), (1, slice(0, 180))]]
    # an empty set takes no piece
    assert lanes.cuts([0, 4], 2) == [[(1, slice(0, 2))], [(1, slice(2, 4))]]
    assert lanes.cuts([4, 0], 2) == [[(0, slice(0, 2))], [(0, slice(2, 4))]]


def test_gate_opens_at_par_min_values(monkeypatch):
    at, calls = lanes.PAR_MIN_VALUES, []
    monkeypatch.setattr(lanes, "_cpus", lambda: calls.append(1) or 4)
    assert lanes.gate(at - 1) == 1 and lanes.gate(0) == 1
    # it reads the CPU count only once open
    assert calls == []
    assert lanes.gate(at) == 4 and calls == [1]
    # the gate reads the module's value at each call
    monkeypatch.setattr(lanes, "PAR_MIN_VALUES", 0)
    assert lanes.gate(0) == 4


def test_only_lanes_names_the_gate_value():
    # and the CPU count and the thread pool: no other module sizes lanes
    src = pathlib.Path(polygam.__file__).parent
    for name in ("PAR_MIN_VALUES", "_cpus", "ThreadPoolExecutor"):
        naming = sorted(p.name for p in src.glob("*.py") if name in p.read_text())
        assert naming == ["lanes.py"], name


def test_pool_starts_on_the_first_job_and_joins_on_exit(monkeypatch):
    monkeypatch.setattr(lanes, "_cpus", lambda: 3)
    before, ran = threading.active_count(), []

    def job():
        ran.append(threading.get_ident())

    with lanes._lanes_pool() as pool:
        lanes._on_lanes(pool, [job])
        assert threading.active_count() == before and ran == [threading.get_ident()]
        lanes._on_lanes(pool, [job, job])
        assert threading.active_count() == before + 1
    assert threading.active_count() == before and len(set(ran)) == 2
