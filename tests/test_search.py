"""Unit tests for the discovery sweep."""

from collections import Counter

import pytest

from pentaperm import families, search
from pentaperm.families import GeneralPentanomial, table1_registry
from pentaperm.search import (
    Candidate,
    SearchConfig,
    candidates_csv,
    candidates_jsonl,
    match_candidates,
    run_search,
    summary_markdown,
)


def _by_shape(cands):
    return {(c.shape.t, c.shape.rs): c for c in cands}


def test_config_validation():
    SearchConfig(t_max=12, m_set=frozenset({2})).validate()
    with pytest.raises(ValueError):
        SearchConfig(t_max=12, m_set=frozenset({10})).validate()
    with pytest.raises(ValueError):
        SearchConfig(t_max=4, m_set=frozenset({2})).validate()
    with pytest.raises(ValueError):
        SearchConfig(t_max=12, m_set=frozenset()).validate()
    with pytest.raises(ValueError):
        SearchConfig(t_max=12, m_set=frozenset({2}), workers=0).validate()


def test_row2_shape_found_at_m2():
    cands = run_search(SearchConfig(t_max=12, m_set=frozenset({2})))
    got = _by_shape(cands)
    assert (11, (1, 3, 9, 10)) in got
    assert got[(11, (1, 3, 9, 10))].survived_m == (2,)


def test_row1_shape_survives_only_odd_m():
    cands = run_search(SearchConfig(t_max=10, m_set=frozenset({2, 3})))
    got = _by_shape(cands)
    assert got[(9, (3, 5, 7, 8))].survived_m == (3,)


def test_match_candidates():
    cands = run_search(SearchConfig(t_max=14, m_set=frozenset({2})))
    matched = _by_shape(match_candidates(cands))
    assert matched[(11, (1, 3, 9, 10))].matched_row == 2
    assert matched[(13, (5, 8, 9, 12))].matched_row == 4
    unmatched = [c for c in matched.values() if c.matched_row is None]
    assert unmatched  # plenty of sporadic small-field survivors


def test_starred_shapes_pass_the_sieve():
    # r = 0 families satisfy the coprimality condition, so the sieve can
    # never drop a starred row's shape
    from pentaperm.families import gcd_condition

    for row in table1_registry():
        if row.starred:
            assert gcd_condition(row.shape())


def test_candidate_ordering_and_determinism():
    cfg = SearchConfig(t_max=12, m_set=frozenset({2, 3}))
    a = run_search(cfg)
    b = run_search(cfg)
    assert a == b
    keys = [c.sort_key() for c in a]
    assert keys == sorted(keys)


def test_worker_count_does_not_change_output():
    base = candidates_jsonl(match_candidates(
        run_search(SearchConfig(t_max=14, m_set=frozenset({2, 3})))))
    forked = candidates_jsonl(match_candidates(
        run_search(SearchConfig(t_max=14, m_set=frozenset({2, 3}), workers=2))))
    assert base == forked


def test_search_call_counts(monkeypatch):
    # the traced-benchmark gate at a small size: every shape gets one sieve
    # gcd and every survivor one brute test per m, none dropped at the call site
    calls = Counter()

    def count(owner, name):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for owner, name in ((search, "gcd_condition"), (families, "poly_gcd"),
                        (search, "monomials_permute")):
        count(owner, name)
    cands = run_search(SearchConfig(t_max=12, m_set=frozenset({2, 3})))
    # sum of C(t, 4) for t = 4..11 shapes; 520 sieve survivors, two m each
    assert calls == {"gcd_condition": 792, "poly_gcd": 792, "monomials_permute": 1040}
    assert len(cands) == 415


def test_jsonl_and_csv_round():
    import json

    cand = Candidate(GeneralPentanomial(11, (1, 3, 9, 10)), (2, 3), 2)
    line = candidates_jsonl([cand]).strip()
    data = json.loads(line)
    assert data["params"] == {"r": [1, 3, 9, 10], "t": 11}
    assert data["result"]["survived_m"] == [2, 3]
    csv_text = candidates_csv([cand])
    assert csv_text.splitlines()[0] == "t,r1,r2,r3,r4,survived_m,matched_row"
    assert csv_text.splitlines()[1] == "11,1,3,9,10,2;3,2"
    md = summary_markdown([cand])
    assert "| 2 | 11 |" in md


def test_survived_m_fully_recorded():
    # no early abandonment: a shape failing one m still records later ones
    cands = run_search(SearchConfig(t_max=10, m_set=frozenset({2, 3})))
    got = _by_shape(cands)
    row1 = got[(9, (3, 5, 7, 8))]
    assert row1.survived_m == (3,)  # failed m=2 but m=3 still tested


class _RecordingExecutor:
    """In-process stand-in for ProcessPoolExecutor that records its size."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("workers,cpus,t_max,expected", [
    (64, 2, 12, [2]),     # bounded by the CPU count
    (8, 16, 6, [2]),      # bounded by the two t-blocks of range(4, 6)
    (3, 2, 10, [2]),      # the config-precedence case on a 2-CPU machine
    (4, None, 12, []),    # unknown CPU count: no pool at all
])
def test_worker_pool_is_bounded(monkeypatch, workers, cpus, t_max, expected):
    import concurrent.futures
    import os

    monkeypatch.setattr(_RecordingExecutor, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingExecutor)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    m_set = frozenset({2, 3})
    got = run_search(SearchConfig(t_max=t_max, m_set=m_set, workers=workers))
    assert _RecordingExecutor.sizes == expected
    assert got == run_search(SearchConfig(t_max=t_max, m_set=m_set))
