"""Scaled replication of the pentanomial discovery sweep.

Enumerate every shape (t, r1 < r2 < r3 < r4), keep the ones whose H/N
pair is coprime (the cheap algebraic sieve), brute-test the survivors
over each field in the configured m-set, and emit every shape that
permutes at least one of them.  Output order is (t, r-tuple), so runs
are byte-identical regardless of worker count; the optional process
pool just partitions the t range.
"""

from __future__ import annotations

import io
import json
import os
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import combinations

from .families import GeneralPentanomial, gcd_condition, table1_registry
from .oracle import monomials_permute

__all__ = [
    "SEARCH_N_CAP",
    "SearchConfig",
    "Candidate",
    "run_search",
    "match_candidates",
    "candidate_records",
    "candidates_jsonl",
    "candidates_csv",
    "summary_markdown",
]

# Search sweeps thousands of fields, so its brute ceiling sits well below
# the single-shot oracle cap.
SEARCH_N_CAP = 16
# one encoder for every record: json.dumps(..., sort_keys=True) builds one per call
_encode = json.JSONEncoder(sort_keys=True).encode


@dataclass(frozen=True)
class SearchConfig:
    """Sweep bounds: t below t_max, permutation tests over each m in m_set."""

    t_max: int = 30
    m_set: frozenset[int] = frozenset({2, 3, 4, 5})
    workers: int = 1

    def validate(self) -> None:
        if not 5 <= self.t_max <= 40:
            raise ValueError(f"t_max must lie in [5, 40] (below 5 nothing is searched), "
                             f"got {self.t_max}")
        if not self.m_set:
            raise ValueError("m_set must be nonempty")
        for m in self.m_set:
            if m < 1 or 2 * m > SEARCH_N_CAP:
                raise ValueError(
                    f"m = {m} infeasible: field degree {2 * m} exceeds cap {SEARCH_N_CAP}")
        if self.workers < 1:
            raise ValueError("workers must be positive")

    @property
    def m_list(self) -> tuple[int, ...]:
        return tuple(sorted(self.m_set))


@dataclass(frozen=True)
class Candidate:
    """A sieve survivor with its full per-m permutation record."""

    shape: GeneralPentanomial
    survived_m: tuple[int, ...]
    matched_row: int | None = None

    def sort_key(self):
        return (self.shape.t, self.shape.rs)


def _search_block(args) -> list[tuple[GeneralPentanomial, tuple[int, ...]]]:
    t_values, m_list = args
    found = []
    for t in t_values:
        for rs in combinations(range(1, t + 1), 4):
            shape = GeneralPentanomial(t, rs)
            if not gcd_condition(shape):
                continue
            survived = tuple(
                m for m in m_list
                if monomials_permute(2 * m, shape.exponents(m), cap=SEARCH_N_CAP))
            if survived:
                found.append((shape, survived))
    return found


def run_search(cfg: SearchConfig) -> list[Candidate]:
    """Run the sieve-then-brute sweep; candidates in (t, r-tuple) order.

    Every m in the m-set is tested for every sieve survivor (no early
    abandonment), so survived_m is the complete record.
    """
    cfg.validate()
    m_list = cfg.m_list
    t_values = list(range(4, cfg.t_max))
    nblocks = min(cfg.workers * 4, len(t_values))
    # the pool forks every worker up front, so never more than can run
    workers = min(cfg.workers, os.cpu_count() or 1, nblocks)
    if workers == 1:
        blocks = [_search_block((t_values, m_list))]
    else:
        from concurrent.futures import ProcessPoolExecutor

        chunks = [t_values[k::nblocks] for k in range(nblocks)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(_search_block, [(c, m_list) for c in chunks]))
    found = [Candidate(shape, survived) for block in blocks for shape, survived in block]
    found.sort(key=Candidate.sort_key)
    return found


def match_candidates(cands: list[Candidate]) -> list[Candidate]:
    """Annotate candidates whose (t, r-tuple) equals a registry row's shape."""
    by_shape = {row.shape(): row.row_no for row in table1_registry()}
    return [Candidate(c.shape, c.survived_m, by_shape.get(c.shape)) for c in cands]


def candidate_records(cands: list[Candidate]) -> Iterator[dict]:
    """One search_candidate record per candidate: params and result, no agrees.

    A generator, so candidates_jsonl holds one record at a time.
    """
    for c in cands:
        yield {"kind": "search_candidate",
               "params": {"t": c.shape.t, "r": list(c.shape.rs)},
               "result": {"survived_m": list(c.survived_m), "matched_row": c.matched_row}}


def candidates_jsonl(cands: list[Candidate]) -> str:
    """One JSON object per line, stable key order."""
    return "".join(_encode(rec) + "\n" for rec in candidate_records(cands))


def candidates_csv(cands: list[Candidate]) -> str:
    """Fixed-column CSV: t, r1..r4, survived_m (semicolon-joined), matched_row."""
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t", "r1", "r2", "r3", "r4", "survived_m", "matched_row"])
    for c in cands:
        writer.writerow([
            c.shape.t, *c.shape.rs,
            ";".join(str(m) for m in c.survived_m),
            "" if c.matched_row is None else c.matched_row,
        ])
    return buf.getvalue()


def summary_markdown(cands: list[Candidate]) -> str:
    """Human summary: totals plus the registry rows that showed up."""
    matched = [c for c in cands if c.matched_row is not None]
    lines = [
        f"Candidates surviving at least one m: {len(cands)}",
        "",
        "| row | t | r-tuple | survived m |",
        "|----:|--:|---------|------------|",
    ]
    for c in sorted(matched, key=lambda c: c.matched_row):
        rs = ",".join(str(r) for r in c.shape.rs)
        ms = ",".join(str(m) for m in c.survived_m)
        lines.append(f"| {c.matched_row} | {c.shape.t} | ({rs}) | {{{ms}}} |")
    if not matched:
        lines.append("| — | — | — | — |")
    return "\n".join(lines) + "\n"
