"""Seeded inputs, the measured pass and its correctness gate, per workload.

A workload is built from ``(name, seed, size)`` alone; the package only
ever sees the generated cells.  Every cell is one checked answer: the
program's answer is computed through the package and compared with an
independent reference in the same cell, so a cell's latency covers both.

Why each workload exists (the same reasons, shortened, are in
BENCHMARK.json):

crossval
    ``theory.theorem_verdict`` against ``oracle.brute_is_permutation`` on
    seeded (class, i, j <= 12) draws: many cells at m <= 9, a few at
    m = 10 and 11, one at m = 12 (n = 24, the brute cap).  Most of the time
    goes to ``field.exp_array`` and the numpy sweep at large n, so
    ``wall_s`` and ``peak_rss_mb`` follow the big-sweep cost, while the
    small cells keep ``cell_p50_ms`` sensitive to per-call overhead.  The
    brute cost depends only on n, so the seed changes the answers checked
    but not the work done.
search
    ``run_search(t_max=25, m_set={2, 3, 5}, workers=1)`` then
    ``match_candidates`` and ``candidates_jsonl``: the discovery-sweep
    replication behind the CLI ``search`` command.  The same brute sweep
    runs 107,232 times over n in {4, 6, 10}, dominated by per-call
    overhead, plus 53,130 GF(2)[x] gcds in the sieve, so a change that
    speeds big sweeps but adds per-call cost shows here.  The input is the
    paper's fixed enumeration, so the workload ignores the seed.  It uses
    one worker: a 2-worker pool on a shared 2-CPU machine measured a
    2.65-3.19 s spread from scheduling alone.  The answer is checked by
    the SHA-256 of the JSONL output against the digest recorded when the
    benchmark was defined.
structure
    The pointwise oracles, all driven by scalar ``field`` arithmetic (log
    tables for n <= 16, carryless multiply and fold beyond):
    ``g_permutes_unit_circle`` at m = 2..16 on cells without circle roots,
    checked against the gcd criterion; ramification (``gcheck``) at
    m = 2..5, checked against the fiber law E(omega) = [t - 2r] and the
    {omega, omega^2} or empty branch set; certificate search (``equiv``)
    at m = 2..8, checked by replaying the certificate, by its exponent gcd
    against the theorem verdict and by the record's brute agreement.
    ``gcheck`` and ``equiv`` run through ``cli.main`` with JSON output,
    so the CLI layer is measured and its records are checked.  Circle,
    ramification and certificates each take a large share of the pass.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import time
from dataclasses import dataclass
from typing import Callable

from pentaperm import cli, equivalence, field, oracle, search, theory
from pentaperm.families import CLASSES, FamilySpec

# (m, cells) strata of the crossval draw.  Cell cost grows about 4x per m,
# so the cells form one cluster per m; the counts put the median in the
# middle of the m = 6 cluster and the 90th percentile in the middle of the
# m = 8 cluster, where a percentile does not jump between clusters.
CROSSVAL_STRATA = {
    "full": ([(m, 10) for m in range(1, 6)] + [(6, 160), (7, 10), (8, 30)]
             + [(9, 6), (10, 3), (11, 2), (12, 1)]),
    "tiny": [(m, 4) for m in range(1, 6)],
}
CROSSVAL_IJ_MAX = 12

# Structure cells.  Circle cost does not depend on the spec, so circle
# cells are seeded draws of (m, cells) strata from (class, i, j <= 8).
# Ramification and certificate cost does depend on the spec (by up to 10x
# at one m), so a seeded subset would let the seed, not the code, move
# wall_s: those cells cover the whole (class, i, j <= k) domain at each
# (m, k) below, and the one certificate at m = 8 is the paper's family
# (B, i = 5, j = 6).  The fiber law and F_4-pool certificates were checked
# on these domains when they were chosen.
CIRCLE_STRATA = {
    "full": [(m, 4) for m in range(2, 13)] + [(m, 1) for m in range(13, 17)],
    "tiny": [(m, 2) for m in range(2, 7)],
}
CIRCLE_IJ_MAX = 8
GCHECK_DOMAINS = {"full": [(2, 2), (3, 2), (4, 2), (5, 3)], "tiny": [(2, 1), (3, 1)]}
EQUIV_DOMAINS = {"full": [(m, 2) for m in range(2, 8)], "tiny": [(m, 1) for m in (2, 3, 4)]}
EQUIV_FIXED = {"full": [("B", 5, 6, 8)], "tiny": []}

SEARCH_CONFIG = {
    "full": search.SearchConfig(t_max=25, m_set=frozenset({2, 3, 5}), workers=1),
    "tiny": search.SearchConfig(t_max=12, m_set=frozenset({2, 3}), workers=1),
}
# SHA-256 of candidates_jsonl(match_candidates(run_search(cfg))), recorded
# when the benchmark was defined (24,652 candidates at full size, 415 tiny).
SEARCH_SHA256 = {
    "full": "aeea89440baf85df58a955697e17326ee25c23596805e098294e129154969de4",
    "tiny": "3e86d3cbe8087b7dbe0000b04acd8bcd07f24103c75e50393dcacf788a692859",
}


@dataclass
class Cell:
    """One checked answer: ``run()`` returns (answer, matches_reference)."""

    label: str
    run: Callable[[], tuple[object, bool]]


def _specs(ij_max: int, keep=lambda spec: True) -> list[FamilySpec]:
    specs = [FamilySpec(cls, i, j) for cls in CLASSES
             for i in range(1, ij_max + 1) for j in range(1, ij_max + 1)]
    return [spec for spec in specs if keep(spec)]


def _spec_args(spec: FamilySpec, m: int) -> list[str]:
    return ["--class", spec.cls, "--i", str(spec.i), "--j", str(spec.j), "--m", str(m)]


def _gcd_criterion(spec: FamilySpec, m: int) -> bool:
    """Circle permutation predicted by the branch gcd (no circle roots)."""
    q = 1 << m
    if m % 2 == 0:
        return math.gcd(spec.t - 2 * theory.r_closed_form(spec), q + 1) == 1
    return math.gcd(spec.t, q - 1) == 1


# -- crossval ----------------------------------------------------------------

def _crossval_cell(spec: FamilySpec, m: int, corrupt: bool) -> Cell:
    def run():
        answer = oracle.brute_is_permutation(spec, m)
        reference = theory.theorem_verdict(spec, m).predicted
        return answer, answer == (not reference if corrupt else reference)
    return Cell(f"crossval {spec!r} m={m}", run)


def _crossval(rng: random.Random, size: str, corrupt: bool) -> list[Cell]:
    domain = _specs(CROSSVAL_IJ_MAX)
    # cells stay in stratum order: every seed then allocates the same array
    # sizes in the same order, so peak RSS depends on n alone
    draws = [(spec, m) for m, k in CROSSVAL_STRATA[size] for spec in rng.sample(domain, k)]
    return [_crossval_cell(spec, m, corrupt and n == 0) for n, (spec, m) in enumerate(draws)]


# -- structure -----------------------------------------------------------------

def _run_cli(out_path: str, argv: list[str]) -> tuple[int, dict]:
    """``pentaperm.cli.main`` with JSON output to a scratch file: (exit code, record)."""
    code = cli.main(["--format", "json", "--out", out_path] + argv)
    with open(out_path, encoding="utf-8") as handle:
        return code, json.loads(handle.read())


def _circle_cell(spec, m, corrupt) -> Cell:
    def run():
        answer = oracle.g_permutes_unit_circle(spec, m)
        reference = _gcd_criterion(spec, m)
        return answer, answer == (not reference if corrupt else reference)
    return Cell(f"circle {spec!r} m={m}", run)


def _gcheck_cell(spec, m, corrupt, out_path) -> Cell:
    def run():
        code, record = _run_cli(out_path, ["gcheck"] + _spec_args(spec, m))
        result = record["result"]
        ctx = field.make_field(2 * m, m)
        w = field.omega(ctx)
        deg = spec.t - 2 * theory.r_closed_form(spec) + (1 if corrupt else 0)
        # fiber law: single-point fibers of index t - 2r over omega and
        # omega^2, which are the whole branch set unless the map has degree 1
        law = {w.hex(): [deg], (w * w).hex(): [deg]} if deg >= 2 else {}
        ok = code == 0 and result["branch_profile"] == law
        if not theory.h_unit_roots_exist(spec, m):
            ok = ok and result["g_permutes_unit_circle"] == _gcd_criterion(spec, m)
        return record, ok
    return Cell(f"gcheck {spec!r} m={m}", run)


def _elems(ctx, hexes: list[str]):
    return [ctx.elem(int(text.split(":")[1], 16)) for text in hexes]


def _equiv_cell(spec, m, corrupt, out_path) -> Cell:
    def run():
        code, record = _run_cli(out_path, ["equiv"] + _spec_args(spec, m))
        result = record["result"]
        cert_json = result["certificate"]
        if code != 0 or cert_json is None:
            return record, False
        ctx = field.make_field(2 * m, m)
        if cert_json["kind"] == "monomial":
            a1, b1 = _elems(ctx, cert_json["l1"])
            a2, b2 = _elems(ctx, cert_json["l2"])
            cert = equivalence.MonomialCert(a1, b1, a2, b2, cert_json["exponent"])
            replays = equivalence.verify_monomial_cert(cert, spec, m)
        else:
            cert = equivalence.BivariateCert(
                *_elems(ctx, cert_json["l2"]), *_elems(ctx, cert_json["l1"]),
                cert_json["exponent"])
            replays = equivalence.verify_bivariate_cert(cert, spec, m)
        verdict = theory.theorem_verdict(spec, m).predicted
        if corrupt:
            verdict = not verdict
        ok = (replays and result["exponent_gcd_predicts"] == verdict
              and result["brute"] == verdict and record["agrees"] is True)
        return record, ok
    return Cell(f"equiv {spec!r} m={m}", run)


def _structure(rng: random.Random, size: str, corrupt: bool, out_path: str) -> list[Cell]:
    draws = []
    for m, k in CIRCLE_STRATA[size]:
        domain = _specs(CIRCLE_IJ_MAX, lambda s, m=m: not theory.h_unit_roots_exist(s, m))
        draws += [("circle", spec, m) for spec in rng.sample(domain, k)]
    for m, ij_max in GCHECK_DOMAINS[size]:
        draws += [("gcheck", spec, m) for spec in _specs(ij_max)]
    for m, ij_max in EQUIV_DOMAINS[size]:
        # odd m needs r = 0 for a bivariate certificate to exist
        keep = (lambda s: theory.r_closed_form(s) == 0) if m % 2 else (lambda s: True)
        draws += [("equiv", spec, m) for spec in _specs(ij_max, keep)]
    draws += [("equiv", FamilySpec(cls, i, j), m) for cls, i, j, m in EQUIV_FIXED[size]]
    cells = []
    for n, (kind, spec, m) in enumerate(draws):
        bad = corrupt and n == 0
        if kind == "circle":
            cells.append(_circle_cell(spec, m, bad))
        elif kind == "gcheck":
            cells.append(_gcheck_cell(spec, m, bad, out_path))
        else:
            cells.append(_equiv_cell(spec, m, bad, out_path))
    return cells


# -- search --------------------------------------------------------------------

def _search(size: str, corrupt: bool) -> list[Cell]:
    cfg = SEARCH_CONFIG[size]
    expected = SEARCH_SHA256[size]
    if corrupt:
        expected = "0" * 64

    def run():
        cands = search.match_candidates(search.run_search(cfg))
        digest = hashlib.sha256(search.candidates_jsonl(cands).encode()).hexdigest()
        return {"sha256": digest, "candidates": len(cands)}, digest == expected
    return [Cell(f"search t_max={cfg.t_max} m_set={sorted(cfg.m_set)}", run)]


def build(name: str, seed: int, size: str, corrupt: bool, out_path: str) -> list[Cell]:
    """The workload's cells, generated from the seed alone."""
    rng = random.Random(seed)
    if name == "crossval":
        return _crossval(rng, size, corrupt)
    if name == "structure":
        return _structure(rng, size, corrupt, out_path)
    return _search(size, corrupt)


def run_cells(cells: list[Cell], tracer=None) -> dict:
    """Time and check every cell; the answers are folded into one digest."""
    times_ms, failed, answers = [], [], []
    for n, cell in enumerate(cells):
        if tracer is not None:
            tracer.cell = n
        t0 = time.perf_counter()
        answer, ok = cell.run()
        times_ms.append((time.perf_counter() - t0) * 1e3)
        answers.append(answer)
        if not ok:
            failed.append(cell.label)
    digest = hashlib.sha256(
        json.dumps(answers, sort_keys=True).encode()).hexdigest()
    return {"cell_ms": times_ms, "failed": failed, "answers_sha256": digest}


def scratch_dir(root) -> str:
    path = os.path.join(root, ".perfbench")
    os.makedirs(path, exist_ok=True)
    return path
