"""Command-line surface: verdicts, conditions, table reproduction, identity
and r-value sweeps, unit-circle/ramification reports, certificates, and the
discovery search.

Each command computes and returns a Report: its exit code, its result
records and its text.  ``main`` renders the report once, to ``--out`` or
stdout: json is one sorted-key object per record, and csv or md use the
command's own rendering for that format where it has one, else the text.
Usage errors are raised before any work starts.  Every ``main`` call in a
process parses with one cached parser (build_parser), which keeps no state.

Configuration precedence is flags > environment (PENTAPERM_*) > config file
(flat ``key = value`` lines) > defaults.  Exit codes: 0 all checks passed,
1 a mathematical property or cross-validation failed, 2 usage error (an
``--out`` file that cannot be written included).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass

from . import equivalence, families, oracle, search, theory
from .families import FamilySpec, match_row, registry_as_json, table1_registry
from .field import make_field

ENV_PREFIX = "PENTAPERM_"
CONFIG_KEYS = ("brute_cap", "workers", "format", "out")
# accepted i, j and --i-max/--j-max: H has degree about 2^i
_IJ_RANGE = range(1, 13)
# one encoder for every json record: json.dumps(..., sort_keys=True) builds one per call
_encode = json.JSONEncoder(sort_keys=True).encode


@dataclass
class RunConfig:
    brute_cap: int = oracle.BRUTE_CAP
    workers: int = 1
    format: str = "text"
    out: str | None = None


def _read_config_file(path: str) -> dict:
    values: dict = {}
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        _usage_error(f"config {path}: {exc.strerror}")
    except UnicodeDecodeError:
        _usage_error(f"config {path}: not UTF-8 text")
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            _usage_error(f"config {path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            _usage_error(f"config {path}:{lineno}: unknown key {key!r}")
        values[key] = value.strip()
    return values


def resolve_config(args) -> RunConfig:
    cfg = RunConfig()
    layers = []
    if args.config:
        layers.append(_read_config_file(args.config))
    layers.append({key: os.environ[ENV_PREFIX + key.upper()] for key in CONFIG_KEYS
                   if ENV_PREFIX + key.upper() in os.environ})
    layers.append({key: getattr(args, key) for key in CONFIG_KEYS
                   if getattr(args, key) is not None})
    for layer in layers:
        for key, value in layer.items():
            if key in ("brute_cap", "workers"):
                try:
                    value = int(value)
                except ValueError:
                    _usage_error(f"{key} must be an integer, got {value!r}")
            setattr(cfg, key, value)
    if cfg.format not in ("text", "json", "csv", "md"):
        _usage_error(f"unknown format {cfg.format!r}")
    if not 1 <= cfg.brute_cap <= oracle.BRUTE_CAP:
        _usage_error(f"brute_cap must lie in [1, {oracle.BRUTE_CAP}], got {cfg.brute_cap}")
    if cfg.workers < 1:
        _usage_error("workers must be positive")  # search's own message
    if cfg.out and (os.path.isdir(cfg.out)
                    or not os.path.isdir(os.path.dirname(cfg.out) or ".")):
        _usage_error(f"out {cfg.out}: not a file in an existing directory")
    return cfg


def _usage_error(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _spec_from(args) -> FamilySpec:
    # argparse has checked the class and i, j against _IJ_RANGE
    return FamilySpec(args.family_class, args.i, args.j)


def _record(kind: str, params: dict, result: dict, agrees) -> dict:
    return {"kind": kind, "params": params, "result": result, "agrees": agrees}


@dataclass
class Report:
    """What a command produced: its exit code, its JSON records (None when
    the text is the output in every format), its text, and its own md or
    csv rendering where it has one."""

    code: int
    records: list[dict] | None
    text: str
    md: str | None = None
    csv: str | None = None


def render(report: Report, fmt: str) -> str:
    """json: one sorted-key object per record; other formats: the command's
    rendering for that format, falling back to its text."""
    if fmt == "json" and report.records is not None:
        return "".join(_encode(rec) + "\n" for rec in report.records)
    rendered = {"md": report.md, "csv": report.csv}.get(fmt)
    return report.text if rendered is None else rendered


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_check(args, cfg: RunConfig) -> Report:
    spec = _spec_from(args)
    verdict = theory.theorem_verdict(spec, args.m)
    params = {"class": spec.cls, "i": spec.i, "j": spec.j, "m": args.m}
    agrees = None
    brute = None
    if args.brute:
        brute = oracle.brute_is_permutation(spec, args.m, cap=cfg.brute_cap)
        agrees = brute == verdict.predicted
    result = json.loads(verdict.to_json())
    result["brute"] = brute
    lines = [
        f"family {spec.cls} (i={spec.i}, j={spec.j}), t={spec.t}, m={args.m}",
        f"  branch: {verdict.branch}, r={verdict.r}, "
        f"gcd(t,q-1)={verdict.gcd1}"
        + (f", gcd(t-2r,q+1)={verdict.gcd2}" if verdict.gcd2 is not None else ""),
        f"  predicted permutation: {verdict.predicted}",
    ]
    if args.brute:
        lines.append(f"  brute force: {brute}  ({'agree' if agrees else 'DISAGREE'})")
    return Report(0 if agrees in (None, True) else 1,
                  [_record("check", params, result, agrees)], "\n".join(lines) + "\n")


def cmd_condition(args, cfg: RunConfig) -> Report:
    spec = _spec_from(args)
    try:
        cond = theory.m_condition(spec)
    except ValueError as exc:
        _usage_error(str(exc))
    params = {"class": spec.cls, "i": spec.i, "j": spec.j}
    return Report(0, [_record("condition", params, json.loads(cond.to_json()), None)],
                  f"family {spec.cls} (i={spec.i}, j={spec.j}), t={spec.t}: "
                  f"{cond.render()}\n  {cond.to_json()}\n")


def _parse_m_range(text: str) -> range:
    lo, _, hi = text.partition("..")
    try:
        m_range = range(int(lo), int(hi) + 1)
    except ValueError:
        _usage_error(f"bad m-range {text!r}, expected like 1..6")
    if not m_range or m_range[0] < 1:
        _usage_error(f"m-range {text!r} must be nonempty with m >= 1")
    return m_range


def _row_report(row, resolved, m_range, brute, cfg) -> tuple[dict, bool]:
    """The row's record, and whether its engine condition is the printed
    one intersected with 'm odd' (a disagreement the flags explain)."""
    printed_cond = theory.MCondition(row.condition_modulus, row.condition_allowed)
    report = {
        "row": row.row_no,
        "starred": row.starred,
        "printed_condition": row.condition_text,
        "resolved": None,
        "engine_condition": None,
        "condition_agrees": None,
        "flags": families.row_discrepancies(row, resolved),
    }
    intersected = False
    if resolved is not None:
        engine = theory.m_condition(resolved)
        report["resolved"] = {"class": resolved.cls, "i": resolved.i, "j": resolved.j}
        report["engine_condition"] = engine.render()
        report["condition_agrees"] = engine.equivalent(printed_cond)
        if not report["condition_agrees"]:
            inter = theory.MCondition(
                2 * printed_cond.modulus,
                frozenset(r for r in range(2 * printed_cond.modulus)
                          if printed_cond.contains(r) and r % 2 == 1))
            intersected = engine.equivalent(inter)
            if intersected:
                report["flags"].append(
                    f"row {row.row_no}: engine condition equals the printed "
                    "condition intersected with 'm odd'")
    if brute and m_range is not None:
        agreement = {}
        for m in m_range:
            want = (theory.theorem_verdict(resolved, m).predicted
                    if resolved is not None else row.condition_holds(m))
            agreement[m] = oracle.brute_is_permutation(row, m, cap=cfg.brute_cap) == want
        report["brute_agreement"] = agreement
    return report, intersected


def cmd_table1(args, cfg: RunConfig) -> Report:
    rows = table1_registry()
    if args.row is not None:
        rows = [r for r in rows if r.row_no == args.row]
        if not rows:
            _usage_error(f"no row {args.row}")
    if args.brute and not args.m_range:
        _usage_error("table1 --brute needs --m-range")
    m_range = _parse_m_range(args.m_range) if args.m_range else None
    if args.brute and 2 * m_range[-1] > cfg.brute_cap:
        _usage_error(f"2m = {2 * m_range[-1]} exceeds the brute cap {cfg.brute_cap}")
    resolutions = [match_row(row) for row in rows]
    reports, intersected = zip(*(_row_report(row, resolved, m_range, args.brute, cfg)
                                 for row, resolved in zip(rows, resolutions)))
    failed = any(rep["condition_agrees"] is False and not explained
                 for rep, explained in zip(reports, intersected))
    failed |= any(
        not all(rep.get("brute_agreement", {}).values()) for rep in reports)

    md = ["| row | starred | printed | engine | agrees | resolved |",
          "|----:|---------|---------|--------|--------|----------|"]
    lines = []
    for rep in reports:
        res = rep["resolved"]
        md_res = f"{res['class']} i={res['i']} j={res['j']}" if res else "—"
        md.append(
            f"| {rep['row']} | {'*' if rep['starred'] else ''} | "
            f"{rep['printed_condition']} | {rep['engine_condition'] or '—'} | "
            f"{rep['condition_agrees']} | {md_res} |")
        res_text = (f"{res['class']} (i={res['i']}, j={res['j']})"
                    if res else "unresolved")
        lines.append(f"row {rep['row']:2d}{'*' if rep['starred'] else ' '} "
                     f"-> {res_text}")
        lines.append(f"   printed: {rep['printed_condition']}")
        if rep["engine_condition"]:
            lines.append(f"   engine:  {rep['engine_condition']} "
                         f"(agrees: {rep['condition_agrees']})")
        for flag in rep["flags"]:
            lines.append(f"   note: {flag}")
        if "brute_agreement" in rep:
            cells = " ".join(f"m={m}:{'ok' if ok else 'FAIL'}"
                             for m, ok in rep["brute_agreement"].items())
            lines.append(f"   brute: {cells}")
    if args.row is not None and len(rows) == 1:
        resolved = resolutions[0]
        if resolved is not None and theory.r_closed_form(resolved) == 0:
            cert2 = equivalence.search_monomial_cert(resolved, 2)
            cert3 = equivalence.search_bivariate_cert(resolved, 3)
            lines.append(
                f"  m=2 monomial certificate: "
                f"{cert2.to_json() if cert2 else 'pool exhausted'}")
            lines.append(
                f"  m=3 bivariate certificate: "
                f"{cert3.to_json() if cert3 else 'pool exhausted'}")
    resolved_count = sum(1 for rep in reports if rep["resolved"])
    lines.append(f"{resolved_count} of {len(reports)} rows resolved")
    records = [_record("table1_row", {"row": rep["row"]}, rep, rep["condition_agrees"])
               for rep in reports]
    return Report(1 if failed else 0, records, "\n".join(lines) + "\n",
                  md="\n".join(md) + "\n")


def cmd_identities(args, cfg: RunConfig) -> Report:
    records = []
    for cls in families.CLASSES:
        for i in range(1, args.i_max + 1):
            for j in range(1, args.j_max + 1):
                spec = FamilySpec(cls, i, j)
                ok = (theory.verify_identity_derivative(spec)
                      and theory.verify_identity_Q(spec))
                records.append(_record("identity", {"class": cls, "i": i, "j": j},
                                       {"holds": ok}, ok))
    failed = sum(1 for rec in records if not rec["agrees"])
    return Report(1 if failed else 0, records,
                  f"{len(records)} identity checks, "
                  f"{len(records) - failed} passed, {failed} failed\n")


def cmd_rvalues(args, cfg: RunConfig) -> Report:
    mismatches = []
    records = []
    for cls in families.CLASSES:
        for i in range(1, args.i_max + 1):
            for j in range(1, args.j_max + 1):
                spec = FamilySpec(cls, i, j)
                closed = theory.r_closed_form(spec)
                oracle_r = theory.r_oracle(spec)
                if closed != oracle_r:
                    mismatches.append((spec, closed, oracle_r))
                records.append(_record(
                    "rvalue", {"class": cls, "i": i, "j": j},
                    {"closed_form": closed, "oracle": oracle_r}, closed == oracle_r))
    total = len(records)
    text = [f"{total} r-values compared, {total - len(mismatches)} agree"]
    for note in theory.R_DISPLAY_NOTES:
        text.append(f"note: {note}")
    for spec, c, o in mismatches:
        text.append(f"MISMATCH {spec!r}: closed form {c}, gcd oracle {o}")
    return Report(1 if mismatches else 0, records, "\n".join(text) + "\n")


def cmd_gcheck(args, cfg: RunConfig) -> Report:
    spec = _spec_from(args)
    m_max = oracle.RAMIFICATION_CAP // 2  # the scan evaluates W at all 2^(2m) points
    if args.m < 1:
        _usage_error("m must be positive")  # check's own message
    if args.m > m_max:
        _usage_error(f"ramification reports sweep the whole field; m <= {m_max} only")
    ctx = make_field(2 * args.m, args.m)
    permutes = oracle.g_permutes_unit_circle(spec, args.m)
    report = oracle.ramification_report(spec, ctx)
    profile = oracle.ramification_profile(spec, ctx)
    params = {"class": spec.cls, "i": spec.i, "j": spec.j, "m": args.m}
    result = {
        "g_permutes_unit_circle": permutes,
        "critical_points": report,
        "branch_profile": {
            ("inf" if beta is oracle.INFINITY else beta.hex()): idxs
            for beta, idxs in profile.items()},
    }
    lines = [
        f"g for family {spec.cls} (i={spec.i}, j={spec.j}) at m={args.m}:",
        f"  permutes the unit circle: {permutes}",
        f"  critical points: {report}",
        f"  branch profile: {result['branch_profile']}",
    ]
    return Report(0, [_record("gcheck", params, result, None)], "\n".join(lines) + "\n")


def cmd_equiv(args, cfg: RunConfig) -> Report:
    spec = _spec_from(args)
    if args.m < 1:
        _usage_error("m must be positive")  # check's own message
    # at m = 4 the monomial search would scan 256^4 coefficient tuples
    if args.pool == "full" and args.m > 3:
        _usage_error("full pool only supported for 2m <= 6")
    params = {"class": spec.cls, "i": spec.i, "j": spec.j, "m": args.m,
              "pool": args.pool}
    kind = "monomial" if args.m % 2 == 0 else "bivariate"
    if kind == "bivariate" and (r := theory.r_closed_form(spec)) != 0:
        return Report(1, [_record("equiv", params,
                                  {"kind": kind, "certificate": None,
                                   "status": f"r = {r} > 0"}, None)],
                      f"r = {r} > 0: no bivariate decomposition exists for odd m\n")
    # the certificate is checked against a brute sweep: refuse before searching
    if 2 * args.m > cfg.brute_cap:
        _usage_error(f"2m = {2 * args.m} exceeds the brute cap {cfg.brute_cap}")
    pool = None
    if args.pool == "full":
        ctx = make_field(2 * args.m, args.m)
        pool = [ctx.elem(b) for b in range(1 << ctx.n)]
    search_cert = (equivalence.search_monomial_cert if kind == "monomial"
                   else equivalence.search_bivariate_cert)
    cert = search_cert(spec, args.m, pool)
    if cert is None:
        return Report(1, [_record("equiv", params,
                                  {"kind": kind, "certificate": None,
                                   "status": "pool-exhausted"}, None)],
                      f"no {kind} certificate found over the {args.pool} pool "
                      f"(pool exhausted; not a nonexistence proof)\n")
    gcd_ok = _cert_gcd_predicts(spec, args.m, cert)
    brute = oracle.brute_is_permutation(spec, args.m, cap=cfg.brute_cap)
    agrees = gcd_ok == brute
    result = {"kind": kind, "certificate": json.loads(cert.to_json()), "verified": True,
              "exponent_gcd_predicts": gcd_ok, "brute": brute}
    return Report(0 if agrees else 1, [_record("equiv", params, result, agrees)],
                  f"{kind} certificate: {cert.to_json()}\n"
                  f"exponent gcd predicts permutation: {gcd_ok}; "
                  f"brute: {brute} ({'agree' if agrees else 'DISAGREE'})\n")


def _cert_gcd_predicts(spec, m, cert) -> bool:
    import math

    q = 1 << m
    if isinstance(cert, equivalence.MonomialCert):
        return math.gcd(cert.e, q * q - 1) == 1
    return math.gcd(cert.e, q - 1) == 1


def cmd_search(args, cfg: RunConfig) -> Report:
    try:
        m_set = frozenset(int(p) for p in args.m_set.split(",") if p)
    except ValueError:
        _usage_error(f"bad m-set {args.m_set!r}")
    scfg = search.SearchConfig(t_max=args.t_max, m_set=m_set, workers=cfg.workers)
    try:
        scfg.validate()
    except ValueError as exc:
        _usage_error(str(exc))
    cands = search.match_candidates(search.run_search(scfg))
    meta = _record("search_meta", {"t_max": scfg.t_max, "m_set": sorted(scfg.m_set)},
                   {"candidates": len(cands)}, None)
    summary = search.summary_markdown(cands)
    return Report(0, [meta, *search.candidate_records(cands)],
                  f"tested m set {sorted(scfg.m_set)} below t_max={scfg.t_max}\n" + summary,
                  md=summary, csv=search.candidates_csv(cands))


def cmd_registry(args, cfg: RunConfig) -> Report:
    return Report(0, None, registry_as_json() + "\n")


# ---------------------------------------------------------------------------
# argument surface
# ---------------------------------------------------------------------------

def _add_family_args(sub):
    sub.add_argument("--class", dest="family_class", required=True,
                     choices=families.CLASSES)
    sub.add_argument("--i", type=int, required=True, choices=_IJ_RANGE)
    sub.add_argument("--j", type=int, required=True, choices=_IJ_RANGE)


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pentaperm",
        description="Permutation pentanomials over GF(2^(2m)): verdicts, "
                    "conditions, and brute-force cross-validation.")
    parser.add_argument("--format", choices=("text", "json", "csv", "md"))
    parser.add_argument("--out")
    parser.add_argument("--config")
    parser.add_argument("--workers", type=int)
    parser.add_argument("--brute-cap", dest="brute_cap", type=int)
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("check", help="theorem verdict for one (family, m)")
    _add_family_args(sub)
    sub.add_argument("--m", type=int, required=True)
    sub.add_argument("--brute", action="store_true")
    sub.set_defaults(func=cmd_check)

    sub = commands.add_parser("condition", help="residue-class condition on m")
    _add_family_args(sub)
    sub.set_defaults(func=cmd_condition)

    sub = commands.add_parser("table1", help="registry report and cross-checks")
    sub.add_argument("--m-range", dest="m_range")
    sub.add_argument("--brute", action="store_true")
    sub.add_argument("--row", type=int)
    sub.set_defaults(func=cmd_table1)

    sub = commands.add_parser("identities", help="exact polynomial identity sweep")
    sub.add_argument("--i-max", type=int, default=8, choices=_IJ_RANGE)
    sub.add_argument("--j-max", type=int, default=8, choices=_IJ_RANGE)
    sub.set_defaults(func=cmd_identities)

    sub = commands.add_parser("rvalues", help="closed-form r vs gcd oracle sweep")
    sub.add_argument("--i-max", type=int, default=8, choices=_IJ_RANGE)
    sub.add_argument("--j-max", type=int, default=8, choices=_IJ_RANGE)
    sub.set_defaults(func=cmd_rvalues)

    sub = commands.add_parser("gcheck", help="unit-circle and ramification report")
    _add_family_args(sub)
    sub.add_argument("--m", type=int, required=True)
    sub.set_defaults(func=cmd_gcheck)

    sub = commands.add_parser("equiv", help="search a linear-equivalence certificate")
    _add_family_args(sub)
    sub.add_argument("--m", type=int, required=True)
    sub.add_argument("--pool", choices=("f4", "full"), default="f4")
    sub.set_defaults(func=cmd_equiv)

    sub = commands.add_parser("search", help="discovery sweep with the gcd sieve")
    sub.add_argument("--t-max", dest="t_max", type=int, default=30)
    sub.add_argument("--m-set", dest="m_set", default="2,3,4,5")
    sub.set_defaults(func=cmd_search)

    sub = commands.add_parser("registry", help="dump the 17-row registry as JSON")
    sub.set_defaults(func=cmd_registry)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = resolve_config(args)
    try:
        report = args.func(args, cfg)
    except theory.PropertyViolation as exc:
        print(f"property violation: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = render(report, cfg.format)
    if cfg.out:
        try:
            with open(cfg.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: out {cfg.out}: {exc.strerror}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return report.code


if __name__ == "__main__":
    sys.exit(main())
