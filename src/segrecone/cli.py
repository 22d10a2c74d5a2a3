"""Command-line verification driver.

`verify CHECK [CHECK ...]` runs the named checks (or `all`) and emits a
report with one record per check, sorted by id;
`table TABLE` emits a data table.  Exit codes: 0 when everything passes,
1 when a verification fails (witnesses are in the report and echoed to
stderr), 2 for configuration or engine errors such as an unstable
character box or an unknown check id.
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from concurrent.futures import ThreadPoolExecutor

from . import charts, encech, kaehler, ktheory, sheaf
from . import monoid as monoids
from .errors import EngineError
from .report import (CHECK_IDS, TABLE_IDS, CheckRecord, Config,
                     build_document, build_table_document, render_checks_csv,
                     render_checks_text, render_json, render_table_csv,
                     render_table_text)


# ---------------------------------------------------------------------------
# Check runners.  Each returns (ok, witnesses, dims).


def _check_coh_main(cfg: Config):
    lo, hi = cfg.coh_range
    rng = range(lo, hi + 1)
    audit = sheaf.audit_summary(rng)
    witnesses = [dict(f, flag="paper-typo") for f in audit.details["findings"]]
    ok = audit.ok and all(w["item"] == 4 for w in witnesses)
    for a in rng:
        for b in rng:
            bundle = sheaf.LineBundle(a, b)
            if not sheaf.euler_char_check(bundle):
                witnesses.append({"euler_characteristic": [a, b]})
                ok = False
            if not sheaf.serre_dual_check(bundle):
                witnesses.append({"serre_duality": [a, b]})
                ok = False
            for i in range(3):
                oracle = sheaf.coh_cech_oracle(bundle, i)
                if sheaf.h_closed(bundle, i) != oracle:
                    witnesses.append({"product_formula": [a, b, i]})
                    ok = False
    witnesses += [{"closed_vs_oracle": list(pni)}
                  for pni in audit.details["disagreements"]]
    dims = {"audit_records": audit.details["records"],
            "items_flagged": audit.details["items_flagged"],
            "box": f"{lo}..{hi}"}
    return ok, witnesses, dims


def _check_key_seq(cfg: Config):
    """Certified layer totals of the graded sequences against the section
    counts the chart engine produces directly; a cell whose total is not
    certified is a witness, since it compares nothing."""
    witnesses = []
    dims = {}
    for m in range(4):
        for n in range(1, min(cfg.nmax, 4) + 1):
            total, certified = sheaf.h_filtered(
                sheaf.filtration_tilde_omega(m, n), 0)
            if not certified:
                witnesses.append({"m": m, "n": n, "certified": False})
                continue
            direct = encech.global_sections("omega_tilde", m, n).dim
            dims[(m, n)] = [total, direct]
            if direct != total:
                witnesses.append({"m": m, "n": n, "layer_total": total,
                                  "section_count": direct})
    return not witnesses, witnesses, dims


def _check_vanish_omega(cfg: Config):
    witnesses = []
    cells = 0
    for m in range(5):
        for n in range(1, min(cfg.nmax, 5) + 1):
            for i in (1, 2):
                total, certified = sheaf.h_filtered(
                    sheaf.filtration_tilde_omega(m, n), i)
                cells += 1
                if not (certified and total == 0):
                    witnesses.append({"m": m, "n": n, "i": i, "total": total,
                                      "certified": certified})
    return not witnesses, witnesses, {"cells": cells}


def _check_h0_surj(cfg: Config):
    witnesses = []
    dims = {}
    nhi = min(cfg.nmax, 4)
    for m in range(4):
        for n in range(1, nhi + 1):
            v = encech.verify_H0_surjection(m, n)
            dims[("quotient", m, n)] = [v.details["h0_tilde"],
                                        v.details["h0_image_d"],
                                        v.details["h0_hc_top"]]
            if not v.ok:
                witnesses.append({"surjection": [m, n], **v.details})
    for i in (1, 2, 3):
        for n in range(1, nhi + 1):
            v = encech.verify_alg_surjection(i, n)
            row = [v.details["h0_horizontal"], v.details["h0_omega"]]
            if i >= 3:
                row.append(int(v.details["target_zero"]))
            dims[("spanning", i, n)] = row
            if not v.ok:
                witnesses.append({"spanning": [i, n], **v.details})
    return not witnesses, witnesses, dims


def _check_aq_local(cfg: Config):
    witnesses = []
    dims = {}
    nhi = min(cfg.nmax, 5)
    for n in range(2, nhi + 1):
        v = charts.d1_base_report(n)
        dims[("base", n)] = v.details["dim_per_y_monomial"]
        if not v.ok:
            witnesses.append({"base_cotangent": n, **v.details})
        v = charts.d1_relative_report(n)
        dims[("relative_slices", n)] = len(v.details["slices"])
        if not v.ok:
            witnesses.append({"relative_cotangent": n, "chart_grades":
                              v.details["mismatched_grades"]})
    for n in range(2, min(nhi, 3) + 1):
        for name, v in (("forms_collapse",
                         charts.verify_relative_forms_collapse(n)),
                        ("chart_splitting", charts.verify_chart_splitting(n)),
                        ("ker_d", charts.verify_ker_d_claims(n))):
            if not v.ok:
                witnesses.append({name: n, **v.details})
    return not witnesses, witnesses, dims


def _check_pro_iso_d(cfg: Config):
    v = charts.beta_kernel_system(min(cfg.nmax, 5))
    witnesses = [] if v.ok else [dict(v.details, **(v.witness or {}))]
    dims = v.details.get("kernel_class_dims", {})
    return v.ok, witnesses, dims


def _check_euler(cfg: Config):
    v = sheaf.euler_identification_check()
    atlas = encech.chart_generator_consistency()
    witnesses = []
    if not v.ok:
        witnesses.append(v.details)
    if not atlas.ok:
        witnesses.append({"atlas": atlas.details["problems"]})
    return v.ok and atlas.ok, witnesses, dict(v.details)


def _check_k1(cfg: Config):
    v = ktheory.verify_K1(cfg.nmax, cfg.window)
    witnesses = [] if v.ok else [v.witness or v.details]
    dims = {"source": v.details["source_dims"],
            "target": v.details["target_dims"]}
    return v.ok, witnesses, dims


def _check_k4(cfg: Config):
    system, v = ktheory.compute_K4(cfg.nmax)
    cone = kaehler.omega4_cone_check(cfg.nmax)
    witnesses = []
    if not v.ok:
        witnesses.append({"per_level": v.details["per_level"]})
    if not cone.ok:
        witnesses.append({"top_form_cone": cone.details})
    dims = {"system": system.dims(),
            "nonzero_from_level": v.details["nonzero_from_level"]}
    return v.ok and cone.ok, witnesses, dims


def _check_k5plus(cfg: Config):
    v = ktheory.verify_K5plus_inputs(cfg.nmax)
    witnesses = [] if v.ok else [v.details["per_level"]]
    dims = {n: [r["rank_d3"], r["dim_omega4"], r["dim_omega5"]]
            for n, r in v.details["per_level"].items()}
    return v.ok, witnesses, dims


def _check_k3(cfg: Config):
    """The pro-kernel dims against rank-nullity of the level components.

    The components are the cached maps compute_K3 built, and their rank
    comes from an untracked elimination, not from the kernel basis the
    pro-kernel holds.  So this guards the pro-kernel bookkeeping (levels,
    kernel bases, transitions); it does not recompute or check the maps."""
    nhi = min(cfg.nmax, 4)
    kernel = ktheory.compute_K3(nhi)
    witnesses = []
    for n, dim in kernel.dims().items():
        f = ktheory.k3_component(n)
        componentwise = f.domain.dim - f.rank()
        if componentwise != dim:
            witnesses.append({"level": n, "pro_kernel_dim": dim,
                              "component_kernel_dim": componentwise})
    dims = {"kernel": kernel.dims(), "levels": f"1..{nhi}"}
    return not witnesses, witnesses, dims


def _check_monoid(cfg: Config):
    witnesses = []
    m = monoids.gubeladze_monoid()
    basis = monoids.toric_ideal(m)
    rel = monoids.cone_relation()
    if not (len(basis) == 1 and basis[0] in (rel, rel.scale(-1))):
        witnesses.append({"toric_ideal": [repr(p) for p in basis]})
    for c in range(2, 13):
        w = monoids.c_divisibility_witness(m, c, degree_bound=6)
        if w is None:
            witnesses.append({"c_divisible": c})
        elif not m.contains(w) or not any(w) or (
                all(x % c == 0 for x in w)
                and m.contains(tuple(x // c for x in w))):
            # not a nonzero monoid element without a c-th divisor
            witnesses.append({"invalid_witness": list(w), "c": c})
    normal = monoids.is_normal_up_to(m, 6)
    if not normal:
        witnesses.append({"normality": "counterexample below degree 6"})
    dims = {"generators": len(m.generators), "relations": len(basis),
            "c_range": "2..12", "normal_up_to": 6}
    return not witnesses, witnesses, dims


_RUNNERS = {
    "aq-local": _check_aq_local,
    "coh-main": _check_coh_main,
    "euler": _check_euler,
    "h0-surj": _check_h0_surj,
    "k1": _check_k1,
    "k3": _check_k3,
    "k4": _check_k4,
    "k5plus": _check_k5plus,
    "key-seq": _check_key_seq,
    "monoid": _check_monoid,
    "pro-iso-d": _check_pro_iso_d,
    "vanish-omega": _check_vanish_omega,
}


def run_check(check_id: str, cfg: Config) -> CheckRecord:
    start = time.perf_counter()
    try:
        ok, witnesses, dims = _RUNNERS[check_id](cfg)
        verdict = "PASS" if ok else "FAIL"
    except EngineError as exc:
        verdict = "ERROR"
        witnesses = [{"error": str(exc), "type": type(exc).__name__}]
        dims = {}
    return CheckRecord(check_id, verdict, witnesses, dims,
                       time.perf_counter() - start)


# ---------------------------------------------------------------------------
# Tables.


def _table_hilbert(cfg: Config):
    dims = kaehler.qn_algebra(cfg.nmax).dims_by_degree()
    return ["degree", "dim"], list(enumerate(dims))


def _table_omega_dims(cfg: Config):
    header = ["n"] + [f"m{m}" for m in range(5)]
    rows = []
    for n in range(1, cfg.nmax + 1):
        dm = kaehler.qn_module(n)
        rows.append((n,) + tuple(dm.dim(m) for m in range(5)))
    return header, rows


def _table_k4_system(cfg: Config):
    system, verdict = ktheory.compute_K4(cfg.nmax)
    per = verdict.details["per_level"]
    rows = []
    for n in range(1, cfg.nmax + 1):
        tr = system.transitions[n].rank() if n < cfg.nmax else ""
        rows.append((n, system.levels[n].dim, tr,
                     int(per[n]["witness_d_image_nonzero"])))
    return ["n", "dim", "transition_rank", "witness_nonzero"], rows


def _table_k3_system(cfg: Config):
    kernel = ktheory.compute_K3(min(cfg.nmax, 4))
    return ["n", "dim"], sorted(kernel.dims().items())


_TABLES = {
    "hilbert": _table_hilbert,
    "omega-dims": _table_omega_dims,
    "k4-system": _table_k4_system,
    "k3-system": _table_k3_system,
}


# ---------------------------------------------------------------------------
# Driver.


def _parse_range(text: str):
    m = re.fullmatch(r"(-?\d+)\.\.(-?\d+)", text)
    if not m:
        raise EngineError(f"bad range {text!r}, expected A..B")
    return int(m.group(1)), int(m.group(2))


def _config_from(args) -> Config:
    return Config(nmax=args.nmax, window=args.window, box_pad=args.box_pad,
                  fmt=args.fmt, jobs=args.jobs, out=args.out,
                  coh_range=_parse_range(args.coh_range))


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(text)


def cmd_verify(args) -> int:
    cfg = _config_from(args)
    encech.set_box_pad(cfg.box_pad)
    ids = CHECK_IDS if args.check == ["all"] else sorted(set(args.check))
    if cfg.jobs > 1 and len(ids) > 1:
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            records = list(pool.map(lambda c: run_check(c, cfg), ids))
    else:
        records = [run_check(c, cfg) for c in ids]
    doc = build_document(cfg, records)
    render = {"json": render_json, "csv": render_checks_csv,
              "text": render_checks_text}[cfg.fmt]
    _emit(render(doc), cfg.out)
    for rec in sorted(records, key=lambda r: r.check_id):
        if rec.verdict != "PASS":
            print(f"{rec.verdict} {rec.check_id}: {rec.witnesses}",
                  file=sys.stderr)
    if any(r.verdict == "ERROR" for r in records):
        return 2
    if any(r.verdict == "FAIL" for r in records):
        return 1
    return 0


def cmd_table(args) -> int:
    cfg = _config_from(args)
    encech.set_box_pad(cfg.box_pad)
    header, rows = _TABLES[args.table_id](cfg)
    doc = build_table_document(cfg, args.table_id, header, rows)
    render = {"json": render_json, "csv": render_table_csv,
              "text": render_table_text}[cfg.fmt]
    _emit(render(doc), cfg.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--nmax", type=int, default=5,
                        help="largest truncation level (default 5)")
    common.add_argument("--window", type=int, default=3,
                        help="pro-certificate window (default 3)")
    common.add_argument("--box-pad", type=int, default=4, dest="box_pad",
                        help="guard margin around n+m for section-space "
                             "characters (default 4)")
    common.add_argument("--format", choices=("json", "csv", "text"),
                        default="json", dest="fmt")
    common.add_argument("--out", default=None, metavar="PATH",
                        help="write the report here instead of stdout")
    common.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="run independent checks concurrently")
    common.add_argument("--range", default="-6..6", dest="coh_range",
                        metavar="A..B",
                        help="twist range for the cohomology audit")
    parser = argparse.ArgumentParser(
        prog="segrecone",
        description="exact verification suite for the Segre-cone "
                    "truncation calculus")
    sub = parser.add_subparsers(dest="command", required=True)
    pv = sub.add_parser("verify", parents=[common],
                        help="run verification checks")
    pv.add_argument("check", nargs="+", choices=CHECK_IDS + ("all",),
                    help="check ids, or `all` alone")
    pt = sub.add_parser("table", parents=[common], help="emit a data table")
    pt.add_argument("table_id", choices=TABLE_IDS)
    return parser


def _glue_range_values(argv):
    """Rewrite ["--range", "-6..6"] as ["--range=-6..6"].

    Range values may begin with a minus sign, which argparse would
    otherwise read as an unknown option flag.
    """
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--range" and i + 1 < len(argv):
            out.append(f"--range={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    # argparse takes the check ids only before the first option (and
    # parse_intermixed_args refuses subparsers), so ids after an option
    # come back as leftovers
    args, extra = parser.parse_known_args(_glue_range_values(list(argv)))
    if args.command == "verify":
        ids = CHECK_IDS + ("all",)
        args.check += [t for t in extra if t in ids]
        extra = [t for t in extra if t not in ids]
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    if args.command == "verify" and "all" in args.check \
            and len(args.check) > 1:
        parser.error("`all` cannot be combined with other checks")
    try:
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_table(args)
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
