"""Command line front end.

Three subcommands:

* ``decompose`` renders the cell table of a double Schubert cell;
* ``verify`` runs one of the exhaustive identity suites and exits nonzero
  on any mismatch;
* ``predict`` prints the per-piece regular-isotypic prediction table.

Exit codes: 0 pass, 1 identity failure, 2 configuration error, 3 budget
exceeded.  Identical configurations produce byte-identical output; the only
environment influence is DEODHAR_WORKERS, which partitions sweeps without
changing their result.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import cells, counting, flags, frobenius, sweeps
from .errors import BudgetError, ConfigError, DeodharError
from .rootdata import build_root_system, bruhat_leq

SCHEMA = "deodhar.v1"

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _emit_csv(rows: list[dict], columns: list[str]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_csv_cell(row.get(c)) for c in columns])
    sys.stdout.write(buf.getvalue())


def _csv_cell(value):
    if isinstance(value, (list, tuple)):
        return " ".join(str(v) for v in value)
    if value is None:
        return ""
    return value


def _emit_table(rows: list[dict], columns: list[str]) -> None:
    cells_text = [[str(_csv_cell(r.get(c))) for c in columns] for r in rows]
    widths = [
        max([len(c)] + [len(row[i]) for row in cells_text])
        for i, c in enumerate(columns)
    ]
    header = "  ".join(c.ljust(w) for c, w in zip(columns, widths))
    print(header)
    print("  ".join("-" * w for w in widths))
    for row in cells_text:
        print("  ".join(v.ljust(w) for v, w in zip(row, widths)))


# -- decompose -----------------------------------------------------------------


_DECOMPOSE_COLUMNS = [
    "v",
    "gamma",
    "I",
    "J",
    "distinguished",
    "n",
    "m",
    "cell_poly",
    "filtration_index",
    "preceq_below",
    "rule",
]


def _decompose_rows_for_v(
    word: cells.ReducedWord, v, include_candidates: bool = True
) -> list[dict]:
    order = cells.filtration(word, v)
    rows = []
    for idx, gamma in enumerate(order):
        rec = cells.decomposition_record(gamma)
        rec["cell_poly"] = str(counting.cell_count_poly(gamma.cell_shape()))
        rec["cell_poly_coeffs"] = list(
            counting.cell_count_poly(gamma.cell_shape()).coeffs
        )
        rec["filtration_index"] = idx
        rec["preceq_below"] = [
            j
            for j, other in enumerate(order)
            if other is not gamma and cells.preceq(other, gamma)
        ]
        rec["rule"] = "deodhar-cell"
        rows.append(rec)
    if include_candidates:
        # non-distinguished candidates ending at v, flagged with the violation
        for gamma in cells.subexpressions(word):
            if gamma.end == v and not gamma.is_distinguished:
                rec = cells.decomposition_record(gamma)
                rec["cell_poly"] = None
                rec["cell_poly_coeffs"] = None
                rec["filtration_index"] = None
                rec["preceq_below"] = None
                rec["rule"] = "empty-cell-candidate"
                rows.append(rec)
    return rows


def _cmd_decompose(args) -> int:
    rs = build_root_system(args.type, args.rank)
    word = cells.ReducedWord.from_letters(rs, rs.parse_word(args.word))
    if args.all_v:
        rows = []
        targets = sorted(
            {g.end for g in cells.enumerate_distinguished(word)},
            key=lambda v: (v.length, v.canonical_word),
        )
        for v in targets:
            rows.extend(_decompose_rows_for_v(word, v, include_candidates=False))
    else:
        v = rs.element_from_word(rs.parse_word(args.v))
        if not bruhat_leq(v, word.target):
            print(
                f"warning: {v.word_str} is not below {word.target.word_str} "
                "in Bruhat order; the table is empty",
                file=sys.stderr,
            )
            rows = []
        else:
            rows = _decompose_rows_for_v(word, v)
    payload = {
        "schema": SCHEMA,
        "command": "decompose",
        "type": args.type,
        "rank": args.rank,
        "word": word.display,
        "rows": rows,
    }
    if args.format == "json":
        _emit_json(payload)
    elif args.format == "csv":
        _emit_csv(rows, _DECOMPOSE_COLUMNS)
    else:
        _emit_table(rows, _DECOMPOSE_COLUMNS)
    return EXIT_OK


# -- verify --------------------------------------------------------------------


def _verify_row_groups(args):
    suite = args.suite
    if suite == "deodhar-vs-rpoly":
        yield sweeps.oracle_triangle_rows(args.type, args.rank)
        yield sweeps.partition_rows(args.type, args.rank)
    elif suite == "flags":
        yield sweeps.flag_census_rows(args.n, args.q)
        yield sweeps.double_cell_rows(args.n, args.q)
    elif suite == "gl3-example":
        if args.k < 1:
            raise ConfigError(f"--k must satisfy k >= 1, got {args.k}")
        yield sweeps.gl3_rows(args.q, args.k)
    elif suite == "vanishing":
        yield sweeps.vanishing_rows(args.max_rank)
        yield sweeps.witness_rows(args.max_rank)
    elif suite == "xq-models":
        yield sweeps.xq_model_rows(args.max_qk, args.max_nm)
    else:
        raise ConfigError(f"unknown verification suite {suite!r}")


def _cmd_verify(args) -> int:
    rows: list[dict] = []
    budget_note = None
    try:
        for group in _verify_row_groups(args):
            rows.extend(group)
    except BudgetError as exc:
        budget_note = str(exc)
    if not rows and budget_note is None:
        raise ConfigError(f"suite {args.suite!r} ran zero checks with these parameters")
    failures = [r for r in rows if not r["match"]]
    status = "PASS" if not failures else "FAIL"
    if budget_note is not None:
        status = "BUDGET-EXCEEDED"
    payload = {
        "schema": SCHEMA,
        "command": "verify",
        "suite": args.suite,
        "checks": len(rows),
        "failures": len(failures),
        "status": status,
        "rows": rows,
    }
    if budget_note is not None:
        payload["budget_exceeded"] = budget_note
    if args.format == "json":
        _emit_json(payload)
    elif args.format == "csv":
        keys = sorted({k for r in rows for k in r["parameters"]})
        flat = [
            {
                "test": r["test"],
                **{k: r["parameters"].get(k) for k in keys},
                "lhs": json.dumps(r["lhs"]),
                "rhs": json.dumps(r["rhs"]),
                "match": r["match"],
            }
            for r in rows
        ]
        _emit_csv(flat, ["test"] + keys + ["lhs", "rhs", "match"])
    else:
        for r in rows:
            mark = "ok " if r["match"] else "FAIL"
            params = json.dumps(r["parameters"], sort_keys=True)
            print(f"{mark} {r['test']} {params} lhs={r['lhs']} rhs={r['rhs']}")
        print(f"{status}: {len(rows)} checks, {len(failures)} failures")
    if budget_note is not None:
        print(f"budget exceeded: {budget_note}", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK if not failures else EXIT_MISMATCH


# -- predict -------------------------------------------------------------------


def _parse_psi(spec: str, od: frobenius.OrbitData, rs) -> frobenius.RegularCharacter:
    if spec in ("default", "regular-default"):
        return frobenius.RegularCharacter.regular_default(od)
    components = {}
    for part in spec.split(","):
        if "=" not in part:
            raise ConfigError(f"bad character component {part!r}; use letter=int")
        letter, value = part.split("=", 1)
        idx = rs.letter_index(letter.strip())
        components[od.representative_of(idx)] = int(value)
    return frobenius.RegularCharacter.from_mapping(components)


def _parse_twist(args, rs) -> frobenius.TwistData:
    if args.twist in (None, "split"):
        return frobenius.TwistData.split(rs.rank, args.q)
    phi = tuple(rs.letter_index(ch) for ch in args.twist)
    if len(phi) != rs.rank:
        raise ConfigError("twist permutation must list the image of every letter")
    return frobenius.TwistData.twisted(phi, args.q)


def _prediction_payload(table: frobenius.PredictionTable, args) -> dict:
    rs = table.word.system
    rows = []
    for row in table.rows:
        entry: dict = {"x": row.x.word_str}
        if row.gamma_rows is None:
            entry["prediction"] = "zero"
            entry["witness_root"] = f"alpha_{rs.letter(row.witness)}"
            entry["rule"] = "witness-root"
        else:
            entry["prediction"] = "regular-torus-module"
            entry["rule"] = "deodhar-cell-invariants"
            entry["gamma_table"] = [
                {
                    "gamma": gamma.display,
                    "bits": list(gamma.bits),
                    "n_alpha": {
                        f"alpha_{rs.letter(rep)}": val for rep, val in sorted(inv.n.items())
                    },
                    "m_alpha": {
                        f"alpha_{rs.letter(rep)}": val for rep, val in sorted(inv.m.items())
                    },
                    "n_bar": inv.n_bar,
                    "m_bar": inv.m_bar,
                    "vanishes": pred.vanishes,
                    "shift": pred.shift,
                }
                for gamma, inv, pred in row.gamma_rows
            ]
        rows.append(entry)
    payload = {
        "schema": SCHEMA,
        "command": "predict",
        "type": args.type,
        "rank": args.rank,
        "w": table.word.target.word_str,
        "word": table.word.display,
        "q": args.q,
        "rows": rows,
        "survivor": {
            "x": rs.longest_element().word_str,
            "gamma": table.survivor.display,
            "shift": table.shift,
        },
    }
    if table.torus_order is not None:
        payload["survivor"]["torus_order"] = table.torus_order
    return payload


def _cmd_predict(args) -> int:
    rs = build_root_system(args.type, args.rank)
    word = cells.ReducedWord.from_letters(rs, rs.parse_word(args.word))
    twist = _parse_twist(args, rs)
    od = frobenius.orbit_data(rs, twist)
    psi = _parse_psi(args.psi, od, rs)
    table = frobenius.theorem_table(word, od, psi, q=args.q)
    payload = _prediction_payload(table, args)
    if args.format == "json":
        _emit_json(payload)
    elif args.format == "csv":
        flat = []
        for row in payload["rows"]:
            flat.append(
                {
                    "x": row["x"],
                    "prediction": row["prediction"],
                    "witness_root": row.get("witness_root"),
                    "surviving_gamma": payload["survivor"]["gamma"]
                    if row["prediction"] != "zero"
                    else None,
                    "shift": payload["survivor"]["shift"]
                    if row["prediction"] != "zero"
                    else None,
                }
            )
        _emit_csv(flat, ["x", "prediction", "witness_root", "surviving_gamma", "shift"])
    else:
        for row in payload["rows"]:
            if row["prediction"] == "zero":
                print(f"x={row['x']}: zero (witness {row['witness_root']})")
            else:
                print(f"x={row['x']}: regular-torus-module")
                for g in row["gamma_table"]:
                    status = (
                        "vanishes"
                        if g["vanishes"]
                        else f"survives with shift {g['shift']}"
                    )
                    print(
                        f"  gamma={g['gamma']} n_alpha={g['n_alpha']} "
                        f"m_alpha={g['m_alpha']} {status}"
                    )
        s = payload["survivor"]
        line = (
            f"survivor: x={s['x']} gamma={s['gamma']} shift={s['shift']}"
        )
        if "torus_order" in s:
            line += f" torus_order={s['torus_order']}"
        print(line)
    return EXIT_OK


# -- argument parsing ----------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deodhar",
        description="Deodhar cell decompositions, point-count oracles and "
        "regular-character prediction tables",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dec = sub.add_parser("decompose", help="cell table of a double Schubert cell")
    dec.add_argument("type", choices=list("ABCDG"))
    dec.add_argument("rank", type=int)
    dec.add_argument("--word", required=True, help="reduced word, letters s,t,u,v")
    group = dec.add_mutually_exclusive_group(required=True)
    group.add_argument("--v", help="opposite-cell element, word or 'e'")
    group.add_argument("--all-v", action="store_true")
    dec.add_argument("--format", choices=["table", "json", "csv"], default="table")
    dec.set_defaults(func=_cmd_decompose)

    ver = sub.add_parser("verify", help="run an exhaustive identity suite")
    ver.add_argument(
        "suite",
        choices=["deodhar-vs-rpoly", "flags", "gl3-example", "vanishing", "xq-models"],
    )
    ver.add_argument("--type", choices=list("ABCDG"), default="A")
    ver.add_argument("--rank", type=int, default=2)
    ver.add_argument("--n", type=int, default=3)
    ver.add_argument("--q", type=int, default=2)
    ver.add_argument("--k", type=int, default=1)
    ver.add_argument("--max-rank", type=int, default=3)
    ver.add_argument("--max-qk", type=int, default=64)
    ver.add_argument("--max-nm", type=int, default=3)
    ver.add_argument("--format", choices=["table", "json", "csv"], default="table")
    ver.set_defaults(func=_cmd_verify)

    pre = sub.add_parser("predict", help="regular-isotypic prediction table")
    pre.add_argument("type", choices=list("ABCDG"))
    pre.add_argument("rank", type=int)
    pre.add_argument("--word", required=True)
    pre.add_argument("--q", type=int, default=2)
    pre.add_argument(
        "--twist",
        default="split",
        help="'split' or the image word of the diagram permutation, e.g. 'ts'",
    )
    pre.add_argument(
        "--psi",
        default="default",
        help="'default' (all components nontrivial) or 'letter=int,...'",
    )
    pre.add_argument("--format", choices=["table", "json", "csv"], default="table")
    pre.set_defaults(func=_cmd_predict)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except DeodharError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
