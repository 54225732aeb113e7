"""Command line front end.

Three subcommands:

* ``decompose`` renders the cell table of a double Schubert cell;
* ``verify`` runs one of the exhaustive identity suites and exits nonzero
  on any mismatch;
* ``predict`` prints the per-piece regular-isotypic prediction table.

Every command builds one JSON-ready payload and hands it to ``_emit``, which
prints it in the chosen format.  JSON is written by ``_json_text``, byte for
byte what ``json.dumps`` prints with ``indent=2`` and ``sort_keys=True``:
whenever ``indent`` is set, the standard library skips its C encoder and runs
a pure-Python one, which made printing the reports slower than computing them.
A ``verify`` report's rows go through the row encoder ``_rows_json`` instead,
which knows the row schema and reuses the text of repeated coefficient lists
through a memo that lives for one report only; the result is the same bytes.
Exit codes: 0 pass, 1 identity failure, 2 configuration error, 3 budget
exceeded, 141 the reader of stdout closed it early (``run`` only).
Identical configurations produce byte-identical output; no environment
variable changes it.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from json.encoder import encode_basestring_ascii as _str_text

from . import cells, counting, flags, frobenius, sweeps
from .errors import BudgetError, ConfigError, DeodharError
from .rootdata import build_root_system, bruhat_leq

SCHEMA = "deodhar.v1"

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a reader closing early

SUITES = ("deodhar-vs-rpoly", "flags", "gl3-example", "vanishing", "xq-models")
FORMATS = ("table", "json", "csv")


def _emit(fmt: str, payload: dict, columns, flat, lines=None, json_text=None) -> None:
    """Print payload in one output format.

    json prints json_text(payload), by default ``_json_text``: the same bytes
    as ``json.dumps`` with ``indent=2`` and ``sort_keys=True``, whose indented
    form never reaches the C encoder.  ``verify`` passes ``_verify_json``,
    which writes the rows through the row encoder, with a memo for that one
    report.  csv writes the rows flat(payload) under the header
    columns(payload); table prints lines(payload), or the csv cells aligned
    in columns when lines is None.  Only the projection of the chosen format
    runs.
    """
    if fmt == "json":
        print((json_text or _json_text)(payload))
        return
    if lines is not None and fmt == "table":
        for line in lines(payload):
            print(line)
        return
    names = columns(payload)
    text = [[_cell_text(row.get(c)) for c in names] for row in flat(payload)]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(names)
        writer.writerows(text)
        sys.stdout.write(buf.getvalue())
        return
    widths = [
        max([len(c)] + [len(row[i]) for row in text]) for i, c in enumerate(names)
    ]
    print("  ".join(c.ljust(w) for c, w in zip(names, widths)))
    print("  ".join("-" * w for w in widths))
    for row in text:
        print("  ".join(v.ljust(w) for v, w in zip(row, widths)))


def _json_text(value, pad: str = "") -> str:
    """What ``json.dumps`` prints with ``indent=2, sort_keys=True``, for payload types.

    pad is the indent of the line on which value starts, so a value nested in
    a report can be encoded on its own.  Dicts need ``str`` keys; lists and
    tuples are arrays; ``str``, exact ``int``, ``bool`` and ``None`` are
    leaves.  Any other type (a float, a set, an ``int`` subclass) raises
    ``TypeError``.

    >>> print(_json_text({"b": [1, -2], "a": (), "c": {"x": None}}))
    {
      "a": [],
      "b": [
        1,
        -2
      ],
      "c": {
        "x": null
      }
    }
    """
    kind = type(value)
    if kind is str:
        return _str_text(value)
    if kind is int:
        return int.__repr__(value)
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    inner = pad + "  "
    if kind is dict:
        if not value:
            return "{}"
        # _str_text raises TypeError on a key that is not a str.
        items = [
            _str_text(k) + ": " + _json_text(value[k], inner) for k in sorted(value)
        ]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        items = [_json_text(v, inner) for v in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot encode {kind.__name__} as report JSON")


# The keys of a verify row (``sweeps._row``), in the order JSON prints them.
_ROW_KEYS = ("lhs", "match", "parameters", "rhs", "test")
_ROW_KEY_SET = frozenset(_ROW_KEYS)
_INT = frozenset((int,))


def _verify_json(payload: dict) -> str:
    """``_json_text(payload)`` for a verify payload, its rows by ``_rows_json``.

    Every other payload key goes through ``_json_text``, in sorted order.  The
    report is joined once from its pieces, so it is never copied whole.

    >>> print(_verify_json({"rows": [], "checks": 0}))
    {
      "checks": 0,
      "rows": []
    }
    """
    out: list[str] = []
    sep = "{\n  "
    for key in sorted(payload):
        out.append(sep + _str_text(key) + ": ")
        if key == "rows":
            _rows_json(payload[key], "  ", out)
        else:
            out.append(_json_text(payload[key], "  "))
        sep = ",\n  "
    out.append("\n}")
    return "".join(out)


def _rows_json(rows, pad: str, out: list[str]) -> None:
    """Append to out the pieces of ``_json_text(rows, pad)``, for verify rows.

    A row with exactly the keys of ``sweeps._row`` is written key by key in
    sorted order.  A memo that lives for this call only (one report) holds the
    text of every flat list of exact ints (the coefficients of an
    R-polynomial, say), so each distinct list is encoded once and an ``rhs``
    equal to its row's ``lhs`` gets the ``lhs`` text; the sorted layout of
    each set of ``parameters`` keys is worked out once.  A list is looked up
    only if every entry has type ``int``: ``[1] == [True]``, but they print
    ``1`` and ``true``.  Any other row or value goes through ``_json_text``.

    >>> rows = [{"test": "t", "parameters": {"w": "s"}, "lhs": [1], "rhs": [1],
    ...          "match": True}]
    >>> out = []
    >>> _rows_json(rows, "  ", out)
    >>> "".join(out) == _json_text(rows, "  ")
    True
    """
    if type(rows) is not list or not rows:
        out.append(_json_text(rows, pad))
        return
    inner = pad + "  "  # the braces of each row
    key_pad = inner + "  "  # the keys of each row
    val_pad = key_pad + "  "  # the entries of lhs, rhs and parameters
    lhs_, match_, params_, rhs_, test_ = (f'\n{key_pad}"{k}": ' for k in _ROW_KEYS)
    row_close, params_close = "\n" + inner + "}", "\n" + key_pad + "}"
    lists: dict[tuple, str] = {}  # flat exact-int list -> its text at key_pad
    layouts: dict[tuple, tuple] = {}  # parameter keys -> (sorted keys, their heads)

    def side_text(value) -> str:
        """The text of an lhs or rhs, from the memo if it is a flat exact-int list."""
        kind = type(value)
        if (kind is list or kind is tuple) and set(map(type, value)) <= _INT:
            key = tuple(value)
            text = lists.get(key)
            if text is None:
                text = lists[key] = _json_text(value, key_pad)
            return text
        return _json_text(value, key_pad)

    sep, comma = "[\n" + inner, ",\n" + inner
    for row in rows:
        if type(row) is not dict or row.keys() != _ROW_KEY_SET:
            out.append(sep + _json_text(row, inner))
            sep = comma
            continue
        params = row["parameters"]
        if type(params) is dict and params:
            names = tuple(params)
            layout = layouts.get(names)
            if layout is None:
                keys = sorted(params)
                heads = [f"\n{val_pad}{_str_text(k)}: " for k in keys]
                layout = layouts[names] = (keys, heads)
            keys, heads = layout
            values = [
                head + (_str_text(v) if type(v) is str else _json_text(v, val_pad))
                for head, v in zip(heads, map(params.__getitem__, keys))
            ]
            params_text = "{" + ",".join(values) + params_close
        else:
            params_text = _json_text(params, key_pad)
        match, test = row["match"], row["test"]
        match_text = "true" if match is True else _json_text(match, key_pad)
        test_text = _str_text(test) if type(test) is str else _json_text(test, key_pad)
        out.append(
            f"{sep}{{{lhs_}{side_text(row['lhs'])},{match_}{match_text},"
            f"{params_}{params_text},{rhs_}{side_text(row['rhs'])},{test_}{test_text}"
            f"{row_close}"
        )
        sep = comma
    out.append("\n" + pad + "]")


def _cell_text(value) -> str:
    if isinstance(value, (list, tuple)):
        return " ".join(str(v) for v in value)
    if value is None:
        return ""
    return str(value)


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


# fields only a cell (a distinguished subexpression) has; null for candidates
_CELL_ONLY = (
    "n", "m", "cell_poly", "cell_poly_coeffs", "filtration_index", "preceq_below"
)


def _decompose_rows(
    order: tuple[cells.Subexpression, ...], candidates=()
) -> list[dict]:
    """Rows for the cells of one Gamma_v in filtration order, then the
    non-distinguished candidates ending at v, flagged with their violation."""

    def record(gamma: cells.Subexpression, **fields) -> dict:
        return {
            "word": gamma.word.display,
            "v": gamma.end.word_str,
            "gamma": gamma.display,
            "gamma_bits": list(gamma.bits),
            "I": sorted(gamma.I),
            "J": sorted(gamma.J),
            "distinguished": gamma.is_distinguished,
            **fields,
        }

    rows = []
    for idx, gamma in enumerate(order):
        shape = gamma.cell_shape()
        poly = counting.cell_count_poly(shape)
        below = [
            j
            for j, other in enumerate(order)
            if other is not gamma and cells.preceq(other, gamma)
        ]
        rows.append(
            record(
                gamma,
                n=shape.n_affine,
                m=shape.m_torus,
                cell_poly=str(poly),
                cell_poly_coeffs=list(poly.coeffs),
                filtration_index=idx,
                preceq_below=below,
                rule="deodhar-cell",
            )
        )
    for gamma in candidates:
        rows.append(
            record(
                gamma,
                **dict.fromkeys(_CELL_ONLY),
                violation_index=gamma.violation_index(),
                rule="empty-cell-candidate",
            )
        )
    return rows


def _cmd_decompose(args) -> int:
    rs = build_root_system(args.type, args.rank)
    word = cells.ReducedWord.from_letters(rs, rs.parse_word(args.word))
    if args.all_v:
        # one walk, grouped by end; ends in element-index (length, word) order
        groups: dict[int, list] = {}
        for gamma in cells.enumerate_distinguished(word):
            groups.setdefault(gamma.end.index, []).append(gamma)
        rows = []
        for k in sorted(groups):
            rows.extend(_decompose_rows(cells._filtration_sequence(groups[k])))
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
            # one unpruned walk keeps every subexpression ending at v
            ending = cells._walk(word, prune=False, end=v)
            dist = [g for g in ending if g.is_distinguished]
            candidates = [g for g in ending if not g.is_distinguished]
            rows = _decompose_rows(cells._filtration_sequence(dist), candidates)
    payload = {
        "schema": SCHEMA,
        "command": "decompose",
        "type": args.type,
        "rank": args.rank,
        "word": word.display,
        "rows": rows,
    }
    _emit(args.format, payload, lambda _: _DECOMPOSE_COLUMNS, lambda p: p["rows"])
    return EXIT_OK


# -- verify --------------------------------------------------------------------


def _verify_rows(args, rows: list[dict]) -> None:
    """Append the rows of the chosen suite to rows, group by group.

    ``xq_model_rows`` appends each row as it is made, so after a BudgetError
    rows holds every row made before it.
    """
    suite = args.suite
    if suite == "deodhar-vs-rpoly":
        rows += sweeps.oracle_triangle_rows(args.type, args.rank)
        rows += sweeps.partition_rows(args.type, args.rank)
    elif suite == "flags":
        if not 2 <= args.n <= flags.MAX_MATRIX_SIZE:
            raise ConfigError(
                f"--n must satisfy 2 <= n <= {flags.MAX_MATRIX_SIZE}, got {args.n}"
            )
        rows += sweeps.flag_census_rows(args.n, args.q)
        rows += sweeps.double_cell_rows(args.n, args.q)
    elif suite == "gl3-example":
        if args.k < 1:
            raise ConfigError(f"--k must satisfy k >= 1, got {args.k}")
        rows += sweeps.gl3_rows(args.q, args.k)
    elif suite == "vanishing":
        top = max(rank for _, rank in sweeps.RANK_LE_3_TYPES)
        if args.max_rank > top:
            raise ConfigError(
                f"--max-rank must be at most {top}, the largest rank swept; "
                f"got {args.max_rank}"
            )
        rows += sweeps.vanishing_rows(args.max_rank)
        rows += sweeps.witness_rows(args.max_rank)
    elif suite == "xq-models":
        sweeps.xq_model_rows(args.max_qk, args.max_nm, out=rows)


def _verify_columns(payload: dict) -> list[str]:
    keys = sorted({k for r in payload["rows"] for k in r["parameters"]})
    return ["test", *keys, "lhs", "rhs", "match"]


def _verify_flat(payload: dict) -> list[dict]:
    return [
        {
            "test": r["test"],
            **r["parameters"],
            "lhs": json.dumps(r["lhs"]),
            "rhs": json.dumps(r["rhs"]),
            "match": r["match"],
        }
        for r in payload["rows"]
    ]


def _verify_lines(payload: dict):
    for r in payload["rows"]:
        mark = "ok " if r["match"] else "FAIL"
        params = json.dumps(r["parameters"], sort_keys=True)
        yield f"{mark} {r['test']} {params} lhs={r['lhs']} rhs={r['rhs']}"
    yield (
        f"{payload['status']}: {payload['checks']} checks, "
        f"{payload['failures']} failures"
    )


def _cmd_verify(args) -> int:
    rows: list[dict] = []
    budget_note = None
    try:
        _verify_rows(args, rows)
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
    _emit(
        args.format, payload, _verify_columns, _verify_flat, _verify_lines, _verify_json
    )
    if budget_note is not None:
        print(f"budget exceeded: {budget_note}", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK if not failures else EXIT_MISMATCH


# -- predict -------------------------------------------------------------------


def _parse_psi(spec: str, od: frobenius.OrbitData, rs) -> frobenius.RegularCharacter:
    if spec in ("default", "regular-default"):
        return frobenius.RegularCharacter.regular_default(od)
    components = {}
    letters = {}  # orbit representative -> the letter that named it
    for part in spec.split(","):
        letter, _, value = part.partition("=")
        try:
            value = int(value)
        except ValueError:
            raise ConfigError(
                f"bad character component {part!r}; use letter=int"
            ) from None
        letter = letter.strip()
        rep = od.representative_of(rs.letter_index(letter))
        if rep in letters:
            raise ConfigError(
                f"character components {letters[rep]!r} and {letter!r} both name "
                f"the orbit of alpha_{rs.letter(rep)}"
            )
        letters[rep] = letter
        components[rep] = value
    return frobenius.RegularCharacter.from_mapping(components)


def _parse_twist(args, rs) -> frobenius.OrbitData:
    if args.twist in (None, "split"):
        return frobenius.orbit_data(rs, args.q)
    phi = tuple(rs.letter_index(ch) for ch in args.twist)
    if len(phi) != rs.rank:
        raise ConfigError("twist permutation must list the image of every letter")
    return frobenius.orbit_data(rs, args.q, phi)


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


_PREDICT_COLUMNS = ["x", "prediction", "witness_root", "surviving_gamma", "shift"]


def _predict_flat(payload: dict) -> list[dict]:
    s = payload["survivor"]
    survivor = {"surviving_gamma": s["gamma"], "shift": s["shift"]}
    return [
        {
            "x": row["x"],
            "prediction": row["prediction"],
            "witness_root": row.get("witness_root"),
            **(survivor if row["prediction"] != "zero" else {}),
        }
        for row in payload["rows"]
    ]


def _predict_lines(payload: dict):
    for row in payload["rows"]:
        if row["prediction"] == "zero":
            yield f"x={row['x']}: zero (witness {row['witness_root']})"
            continue
        yield f"x={row['x']}: regular-torus-module"
        for g in row["gamma_table"]:
            status = "vanishes" if g["vanishes"] else f"survives with shift {g['shift']}"
            yield (
                f"  gamma={g['gamma']} n_alpha={g['n_alpha']} "
                f"m_alpha={g['m_alpha']} {status}"
            )
    s = payload["survivor"]
    line = f"survivor: x={s['x']} gamma={s['gamma']} shift={s['shift']}"
    if "torus_order" in s:
        line += f" torus_order={s['torus_order']}"
    yield line


def _cmd_predict(args) -> int:
    rs = build_root_system(args.type, args.rank)
    word = cells.ReducedWord.from_letters(rs, rs.parse_word(args.word))
    od = _parse_twist(args, rs)
    psi = _parse_psi(args.psi, od, rs)
    table = frobenius.theorem_table(word, od, psi)
    payload = _prediction_payload(table, args)
    _emit(
        args.format, payload, lambda _: _PREDICT_COLUMNS, _predict_flat, _predict_lines
    )
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
    dec.add_argument("--format", choices=FORMATS, default="table")
    dec.set_defaults(func=_cmd_decompose)

    ver = sub.add_parser("verify", help="run an exhaustive identity suite")
    ver.add_argument("suite", choices=SUITES)
    ver.add_argument("--type", choices=list("ABCDG"), default="A")
    ver.add_argument("--rank", type=int, default=2)
    ver.add_argument("--n", type=int, default=3)
    ver.add_argument("--q", type=int, default=2)
    ver.add_argument("--k", type=int, default=1)
    ver.add_argument("--max-rank", type=int, default=3)
    ver.add_argument("--max-qk", type=int, default=64)
    ver.add_argument("--max-nm", type=int, default=3)
    ver.add_argument("--format", choices=FORMATS, default="table")
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
    pre.add_argument("--format", choices=FORMATS, default="table")
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
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (``| head``).  Point stdout at devnull
        # so the flush at interpreter exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(EXIT_BROKEN_PIPE)
    sys.exit(code)


if __name__ == "__main__":
    run()
