"""Command line front end.

Three subcommands:

* ``decompose`` renders the cell table of a double Schubert cell;
* ``verify`` runs one of the exhaustive identity suites and exits nonzero
  on any mismatch;
* ``predict`` prints the per-piece regular-isotypic prediction table.

``decompose`` and ``predict`` build one JSON-ready payload and hand it to
``_emit``, which prints it in the chosen format.  JSON is written by
``_json_text``, byte for byte what ``json.dumps`` prints with ``indent=2`` and
``sort_keys=True``: whenever ``indent`` is set, the standard library skips its
C encoder and runs a pure-Python one, which made printing the reports slower
than computing them.  ``verify`` streams: a suite declares its options, their
defaults, its sweeps and its csv columns once in ``SUITES`` (``verify
--help`` is generated from it), an option of another suite is a
configuration error, and the sweeps yield rows one at a time.
``_run_suite`` counts them and hands each to the row sink of the chosen
format, which encodes it once as it arrives and keeps no row, so memory does
not grow with the number of checks.  Table and csv rows go straight to
stdout; json prints the counts before ``rows``, so its rows wait in a
temporary file (the spool) until the head is written.  The same bytes come
out as from ``json.dumps`` and ``csv.writer`` on the whole report.
Exit codes: 0 pass, 1 identity failure, 2 configuration error, 3 budget
exceeded, 141 the reader of stdout closed it early (``run`` only).
Identical configurations produce byte-identical output; no environment
variable changes it.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import operator
import os
import shutil
import sys
import tempfile
from json.encoder import encode_basestring_ascii as _str_text

from . import cells, counting, flags, frobenius, sweeps
from .errors import BudgetError, ConfigError, DeodharError
from .rootdata import _SUPPORTED_RANKS, build_root_system, bruhat_leq

SCHEMA = "deodhar.v1"

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a reader closing early

FORMATS = ("table", "json", "csv")


def _emit(fmt: str, payload: dict, columns, flat, lines=None) -> None:
    """Print payload in one output format.

    json prints ``_json_text(payload)``: the same bytes as ``json.dumps`` with
    ``indent=2`` and ``sort_keys=True``, whose indented form never reaches the
    C encoder.  csv writes the rows flat(payload) under the header columns;
    table prints lines(payload), or the csv cells aligned in columns when
    lines is None.  Only the projection of the chosen format runs.
    ``verify`` does not come here: its rows stream through the sinks of
    ``_cmd_verify``.
    """
    if fmt == "json":
        print(_json_text(payload))
        return
    if lines is not None and fmt == "table":
        for line in lines(payload):
            print(line)
        return
    text = [[_cell_text(row.get(c)) for c in columns] for row in flat(payload)]
    if fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(text)
        return
    widths = [
        max([len(c)] + [len(row[i]) for row in text]) for i, c in enumerate(columns)
    ]
    print("  ".join(c.ljust(w) for c, w in zip(columns, widths)))
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
    _emit(args.format, payload, _DECOMPOSE_COLUMNS, lambda p: p["rows"])
    return EXIT_OK


# -- verify --------------------------------------------------------------------


# suite -> (its options with their defaults, the ``sweeps`` functions of its
# rows in report order, each called with the suite's options in order, the
# parameter keys of its rows in sorted order: its csv columns).  No value is
# checked here: the sweep that reads an option refuses it with ConfigError
# before its first row, so a refused run prints nothing on stdout.
SUITES = {
    "deodhar-vs-rpoly": (
        {"type": "A", "rank": 2}, ("oracle_triangle_rows", "partition_rows"),
        ("rank", "type", "v", "w", "word"),
    ),
    "flags": (
        {"n": 3, "q": 2}, ("flag_census_rows", "double_cell_rows"),
        ("n", "q", "v", "w"),
    ),
    "gl3-example": ({"q": 2, "k": 1}, ("gl3_rows",), ("k", "q")),
    "vanishing": (
        {"max_rank": 3}, ("vanishing_rows", "witness_rows"),
        ("phi", "rank", "type", "w", "word", "x"),
    ),
    "xq-models": ({"max_qk": 64, "max_nm": 3}, ("xq_model_rows",), ("k", "m", "n", "q")),
}


def _verify_rows(args):
    """The rows of the chosen suite, sweep by sweep.

    An option of another suite given on the command line is a ConfigError;
    an option of this suite left out takes its default from ``SUITES``.
    Each sweep is looked up in ``sweeps`` by name when its turn comes, so a
    wrapper installed on the module after import sees the call.
    """
    options, names, _ = SUITES[args.suite]
    for other, *_ in SUITES.values():
        for option in other:
            if option not in options and getattr(args, option) is not None:
                raise ConfigError(
                    f"--{option.replace('_', '-')} is not an option of suite "
                    f"{args.suite!r}"
                )
    values = {
        option: default if getattr(args, option) is None else getattr(args, option)
        for option, default in options.items()
    }
    return itertools.chain.from_iterable(
        getattr(sweeps, name)(*values.values()) for name in names
    )


# Rows the json sink collects before it encodes them together.
JSON_ROW_BLOCK = 64
_INT, _BOOL, _STR = frozenset((int,)), frozenset((bool,)), frozenset((str,))
_SCALARS = frozenset((int, bool, str, type(None)))
_ARRAYS = frozenset((list, tuple))
_BOOL_TEXT = {True: "true", False: "false"}
# The keys of a verify row (``sweeps._row``), in the order JSON prints them.
_ROW_KEYS = ("lhs", "match", "parameters", "rhs", "test")
_ROW_SCALARS = operator.itemgetter("lhs", "match", "rhs", "test")
# Indents inside "rows": a row's braces, its keys, the entries of its values.
_ROW_PAD, _KEY_PAD, _VAL_PAD = " " * 4, " " * 6, " " * 8
_LHS, _MATCH, _PARAMS, _RHS, _TEST = (f'\n{_KEY_PAD}"{k}": ' for k in _ROW_KEYS)
_OPEN, _NEXT = "[\n" + _ROW_PAD, ",\n" + _ROW_PAD


class _IntListMemo:
    """encode(value) for report values, from a memo for flat lists.

    The memo lives as long as the object, one report: the B3 triangle has
    13,174 coefficient lists, 29 of them distinct.  Called on one value, a
    list or tuple is looked up if every entry has type ``int``, ``bool``,
    ``str`` or ``None``.  An all-``int`` list is keyed by ``tuple(value)``,
    any other by the types of its entries and their values: ``[1] == [True]``
    and ``hash((1,)) == hash((True,))``, but they print ``1`` and ``true``.
    ``column(values)`` gives the texts of a whole column, one block's lhs or
    rhs.  A type scan over the values finds a column that holds a list or a
    tuple; then each distinct object in it, by ``id``, goes once through the
    call above, however many rows repeat it, so a list shared by many rows is
    scanned, tupled and looked up once.  The ids are sound: the column tuple
    keeps every object alive for the whole call.  A column with no list or
    tuple is encoded value by value, with no ``id`` pass.
    """

    __slots__ = ("encode", "memo")

    def __init__(self, encode) -> None:
        self.encode = encode
        self.memo: dict[tuple, str] = {}

    def __call__(self, value) -> str:
        kind = type(value)
        if kind is not list and kind is not tuple:
            return self.encode(value)
        kinds = set(map(type, value))
        if kinds <= _INT:
            key = tuple(value)
        elif kinds <= _SCALARS:
            key = tuple(map(type, value)), tuple(value)
        else:
            return self.encode(value)
        memo = self.memo
        found = memo.get(key)
        if found is None:
            found = memo[key] = self.encode(value)
        return found

    def column(self, values: tuple):
        if _ARRAYS.isdisjoint(map(type, values)):
            return _column_text(values, self)
        ids = list(map(id, values))
        texts = {i: self(value) for i, value in dict(zip(ids, values)).items()}
        return map(texts.__getitem__, ids)


def _column_text(values: tuple, encode):
    """The texts of one column of values, by one ``map`` for the column's type.

    A column of exact ``str``, ``int`` or ``bool`` is encoded directly; any
    other goes through encode.
    """
    kinds = set(map(type, values))
    if kinds == _STR:
        return map(_str_text, values)
    if kinds == _INT:
        return map(int.__repr__, values)
    if kinds == _BOOL:
        return map(_BOOL_TEXT.__getitem__, values)
    return map(encode, values)


class _TableRows:
    """Table output: one line per row as it arrives, the summary line last."""

    def __init__(self, out) -> None:
        self.out = out

    def put(self, row: dict) -> None:
        mark = "ok " if row["match"] else "FAIL"
        params = json.dumps(row["parameters"], sort_keys=True)
        self.out.write(
            f"{mark} {row['test']} {params} lhs={row['lhs']} rhs={row['rhs']}\n"
        )

    def write_report(self, head: dict) -> None:
        self.out.write(
            f"{head['status']}: {head['checks']} checks, {head['failures']} failures\n"
        )


class _JsonRows:
    """JSON output: ``_json_text`` of the report, its rows spooled in blocks.

    Rows are the dicts ``sweeps._row`` makes: its five keys, ``parameters`` a
    dict.  put(row) collects rows while their parameter keys (a layout) stay
    the same, up to ``JSON_ROW_BLOCK`` of them (read when the sink is made),
    and encodes each such block into the spool, at its place in ``"rows"``.
    Each layout gets one ``%`` template, the row's keys and its parameter
    keys in sorted order, and one ``operator.itemgetter`` of those keys,
    worked out once.  A block's columns are taken with ``itemgetter`` and
    each is encoded by one ``map`` for its type (``_column_text``), lhs and
    rhs by ``_IntListMemo.column`` (so an rhs equal to its lhs gets the lhs
    text).  A row without those keys raises.
    write_report(head) encodes the rows left, then writes the keys of head
    and ``"rows"`` in sorted order, the rows copied from the spool.
    """

    def __init__(self, spool, out) -> None:
        self.spool, self.out = spool, out
        self.block = JSON_ROW_BLOCK
        self.rows: list = []
        self.names: tuple = ()  # the layout of the rows collected
        self.sep = _OPEN
        self.side = _IntListMemo(functools.partial(_json_text, pad=_KEY_PAD))
        self.value = functools.partial(_json_text, pad=_KEY_PAD)
        self.param = functools.partial(_json_text, pad=_VAL_PAD)
        self.layouts: dict[tuple, tuple] = {}  # parameter keys -> (template, pick)

    def put(self, row) -> None:
        names = tuple(row["parameters"])
        rows = self.rows
        if names != self.names or len(rows) >= self.block:
            self._flush()
            self.names, rows = names, self.rows
        rows.append(row)

    def _layout(self, names: tuple) -> tuple:
        layout = self.layouts.get(names)
        if layout is None:
            keys = sorted(names)
            heads = [
                f"\n{_VAL_PAD}{_str_text(k).replace('%', '%%')}: %s" for k in keys
            ]
            params = f"{{{','.join(heads)}\n{_KEY_PAD}}}" if keys else "{}"
            template = (
                f"{{{_LHS}%s,{_MATCH}%s,{_PARAMS}{params},"
                f"{_RHS}%s,{_TEST}%s\n{_ROW_PAD}}}"
            )
            # pick(params): the tuple of params' values, in sorted key order
            pick = (
                operator.itemgetter(*keys)
                if len(keys) > 1
                else lambda params: tuple(map(params.__getitem__, keys))
            )
            layout = self.layouts[names] = (template, pick)
        return layout

    def _flush(self) -> None:
        rows, self.rows = self.rows, []
        if not rows:
            return
        template, pick = self._layout(self.names)
        lhs, match, rhs, test = zip(*map(_ROW_SCALARS, rows))
        params = zip(*[pick(row["parameters"]) for row in rows])
        columns = [
            self.side.column(lhs),
            _column_text(match, self.value),
            *(_column_text(column, self.param) for column in params),
            self.side.column(rhs),
            _column_text(test, self.value),
        ]
        sep, self.sep = self.sep, _NEXT
        self.spool.write(sep + _NEXT.join(map(template.__mod__, zip(*columns))))

    def write_report(self, head: dict) -> None:
        self._flush()
        out, spool = self.out, self.spool
        spool.write("[]" if self.sep == _OPEN else "\n  ]")
        sep = "{\n  "
        for key in sorted([*head, "rows"]):
            out.write(sep + _str_text(key) + ": ")
            if key == "rows":
                spool.seek(0)
                shutil.copyfileobj(spool, out)
            else:
                out.write(_json_text(head[key], "  "))
            sep = ",\n  "
        out.write("\n}\n")


class _CsvRows:
    """csv output: a header, then one record per row as it arrives.

    The header is ``test``, the suite's parameter columns, ``lhs``, ``rhs``
    and ``match``; it is written with the first row, or by write_report when
    no row came, so a run that stops before its first row prints nothing.  A
    record holds the row's test, its parameters under the columns (blank
    where the row has none), lhs and rhs as ``json.dumps`` prints them
    (through ``_IntListMemo``) and match.  A parameter outside the columns
    raises ``KeyError``.
    """

    def __init__(self, columns: tuple, out) -> None:
        self.columns = columns
        self.writer = csv.writer(out, lineterminator="\n")
        self.side = _IntListMemo(json.dumps)
        self.header = ["test", *columns, "lhs", "rhs", "match"]

    def _write_header(self) -> None:
        if self.header:
            self.writer.writerow(self.header)
            self.header = None

    def put(self, row: dict) -> None:
        params, side = row["parameters"], self.side
        stray = params.keys() - self.columns
        if stray:
            raise KeyError(f"parameters outside the csv columns: {sorted(stray)}")
        self._write_header()
        cells = [_cell_text(row["test"])]
        cells += [_cell_text(params.get(k)) for k in self.columns]
        cells += [side(row["lhs"]), side(row["rhs"]), row["match"]]
        self.writer.writerow(cells)

    def write_report(self, head: dict) -> None:
        self._write_header()


def _cmd_verify(args) -> int:
    if args.format == "json":
        with tempfile.TemporaryFile("w+", encoding="utf-8", newline="") as spool:
            return _run_suite(args, _JsonRows(spool, sys.stdout))
    if args.format == "csv":
        return _run_suite(args, _CsvRows(SUITES[args.suite][2], sys.stdout))
    return _run_suite(args, _TableRows(sys.stdout))


def _run_suite(args, sink) -> int:
    """Hand every row of the suite to sink, then the report head."""
    checks = failures = 0
    budget_note = None
    try:
        for row in _verify_rows(args):
            sink.put(row)
            checks += 1
            failures += not row["match"]
    except BudgetError as exc:
        budget_note = str(exc)
    if not checks and budget_note is None:
        raise ConfigError(f"suite {args.suite!r} ran zero checks with these parameters")
    head = {
        "schema": SCHEMA,
        "command": "verify",
        "suite": args.suite,
        "checks": checks,
        "failures": failures,
        "status": "PASS" if not failures else "FAIL",
    }
    if budget_note is not None:
        head["status"] = "BUDGET-EXCEEDED"
        head["budget_exceeded"] = budget_note
    sink.write_report(head)
    if budget_note is not None:
        print(f"budget exceeded: {budget_note}", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK if not failures else EXIT_MISMATCH


# -- predict -------------------------------------------------------------------


def _parse_psi(spec: str, od: frobenius.OrbitData, rs) -> frobenius.RegularCharacter:
    if spec == "default":
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
        rep = od.orbit_of(rs.letter_index(letter))[0]
        if rep in letters:
            raise ConfigError(
                f"character components {letters[rep]!r} and {letter!r} both name "
                f"the orbit of alpha_{rs.letter(rep)}"
            )
        letters[rep] = letter
        components[rep] = value
    return frobenius.RegularCharacter(tuple(sorted(components.items())))


def _parse_twist(args, rs) -> frobenius.OrbitData:
    phi = None if args.twist == "split" else tuple(map(rs.letter_index, args.twist))
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
    _emit(args.format, payload, _PREDICT_COLUMNS, _predict_flat, _predict_lines)
    return EXIT_OK


# -- argument parsing ----------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deodhar",
        description="Deodhar cell decompositions, point-count oracles and "
        "regular-character prediction tables",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    types = list(_SUPPORTED_RANKS)

    dec = sub.add_parser("decompose", help="cell table of a double Schubert cell")
    dec.add_argument("type", choices=types)
    dec.add_argument("rank", type=int)
    dec.add_argument("--word", required=True, help="reduced word, letters s,t,u,v")
    group = dec.add_mutually_exclusive_group(required=True)
    group.add_argument("--v", help="opposite-cell element, word or 'e'")
    group.add_argument("--all-v", action="store_true")
    dec.add_argument("--format", choices=FORMATS, default="table")
    dec.set_defaults(func=_cmd_decompose)

    ver = sub.add_parser("verify", help="run an exhaustive identity suite")
    ver.add_argument("suite", choices=SUITES)
    # the options of every suite, in SUITES order; each one's help names the
    # suites that read it and its default in each
    readers: dict[str, list[str]] = {}
    for suite, (options, *_) in SUITES.items():
        for option, default in options.items():
            readers.setdefault(option, []).append(f"{suite} (default {default})")
    for option, suites in readers.items():
        ver.add_argument(
            "--" + option.replace("_", "-"),
            choices=types if option == "type" else None,
            type=None if option == "type" else int,
            help=", ".join(suites),
        )
    ver.add_argument("--format", choices=FORMATS, default="table")
    ver.set_defaults(func=_cmd_verify)

    pre = sub.add_parser("predict", help="regular-isotypic prediction table")
    pre.add_argument("type", choices=types)
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
