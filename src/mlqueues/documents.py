"""Canonical JSON documents and plain-text dot diagrams.

Queues and words round-trip losslessly through small JSON objects; rationals
serialize as "p/q" strings in lowest terms (a bare integer or decimal is
accepted on input, exponent notation is not).  Diagrams print the top row
first; bosonic multiplicities appear as digit counts, and a diagram holds at
most ``MAX_DIAGRAM_CELLS`` cells (lines times sites).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from .errors import SchemaError
from .mlq import MLQ, QUEUE_CLASSES
from .words import BosonicWord, FermionicWord, Word


def format_fraction(f: Fraction) -> str:
    f = Fraction(f)
    return f"{f.numerator}/{f.denominator}"


def parse_fraction(s) -> Fraction:
    text = str(s)
    # in exponent notation Fraction would build 10**exponent, however large
    _require("e" not in text.lower(), f"bad rational {s!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad rational {s!r}") from exc


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise SchemaError(msg)


def emit_queue(q: MLQ) -> dict:
    return {"kind": q.kind, "n": q.n, "rows": [list(r) for r in q.rows]}


def parse_queue(doc: dict) -> MLQ:
    _require(isinstance(doc, dict), "queue document must be an object")
    kind = doc.get("kind")
    _require(kind in ("fermionic", "bosonic"), f"bad queue kind {kind!r}")
    n = doc.get("n")
    _require(type(n) is int and n >= 1, "n must be a positive integer")
    rows = doc.get("rows")
    _require(isinstance(rows, list) and rows and all(isinstance(r, list) for r in rows), "rows must be a nonempty list of lists")
    for r in rows:
        _require(all(type(j) is int and 1 <= j <= n for j in r), "row entries must be sites in 1..n")
    try:
        return QUEUE_CLASSES[kind](n, tuple(tuple(r) for r in rows))
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def emit_word(w: Word) -> dict:
    if w.kind == "fermionic":
        return {"kind": "fermionic_word", "n": w.n, "letters": list(w.letters)}
    return {"kind": "bosonic_word", "n": w.n, "sites": [list(s) for s in w.sites]}


def parse_word(doc: dict) -> Word:
    _require(isinstance(doc, dict), "word document must be an object")
    kind = doc.get("kind")
    n = doc.get("n")
    _require(type(n) is int and n >= 1, "n must be a positive integer")
    if kind == "fermionic_word":
        letters = doc.get("letters")
        _require(isinstance(letters, list) and len(letters) == n, "letters must be a list of length n")
        _require(all(type(a) is int and a >= 0 for a in letters), "letters must be nonnegative integers")
        return FermionicWord(tuple(letters))
    if kind == "bosonic_word":
        sites = doc.get("sites")
        _require(isinstance(sites, list) and len(sites) == n, "sites must be a list of length n")
        _require(
            all(isinstance(s, list) and all(type(a) is int and a >= 1 for a in s) for s in sites),
            "site multisets must hold positive integers",
        )
        return BosonicWord(tuple(tuple(s) for s in sites))
    raise SchemaError(f"bad word kind {kind!r}")


def emit_distribution(model: str, lam, n: int, x, entries) -> dict:
    """entries: iterable of (state word or queue, probability Fraction, weight exponents or None)."""
    out_entries = []
    for state, prob, weight in entries:
        e = {"state": emit_queue(state) if isinstance(state, MLQ) else emit_word(state), "prob": format_fraction(prob)}
        if weight is not None:
            e["weight"] = list(weight)
        out_entries.append(e)
    return {
        "model": model,
        "lambda": list(lam),
        "n": n,
        "x": None if x is None else [format_fraction(v) for v in x],
        "entries": out_entries,
    }


# ---------------------------------------------------------------------------
# dot diagrams
# ---------------------------------------------------------------------------


# the most cells (lines times sites) a diagram may hold; a larger one is an input error
MAX_DIAGRAM_CELLS = 100_000


def _require_cells(lines: int, n: int) -> None:
    _require(lines * n <= MAX_DIAGRAM_CELLS, f"a diagram of {lines} lines on {n} sites exceeds {MAX_DIAGRAM_CELLS} cells")


def _grid(rows_of_counts: list[list[int]], digits: bool) -> str:
    lines = []
    for counts in rows_of_counts:
        cells = [("." if c == 0 else (str(c) if digits else "*")) for c in counts]
        lines.append(" ".join(cells))
    return "\n".join(lines)


def render_queue(q: MLQ) -> str:
    """Dot diagram of a queue, top row first."""
    _require_cells(q.k, q.n)
    digits = q.kind == "bosonic"
    rows = []
    for row in reversed(q.rows):
        cnt = Counter(row)
        rows.append([cnt.get(j, 0) for j in range(1, q.n + 1)])
    return _grid(rows, digits)


def render_word(w: Word) -> str:
    """Column diagram of a word: one line per label level, top level first."""
    digits = w.kind == "bosonic"
    k = w.max_label
    _require_cells(max(k, 1), w.n)
    if k == 0:
        return " ".join(["."] * w.n)
    rows = [list(w.layer(m)) for m in range(k, 0, -1)]
    return _grid(rows, digits)
