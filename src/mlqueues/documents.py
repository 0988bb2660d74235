"""Canonical JSON documents and plain-text dot diagrams.

Queues and words round-trip losslessly through small JSON objects; rationals
serialize as "p/q" strings in lowest terms (a bare integer or decimal is
accepted on input, exponent notation is not).  Diagrams print the top row
first; bosonic multiplicities appear as digit counts, and a diagram holds at
most ``MAX_DIAGRAM_CELLS`` cells (lines times sites).  The law document of
``mlq stationary`` has one writer, :func:`emit_distribution`, given the law.
"""

from __future__ import annotations

from fractions import Fraction

from .mlq import MLQ, _queue_class
from .words import BosonicWord, FermionicWord, Word, _ring_size, multiset_indicator


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
        raise ValueError(f"bad rational {s!r}") from exc


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def emit_queue(q: MLQ) -> dict:
    return {"kind": q.kind, "n": q.n, "rows": [list(r) for r in q.rows]}


def parse_queue(doc: dict) -> MLQ:
    _require(isinstance(doc, dict), "queue document must be an object")
    cls = _queue_class(doc.get("kind"))
    rows = doc.get("rows")
    _require(isinstance(rows, list) and all(isinstance(r, list) for r in rows), "rows must be a nonempty list of lists")
    return cls(doc.get("n"), tuple(tuple(r) for r in rows))


def emit_word(w: Word) -> dict:
    if w.kind == "fermionic":
        return {"kind": "fermionic_word", "n": w.n, "letters": list(w.letters)}
    return {"kind": "bosonic_word", "n": w.n, "sites": [list(s) for s in w.sites]}


def parse_word(doc: dict) -> Word:
    _require(isinstance(doc, dict), "word document must be an object")
    kind = doc.get("kind")
    n = _ring_size(doc.get("n"))
    if kind == "fermionic_word":
        letters = doc.get("letters")
        _require(isinstance(letters, list) and len(letters) == n, "letters must be a list of length n")
        cls, value = FermionicWord, tuple(letters)
    elif kind == "bosonic_word":
        sites = doc.get("sites")
        _require(isinstance(sites, list) and len(sites) == n and all(isinstance(s, list) for s in sites),
                 "sites must be a list of n lists")
        cls, value = BosonicWord, tuple(tuple(s) for s in sites)
    else:
        raise ValueError(f"bad word kind {kind!r}")
    return cls(value)


def emit_distribution(model: str, lam, n: int, x, law: dict) -> dict:
    """The ``mlq stationary`` document of ``law``, a {state: probability} dict.
    Queue states keep the law's order and carry their ``weight()`` exponents;
    word states are sorted by printed form.  Exact probabilities print as
    "p/q"; float frequencies (an estimate) as the float nearest their exact
    share of the sum, on a document marked ``"estimate": true``."""
    first = next(iter(law), None)
    queues = isinstance(first, MLQ)
    items = law.items() if queues else sorted(law.items(), key=lambda kv: str(kv[0]))
    estimate = type(law.get(first)) is float
    total = sum(map(Fraction, law.values())) if estimate else None
    entries = []
    for state, prob in items:
        e = {
            "state": emit_queue(state) if queues else emit_word(state),
            "prob": float(Fraction(prob) / total) if estimate else format_fraction(prob),
        }
        if queues:
            e["weight"] = list(state.weight())
        entries.append(e)
    doc = {
        "model": model,
        "lambda": list(lam),
        "n": n,
        "x": None if x is None else [format_fraction(v) for v in x],
        "entries": entries,
    }
    if estimate:
        doc["estimate"] = True
    return doc


# ---------------------------------------------------------------------------
# dot diagrams
# ---------------------------------------------------------------------------


# the most cells (lines times sites) a diagram may hold; a larger one is an input error
MAX_DIAGRAM_CELLS = 100_000


def _require_cells(lines: int, n: int) -> None:
    _require(lines * n <= MAX_DIAGRAM_CELLS, f"a diagram of {lines} lines on {n} sites exceeds {MAX_DIAGRAM_CELLS} cells")


def _grid(rows_of_counts: list[tuple[int, ...]], digits: bool) -> str:
    lines = []
    for counts in rows_of_counts:
        cells = [("." if c == 0 else (str(c) if digits else "*")) for c in counts]
        lines.append(" ".join(cells))
    return "\n".join(lines)


def render_queue(q: MLQ) -> str:
    """Dot diagram of a queue, top row first."""
    _require_cells(q.k, q.n)
    return _grid([multiset_indicator(row, q.n) for row in reversed(q.rows)], q.kind == "bosonic")


def render_word(w: Word) -> str:
    """Column diagram of a word: one line per label level, top level first."""
    digits = w.kind == "bosonic"
    k = w.max_label
    _require_cells(max(k, 1), w.n)
    if k == 0:
        return " ".join(["."] * w.n)
    rows = [w.layer(m) for m in range(k, 0, -1)]
    return _grid(rows, digits)
