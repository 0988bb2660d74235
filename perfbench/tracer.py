"""Outside-in span tracer for the mlqueues layers.

The tracer rebinds public functions of the package inside this process only;
nothing under ``src/`` changes.  A function imported with ``from .x import f``
lives on in every consumer module's namespace, so each wrapper is installed on
every ``mlqueues`` module whose attribute *is* the original function, not only
on the module that defines it.  ``uninstall`` puts every original back.

Spans are kept per thread (``verify`` runs its cases on a thread pool): each
thread has its own span stack, so a span's self time is its duration minus
the time of the child spans opened on the same thread.  Times are integer
nanoseconds from ``perf_counter_ns``, so self time is never negative by
rounding.
"""

from __future__ import annotations

import functools
import itertools
import operator
import sys
import threading
from time import perf_counter_ns

PAIRING = ("pairing.pair_weakly_right", "pairing.pair_strictly_left")
ROW_OPERATORS = ("projection.apply_row_fermionic", "projection.apply_row_bosonic")


class _ThreadState:
    def __init__(self):
        self.stack: list[list] = []  # [span name, child ns]
        self.spans: dict[str, list[int]] = {}  # name -> [calls, self ns, total ns]
        self.counts: dict[str, int] = {}
        self.toplevel_ns = 0
        self.open_counters: list = []  # itertools.count objects of enumerate_states

    def add(self, key: str, value: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value


class Tracer:
    """Span wrappers over the package's public functions, per-thread stacks."""

    def __init__(self):
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    # -- per-thread state ----------------------------------------------------

    def reset(self) -> None:
        """Drop every recorded span; the next call on any thread starts fresh."""
        with self._lock:
            self._local = threading.local()
            self._states: list[_ThreadState] = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState()
            with self._lock:
                self._states.append(st)
            self._local.st = st
        return st

    def snapshot(self) -> tuple[dict, dict, int]:
        """(spans, counts, summed top-level ns) merged over all threads."""
        spans: dict[str, list[int]] = {}
        counts: dict[str, int] = {}
        toplevel = 0
        with self._lock:
            states = list(self._states)
        for st in states:
            for name, (calls, self_ns, total_ns) in st.spans.items():
                acc = spans.setdefault(name, [0, 0, 0])
                acc[0] += calls
                acc[1] += self_ns
                acc[2] += total_ns
            for key, value in st.counts.items():
                counts[key] = counts.get(key, 0) + value
            toplevel += st.toplevel_ns
        return spans, counts, toplevel

    # -- span wrappers -------------------------------------------------------

    def _close(self, st: _ThreadState, frame: list, t0: int) -> None:
        dt = perf_counter_ns() - t0
        st.stack.pop()
        rec = st.spans.get(frame[0])
        if rec is None:
            rec = st.spans[frame[0]] = [0, 0, 0]
        rec[0] += 1
        rec[1] += dt - frame[1]
        rec[2] += dt
        if st.stack:
            st.stack[-1][1] += dt
        else:
            st.toplevel_ns += dt

    def span(self, name: str, fn, count=None):
        """Wrap ``fn`` in a span; ``count(state, args, kwargs, result)`` runs inside it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = self._state()
            frame = [name, 0]
            st.stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(st, args, kwargs, result)
                return result
            finally:
                self._close(st, frame, t0)

        return traced

    def generator_span(self, name: str, fn, item_key: str):
        """Wrap a generator function: each ``next`` is one span of ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def pump():
                while True:
                    st = self._state()
                    frame = [name, 0]
                    st.stack.append(frame)
                    t0 = perf_counter_ns()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(st, frame, t0)
                    st.add(item_key)
                    yield item

            return pump()

        return traced

    # -- installation --------------------------------------------------------

    def _rebind(self, original, wrapper) -> None:
        """Point every ``mlqueues`` module attribute that is ``original`` at ``wrapper``."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "mlqueues" or modname.startswith("mlqueues.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _set(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        from mlqueues import cli, documents, markov, mlq, pairing, projection, words

        def pair_count(st, args, kwargs, res):
            st.add("pairing.particles", 2 * len(res.pairs) + len(res.unpaired_upper) + len(res.unpaired_lower))
            if len(st.stack) > 1 and st.stack[-2][0] in ROW_OPERATORS:
                st.add("projection.pair_calls_under_rows")

        for fn in (pairing.pair_weakly_right, pairing.pair_strictly_left):
            self._rebind(fn, self.span(f"pairing.{fn.__name__}", fn, pair_count))

        self._rebind(mlq.twist, self.span("mlq.twist", mlq.twist))
        self._rebind(
            mlq.enumerate_queues,
            self.generator_span("mlq.enumerate_queues", mlq.enumerate_queues, "mlq.enumerate_queues.queues"),
        )

        for cls in (words.FermionicWord, words.BosonicWord):
            self._set(cls, "layer", self.span("words.layer", cls.layer))

        for fn in (
            projection.apply_row_fermionic,
            projection.apply_row_bosonic,
            projection.project,
            projection.ctm_components,
            projection.ferrari_martin,
            projection.apply_row_particlewise,
        ):
            self._rebind(fn, self.span(f"projection.{fn.__name__}", fn))

        def states_count(st, args, kwargs, res):
            st.add("markov.enumerate_states.states", len(res))
            st.add("markov.enumerate_states.visited", sum(next(c) for c in st.open_counters))
            st.open_counters.clear()

        def chain_count(st, args, kwargs, res):
            st.add("markov.chain_build.transitions", len(res.transitions))

        def solve_count(st, args, kwargs, res):
            st.add("markov.stationary_exact.states", len(res.probs))
            bits = max(max(p.numerator.bit_length(), p.denominator.bit_length()) for p in res.probs.values())
            st.counts["markov.stationary_exact.result_bits"] = max(st.counts.get("markov.stationary_exact.result_bits", 0), bits)

        def jumps_count(st, args, kwargs, res):
            st.add("markov.simulate_ctmc.jumps", kwargs["jumps"] if "jumps" in kwargs else args[2])

        self._rebind(markov.enumerate_states, self.span("markov.enumerate_states", markov.enumerate_states, states_count))
        self._set(markov, "itertools", _CountingItertools(self))
        for fn in (markov._build_chain, markov.mlq_chain):
            self._rebind(fn, self.span("markov.chain_build", fn, chain_count))
        self._rebind(markov.stationary_exact, self.span("markov.stationary_exact", markov.stationary_exact, solve_count))
        for fn in (markov.ring_forward, markov.ring_reverse, markov.ring_forward_bosonic, markov.ring_reverse_bosonic):
            self._rebind(fn, self.span("markov.ring", fn))
        self._rebind(markov.simulate_ctmc, self.span("markov.simulate_ctmc", markov.simulate_ctmc, jumps_count))

        self._set(cli, "main", self.span("cli.main", cli.main))
        for attr, fn in list(vars(documents).items()):
            if callable(fn) and getattr(fn, "__module__", None) == documents.__name__ and (
                attr.startswith(("emit_", "parse_")) or attr == "format_fraction"
            ):
                self._rebind(fn, self.span("documents", fn))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


class _CountingItertools:
    """Stand-in for ``markov.itertools`` that counts what enumeration visits.

    ``permutations`` (TASEP) and ``product`` (zero-range) are the generators
    ``enumerate_states`` draws its candidates from; each is zipped with an
    ``itertools.count`` so the count costs no Python-level call per item.
    """

    def __init__(self, tracer: Tracer):
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(itertools, name)

    def _counted(self, it):
        counter = itertools.count()
        self._tracer._state().open_counters.append(counter)
        return map(operator.itemgetter(0), zip(it, counter))

    def permutations(self, *args, **kwargs):
        return self._counted(itertools.permutations(*args, **kwargs))

    def product(self, *args, **kwargs):
        return self._counted(itertools.product(*args, **kwargs))
