"""Test-sequence generation.

Both generators emit executable flow-graph sequences, numbered in a
deterministic order:

* the **black-box** generator (:func:`gen_blackbox`) enumerates every
  flow-graph path of exactly ``length`` events, each behind the shortest
  reaching prefix; an event without one is unreachable;
* the **grey-box** generator builds abstract sequences, dependency-graph
  paths best-first (:func:`gen_abstract`), and repairs them into executable
  ones (:func:`to_executable`), splitting where no connection exists.  The
  replayer runs the parts of a split in one test case.

``targets`` marks where the generated-for events landed; the other events
only reach them.  Ties always go to declaration order.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import cache, partial
from itertools import repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path
from sys import intern

from .graphs import (
    SCHEMA_VERSION,
    Edg,
    Efg,
    GuiseqError,
    QuotedStrings,
    Value,
    read_document_lines,
    shortest_path,
    typed,
    typed_list,
)

__all__ = [
    "GenConfig",
    "PRESETS",
    "SequenceRecord",
    "GenerationResult",
    "gen_blackbox",
    "gen_abstract",
    "to_executable",
    "generate_sequences",
    "save_sequences",
    "load_sequences",
]


class GenConfig(Value):
    """A generator configuration: the fields the generators read.

    ``top`` bounds how many abstract sequences each start event contributes
    (grey-box only); None means unbounded.
    """

    mode: str  # "blackbox" | "greybox"
    length: int
    top: int | None = None


#: The benchmark configurations: black-box at lengths 1-3, grey-box at
#: length 2 unbounded and length 3 with per-event caps.
PRESETS: dict[str, GenConfig] = {
    "A": GenConfig("blackbox", 1),
    "B": GenConfig("blackbox", 2),
    "C": GenConfig("blackbox", 3),
    "D": GenConfig("greybox", 2, top=None),
    "E": GenConfig("greybox", 3, top=50),
    "F": GenConfig("greybox", 3, top=100),
}


class SequenceRecord(Value):
    """One executable sequence as written to a sequence file.

    ``targets`` are the positions of the events the sequence was generated
    for.  Grey-box records carry the originating abstract sequence; parts of
    a split conversion all carry the full abstract and, except for the first
    part, a ``split_of`` link to the first part's id.  Loading builds one
    with a single ``tuple.__new__`` call, and it has no ``__dict__``.
    """

    __slots__ = ()
    id: str
    events: tuple[str, ...]
    targets: tuple[int, ...]
    origin: str  # "blackbox" | "greybox"
    abstract: tuple[str, ...] | None = None
    split_of: str | None = None


class GenerationResult(Value):
    records: tuple[SequenceRecord, ...]
    diagnostics: tuple[str, ...]


# ---------------------------------------------------------------------------
# Black-box generation
# ---------------------------------------------------------------------------


def _best_entry(g: Efg, head: str) -> tuple[str, list[str]] | None:
    """The initial event with the shortest connection to ``head``.

    Returns ``(initial, connection)`` where the connection excludes the
    initial and ends with ``head`` (empty when ``head`` is itself initial,
    which always wins with distance zero).  Ties go to the earliest-declared
    initial.  None when no initial reaches ``head``.  The winner comes from
    one pass from all initials (:attr:`Efg.nearest_initial`); only the
    winner's own tree gives the connection, so it is the same
    declaration-order-least path :func:`shortest_path` returns.
    """
    g.require_event(head)
    if head in g.initials:
        return head, []
    winner = g.nearest_initial.get(head)
    if winner is None:
        return None
    return winner, shortest_path(g, winner, head)


def gen_blackbox(
    g: Efg, length: int
) -> tuple[list[tuple[tuple[str, ...], tuple[int, ...]]], list[str]]:
    """Every flow-graph path of exactly ``length`` events, made executable.

    Paths whose head is not initial get a reaching prefix: the cheapest
    initial entry followed by the shortest connection up to (excluding) the
    head.  Returns ``(sequences, unreachable)`` where each sequence is
    ``(events, target_positions)`` and ``unreachable`` lists events no
    initial can reach — no sequence can ever exercise those.
    """
    if length < 1:
        raise GuiseqError(f"sequence length must be positive, got {length}")
    adjacency = g.adjacency
    sequences: list[tuple[tuple[str, ...], tuple[int, ...]]] = []
    unreachable: list[str] = []
    for head in g.events:
        if (entry := _best_entry(g, head)) is None:
            unreachable.append(head)
            continue
        prefix = (entry[0], *entry[1])[:-1]  # () when head is initial
        targets = tuple(range(len(prefix), len(prefix) + length))
        paths = [prefix + (head,)]
        for _ in range(length - 1):  # extended in order: lexicographic declaration order
            paths = [p + (n,) for p in paths for n in adjacency[p[-1]]]
        sequences += zip(paths, repeat(targets))
    return sequences, unreachable


# ---------------------------------------------------------------------------
# Grey-box generation
# ---------------------------------------------------------------------------


def gen_abstract(d: Edg, length: int, top: int | None = None) -> list[tuple[str, ...]]:
    """Dependency-graph paths, best-first, bounded per start event.

    For each event in declaration order: depth-first search over dependency
    successors ordered by descending weight (declaration order on ties).  A
    path is complete at ``length`` events or at a dead end; complete paths
    are collected until ``top`` of them (unbounded when None) have been
    found for this start.  No path repeats, since :meth:`Edg.of` rejects a
    repeated event id or edge.  With ``top=None`` the result is exactly the
    set of maximal length-truncated dependency paths from each event.  The
    search keeps its own stack, so no length runs out of Python's.
    """
    if length < 1:
        raise GuiseqError(f"sequence length must be positive, got {length}")
    if top is not None and top < 1:
        raise GuiseqError(f"per-event sequence budget must be positive, got {top}")
    successors = d.successors
    collected: list[tuple[str, ...]] = []

    for start in d.events:
        budget = top if top is not None else -1  # -1 never hits zero
        path = [start]
        pending: list[Iterator] = []  # the successors left to try, per inner event of ``path``
        while True:
            nexts = successors[path[-1]] if len(path) < length else ()
            if nexts:
                pending.append(iter(nexts))
            else:
                collected.append(tuple(path))
                budget -= 1
                if budget == 0:
                    break
                path.pop()
            # Step to the next successor of the deepest event that has one left.
            while pending and (nxt := next(pending[-1], None)) is None:
                pending.pop()
                path.pop()
            if not pending:
                break
            path.append(nxt[0])
    return collected


def to_executable(g: Efg, abstracts: Sequence[tuple[str, ...]]) -> tuple[list[tuple], list[str]]:
    """Repair abstract sequences into executable ones.

    Returns ``(conversions, diagnostics)``.  Each conversion is
    ``(abstract, parts)``, the executable form of one abstract sequence: one
    part, or several when it had to be split.  Each part is
    ``(events, targets)``.

    A part starts at the entry of its head (:func:`_best_entry`) and joins
    consecutive abstract events by shortest flow-graph connections; a
    repeated event needs a genuine cycle, so that hop is strict.  Where a
    hop has no connection the part ends and the remainder starts a new part
    from its own entry; an unreachable head drops the remainder with a
    diagnostic.  Entries and hops are memoised for the call, so each
    distinct one is read once, and parts with equal targets share one tuple.
    """
    conversions: list[tuple] = []
    diagnostics: list[str] = []
    entry_of = cache(partial(_best_entry, g))
    hop_of = cache(lambda a, b: shortest_path(g, a, b, strict=a == b))
    share = {}.setdefault
    for abstract in abstracts:
        parts = []
        remaining = abstract
        while remaining:
            entry = entry_of(remaining[0])
            if entry is None:
                diagnostics.append(
                    f"abstract sequence {list(abstract)!r}: event {remaining[0]!r} is "
                    "unreachable from the initial events; "
                    + ("remainder dropped" if parts else "sequence skipped")
                )
                break
            initial, connection = entry
            events = [initial, *connection]
            targets = [len(events) - 1]
            for a, b in zip(remaining, remaining[1:]):
                if (hop := hop_of(a, b)) is None:
                    break
                events += hop
                targets.append(len(events) - 1)
            parts.append((tuple(events), share(t := tuple(targets), t)))
            remaining = remaining[len(targets):]
        if parts or not abstract:  # an unreachable first head skips the sequence
            conversions.append((abstract, parts))
    return conversions, diagnostics


# ---------------------------------------------------------------------------
# Front end
# ---------------------------------------------------------------------------


def generate_sequences(
    config: GenConfig, efg: Efg, edg: Edg | None = None
) -> GenerationResult:
    """Run a generator configuration and number the resulting records.
    Each record is built by ``tuple.__new__`` with all six fields, and its id
    by ``%``-formatting, which parses no format spec per record."""
    if config.top is not None and config.top < 1:
        raise GuiseqError(f"per-event sequence budget must be positive, got {config.top}")
    new = tuple.__new__
    records: list[SequenceRecord] = []
    diagnostics: list[str] = []
    if config.mode == "blackbox":
        sequences, unreachable = gen_blackbox(efg, config.length)
        for event in unreachable:
            diagnostics.append(
                f"event {event!r} is unreachable from the initial events; "
                "no sequence can exercise it"
            )
        records = [
            new(SequenceRecord, ("s%04d" % n, events, targets, "blackbox", None, None))
            for n, (events, targets) in enumerate(sequences, 1)
        ]
    elif config.mode == "greybox":
        if edg is None:
            raise GuiseqError("grey-box generation needs an event-dependency graph")
        conversions, diagnostics = to_executable(
            efg, gen_abstract(edg, config.length, config.top)
        )
        for abstract, parts in conversions:
            root_id: str | None = None
            for events, targets in parts:
                rid = "s%04d" % (len(records) + 1)
                records.append(new(SequenceRecord, (
                    rid, events, targets, "greybox", abstract, root_id
                )))
                if root_id is None:
                    root_id = rid
    else:
        raise GuiseqError(f"unknown generator mode {config.mode!r}")
    return GenerationResult(records=tuple(records), diagnostics=tuple(diagnostics))


# ---------------------------------------------------------------------------
# Serialization (one JSON object per line)
# ---------------------------------------------------------------------------


def save_sequences(records: Iterable[SequenceRecord], path: Path | str) -> None:
    """Write one record per line, each line the bytes of ``json.dumps`` with
    sorted keys and no spaces (keys ``abstract`` when set, ``events``, ``id``,
    ``origin``, ``schemaVersion``, ``splitOf`` when set, ``targets``).  Lines
    are rendered directly, each event quoted once, and each distinct
    ``(origin, targets)`` pair rendered once as the text before ``splitOf``
    and the text after it, so that cache grows with the distinct pairs, not
    with the records.  Lines are written one by one, so the whole file's text
    is never held at once."""
    quoted = QuotedStrings()
    quote = quoted.__getitem__
    tails: dict[tuple, tuple[str, str]] = {}
    with open(path, "w", encoding="utf-8") as out:
        for rid, events, targets, origin, abstract, split_of in records:
            if (tail := tails.get((origin, targets))) is None:
                tail = tails[origin, targets] = (
                    f',"origin":{quote(origin)},"schemaVersion":{SCHEMA_VERSION}',
                    f',"targets":[{",".join(map(str, targets))}]}}\n',
                )
            head, end = tail
            abstract = (
                "" if abstract is None else '"abstract":[' + ",".join(map(quote, abstract)) + "],"
            )
            split_of = "" if split_of is None else ',"splitOf":' + encode_basestring_ascii(split_of)
            out.write(
                f'{{{abstract}"events":[{",".join(map(quote, events))}],'
                f'"id":{encode_basestring_ascii(rid)}{head}{split_of}{end}'
            )


def _interned(items: list, what: str) -> tuple:
    """``items`` as a tuple of interned strings; any other item is an error
    naming ``what``."""
    try:
        return tuple(map(intern, items))
    except TypeError:  # an item that is not a string
        raise TypeError(f"{what} is {items!r}, not a list of str") from None


def _record_from_json(share: Callable, doc: dict) -> SequenceRecord:
    # The fields are checked in declaration order, each string typed as it
    # is interned, and all six are passed by position to ``tuple.__new__``:
    # ``Value.__new__`` runs a Python frame per record.  ``share`` is a
    # plain dict's ``setdefault``, given the targets only once they are typed
    # (``(0, 1)`` equals ``(False, 1)`` and ``(0.0, 1)``).  Replay checks the
    # events and targets against the model before any case runs.
    split_of = doc.get("splitOf")
    return tuple.__new__(SequenceRecord, (
        typed(doc["id"], str, "id"),
        _interned(typed(doc["events"], list, "events"), "events"),
        share(t := typed_list(doc["targets"], int, "targets"), t),
        intern(typed(doc["origin"], str, "origin")),
        _interned(typed(doc["abstract"], list, "abstract"), "abstract")
        if "abstract" in doc else None,
        None if split_of is None else typed(split_of, str, "splitOf"),
    ))


def load_sequences(path: Path | str) -> list[SequenceRecord]:
    """The records of a sequence file, one per non-blank line (see
    :func:`~guiseq.graphs.read_document_lines`).  Events, abstract events and
    origins are interned with :func:`sys.intern`, so all records naming one
    event hold one ``str`` object, and all records with equal targets hold
    one tuple, not one per occurrence as :mod:`json` decodes them."""
    return read_document_lines(
        path, "sequence record", partial(_record_from_json, {}.setdefault)
    )
