"""Test-sequence generation.

Two generators share one output shape (executable sequences over the flow
graph) but differ in what drives them:

* the **black-box** generator enumerates every flow-graph path of exactly
  ``length`` events — systematic, oblivious to code, and exponential in
  ``length``;
* the **grey-box** generator walks the *dependency* graph instead: it first
  builds abstract sequences — dependency-graph paths biased toward heavy
  edges — and then repairs them into executable sequences by splicing in
  flow-graph connections.  The bet is that events whose handlers touch the
  same fields are the ones worth executing together.

Abstract-sequence construction (:func:`gen_abstract`) is an ordered
depth-first search per start event: successors are tried best-first (highest
edge weight, then earliest declaration), a path is complete when it reaches
``length`` events or a dead end, and search continues past duplicates until
``top`` complete paths are collected for that start (``top=None`` collects
every maximal path).  A start event with no outgoing dependencies still
yields its singleton sequence — the event deserves a test even if nothing
depends on it.

Making an abstract sequence executable (:func:`to_executable`) works in two
moves.  First pick the cheapest entry: the initial event with the shortest
flow-graph connection to the abstract head (ties to the earliest-declared
initial).  Then stitch consecutive abstract events together with shortest
flow-graph connections; a repeated event needs a genuine cycle, not an empty
hop, so the connection is searched in strict mode.  When some hop simply has
no flow-graph connection the sequence is *split*: the part built so far is
emitted, and the remainder restarts from a fresh entry point, linked to the
first part via ``split_of``.  The replayer runs the parts back to back in one
test case.  ``targets`` always marks where the abstract events landed in the
executable result; everything else is reaching filler.  Every connection is
read off a breadth-first tree per source event, which the flow graph builds
lazily, once, and keeps for its life (:meth:`Efg.bfs_tree`), so a repeated
hop or entry walks that tree instead of searching the graph again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from .graphs import (
    SCHEMA_VERSION,
    AbstractSequence,
    Edg,
    Efg,
    GuiseqError,
    QuotedStrings,
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


@dataclass(frozen=True)
class GenConfig:
    """A named generator configuration.

    ``top`` bounds how many abstract sequences each start event contributes
    (grey-box only); None means unbounded.
    """

    name: str
    mode: str  # "blackbox" | "greybox"
    length: int
    top: int | None = None


#: The benchmark configurations: black-box at lengths 1-3, grey-box at
#: length 2 unbounded and length 3 with per-event caps.
PRESETS: dict[str, GenConfig] = {
    "A": GenConfig("A", "blackbox", 1),
    "B": GenConfig("B", "blackbox", 2),
    "C": GenConfig("C", "blackbox", 3),
    "D": GenConfig("D", "greybox", 2, top=None),
    "E": GenConfig("E", "greybox", 3, top=50),
    "F": GenConfig("F", "greybox", 3, top=100),
}


class SequenceRecord(NamedTuple):
    """One executable sequence as written to a sequence file.

    ``targets`` are the positions of the events the sequence was generated
    for.  Grey-box records carry the originating abstract sequence; parts of
    a split conversion all carry the full abstract and, except for the first
    part, a ``split_of`` link to the first part's id.  A named tuple: an
    immutable value, built in a third of a frozen dataclass's time.
    """

    id: str
    events: tuple[str, ...]
    targets: tuple[int, ...]
    origin: str  # "blackbox" | "greybox"
    abstract: tuple[str, ...] | None = None
    split_of: str | None = None


@dataclass(frozen=True)
class GenerationResult:
    records: tuple[SequenceRecord, ...]
    diagnostics: tuple[str, ...]


# ---------------------------------------------------------------------------
# Black-box generation
# ---------------------------------------------------------------------------


def _paths_of_length(g: Efg, head: str, length: int) -> Iterator[tuple[str, ...]]:
    """All flow-graph paths of exactly ``length`` events starting at ``head``,
    in lexicographic declaration order (nodes may repeat; these are walks)."""
    adjacency = g.adjacency

    def extend(path: list[str]) -> Iterator[tuple[str, ...]]:
        if len(path) == length:
            yield tuple(path)
            return
        for nxt in adjacency[path[-1]]:
            path.append(nxt)
            yield from extend(path)
            path.pop()

    yield from extend([head])


def _best_entry(g: Efg, head: str) -> tuple[str, list[str]] | None:
    """The initial event with the shortest connection to ``head``.

    Returns ``(initial, connection)`` where the connection excludes the
    initial and ends with ``head`` (empty when ``head`` is itself initial,
    which always wins with distance zero).  Ties go to the earliest-declared
    initial.  None when no initial reaches ``head``.
    """
    if head in g.initials:
        return head, []
    idx = g.decl_index
    best: tuple[int, int, str, list[str]] | None = None
    for initial in g.initials:
        connection = shortest_path(g, initial, head)
        if connection is None:
            continue
        key = (len(connection), idx[initial])
        if best is None or key < best[:2]:
            best = (key[0], key[1], initial, connection)
    if best is None:
        return None
    return best[2], best[3]


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
    reachable = set(g.initials).union(*map(g.bfs_tree, g.initials))
    unreachable = [e for e in g.events if e not in reachable]
    sequences: list[tuple[tuple[str, ...], tuple[int, ...]]] = []
    for head in g.events:
        if head not in reachable:
            continue
        entry = _best_entry(g, head)
        assert entry is not None  # head is reachable
        prefix = (entry[0], *entry[1])[:-1]  # () when head is initial
        targets = tuple(range(len(prefix), len(prefix) + length))
        for path in _paths_of_length(g, head, length):
            sequences.append((prefix + path, targets))
    return sequences, unreachable


# ---------------------------------------------------------------------------
# Grey-box generation
# ---------------------------------------------------------------------------


def gen_abstract(d: Edg, length: int, top: int | None = None) -> list[AbstractSequence]:
    """Dependency-graph paths, best-first, bounded per start event.

    For each event in declaration order: depth-first search over dependency
    successors ordered by descending weight (declaration order on ties).  A
    path is complete at ``length`` events or at a dead end; complete paths
    are collected — skipping any duplicates while searching on — until
    ``top`` of them (unbounded when None) have been found for this start.
    With ``top=None`` the result is exactly the set of maximal
    length-truncated dependency paths from each event.
    """
    if length < 1:
        raise GuiseqError(f"sequence length must be positive, got {length}")
    if top is not None and top < 1:
        raise GuiseqError(f"per-event sequence budget must be positive, got {top}")
    successors = d.successors
    collected: list[AbstractSequence] = []
    seen: set[tuple[str, ...]] = set()

    def search(path: list[str], budget: list[int]) -> None:
        if budget[0] == 0:
            return
        nexts = successors[path[-1]] if len(path) < length else ()
        if not nexts:
            complete = tuple(path)
            if complete not in seen:
                seen.add(complete)
                collected.append(AbstractSequence(events=complete))
                budget[0] -= 1
            return
        for nxt, _weight in nexts:
            path.append(nxt)
            search(path, budget)
            path.pop()
            if budget[0] == 0:
                return

    for start in d.events:
        budget = [top if top is not None else -1]  # -1 never hits zero
        search([start], budget)
    return collected


@dataclass(frozen=True)
class _Part:
    events: tuple[str, ...]
    targets: tuple[int, ...]


@dataclass(frozen=True)
class Conversion:
    """The executable form of one abstract sequence: one part, or several
    when the abstract sequence had to be split."""

    abstract: tuple[str, ...]
    parts: tuple[_Part, ...]


@dataclass(frozen=True)
class ConversionResult:
    conversions: tuple[Conversion, ...]
    diagnostics: tuple[str, ...]


def to_executable(g: Efg, abstracts: Sequence[AbstractSequence]) -> ConversionResult:
    """Repair abstract sequences into executable ones (splitting if needed)."""
    conversions: list[Conversion] = []
    diagnostics: list[str] = []
    entries: dict[str, tuple[str, list[str]] | None] = {}
    for abstract in abstracts:
        parts: list[_Part] = []
        remaining = list(abstract.events)
        dropped = False
        while remaining:
            head = remaining[0]
            if head not in entries:
                entries[head] = _best_entry(g, head)
            entry = entries[head]
            if entry is None:
                diagnostics.append(
                    f"abstract sequence {list(abstract.events)!r}: event {head!r} is "
                    "unreachable from the initial events; "
                    + ("remainder dropped" if parts else "sequence skipped")
                )
                dropped = True
                break
            initial, connection = entry
            events: list[str] = [initial, *connection] if connection else [initial]
            targets: list[int] = [len(events) - 1]
            consumed = 1
            for prev, nxt in zip(remaining, remaining[1:]):
                hop = shortest_path(g, prev, nxt, strict=prev == nxt)
                if hop is None:
                    break
                events.extend(hop)
                targets.append(len(events) - 1)
                consumed += 1
            parts.append(_Part(events=tuple(events), targets=tuple(targets)))
            remaining = remaining[consumed:]
        if parts or not dropped:
            conversions.append(
                Conversion(abstract=tuple(abstract.events), parts=tuple(parts))
            )
    return ConversionResult(conversions=tuple(conversions), diagnostics=tuple(diagnostics))


# ---------------------------------------------------------------------------
# Front end
# ---------------------------------------------------------------------------


def _next_id(counter: list[int]) -> str:
    counter[0] += 1
    return f"s{counter[0]:04d}"


def generate_sequences(
    config: GenConfig, efg: Efg, edg: Edg | None = None
) -> GenerationResult:
    """Run a generator configuration and number the resulting records."""
    records: list[SequenceRecord] = []
    diagnostics: list[str] = []
    counter = [0]
    if config.mode == "blackbox":
        sequences, unreachable = gen_blackbox(efg, config.length)
        for event in unreachable:
            diagnostics.append(
                f"event {event!r} is unreachable from the initial events; "
                "no sequence can exercise it"
            )
        for events, targets in sequences:
            records.append(SequenceRecord(_next_id(counter), events, targets, "blackbox"))
    elif config.mode == "greybox":
        if edg is None:
            raise GuiseqError("grey-box generation needs an event-dependency graph")
        abstracts = gen_abstract(edg, config.length, config.top)
        result = to_executable(efg, abstracts)
        diagnostics.extend(result.diagnostics)
        for conversion in result.conversions:
            root_id: str | None = None
            for part in conversion.parts:
                rid = _next_id(counter)
                records.append(SequenceRecord(
                    rid, part.events, part.targets, "greybox", conversion.abstract, root_id
                ))
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
    are rendered directly, each event quoted once, and written one by one, so
    the whole file's text is never held at once."""
    quoted = QuotedStrings()
    with open(path, "w", encoding="utf-8") as out:
        for r in records:
            abstract = (
                "" if r.abstract is None
                else '"abstract":[' + ",".join(map(quoted.__getitem__, r.abstract)) + "],"
            )
            split_of = (
                "" if r.split_of is None else ',"splitOf":' + encode_basestring_ascii(r.split_of)
            )
            out.write(
                f'{{{abstract}"events":[{",".join(map(quoted.__getitem__, r.events))}],'
                f'"id":{encode_basestring_ascii(r.id)},"origin":{quoted[r.origin]},'
                f'"schemaVersion":{SCHEMA_VERSION}{split_of},'
                f'"targets":[{",".join(map(str, r.targets))}]}}\n'
            )


class _SharedStrings(dict):
    """Each string looked up mapped to the first equal string looked up.
    Any other value is returned as it is and not kept, so a ``true`` can
    never come back as an equal ``1``."""

    def __missing__(self, value):
        if type(value) is str:
            self[value] = value
        return value


def _shared(items: list, strings: _SharedStrings) -> tuple:
    """``items`` as a tuple, its strings shared through ``strings``."""
    try:
        return tuple(map(strings.__getitem__, items))
    except TypeError:  # an unhashable item; replay's model check names it
        return tuple(items)


def _record_from_json(strings: _SharedStrings, doc: dict) -> SequenceRecord:
    # Events are not typed here, which would slow every load: replay checks
    # them, and the targets, against the model before any case runs.  The
    # fields are checked in declaration order.
    split_of = doc.get("splitOf")
    return SequenceRecord(
        typed(doc["id"], str, "id"),
        _shared(typed(doc["events"], list, "events"), strings),
        typed_list(doc["targets"], int, "targets"),
        strings[o] if type(o := doc["origin"]) is str else o,
        _shared(typed(doc["abstract"], list, "abstract"), strings) if "abstract" in doc else None,
        None if split_of is None else typed(split_of, str, "splitOf"),
    )


def load_sequences(path: Path | str) -> list[SequenceRecord]:
    """The records of a sequence file, one per non-blank line (see
    :func:`~guiseq.graphs.read_document_lines`).  Events, abstract events and
    origins are shared: all records naming one event hold one ``str``
    object, not one per occurrence as :mod:`json` decodes them."""
    return read_document_lines(
        path, "sequence record", partial(_record_from_json, _SharedStrings())
    )
