"""Event graphs and event sequences.

Two graph flavours share an event vocabulary:

* the *event-flow graph* (EFG): a directed graph over GUI events where an edge
  ``u -> v`` means v may execute immediately after u, plus the set of *initial*
  events (executable right after application launch);
* the *event-dependency graph* (EDG): a directed graph over the same events
  where an edge ``u -(w)-> v`` means w fields written by u's handler are read
  by v's handler.  The EDG has no initial-event set.

Events are plain string ids.  Their *declaration index* — the position in the
graph's ``events`` tuple — is the universal tie-breaker: every ordering in this
package (neighbour expansion, successor ranking, output ordering) falls back to
it, which is what makes the whole pipeline deterministic.

An abstract sequence is a path in the EDG, a plain tuple of events, and may
not be executable on the GUI; :func:`guiseq.generate.to_executable` repairs it
into EFG paths.

This module also holds the one reader of the package's JSON files
(:func:`read_document`, :func:`read_document_lines`): every loader hands it a
per-format ``parse(doc)`` callback, and every malformed input comes out of it
as a :class:`GuiseqError` that names the file.  The writers of the two large
files, sequences and reports, render their text directly and quote strings
through :class:`QuotedStrings`.
"""

from __future__ import annotations

import json
import json.scanner
from collections import Counter, _tuplegetter
from collections.abc import Callable, Iterable, Mapping, Sequence
from functools import cached_property
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path

SCHEMA_VERSION = 1

__all__ = [
    "SCHEMA_VERSION",
    "GuiseqError",
    "Value",
    "Efg",
    "Edg",
    "validate_efg",
    "is_executable",
    "shortest_path",
    "export_dot",
    "load_graph",
    "save_graph",
]


class GuiseqError(Exception):
    """Base class for all errors raised by this package."""


class Value(tuple):
    """Base of the package's immutable value classes.

    Each name a subclass body annotates is a field, after its base class's
    fields, and a value assigned to the name there is the field's default;
    making the class runs no generated code.  A value is the tuple of its
    fields, read by name.  It equals only a value of its own class with
    equal fields, hashes like the tuple of its fields, is always true, takes
    no attribute assignment, and its repr names its class and fields.
    ``__eq__`` and ``__repr__`` read only ``__match_args__``: the mutable
    records of :mod:`guiseq.simulator` share them.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()  # the field names, in order
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls) -> None:
        own = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {**cls._defaults, **{f: cls.__dict__[f] for f in own if f in cls.__dict__}}
        for i, field in enumerate(own, len(cls.__match_args__)):
            setattr(cls, field, _tuplegetter(i, None))  # namedtuple's C field getter
        cls.__match_args__ += own

    def __new__(cls, *args, **kwargs):
        fields = cls.__match_args__
        if kwargs or len(args) != len(fields):  # every field by position is the fast path
            rest = fields[len(args):]
            try:
                args = (*args, *[kwargs.pop(f) if f in kwargs else cls._defaults[f] for f in rest])
            except KeyError as missing:
                raise TypeError(f"{cls.__name__}() missing field {missing}") from None
            if kwargs or len(args) > len(fields):
                raise TypeError(f"{cls.__name__}() takes the fields {', '.join(fields)}")
        return tuple.__new__(cls, args)

    def __eq__(self, other: object) -> bool:  # not NotImplemented: tuple's == would say True
        if type(other) is not type(self):
            return False
        fields = self.__match_args__
        return [getattr(self, f) for f in fields] == [getattr(other, f) for f in fields]

    __ne__ = object.__ne__  # not tuple's, which ignores the class
    __hash__ = tuple.__hash__

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __bool__(self) -> bool:  # even with no fields, unlike an empty tuple
        return True

    def __getnewargs__(self) -> tuple:  # copy and pickle pass the fields, not one tuple
        return tuple(self)


class Efg(Value):
    """Event-flow graph: events in declaration order, initials, unweighted edges."""

    events: tuple[str, ...]
    initials: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    @classmethod
    def of(
        cls,
        events: Iterable[str],
        initials: Iterable[str],
        edges: Iterable[tuple[str, str]],
    ) -> "Efg":
        """Build a canonical graph: edges deduplicated and sorted by declaration index.

        One pass groups the edges by source; each source's targets are then
        sorted by the declaration index alone.  An edge with an undeclared
        endpoint raises :class:`GuiseqError`, naming the first such
        source in input order, else the first such target of the
        earliest-declared source.
        """
        ev = tuple(events)
        index = {e: i for i, e in enumerate(ev)}
        targets: dict[str, dict[str, None]] = {e: {} for e in ev}
        try:
            for src, dst in edges:
                targets[src][dst] = None
        except KeyError:
            raise GuiseqError(f"edge ({src!r}, {dst!r}) references an undeclared event") from None
        ordered: list[tuple[str, str]] = []
        by_index = index.__getitem__
        for src in sorted(targets, key=by_index):  # declaration order, even if an id repeats
            try:
                ordered += zip(repeat(src), sorted(targets[src], key=by_index))
            except KeyError as exc:
                raise GuiseqError(
                    f"edge ({src!r}, {exc.args[0]!r}) references an undeclared event"
                ) from None
        return cls(events=ev, initials=tuple(initials), edges=tuple(ordered))

    @cached_property
    def decl_index(self) -> Mapping[str, int]:
        return {e: i for i, e in enumerate(self.events)}

    @cached_property
    def edge_set(self) -> frozenset[tuple[str, str]]:
        return frozenset(self.edges)

    @cached_property
    def adjacency(self) -> Mapping[str, tuple[str, ...]]:
        """Successors of each event, sorted by declaration index."""
        adj: dict[str, list[str]] = {e: [] for e in self.events}
        for src, dst in self.edge_set:
            adj[src].append(dst)
        idx = self.decl_index
        return {e: tuple(sorted(targets, key=idx.__getitem__)) for e, targets in adj.items()}

    @cached_property
    def _bfs_trees(self) -> dict[str, Mapping[str, str | None]]:
        return {}

    def bfs_tree(self, source: str) -> Mapping[str, str | None]:
        """Breadth-first parent tree from ``source``, built on first use and
        kept for the life of the graph.

        Seeded with the successors of ``source`` (each maps to None) and
        expanded in declaration order, it maps every event reachable in one or
        more hops, ``source`` too if it lies on a cycle, to its predecessor on
        the shortest path that comes first in declaration order.  Seeding,
        not starting at ``source``, is what lets a strict query find a cycle.
        """
        tree = self._bfs_trees.get(source)
        if tree is None:
            adjacency = self.adjacency
            tree = dict.fromkeys(adjacency[source])
            queue = list(tree)
            for node in queue:  # the loop reads what it appends: a FIFO queue
                for nxt in adjacency[node]:
                    if nxt not in tree:
                        tree[nxt] = node
                        queue.append(nxt)
            self._bfs_trees[source] = tree
        return tree

    @cached_property
    def nearest_initial(self) -> Mapping[str, str]:
        """Each event reachable from an initial in one or more hops, mapped
        to the earliest-declared initial among those that reach it in the
        fewest hops.

        One breadth-first pass, seeded with the successors of every initial
        in declaration order, each labelled with its initial.  The queue
        stays sorted by distance and then by the label's declaration index,
        so the first label to reach an event is the least one.  The pass
        only ranks initials: its parent pointers may differ from the
        winner's own :meth:`bfs_tree`, so no path is read off it.
        """
        adjacency = self.adjacency
        nearest: dict[str, str] = {}
        for initial in sorted(self.initials, key=self.decl_index.__getitem__):
            for nxt in adjacency[initial]:
                if nxt not in nearest:
                    nearest[nxt] = initial
        queue = list(nearest)
        for node in queue:  # the loop reads what it appends: a FIFO queue
            label = nearest[node]
            for nxt in adjacency[node]:
                if nxt not in nearest:
                    nearest[nxt] = label
                    queue.append(nxt)
        return nearest

    def require_event(self, event: str) -> None:
        if event not in self.decl_index:
            raise GuiseqError(f"event {event!r} is not declared in the graph")


class Edg(Value):
    """Event-dependency graph: weighted edges ``(source, weight, target)``, no initials."""

    events: tuple[str, ...]
    edges: tuple[tuple[str, int, str], ...]

    @classmethod
    def of(cls, events: Iterable[str], edges: Iterable[tuple[str, int, str]]) -> "Edg":
        """Check the events for a repeated id, take the edges once, check
        each, then sort them by declaration index."""
        ev = tuple(events)
        index = {e: i for i, e in enumerate(ev)}
        if len(index) < len(ev):
            repeated = [e for e, n in Counter(ev).items() if n > 1]
            raise GuiseqError("; ".join(f"duplicate event id {e!r}" for e in repeated))
        seen_pairs: set[tuple[str, str]] = set()
        ordered = list(edges)
        for src, weight, dst in ordered:
            if src not in index or dst not in index:
                raise GuiseqError(f"edge ({src!r}, {dst!r}) references an undeclared event")
            if isinstance(weight, bool) or not isinstance(weight, int) or weight < 1:
                raise GuiseqError(f"edge ({src!r}, {dst!r}) has weight {weight!r}, not a positive integer")
            if (src, dst) in seen_pairs:
                raise GuiseqError(f"duplicate dependency edge ({src!r}, {dst!r})")
            seen_pairs.add((src, dst))
        ordered.sort(key=lambda e: (index[e[0]], index[e[2]]))
        return cls(events=ev, edges=tuple(ordered))

    @cached_property
    def decl_index(self) -> Mapping[str, int]:
        return {e: i for i, e in enumerate(self.events)}

    @cached_property
    def successors(self) -> Mapping[str, tuple[tuple[str, int], ...]]:
        """Successors of each event as ``(target, weight)``, best-first.

        "Best" means highest weight, ties broken by lower declaration index —
        the ranking the abstract-sequence generator walks.
        """
        succ: dict[str, list[tuple[str, int]]] = {e: [] for e in self.events}
        for src, weight, dst in self.edges:
            succ[src].append((dst, weight))
        idx = self.decl_index
        return {
            e: tuple(sorted(pairs, key=lambda p: (-p[1], idx[p[0]])))
            for e, pairs in succ.items()
        }


def validate_efg(g: Efg) -> list[str]:
    """Structural checks on an event-flow graph.

    Returns a list of human-readable violations (empty when the graph is
    well-formed); validation reports rather than raises so callers can decide
    whether a violation is fatal.  Set algebra decides whether the graph is
    clean; only a dirty graph is walked item by item, to name each violation
    in order: duplicate events, undeclared initials, missing initials, then
    per edge an undeclared source or target and a repeat.
    """
    declared = set(g.events)
    if (
        len(declared) == len(g.events)
        and declared.issuperset(g.initials)
        and (g.initials or not g.events)
        and len(g.edge_set) == len(g.edges)
        and declared.issuperset(chain.from_iterable(g.edges))
    ):
        return []
    violations: list[str] = []
    seen: set[str] = set()
    for e in g.events:
        if e in seen:
            violations.append(f"duplicate event id {e!r}")
        seen.add(e)
    for i in g.initials:
        if i not in declared:
            violations.append(f"initial event {i!r} is not declared")
    if g.events and not g.initials:
        violations.append("graph declares events but no initial events")
    seen_edges: set[tuple[str, str]] = set()
    for src, dst in g.edges:
        if src not in declared:
            violations.append(f"edge source {src!r} is not declared")
        if dst not in declared:
            violations.append(f"edge target {dst!r} is not declared")
        if (src, dst) in seen_edges:
            violations.append(f"duplicate edge ({src!r}, {dst!r})")
        seen_edges.add((src, dst))
    return violations


def is_executable(g: Efg, events: Sequence[str]) -> bool:
    """True iff ``events`` is a non-empty EFG path starting at an initial event."""
    for e in events:
        g.require_event(e)
    if not events:
        return False
    if events[0] not in set(g.initials):
        return False
    return all((a, b) in g.edge_set for a, b in zip(events, events[1:]))


def shortest_path(
    g: Efg,
    from_event: str,
    to_event: str,
    *,
    strict: bool = False,
) -> list[str] | None:
    """Minimum-hop connection from ``from_event`` to ``to_event``.

    Returns the events *after* ``from_event`` up to and including
    ``to_event`` — the start is excluded so concatenating hops never
    duplicates the junction event.  ``from_event == to_event`` yields ``[]``
    unless ``strict`` is set, in which case the result is a minimum-hop cycle
    of length >= 1 (a self-loop gives ``[to_event]``).  Unreachable targets
    yield ``None``.  Ties between equal-length paths go to the path that is
    first in declaration order, so the result is deterministic.  The path is
    read off :meth:`Efg.bfs_tree` into a fresh list, so only the first query
    from a source searches the graph.
    """
    g.require_event(from_event)
    g.require_event(to_event)
    if from_event == to_event and not strict:
        return []
    tree = g.bfs_tree(from_event)
    if to_event not in tree:
        return None
    path = [to_event]
    while (parent := tree[path[-1]]) is not None:
        path.append(parent)
    return path[::-1]


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


# ``T``, in the annotations below, is whatever type ``parse`` returns.


def read_document(path: Path | str, kind: str, parse: Callable[[dict], T]) -> T:
    """Read a JSON file holding one ``kind`` document and ``parse`` it.

    The file must be UTF-8 JSON with an object at top level whose
    ``schemaVersion`` is the integer :data:`SCHEMA_VERSION`.  A
    ``KeyError``, ``TypeError``, ``AttributeError`` or ``ValueError`` raised
    by ``parse`` (its validation included), or JSON nested too deeply to
    decode, means the document is malformed; it and every
    :class:`GuiseqError` leave as a :class:`GuiseqError` whose message starts
    with the file name.
    """
    return _parse_document(_read_text(path), path, None, kind, parse)


#: The C scanner behind :func:`json.loads`, called at the start of a line so
#: that a line that holds one object is decoded in place.
_scan_once = json.scanner.make_scanner(json.JSONDecoder())


def read_document_lines(
    path: Path | str, kind: str, parse: Callable[[dict], T]
) -> list[T]:
    r""":func:`read_document` for a JSON-lines file: one document per
    non-blank line, errors naming the file and the line.

    The file is read a line at a time by the text file's own iterator, so
    beside the documents no more of its text is held than its buffer and the
    longest line.  Lines end at ``"\n"`` only (reading turns ``"\r\n"`` and
    ``"\r"`` into it), so a raw U+2028, U+2029 or U+0085 inside a JSON
    string stays in its line.  An object that fills its line exactly is
    decoded in place by the C scanner of :mod:`json` and, at the right schema
    version, given straight to ``parse``.  Any other non-blank line, the
    ones ``parse`` rejects included, is read again by :func:`_parse_document`,
    which decodes it with :func:`json.loads` and names what is wrong.  A
    byte that is not UTF-8, anywhere in the file, is reported before a
    malformed line, by its offset in the file; either error is found in the
    same single pass, a line at a time."""
    docs = []
    with open(path, encoding="utf-8") as f:
        try:
            for lineno, line in enumerate(f, 1):
                try:
                    doc, stop = _scan_once(line, 0)
                    version = doc["schemaVersion"]
                    if (line[stop:] not in ("\n", "") or type(version) is not int
                            or version != SCHEMA_VERSION):
                        raise ValueError("not a whole line at the schema version")
                    docs.append(parse(doc))
                except (StopIteration, KeyError, TypeError, AttributeError, ValueError,
                        RecursionError, GuiseqError):
                    if line.strip():
                        try:
                            docs.append(
                                _parse_document(line.removesuffix("\n"), path, lineno, kind, parse)
                            )
                        except GuiseqError:
                            for _ in f:  # a later byte that is not UTF-8 comes first
                                pass
                            raise
        except UnicodeDecodeError as exc:
            # exc.object is the decoder's input: the bytes up to where the file now stands
            raise _not_utf8(path, exc, f.buffer.tell() - len(exc.object)) from None
    return docs


def _read_text(path: Path | str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc, 0) from None


def _not_utf8(path: Path | str, exc: UnicodeDecodeError, at: int) -> GuiseqError:
    """``exc``, raised decoding the bytes from offset ``at`` on, naming the byte's offset."""
    return GuiseqError(f"{path}: not UTF-8 text: {exc.reason} at byte {at + exc.start}")


def _parse_document(
    text: str, path: Path | str, lineno: int | None, kind: str, parse: Callable[[dict], T]
) -> T:
    """``parse`` the document in the JSON ``text``, mapping what goes wrong
    to a :class:`GuiseqError` (see :func:`read_document`)."""
    try:
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise GuiseqError("expected a JSON object at top level")
        version = doc.get("schemaVersion")
        if type(version) is not int or version != SCHEMA_VERSION:
            raise GuiseqError(
                f"unsupported schema version {version!r} (expected {SCHEMA_VERSION})"
            )
        return parse(doc)
    except json.JSONDecodeError as exc:
        raise GuiseqError(f"{path}: line {lineno or exc.lineno}: {exc.msg}") from None
    except KeyError as exc:
        problem = f"malformed {kind}: missing key {exc}"
    except (TypeError, AttributeError, ValueError, RecursionError) as exc:
        problem = f"malformed {kind}: {exc}"
    except GuiseqError as exc:
        problem = str(exc)
    raise GuiseqError(f"{_where(path, lineno)}: {problem}")


def _where(path: Path | str, lineno: int | None) -> str:
    return str(path) if lineno is None else f"{path}: line {lineno}"


def typed(value, kind: type, what: str):
    """``value`` if its JSON type is exactly ``kind`` (``true`` is no
    ``int``); otherwise a TypeError naming ``what``, which the document
    reader reports as a malformed document."""
    if type(value) is not kind:
        raise TypeError(f"{what} is {value!r}, not {kind.__name__}")
    return value


def typed_list(value, kind: type, what: str) -> tuple:
    """``value`` as a tuple if it is a JSON array of ``kind`` items (see
    :func:`typed`)."""
    if type(value) is list:
        for item in value:  # a loop, not any(): sequence files check every line
            if type(item) is not kind:
                break
        else:
            return tuple(value)
    raise TypeError(f"{what} is {value!r}, not a list of {kind.__name__}")


class QuotedStrings(dict):
    """Texts mapped to their JSON string literals, as ``json.dumps`` writes
    them by default (ASCII with escapes, quoted in C), each computed on first
    lookup: an event quoted once serves every sequence that holds it."""

    def __missing__(self, text: str) -> str:
        self[text] = quoted = encode_basestring_ascii(text)
        return quoted


_FLOW_EDGE = itemgetter("from", "to")
_DEPENDENCY_EDGE = itemgetter("from", "weight", "to")


def _graph_from_json(doc: dict) -> Efg | Edg:
    entries = typed(doc.get("events", []), list, "events")
    events = [typed(typed(entry, dict, "event entry")["id"], str, "event id") for entry in entries]
    edges = typed(doc.get("edges", []), list, "edges")
    initials = typed_list(doc["initials"], str, "initials") if "initials" in doc else None
    try:
        if initials is None:
            return Edg.of(events, map(_DEPENDENCY_EDGE, edges))
        g = Efg(events=tuple(events), initials=initials, edges=tuple(map(_FLOW_EDGE, edges)))
        violations = validate_efg(g)
    except TypeError:
        _name_wrong_typed_edge(edges)
        raise  # unreached while _name_wrong_typed_edge raises; else `violations` is unbound
    if violations:
        raise GuiseqError("; ".join(violations))
    return g


def _name_wrong_typed_edge(edges: list) -> None:
    """Raise a TypeError naming the first edge that is no JSON object, or
    whose ``from`` or ``to`` is no string (see :func:`typed`).  Clean loads
    never run it: it runs only once a pass over every edge has failed."""
    for n, edge in enumerate(edges):
        typed(edge, dict, f"edge {n}")
        for key in ("from", "to"):
            typed(edge[key], str, f"{key!r} of edge {n}")


def load_graph(path: Path | str) -> Efg | Edg:
    """Load a graph file, inferring its flavour from the ``initials`` key."""
    return read_document(path, "graph", _graph_from_json)


def save_graph(g: Efg | Edg, path: Path | str) -> None:
    """Write ``g``: the bytes of ``json.dumps(doc, indent=2, sort_keys=True)``
    and a final newline, where ``doc`` is the document its oracle
    ``tests/oracles.py::graph_to_json`` builds, rendered straight from the
    graph with each event quoted once."""
    quoted = QuotedStrings()

    def array(items: Iterable[str]) -> str:
        body = ",\n    ".join(items)
        return "[\n    " + body + "\n  ]" if body else "[]"

    if isinstance(g, Efg):
        edges = (
            f'{{\n      "from": {quoted[src]},\n      "to": {quoted[dst]}\n    }}'
            for src, dst in g.edges
        )
    else:
        edges = (
            f'{{\n      "from": {quoted[src]},\n      "to": {quoted[dst]},'
            f'\n      "weight": {weight}\n    }}'
            for src, weight, dst in g.edges
        )
    fields = [
        '"edges": ' + array(edges),
        '"events": ' + array(f'{{\n      "id": {quoted[e]}\n    }}' for e in g.events),
    ]
    if isinstance(g, Efg):
        fields.append('"initials": ' + array(map(quoted.__getitem__, g.initials)))
    fields.append(f'"schemaVersion": {SCHEMA_VERSION}')
    Path(path).write_text("{\n  " + ",\n  ".join(fields) + "\n}\n", encoding="utf-8")


def export_dot(g: Efg | Edg) -> str:
    """Graphviz rendering; initial events get a double border.

    The output is fully ordered (nodes then edges, both by declaration index)
    so repeated exports are byte-identical.  A ``"`` in an event id is
    escaped as ``\\"``, so every id stays one quoted DOT id.  DOT has no
    way to quote an id that ends in a backslash, so such an id raises
    :class:`GuiseqError`.
    """

    def node(e: str) -> str:
        if e.endswith("\\"):
            raise GuiseqError(f"event id {e!r} ends in a backslash, which DOT cannot quote")
        return '"' + e.replace('"', '\\"') + '"'

    lines: list[str] = []
    if isinstance(g, Efg):
        lines.append("digraph efg {")
        initial = set(g.initials)
        for e in g.events:
            attrs = ' [peripheries=2]' if e in initial else ""
            lines.append(f"  {node(e)}{attrs};")
        for src, targets in g.adjacency.items():
            lines += (f"  {node(src)} -> {node(dst)};" for dst in targets)
    else:
        lines.append("digraph edg {")
        for e in g.events:
            lines.append(f"  {node(e)};")
        for src, weight, dst in g.edges:
            lines.append(f'  {node(src)} -> {node(dst)} [label="{weight}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
