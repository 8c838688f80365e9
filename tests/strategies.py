"""Hypothesis strategies for small random graphs, shared across test modules."""

from __future__ import annotations

from hypothesis import strategies as st

from guiseq.graphs import Edg, Efg


@st.composite
def efgs(draw, max_events: int = 8) -> Efg:
    n = draw(st.integers(min_value=1, max_value=max_events))
    events = [f"e{i}" for i in range(n)]
    pairs = [(a, b) for a in events for b in events]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    initials = draw(
        st.lists(st.sampled_from(events), unique=True, min_size=1, max_size=n)
    )
    return Efg.of(events, initials, edges)


@st.composite
def edgs(draw, max_events: int = 6) -> Edg:
    n = draw(st.integers(min_value=1, max_value=max_events))
    events = [f"e{i}" for i in range(n)]
    pairs = [(a, b) for a in events for b in events]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    edges = [
        (src, draw(st.integers(min_value=1, max_value=3)), dst) for src, dst in chosen
    ]
    return Edg.of(events, edges)


#: Short strings that JSON must escape: quotes, backslashes, control and
#: non-ASCII characters (line separators and astral ones included), mixed with
#: any other character.
awkward_text = st.text(
    st.sampled_from('"\\\n\t\x00\x1f\x7f\x85 é€😀') | st.characters(),
    max_size=5,
)
