"""Seeded request streams: what the load generator sends, and what it expects.

A session's stream is a Python generator of :class:`Op` values.  Every
choice comes from the session's own ``random.Random`` and from a model
of the session the generator keeps *from what it sent* — constraint
chips, back-stack depth, whether the view is the whole corpus — so no
response body is parsed while the clock runs.  The models mirror the
service's documented transition rules (``RemoveConstraint`` of the last
chip lands on "everything", ``Back`` restores the previous view, the
chip conjunction drops duplicates and collapses a chip next to its own
negation); the generator never produces a duplicate or a complement, so
the chip count is a plain list length.

Two mixes:

* **browse** (recipes) — the §6.3 directed-task shape: facet refines on
  cuisine/course/ingredient, keyword ``Search``/``SearchWithin``, the
  "no nuts" negation, chip removal, undo, and opening an item then going
  ``Back``.  Each click is ``POST apply`` then ``POST suggest`` (the
  pane repaints); before each refining click the user hovers up to
  three candidates, one ``POST preview`` each.  After the landing every
  view keeps a positive chip (see :func:`_anchored`).  The ingest
  workload's reader sends the same commands without the ``suggest``.
* **facets** (scaled) — each step previews four candidates (a tag or a
  category, then three year/weight ranges) and applies one refinement, or
  removes or negates a chip.  No ``/suggest``.  The generator keeps a
  naive set model of the data, so every candidate matches at least one
  item of the current view and every op carries its expected count.
"""

from __future__ import annotations

import bisect
import json
import random
from dataclasses import dataclass, field
from typing import Iterator

# ----------------------------------------------------------------------
# Requests and ops
# ----------------------------------------------------------------------


@dataclass
class Request:
    """One HTTP request: ``kind`` names the route for attribution."""

    kind: str
    method: str
    path: str
    payload: dict | None = None
    raw: bytes | None = None
    content_type: str = "application/json"

    def body(self) -> bytes:
        if self.raw is not None:
            return self.raw
        if self.payload is None:
            return b""
        return json.dumps(self.payload).encode("utf-8")


@dataclass
class Op:
    """One user-visible operation: one or more requests sent back to back.

    ``kind`` is ``landing``, ``click`` or ``preview`` for timed reader
    ops, ``cleanup`` for the session delete that ends a script.
    ``expect`` holds what the generator predicts: tracked ``chips`` and
    ``back`` for state-returning ops, plus naive ``size``/``count`` on
    the facets mix.
    """

    kind: str
    session: str
    requests: list[Request]
    expect: dict = field(default_factory=dict)


def create(name: str) -> Request:
    return Request("create", "POST", "/sessions", {"name": name})


def apply(name: str, command: dict) -> Request:
    return Request("apply", "POST", f"/sessions/{name}/apply", {"command": command})


def suggest(name: str) -> Request:
    return Request("suggest", "POST", f"/sessions/{name}/suggest", {})


def preview(name: str, predicate: dict) -> Request:
    return Request(
        "preview",
        "POST",
        f"/sessions/{name}/preview",
        {"predicate": predicate, "mode": "filter"},
    )


def delete(name: str) -> Request:
    return Request("delete", "DELETE", f"/sessions/{name}")


def ingest(text: str) -> Request:
    return Request(
        "ingest", "POST", "/ingest", raw=text.encode("utf-8"),
        content_type="application/n-triples",
    )


def healthz() -> Request:
    return Request("healthz", "GET", "/healthz")


def metrics() -> Request:
    return Request("metrics", "GET", "/metrics")


# ----------------------------------------------------------------------
# Chips: hashable keys <-> wire predicates
# ----------------------------------------------------------------------


def negation(chip: tuple) -> tuple:
    return chip[1] if chip[0] == "not" else ("not", chip)


def predicate(chip: tuple) -> dict:
    """The wire (tagged-dict) form of a chip key."""
    kind = chip[0]
    if kind == "not":
        return {"t": "not", "part": predicate(chip[1])}
    if kind == "text":
        return {"t": "text", "text": chip[1]}
    if kind == "value":
        return {
            "t": "has_value",
            "prop": {"t": "uri", "v": chip[1]},
            "value": {"t": "uri", "v": chip[2]},
        }
    if kind == "range":
        return {
            "t": "range",
            "prop": {"t": "uri", "v": chip[1]},
            "low": chip[2],
            "high": chip[3],
        }
    raise ValueError(f"unknown chip {chip!r}")


def _fits(chips: list[tuple], chip: tuple) -> bool:
    """Neither a duplicate nor the complement of an existing chip."""
    return chip not in chips and negation(chip) not in chips


# ----------------------------------------------------------------------
# The browse mix
# ----------------------------------------------------------------------

EVERYTHING = ("everything",)


class BrowseModel:
    """A session as the browse generator sees it.

    ``view`` is ``EVERYTHING``, ``("chips", (chip, ...))`` or
    ``("item", uri)``; ``trail`` entries are chip tuples, or None for an
    "everything" arrival — the same entries the service's refinement
    trail holds, so ``UndoRefinement`` is predictable.
    """

    def __init__(self):
        self.view: tuple = EVERYTHING
        self.back: list[tuple] = []
        self.trail: list[tuple | None] = []

    @property
    def chips(self) -> list[tuple]:
        return list(self.view[1]) if self.view[0] == "chips" else []

    def _arrive(self, chips: list[tuple]) -> None:
        self.back.append(self.view)
        if chips:
            self.view = ("chips", tuple(chips))
            self.trail.append(tuple(chips))
        else:
            self.view = EVERYTHING
            self.trail.append(None)

    def step(self, command: dict) -> None:
        name = command["c"]
        if name == "Search":
            self._arrive([("text", command["text"])])
        elif name in ("SearchWithin", "Refine"):
            chip = (
                ("text", command["text"]) if name == "SearchWithin"
                else command["chip"]
            )
            self._arrive(self.chips + [chip])
        elif name == "NegateConstraint":
            chips = self.chips
            chips[command["index"]] = negation(chips[command["index"]])
            self._arrive(chips)
        elif name == "RemoveConstraint":
            chips = self.chips
            del chips[command["index"]]
            self._arrive(chips)
        elif name == "GoItem":
            self.back.append(self.view)
            self.view = ("item", command["item"]["v"])
        elif name == "Back":
            self.view = self.back.pop()
        elif name == "UndoRefinement":
            trail = self.trail
            if trail:
                trail.pop()
            previous = trail.pop() if trail else None
            self._arrive(list(previous) if previous else [])
        else:
            raise ValueError(f"the browse model has no rule for {name}")

    def expect(self) -> dict:
        return {"chips": len(self.chips), "back": len(self.back)}


def recipe_vocabulary(corpus) -> dict:
    """The browse generator's choices, drawn from the recipe corpus.

    Ingredients are the 40 most used (the long tail empties views at
    once); keywords are one-word ingredient names plus cuisine names,
    which recipe text mentions.
    """
    extras = corpus.extras
    props = extras["properties"]
    graph = corpus.graph
    uses = {
        uri: sum(1 for _ in graph.subjects(props["ingredient"], uri))
        for uri in extras["ingredients"].values()
    }
    popular = sorted(uses, key=lambda uri: (-uses[uri], uri.uri))[:40]
    names = {uri: name for name, uri in extras["ingredients"].items()}
    words = [names[u] for u in popular if " " not in names[u]][:16]
    words += [c.lower() for c in extras["cuisines"]][:8]
    return {
        "facets": {
            "cuisine": (props["cuisine"].uri,
                        [u.uri for u in extras["cuisines"].values()]),
            "course": (props["course"].uri,
                       [u.uri for u in extras["courses"].values()]),
            "ingredient": (props["ingredient"].uri, [u.uri for u in popular]),
        },
        "words": words,
        "recipes": [item.uri for item in corpus.items],
    }


def _facet_chip(rng: random.Random, vocab: dict, chips: list[tuple]) -> list:
    """Up to three distinct fitting chips on one facet: the click, then hovers."""
    axis = rng.choices(("cuisine", "course", "ingredient"), (35, 25, 40))[0]
    prop, values = vocab["facets"][axis]
    picks = [
        ("value", prop, value)
        for value in rng.sample(values, min(len(values), 8))
        if _fits(chips, ("value", prop, value))
    ]
    return picks[:3]


def _word_chip(rng: random.Random, vocab: dict, chips: list[tuple]) -> list:
    picks = [
        ("text", word)
        for word in rng.sample(vocab["words"], 6)
        if _fits(chips, ("text", word))
    ]
    return picks[:3]


def _anchored(chips) -> bool:
    """Some chip is positive, so the view is a narrow slice of the corpus.

    A view of only negated chips (or none) holds most of the corpus and
    costs a landing pane to paint; the browse mix reaches such a view
    only at session start, so the landing count is the session count
    and the click cost does not depend on how often a seed wanders back
    to "everything".
    """
    return any(chip[0] != "not" for chip in chips)


def _browse_click(rng, model: BrowseModel, vocab: dict):
    """(command, hovered chips) for the next click, legal in ``model``."""
    kind = model.view[0]
    chips = model.chips
    item = {"t": "uri", "v": rng.choice(vocab["recipes"])}
    if kind == "everything":
        if rng.random() < 0.35:
            return {"c": "Search", "text": rng.choice(vocab["words"])}, []
        picks = _facet_chip(rng, vocab, chips)
        return {"c": "Refine", "chip": picks[0]}, picks
    if kind == "item":
        roll = rng.random()
        if roll < 0.7 and model.back:
            return {"c": "Back"}, []
        if roll < 0.85:
            return {"c": "Search", "text": rng.choice(vocab["words"])}, []
        return {"c": "GoItem", "item": item}, []
    negatable = [
        i for i in range(len(chips))
        if _anchored(chips[:i] + chips[i + 1:])
    ]
    removable = negatable if len(chips) >= 2 else []
    trail = model.trail
    undoable = len(trail) >= 2 and trail[-2] is not None and _anchored(trail[-2])
    backable = bool(model.back) and model.back[-1] != EVERYTHING
    picks = {
        "refine": _facet_chip(rng, vocab, chips) if len(chips) < 4 else [],
        "within": _word_chip(rng, vocab, chips) if len(chips) < 4 else [],
    }
    choices = [
        ("refine", 30 if picks["refine"] else 0),
        ("within", 12 if picks["within"] else 0),
        ("negate", 10 if negatable else 0),
        ("remove", 12 if removable else 0),
        ("item", 16),
        ("search", 5),
        ("undo", 5 if undoable else 0),
        ("back", 10 if backable else 0),
    ]
    move = rng.choices([c for c, _w in choices], [w for _c, w in choices])[0]
    if move == "refine":
        return {"c": "Refine", "chip": picks["refine"][0]}, picks["refine"]
    if move == "within":
        hovered = picks["within"]
        return {"c": "SearchWithin", "text": hovered[0][1]}, hovered
    if move == "negate":
        return {"c": "NegateConstraint", "index": rng.choice(negatable)}, []
    if move == "remove":
        return {"c": "RemoveConstraint", "index": rng.choice(removable)}, []
    if move == "item":
        return {"c": "GoItem", "item": item}, []
    if move == "search":
        return {"c": "Search", "text": rng.choice(vocab["words"])}, []
    if move == "undo":
        return {"c": "UndoRefinement"}, []
    return {"c": "Back"}, []


def _wire(command: dict) -> dict:
    """The command as the wire codec spells it (chips become predicates)."""
    if command["c"] == "Refine":
        return {"c": "Refine", "predicate": predicate(command["chip"]),
                "mode": "filter"}
    return command


def browse_session(
    rng: random.Random, vocab: dict, name: str, clicks: int,
    paint_landing: bool = True, repaint: bool = True,
) -> Iterator[Op]:
    """Landing, ``clicks`` clicks (with hover previews), then delete.

    ``paint_landing=False`` opens the session without the landing
    pane's ``suggest``; the warm-up's first sessions use it so that the
    slots do not all paint a landing pane at once.  ``repaint=False``
    drops every ``suggest``: each click is the ``apply`` alone.
    """
    model = BrowseModel()
    opening = [create(name)]
    if paint_landing and repaint:
        opening.append(suggest(name))
    yield Op("landing", name, opening, model.expect())
    for _ in range(clicks):
        command, hovered = _browse_click(rng, model, vocab)
        for chip in hovered:
            yield Op("preview", name, [preview(name, predicate(chip))])
        model.step(command)
        requests = [apply(name, _wire(command))]
        if repaint:
            requests.append(suggest(name))
        yield Op("click", name, requests, model.expect())
    yield Op("cleanup", name, [delete(name)])


# ----------------------------------------------------------------------
# The facets mix
# ----------------------------------------------------------------------


class FacetData:
    """The generator's naive model of the scaled corpus (item indexes)."""

    def __init__(self, facts: dict):
        self.n = len(facts["items"])
        self.universe = frozenset(range(self.n))
        self.props = facts["props"]
        self.categories = facts["categories"]
        self.tags = facts["tags"]
        self.item_category = facts["category"]
        self.item_tags = facts["tag"]
        self.readings = {"year": facts["year"], "weight": facts["weight"]}
        self._by_value: dict[tuple, frozenset] = {}
        for name, per_item, names in (
            ("category", facts["category"], self.categories),
            ("tag", facts["tag"], self.tags),
        ):
            buckets: dict[int, set] = {}
            for item, values in enumerate(per_item):
                for value in values:
                    buckets.setdefault(value, set()).add(item)
            for value, items in buckets.items():
                key = ("value", self.props[name], names[value])
                self._by_value[key] = frozenset(items)
        #: prop uri -> (sorted readings, item of each reading)
        self._sorted = {}
        for name, per_item in self.readings.items():
            pairs = sorted(
                (value, item)
                for item, values in enumerate(per_item)
                for value in values
            )
            self._sorted[self.props[name]] = (
                [v for v, _i in pairs], [i for _v, i in pairs]
            )

    def extent(self, chip: tuple) -> frozenset:
        """The items a chip matches: plain set algebra over the facts."""
        kind = chip[0]
        if kind == "not":
            return self.universe - self.extent(chip[1])
        if kind == "value":
            return self._by_value.get(chip, frozenset())
        if kind == "range":
            values, items = self._sorted[chip[1]]
            lo = bisect.bisect_left(values, chip[2])
            hi = bisect.bisect_right(values, chip[3])
            return frozenset(items[lo:hi])
        raise ValueError(f"unknown chip {chip!r}")

    def view(self, chips: list[tuple]) -> frozenset:
        result = self.universe
        for chip in chips:
            result = result & self.extent(chip)
        return result

    def candidates(self, rng: random.Random, members: list[int]) -> list[tuple]:
        """A tag or a category, then three year or weight ranges (a
        slider being dragged), each anchored on a random member of the
        view so it matches at least that member.

        A range leaf is evaluated afresh on every preview while value
        leaves come from cached postings, so a value preview costs a
        few tenths of a millisecond, most of it the round trip.  With
        three ranges in four, both the median and the p95 fall inside
        the range previews' continuous spread of query work; at two in
        four the median would sit on the gap between the two kinds and
        swing from run to run.
        """
        def anchor(values_of) -> int:
            for _ in range(8):
                item = rng.choice(members)
                if values_of[item]:
                    return item
            return item

        if rng.random() < 0.5:
            tag_values = self.item_tags[anchor(self.item_tags)]
            tag = (rng.choice(tag_values) if tag_values
                   else rng.randrange(len(self.tags)))
            chips = [("value", self.props["tag"], self.tags[tag])]
        else:
            category = self.item_category[anchor(self.item_category)][0]
            chips = [("value", self.props["category"], self.categories[category])]
        for name in ("year", "weight", rng.choice(("year", "weight"))):
            span = rng.choice((2, 5, 10, 20) if name == "year" else (25, 50, 100, 200))
            readings = self.readings[name][anchor(self.readings[name])]
            center = readings[0] if readings else 0.0
            # Bounds where a slider happens to stop, so a range almost
            # never repeats: repeated ranges are answered from the
            # server's caches, and the share of cached previews, and
            # with it the median, would grow over the run.
            low = round(center - span * rng.uniform(0.5, 1.5), 3)
            high = round(center + span * rng.uniform(0.5, 1.5), 3)
            chips.append(("range", self.props[name], low, high))
        return chips


def facets_session(
    rng: random.Random, data: FacetData, name: str, steps: int
) -> Iterator[Op]:
    """Landing (create), ``steps`` x (4 previews + 1 apply), then delete.

    The apply refines with one of the previewed candidates, removes a
    chip or negates one.  As in the browse mix, every view after the
    first refine keeps a positive chip, and a negation that would empty
    the view is skipped, so each view holds at least one item and at
    most one facet value's share of the corpus.
    """
    chips: list[tuple] = []
    back = 0
    current = data.universe
    yield Op("landing", name, [create(name)],
             {"chips": 0, "back": 0, "size": data.n})
    for _ in range(steps):
        members = sorted(current)
        candidates = data.candidates(rng, members)
        counts = []
        for chip in candidates:
            count = len(current & data.extent(chip))
            counts.append(count)
            yield Op("preview", name, [preview(name, predicate(chip))],
                     {"count": count})
        # Candidates are anchored on view members and are of more than
        # one kind, so with at most one chip some candidate fits; two
        # chips, one of them positive, can always lose the other: a move
        # always exists.
        fitting = [
            chip for chip, count in zip(candidates, counts)
            if count and _fits(chips, chip)
        ]
        removable = [
            i for i in range(len(chips))
            if len(chips) >= 2 and _anchored(chips[:i] + chips[i + 1:])
        ]
        negatable = [
            i for i in range(len(chips))
            if _anchored(chips[:i] + chips[i + 1:])
            and data.view(chips[:i] + [negation(chips[i])] + chips[i + 1:])
        ]
        moves = [
            ("refine", 65 if fitting and len(chips) < 3 else 0),
            ("remove", 20 if removable else 0),
            ("negate", 15 if negatable else 0),
        ]
        move = rng.choices([m for m, _w in moves], [w for _m, w in moves])[0]
        if move == "refine":
            chip = rng.choice(fitting)
            command = {"c": "Refine", "predicate": predicate(chip),
                       "mode": "filter"}
            chips.append(chip)
        elif move == "remove":
            index = rng.choice(removable)
            command = {"c": "RemoveConstraint", "index": index}
            del chips[index]
        else:
            index = rng.choice(negatable)
            command = {"c": "NegateConstraint", "index": index}
            chips[index] = negation(chips[index])
        current = data.view(chips)
        back += 1
        yield Op("click", name, [apply(name, command)],
                 {"chips": len(chips), "back": back, "size": len(current)})
    yield Op("cleanup", name, [delete(name)])
