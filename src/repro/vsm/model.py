"""The semistructured vector space model (§5).

``VectorSpaceModel`` turns each item of an RDF graph into a sparse
vector:

* object-valued attributes → one ``object`` coordinate per
  attribute/value pair (Figure 4's upper-case entries);
* string-valued attributes → tokenized/stemmed ``word`` coordinates
  under the attribute (Figure 4's lower-case entries);
* numeric/temporal attributes → a two-component unit-circle encoding
  (§5.4) so closeness in value yields a large dot product;
* schema-annotated attribute compositions → coordinates whose path is a
  property chain (§5.1).

Weighting follows §5.2: per-attribute tf normalization ("divide each
term frequency by the number of values for the attributes"), the
log-tf × log-idf term weight, and unit-length document normalization.

A model is built once: cold, by :meth:`VectorSpaceModel.index_items`,
or for the next epoch by :meth:`VectorSpaceModel.advance`, which reuses
the prior model's profiles of the items a delta left alone and never
modifies the prior model.  Weighted vectors are cached per item.
"""

from __future__ import annotations

from collections import Counter
from typing import Collection, Iterable, Sequence

from ..rdf.graph import Graph
from ..rdf.schema import Schema, ValueType
from ..rdf.terms import Literal, Node, Resource
from ..rdf.vocab import MAGNET, RDFS
from .composition import compose_values
from .numeric import NumericRange, encode_unit_circle
from .phrases import KIND_PHRASE, PhraseSet
from .tokenizer import Analyzer, default_analyzer
from .vector import (
    Coord,
    KIND_NUM_COS,
    KIND_NUM_SIN,
    KIND_OBJECT,
    KIND_WORD,
    SparseVector,
)
from .weighting import CorpusStats, term_weight

__all__ = ["ItemProfile", "VectorSpaceModel"]

#: Properties that are annotation plumbing, never model coordinates.
_EXCLUDED_PROPERTIES = frozenset(
    {
        MAGNET.valueType,
        MAGNET.compose,
        MAGNET.hidden,
        MAGNET.importantProperty,
        RDFS.label,
    }
)


class ItemProfile:
    """The raw (pre-idf) representation of one indexed item.

    ``tf`` holds per-attribute-normalized term frequencies for discrete
    coordinates; ``numerics`` holds the raw numeric values per attribute
    path, encoded lazily against the corpus-wide ranges.
    """

    __slots__ = ("item", "tf", "numerics")

    def __init__(self, item: Node):
        self.item = item
        self.tf: dict[Coord, float] = {}
        self.numerics: dict[tuple[str, ...], list[float]] = {}

    def coordinates(self) -> Iterable[Coord]:
        """Discrete coordinates present in this item (for df updates)."""
        return self.tf.keys()

    def __repr__(self) -> str:
        return (
            f"<ItemProfile {self.item!r} dims={len(self.tf)} "
            f"numeric-paths={len(self.numerics)}>"
        )


class VectorSpaceModel:
    """Builds and serves semistructured vectors for a graph's items.

    Parameters
    ----------
    graph:
        The repository being modeled.
    schema:
        Schema annotations to honor (value types, compositions, hidden
        properties).  Defaults to a fresh :class:`Schema` over ``graph``.
    analyzer:
        The text-analysis chain for string values.
    use_compositions:
        When False, composition annotations are ignored (the ablation
        knob for `benchmarks/test_ablation_compositions.py`).
    per_attribute_normalization:
        When False, raw term frequencies are used (ablation knob for
        `benchmarks/test_ablation_normalization.py`).
    unit_circle_numerics:
        When False, numeric values are treated as plain object tokens
        (ablation knob for `benchmarks/test_ablation_numeric.py`).
    phrases:
        An optional :class:`~repro.vsm.phrases.PhraseSet`; detected
        bigrams add ``phrase`` coordinates alongside the word
        coordinates (§5.1's multi-word-phrase extension).
    """

    def __init__(
        self,
        graph: Graph,
        schema: Schema | None = None,
        analyzer: Analyzer | None = None,
        use_compositions: bool = True,
        per_attribute_normalization: bool = True,
        unit_circle_numerics: bool = True,
        phrases: PhraseSet | None = None,
    ):
        self.graph = graph
        self.schema = schema if schema is not None else Schema(graph)
        self.analyzer = analyzer if analyzer is not None else default_analyzer()
        self.use_compositions = use_compositions
        self.per_attribute_normalization = per_attribute_normalization
        self.unit_circle_numerics = unit_circle_numerics
        self.phrases = phrases
        self.stats = CorpusStats()
        self._profiles: dict[Node, ItemProfile] = {}
        self._ranges: dict[tuple[str, ...], NumericRange] = {}
        self._vector_cache: dict[Node, SparseVector] = {}
        self._compositions: list[tuple[Resource, ...]] | None = None

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------

    def index_items(self, items: Iterable[Node]) -> int:
        """Index many items; returns the count of items given.

        An item given twice is indexed once, so it counts once in the
        document frequencies.
        """
        count = 0
        for item in items:
            self.add_item(item)
            count += 1
        return count

    def add_item(self, item: Node) -> ItemProfile:
        """Index one item as it arrives; an indexed item is kept as is.

        Cached vectors are dropped, since the arrival moves the corpus
        statistics every weight is taken at.
        """
        profile = self._profiles.get(item)
        if profile is None:
            profile = self._profiles[item] = self._extract(item)
            self.stats.add_document(profile.coordinates())
            _observe_ranges(self._ranges, profile)
            self._vector_cache.clear()
        return profile

    @property
    def items(self) -> list[Node]:
        """Indexed items, in insertion order."""
        return list(self._profiles)

    @classmethod
    def advance(
        cls,
        prior: "VectorSpaceModel",
        graph: Graph,
        schema: Schema,
        items: Sequence[Node],
        dirty: Collection[Node],
    ) -> "VectorSpaceModel":
        """The model of the next epoch: ``items`` (distinct) over ``graph``.

        Walks ``items`` in order, reusing ``prior``'s profile of every
        item it indexed that is not in ``dirty`` (profiles are
        write-once after extraction) and extracting the rest.  Numeric
        ranges are built from the profiles as :meth:`index_items` builds
        them, and document frequencies are ``prior``'s less the
        replaced profiles plus the new ones, so every weight equals a
        cold build's over ``items``.  ``prior`` is not modified.
        """
        model = cls(
            graph,
            schema=schema,
            analyzer=prior.analyzer,
            use_compositions=prior.use_compositions,
            per_attribute_normalization=prior.per_attribute_normalization,
            unit_circle_numerics=prior.unit_circle_numerics,
            phrases=prior.phrases,
        )
        carried = prior._profiles
        profiles = model._profiles
        ranges = model._ranges
        arrived = []
        for item in items:
            profile = None if item in dirty else carried.get(item)
            if profile is None:
                profile = model._extract(item)
                arrived.append(profile.coordinates())
            profiles[item] = profile
            _observe_ranges(ranges, profile)
        gone = [
            profile.coordinates()
            for item, profile in carried.items()
            if profiles.get(item) is not profile
        ]
        model.stats = CorpusStats.advance(prior.stats, gone, arrived)
        return model

    def __contains__(self, item: Node) -> bool:
        return item in self._profiles

    def __len__(self) -> int:
        return len(self._profiles)

    def profile(self, item: Node) -> ItemProfile | None:
        """The raw profile of an item, or None if not indexed."""
        return self._profiles.get(item)

    def numeric_range(self, path: tuple[str, ...]) -> NumericRange | None:
        """The observed range of a numeric attribute path."""
        return self._ranges.get(path)

    # ------------------------------------------------------------------
    # Extraction
    # ------------------------------------------------------------------

    def _effective_compositions(self) -> list[tuple[Resource, ...]]:
        if not self.use_compositions:
            return []
        if self._compositions is None:
            self._compositions = self.schema.effective_compositions()
        return self._compositions

    def _extract(self, item: Node) -> ItemProfile:
        profile = ItemProfile(item)
        raw: Counter[Coord] = Counter()
        attribute_sizes: Counter[tuple[str, ...]] = Counter()
        for prop, values in sorted(
            self.graph.properties_of(item).items(), key=lambda kv: kv[0].uri
        ):
            if prop in _EXCLUDED_PROPERTIES:
                continue
            path = (prop.uri,)
            declared = self.schema.value_type(prop)
            for value in values:
                self._extract_value(
                    profile, raw, attribute_sizes, path, value, declared
                )
        for chain in self._effective_compositions():
            path = tuple(p.uri for p in chain)
            declared = self.schema.value_type(chain[-1])
            for value in compose_values(self.graph, item, chain):
                self._extract_value(
                    profile, raw, attribute_sizes, path, value, declared
                )
        if self.per_attribute_normalization:
            for coord, freq in raw.items():
                size = attribute_sizes[coord.path] or 1
                profile.tf[coord] = freq / size
        else:
            profile.tf.update(raw)
        return profile

    def _extract_value(
        self,
        profile: ItemProfile,
        raw: Counter,
        attribute_sizes: Counter,
        path: tuple[str, ...],
        value: Node,
        declared: str | None,
    ) -> None:
        if isinstance(value, Literal):
            if self.unit_circle_numerics and _is_continuous(value, declared):
                number = value.as_number()
                if number is not None:
                    profile.numerics.setdefault(path, []).append(number)
                    return
            if declared == ValueType.OBJECT:
                raw[Coord(path, KIND_OBJECT, value.lexical)] += 1
                attribute_sizes[path] += 1
                return
            tokens = list(self.analyzer.tokens(value.lexical))
            if not tokens:
                return
            for token in tokens:
                raw[Coord(path, KIND_WORD, token)] += 1
            attribute_sizes[path] += len(tokens)
            if self.phrases is not None:
                for phrase in self.phrases.spot(tokens):
                    raw[Coord(path, KIND_PHRASE, phrase)] += 1
            return
        token = value.uri if isinstance(value, Resource) else f"_:{value.node_id}"
        raw[Coord(path, KIND_OBJECT, token)] += 1
        attribute_sizes[path] += 1

    # ------------------------------------------------------------------
    # Weighted vectors
    # ------------------------------------------------------------------

    def vector(self, item: Node) -> SparseVector:
        """The weighted, unit-normalized vector of an indexed item.

        Raises ``KeyError`` for unindexed items.  Vectors are cached per
        item.
        """
        profile = self._profiles.get(item)
        if profile is None:
            raise KeyError(f"item not indexed: {item!r}")
        vector = self._vector_cache.get(item)
        if vector is None:
            vector = self._vector_cache[item] = self._weigh(profile)
        return vector

    def _weigh(self, profile: ItemProfile) -> SparseVector:
        vector = SparseVector()
        num_docs = self.stats.num_docs
        for coord, freq in profile.tf.items():
            weight = term_weight(freq, num_docs, self.stats.doc_frequency(coord))
            if weight:
                vector.set(coord, weight)
        for path, values in profile.numerics.items():
            value_range = self._ranges.get(path)
            if value_range is None or not values:
                continue
            cos_total = 0.0
            sin_total = 0.0
            for value in values:
                cos_part, sin_part = encode_unit_circle(value, value_range)
                cos_total += cos_part
                sin_total += sin_part
            count = len(values)
            vector.set(Coord(path, KIND_NUM_COS, ""), cos_total / count)
            vector.set(Coord(path, KIND_NUM_SIN, ""), sin_total / count)
        return vector.normalized()

    def centroid(self, items: Sequence[Node]) -> SparseVector:
        """§5.3's "average member": normalized sum of the items' vectors."""
        return SparseVector.centroid(
            self.vector(item) for item in items if item in self._profiles
        )

    def similarity(self, a: Node, b: Node) -> float:
        """Dot-product similarity between two indexed items."""
        return self.vector(a).dot(self.vector(b))

    def similarity_to_collection(self, item: Node, items: Sequence[Node]) -> float:
        """Similarity of an item to a collection's average member."""
        return self.vector(item).dot(self.centroid(items))

    # ------------------------------------------------------------------
    # Query vectors
    # ------------------------------------------------------------------

    def text_vector(self, text: str) -> SparseVector:
        """A query vector matching word coordinates in *any* attribute.

        Keyword queries are attribute-agnostic, so each query token is
        expanded to every (attribute, word) coordinate in the corpus
        vocabulary carrying that token, weighted by idf.
        """
        tokens = Counter(self.analyzer.tokens(text))
        if not tokens:
            return SparseVector()
        by_token: dict[str, list[Coord]] = {}
        for profile in self._profiles.values():
            for coord in profile.tf:
                if coord.kind == KIND_WORD and coord.token in tokens:
                    by_token.setdefault(coord.token, []).append(coord)
        vector = SparseVector()
        for token, freq in tokens.items():
            # First-seen order, not set order: the coordinate order is
            # the order scores accumulate in, so it decides their bits.
            for coord in dict.fromkeys(by_token.get(token, ())):
                weight = term_weight(
                    float(freq), self.stats.num_docs, self.stats.doc_frequency(coord)
                )
                if weight:
                    vector.increment(coord, weight)
        return vector.normalized()

    def pair_vector(self, pairs: Sequence[tuple[Resource, Node]]) -> SparseVector:
        """A query vector from explicit (property, value) constraints."""
        vector = SparseVector()
        for prop, value in pairs:
            path = (prop.uri,)
            if isinstance(value, Literal):
                declared = self.schema.value_type(prop)
                if self.unit_circle_numerics and _is_continuous(value, declared):
                    number = value.as_number()
                    value_range = self._ranges.get(path)
                    if number is not None and value_range is not None:
                        cos_part, sin_part = encode_unit_circle(number, value_range)
                        vector.increment(Coord(path, KIND_NUM_COS, ""), cos_part)
                        vector.increment(Coord(path, KIND_NUM_SIN, ""), sin_part)
                        continue
                for token in self.analyzer.tokens(value.lexical):
                    coord = Coord(path, KIND_WORD, token)
                    vector.increment(coord, 1.0 + self.stats.idf(coord))
                continue
            token = (
                value.uri if isinstance(value, Resource) else f"_:{value.node_id}"
            )
            coord = Coord(path, KIND_OBJECT, token)
            vector.increment(coord, 1.0 + self.stats.idf(coord))
        return vector.normalized()

    def __repr__(self) -> str:
        return (
            f"<VectorSpaceModel items={len(self._profiles)} "
            f"vocab={self.stats.vocabulary_size()}>"
        )


def _observe_ranges(
    ranges: dict[tuple[str, ...], NumericRange], profile: ItemProfile
) -> None:
    for path, values in profile.numerics.items():
        bucket = ranges.setdefault(path, NumericRange())
        for value in values:
            bucket.observe(value)


def _is_continuous(value: Literal, declared: str | None) -> bool:
    if declared in ValueType.CONTINUOUS:
        return True
    if declared in (ValueType.TEXT, ValueType.OBJECT):
        return False
    return value.is_numeric or value.is_temporal
