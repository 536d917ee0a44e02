"""One dataset switch: every command line parses into the same spec."""

import pytest

from repro.cli import build_parser
from repro.datasets.spec import DatasetSpec
from repro.net.cli import build_serve_parser
from repro.store.cli import build_store_parser


def _browser(argv):
    return build_parser().parse_args(argv)


def _serve(argv):
    return build_serve_parser().parse_args(argv)


def _ingest(argv):
    return build_store_parser().parse_args(["ingest", "store-dir", *argv])


@pytest.mark.parametrize(
    "argv, expected",
    [
        ([], DatasetSpec(kind="recipes")),
        (["inbox", "--seed", "3"], DatasetSpec(kind="inbox", seed=3)),
        (["recipes", "--size", "40"], DatasetSpec(kind="recipes", size=40)),
        (["states", "--annotated"], DatasetSpec(kind="states", annotated=True)),
        (["--ntriples", "d.nt"], DatasetSpec(kind="ntriples", path="d.nt")),
        (["--turtle", "d.ttl"], DatasetSpec(kind="turtle", path="d.ttl")),
    ],
)
def test_every_parser_names_the_same_spec(argv, expected):
    for parse in (_browser, _serve, _ingest):
        assert DatasetSpec.from_args(parse(argv)) == expected


def test_store_argument_wins_where_declared():
    for parse in (_browser, _serve):
        args = parse(["inbox", "--store", "/data/corpus"])
        assert DatasetSpec.from_args(args) == DatasetSpec(
            kind="store", path="/data/corpus"
        )


def test_source_and_workspace_agree():
    spec = DatasetSpec(kind="recipes", size=12, seed=5)
    graph, schema, items = spec.build_source()
    workspace = spec.build_workspace()
    assert len(workspace.graph) == len(graph)
    assert list(workspace.items) == list(items)
    assert schema is not None
