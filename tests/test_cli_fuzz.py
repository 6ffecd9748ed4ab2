"""Property fuzzing of cli.main: valid and malformed graph documents, --set
strings, element strings and numeric options across all nine subcommands.
Every run must exit 0, 1 or 2, with neither a traceback nor an internal
failure on stderr."""

import contextlib
import io
import json
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from ckcenter.cli import main

NAMES = ["a", "b", "c", "d"]
EDGE_IDS = ["x", "y", "z", "w", "s"]
SUBCOMMANDS = [
    "analyze", "center", "hereditary", "arrivals", "ne-cycles",
    "simple", "normal-form", "check-central", "cross-check",
]

fuzz = settings(max_examples=200, deadline=None)


def _run(argv: list[str], document: str) -> tuple[int, str]:
    """main(argv) reading the graph from stdin, with its exit code and stderr."""
    out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(document)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = stdin
    return code, err.getvalue()


def _assert_clean(argv: list[str], document: str) -> None:
    code, err = _run(argv, document)
    assert code in (0, 1, 2), (argv, document, code, err)
    assert "Traceback" not in err and "internal failure" not in err, (argv, document, err)


@st.composite
def graph_docs(draw) -> dict:
    vertices = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=4, unique=True))
    ends = st.sampled_from(vertices)
    edges = draw(st.lists(st.tuples(st.sampled_from(EDGE_IDS), ends, ends), max_size=5, unique_by=lambda e: e[0]))
    return {"vertices": vertices, "edges": [{"id": i, "src": s, "dst": d} for i, s, d in edges]}


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.sampled_from(NAMES + EDGE_IDS + ["", " a", "a*b"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(["id", "src", "dst", "q"]), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def malformed_docs(draw) -> str:
    """A graph document with one fault: a key dropped, added or retyped, an
    edge entry replaced, a vertex duplicated, or no JSON object at all."""
    doc = draw(graph_docs())
    fault = draw(st.sampled_from(["drop", "add", "retype", "edge", "duplicate", "value", "text"]))
    if fault == "drop":
        del doc[draw(st.sampled_from(["vertices", "edges"]))]
    elif fault == "add":
        doc["extra"] = draw(json_values)
    elif fault == "retype":
        doc[draw(st.sampled_from(["vertices", "edges"]))] = draw(json_values)
    elif fault == "edge":
        doc["edges"].append(draw(json_values))
    elif fault == "duplicate":
        doc["vertices"].append(doc["vertices"][0])
    elif fault == "value":
        return json.dumps(draw(json_values))
    else:
        return draw(st.text(max_size=20))
    return json.dumps(doc)


documents = st.one_of(graph_docs().map(json.dumps), malformed_docs())

set_strings = st.lists(st.sampled_from(NAMES) | st.text(max_size=3), max_size=4).map(",".join)

paths = st.sampled_from(NAMES) | st.lists(st.sampled_from(EDGE_IDS), min_size=1, max_size=3).map("*".join)
starred = st.sampled_from(NAMES) | st.lists(st.sampled_from(EDGE_IDS), min_size=1, max_size=3).map(
    lambda ids: "*".join(i + "^*" for i in ids)
)
monomials = st.sampled_from(NAMES) | st.builds(lambda p, q: f"{p}·{q}", paths, starred) | st.text(max_size=6)
terms = st.builds(
    lambda c, m: f"{c} {m}", st.sampled_from(["1", "-1", "2", "1/2", "0", "x", "1/0", ""]), monomials
)
separators = st.sampled_from([" + ", " - ", " − ", "+", " "])
element_strings = st.builds(
    lambda first, rest: first + "".join(sep + t for sep, t in rest),
    terms,
    st.lists(st.tuples(separators, terms), max_size=2),
) | st.text(max_size=12)


def _argv(command: str, as_json: bool, set_text: str = "a", element: str = "1 a") -> list[str]:
    argv = [command, "-"]
    if command in ("hereditary", "arrivals"):
        argv += ["--set", set_text]
    if command in ("normal-form", "check-central"):
        argv.append(element)
    if command == "cross-check":
        argv += ["--degree", "1"]
    return argv + (["--json"] if as_json else [])


@fuzz
@given(documents, st.sampled_from(SUBCOMMANDS), st.booleans())
def test_fuzz_graph_documents(document, command, as_json):
    _assert_clean(_argv(command, as_json), document)


@fuzz
@given(graph_docs().map(json.dumps), set_strings, st.sampled_from(["hereditary", "arrivals"]), st.booleans())
def test_fuzz_set_strings(document, set_text, command, as_json):
    _assert_clean(_argv(command, as_json, set_text=set_text), document)


@fuzz
@given(graph_docs().map(json.dumps), element_strings, st.sampled_from(["normal-form", "check-central"]), st.booleans())
def test_fuzz_element_strings(document, element, command, as_json):
    _assert_clean(_argv(command, as_json, element=element), document)


@fuzz
@given(
    graph_docs().map(json.dumps),
    st.sampled_from(["analyze", "center", "cross-check"]),
    st.lists(
        st.tuples(st.sampled_from(["--max-vertices", "--degree", "--oracle-bound"]),
                  st.integers(-2, 4).map(str) | st.text(max_size=3)),
        max_size=3,
    ),
)
def test_fuzz_numeric_options(document, command, options):
    argv = [command, "-"] + [token for pair in options for token in pair]
    _assert_clean(argv, document)
