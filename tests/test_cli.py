import json

import pytest

from ckcenter import compute_center, parse_element, parse_graph
from ckcenter.cli import main

G2 = '{"vertices":["v1","v2"],"edges":[{"id":"c","src":"v1","dst":"v1"},{"id":"f","src":"v1","dst":"v2"}]}'
G3 = (
    '{"vertices":["v1","v2","v3","v4"],"edges":[{"id":"e1","src":"v1","dst":"v2"},'
    '{"id":"e2","src":"v2","dst":"v3"},{"id":"e3","src":"v3","dst":"v4"}]}'
)
G4 = (
    '{"vertices":["v1","v2","v3","v4","v5"],"edges":[{"id":"a","src":"v1","dst":"v2"},'
    '{"id":"b","src":"v2","dst":"v3"},{"id":"c","src":"v3","dst":"v4"},'
    '{"id":"d","src":"v4","dst":"v2"},{"id":"f","src":"v1","dst":"v5"}]}'
)
C3 = (
    '{"vertices":["v1","v2","v3"],"edges":[{"id":"e1","src":"v1","dst":"v2"},'
    '{"id":"e2","src":"v2","dst":"v3"},{"id":"e3","src":"v3","dst":"v1"}]}'
)
TWO_LOOP = '{"vertices":["v1"],"edges":[{"id":"c","src":"v1","dst":"v1"},{"id":"d","src":"v1","dst":"v1"}]}'


@pytest.fixture
def run(tmp_path, capsys, monkeypatch):
    def _run(argv, graph_text=None, stdin=None):
        args = list(argv)
        if graph_text is not None:
            path = tmp_path / "graph.json"
            path.write_text(graph_text, encoding="utf-8")
            args = [args[0], str(path)] + args[1:]
        if stdin is not None:
            import io

            monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code = main(args)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


# ---------------------------------------------------------------------------
# happy paths, exact text

def test_center_g4_text(run):
    code, out, err = run(["center"], graph_text=G4)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "center: C^1 x T^1"
    assert "  atom {v5}  type C" in lines
    assert "  atom {v2,v3,v4}  type T  cycle b·c·d" in lines
    assert "  e({v5}) = 1 v5 + 1 f·f^*" in lines
    assert "  e({v2,v3,v4}) = 1 v2 + 1 v3 + 1 v4 + 1 a·a^*" in lines
    assert lines[-1] == "verified: yes"


def test_center_json_round_trips(run):
    code, out, _ = run(["center", "--json"], graph_text=G4)
    assert code == 0
    doc = json.loads(out)
    assert doc["c_count"] == 1 and doc["t_count"] == 1 and doc["verified"] is True
    g = parse_graph(G4)
    report = compute_center(g)
    assert [parse_element(g, s) for s in doc["generators"]] == list(report.generators)


def test_arrivals_infinite_exact_line(run):
    code, out, err = run(["arrivals", "--set", "v2"], graph_text=G2)
    assert code == 0 and err == ""
    assert out == "Infinite: witness cycle c\n"


def test_arrivals_finite(run):
    code, out, _ = run(["arrivals", "--set", "v5"], graph_text=G4)
    assert code == 0
    assert out.splitlines() == ["Finite: 2 arrival paths", "  v5", "  f"]


def test_arrivals_json(run):
    code, out, _ = run(["arrivals", "--set", "v2,v3,v4", "--json"], graph_text=G4)
    assert code == 0
    doc = json.loads(out)
    assert doc["finite"] is True
    assert {tuple(p["edges"]) or p["source"] for p in doc["paths"]} == {"v2", "v3", "v4", ("a",)}


def test_check_central_yes_exact(run):
    code, out, _ = run(
        ["check-central", "1 e1*e2*e3·v1 + 1 e2*e3*e1·v2 + 1 e3*e1*e2·v3"],
        graph_text=C3,
    )
    assert code == 0
    assert out == "central: yes\n"


def test_check_central_no_names_witness(run):
    code, out, _ = run(["check-central", "1 e1·v2"], graph_text=C3)
    assert code == 0
    assert out == "central: no (witness generator: v1)\n"


def test_normal_form_rewrites(run):
    code, out, _ = run(["normal-form", "1 a·a^*"], graph_text=G4)
    assert code == 0
    assert out == "1 v1 - 1 f·f^*\n"


def test_normal_form_json(run):
    code, out, _ = run(["normal-form", "1 c·c^*", "--json"], graph_text=G2)
    assert code == 0
    doc = json.loads(out)
    assert doc == {"input": "1 c·c^*", "normal_form": "1 v1 - 1 f·f^*"}


def test_simple_witnesses(run):
    code, out, _ = run(["simple"], graph_text=C3)
    assert code == 0
    assert out == "simple: no (witness cycle: e1·e2·e3)\n"
    code, out, _ = run(["simple"], graph_text=G4)
    assert out == "simple: no (witness subset: {v5})\n"
    code, out, _ = run(["simple"], graph_text=TWO_LOOP)
    assert out == "simple: yes\n"


def test_ne_cycles_listing(run):
    code, out, _ = run(["ne-cycles"], graph_text=G4)
    assert code == 0
    assert out.splitlines() == ["NE-cycles: 1", "  b·c·d  finitary: yes"]
    code, out, _ = run(["ne-cycles"], graph_text=G2)
    assert out.splitlines() == ["NE-cycles: 0"]


def test_ne_cycles_on_deep_chain(run):
    # Deeper than the interpreter's recursion limit: the component search
    # must not recurse per vertex.
    n = 3000
    chain = json.dumps(
        {
            "vertices": [f"u{i}" for i in range(n)],
            "edges": [{"id": f"x{i}", "src": f"u{i}", "dst": f"u{i + 1}"} for i in range(n - 1)],
        }
    )
    code, out, _ = run(["ne-cycles"], graph_text=chain)
    assert code == 0
    assert out.splitlines() == ["NE-cycles: 0"]


def test_hereditary_report(run):
    code, out, _ = run(["hereditary", "--set", "v2"], graph_text=G4)
    assert code == 0
    assert out.splitlines() == [
        "set: {v2}",
        "hereditary: no",
        "closure: {v2,v3,v4}",
        "saturation of closure: {v2,v3,v4}",
        "annihilator: {v5}",
        "double annihilator: {v2,v3,v4}",
    ]


def test_hereditary_finitary_line(run):
    code, out, _ = run(["hereditary", "--set", "v2"], graph_text=G2)
    assert code == 0
    assert "hereditary: yes" in out.splitlines()
    assert "finitary: no" in out.splitlines()


def test_hereditary_empty_set(run):
    code, out, _ = run(["hereditary", "--set", ""], graph_text=G4)
    assert code == 0
    lines = out.splitlines()
    assert "set: {}" in lines
    assert "hereditary: yes" in lines
    assert "annihilator: {v1,v2,v3,v4,v5}" in lines
    assert not any(line.startswith("finitary") for line in lines)


def test_cross_check_text(run):
    code, out, _ = run(["cross-check", "--degree", "1"], graph_text=G4)
    assert code == 0
    lines = out.splitlines()
    assert "degree: 1" in lines
    assert "predicted in kernel: yes" in lines
    assert "dimensions match: yes" in lines
    assert lines[-1] == "agrees: yes"


def test_analyze_text(run):
    code, out, _ = run(["analyze"], graph_text=G4)
    assert code == 0
    lines = out.splitlines()
    assert "vertices: 5, edges: 5" in lines
    assert "sinks: {v5}" in lines
    assert "cycles: b·c·d" in lines
    assert "NE-cycles: b·c·d" in lines
    assert "simple: no (witness subset: {v5})" in lines
    assert "lattice atoms: {v5}, {v2,v3,v4}" in lines
    assert "center: C^1 x T^1" in lines


def test_analyze_json_graph_round_trips(run):
    code, out, _ = run(["analyze", "--json"], graph_text=G4)
    assert code == 0
    doc = json.loads(out)
    assert parse_graph(json.dumps(doc["graph"])) == parse_graph(G4)
    assert doc["lattice"]["atoms"] == [["v5"], ["v2", "v3", "v4"]]
    assert doc["center"]["verified"] is True


def test_stdin_input(run):
    code, out, _ = run(["simple", "-"], stdin=C3)
    assert code == 0
    assert out == "simple: no (witness cycle: e1·e2·e3)\n"


# ---------------------------------------------------------------------------
# error matrix

def test_missing_file_exits_2(run, tmp_path):
    code, out, err = run(["center", str(tmp_path / "absent.json")])
    assert code == 2
    assert out == ""
    assert "absent.json" in err


def test_malformed_json_exits_2(run):
    code, _, err = run(["center"], graph_text="{nope")
    assert code == 2
    assert err.startswith("error:")


def test_dangling_edge_exits_2(run):
    bad = '{"vertices":["v1"],"edges":[{"id":"e","src":"v1","dst":"zz"}]}'
    code, _, err = run(["center"], graph_text=bad)
    assert code == 2
    assert "zz" in err


def test_unknown_set_member_exits_2(run):
    code, _, err = run(["arrivals", "--set", "zz"], graph_text=G4)
    assert code == 2
    assert "zz" in err


def test_non_hereditary_arrivals_exits_2(run):
    code, _, err = run(["arrivals", "--set", "v1"], graph_text=G4)
    assert code == 2
    assert err


def test_bad_element_exits_2(run):
    code, _, err = run(["check-central", "1 zz"], graph_text=C3)
    assert code == 2
    assert err


def test_unknown_subcommand_exits_2(run, capsys):
    assert main(["frobnicate", "x.json"]) == 2
    capsys.readouterr()


def test_no_arguments_exits_2(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_guard_exits_1(run):
    big = json.dumps({"vertices": [f"u{i}" for i in range(17)], "edges": []})
    code, _, err = run(["center"], graph_text=big)
    assert code == 1
    assert "17" in err


def test_guard_flag_lowers_and_raises(run):
    code, _, err = run(["center", "--max-vertices", "2"], graph_text=C3)
    assert code == 1
    assert err
    code, out, _ = run(["center", "--max-vertices", "3"], graph_text=C3)
    assert code == 0
    assert out.splitlines()[0] == "center: C^0 x T^1"


def test_oracle_bound_exits_1(run):
    code, _, err = run(["cross-check", "--degree", "3", "--oracle-bound", "5"], graph_text=C3)
    assert code == 1
    assert err


def test_internal_failure_exits_3(run, monkeypatch):
    import ckcenter.center

    monkeypatch.setattr(ckcenter.center, "lattice_atoms", lambda g: ((g.vertex_set, None),))
    two_sinks = json.dumps({"vertices": ["a", "b"], "edges": []})
    code, out, err = run(["center"], graph_text=two_sinks)
    assert (code, out) == (3, "")
    message = "internal inconsistency: the lattice atoms fail their certificate"
    assert err == f"error: internal failure: RuntimeError({message!r})\n"

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("ckcenter.cli.compute_center", exhausted)
    code, out, err = run(["center"], graph_text=C3)
    assert (code, out, err) == (3, "", "error: internal failure: MemoryError()\n")


def test_deep_chain_exits_0(run):
    n = 2000
    chain = json.dumps({
        "vertices": [f"v{i}" for i in range(n)],
        "edges": [{"id": f"e{i}", "src": f"v{i}", "dst": f"v{i + 1}"} for i in range(n - 1)],
    })
    code, out, err = run(["hereditary", "--set", f"v{n - 1}"], graph_text=chain)
    assert code == 0 and err == ""
    assert out.splitlines()[-1] == "finitary: yes"
    ring = json.dumps({
        "vertices": [f"v{i}" for i in range(n)] + ["s"],
        "edges": [{"id": f"e{i}", "src": f"v{i}", "dst": f"v{(i + 1) % n}"} for i in range(n)]
        + [{"id": "x", "src": "v0", "dst": "s"}],
    })
    code, out, err = run(["arrivals", "--set", "s"], graph_text=ring)
    assert code == 0 and err == ""
    assert out == "Infinite: witness cycle " + "·".join(f"e{i}" for i in range(n)) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["hereditary", "--set", "v1"],
        ["arrivals", "--set", "v1"],
        ["ne-cycles"],
        ["simple"],
        ["normal-form", "1 v1"],
        ["check-central", "1 v1"],
    ],
)
def test_max_vertices_only_on_guarded_subcommands(run, argv):
    # Only analyze, center and cross-check list or guard the lattice.
    code, out, err = run(argv + ["--max-vertices", "3"], graph_text=C3)
    assert code == 2
    assert out == ""
    assert "--max-vertices" in err


def test_simple_and_hereditary_on_3000_chain(run):
    n = 3000
    chain = json.dumps({
        "vertices": [f"v{i}" for i in range(n)],
        "edges": [{"id": f"e{i}", "src": f"v{i}", "dst": f"v{i + 1}"} for i in range(n - 1)],
    })
    code, out, err = run(["simple"], graph_text=chain)
    assert code == 0 and err == ""
    assert out == "simple: yes\n"
    code, out, err = run(["hereditary", "--set", f"v{n - 1}"], graph_text=chain)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert "saturated: no" in lines
    assert "saturation of closure: {" + ",".join(sorted(f"v{i}" for i in range(n))) + "}" in lines
    assert lines[-1] == "finitary: yes"


def test_one_parser_serves_every_call(run):
    """An argparse error, then --json, then plain text in one process print
    what each prints with a parser of its own."""
    from ckcenter.cli import _build_parser

    calls = [["center", "--max-vertices", "x"], ["center", "--json"], ["center"], ["center", "--bogus"]]
    shared = [run(argv, graph_text=G4) for argv in calls]
    assert _build_parser() is _build_parser()
    fresh = []
    for argv in calls:
        _build_parser.cache_clear()
        fresh.append(run(argv, graph_text=G4))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [2, 0, 0, 2]
    assert "invalid int value" in shared[0][2] and shared[1][1].startswith("{")
