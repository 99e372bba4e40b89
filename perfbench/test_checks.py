"""Tests of the benchmark's checkers: each feeds in a deliberately wrong
coloring, row or response and expects the check to fail, next to a
correct one that must pass.

    python3 -m pytest perfbench/test_checks.py
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import inputs  # noqa: E402

# A 2x2 grid: a 4-cycle.
NODES = [(0, 0), (0, 1), (1, 0), (1, 1)]
EDGES = [((0, 0), (0, 1)), ((0, 0), (1, 0)), ((0, 1), (1, 1)), ((1, 0), (1, 1))]
GOOD = {(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 1}


def recolored(node, color):
    out = dict(GOOD)
    out[node] = color
    return out


def trial(coloring, locality, verdict, budget=4, error=""):
    return {
        "case": "grid2", "locality": locality, "order": 0, "budget": budget,
        "max_colors": 3, "coloring": coloring, "verdict": verdict, "error": error,
    }


def test_scan_accepts_a_proper_coloring():
    assert checks.scan_coloring(NODES, EDGES, GOOD, 3) == (True, [])


def test_scan_rejects_a_monochromatic_edge():
    bad = recolored((0, 1), 1)
    proper, problems = checks.scan_coloring(NODES, EDGES, bad, 3)
    assert not proper and "monochromatic" in problems[0]


def test_scan_rejects_an_uncolored_node():
    partial = dict(GOOD)
    del partial[(1, 1)]
    proper, problems = checks.scan_coloring(NODES, EDGES, partial, 3)
    assert not proper and "uncolored" in problems[0]


def test_scan_rejects_a_color_over_budget():
    over = recolored((1, 1), 4)
    proper, problems = checks.scan_coloring(NODES, EDGES, over, 3)
    assert not proper and "outside" in problems[0]


def test_trial_at_budget_with_an_improper_coloring_is_a_failed_operation():
    bad = recolored((0, 1), 1)
    failed, problems, note = checks.check_trial(trial(bad, 4, True), NODES, EDGES)
    assert failed and "at or above the budget" in note
    failed, problems, note = checks.check_trial(trial(GOOD, 4, True), NODES, EDGES)
    assert (failed, problems, note) == (False, [], "")


def test_trial_that_raised_at_budget_is_a_failed_operation():
    failed, _, note = checks.check_trial(trial({}, 5, False, error="RecoloringError: x"), NODES, EDGES)
    assert failed and "RecoloringError" in note


def test_trial_below_budget_must_report_the_scanned_verdict():
    bad = recolored((0, 1), 1)
    # The program claims a proper coloring the scan rejects.
    failed, problems, _ = checks.check_trial(trial(bad, 2, True), NODES, EDGES)
    assert not failed and "scan says False" in problems[0]
    # A correct "lost" verdict below the budget is fine.
    assert checks.check_trial(trial(bad, 2, False), NODES, EDGES) == (False, [], "")


def test_trial_at_budget_whose_proper_coloring_the_program_rejects_fails_the_check():
    failed, problems, _ = checks.check_trial(trial(GOOD, 4, False), NODES, EDGES)
    assert not failed and "rejects a coloring the scan accepts" in problems[0]


def tournament_rows():
    rows = []
    for locality in (1, 2):
        for victim in ("greedy", "akbari"):
            rows.append({"adversary": "theorem1-grid", "victim": victim, "locality": locality,
                         "won": True, "forfeit": False, "reason": "monochromatic-edge",
                         "spec_hash": f"g{victim}{locality}"})
        rows.append({"adversary": "theorem5-reduction", "victim": "(fixed)", "locality": locality,
                     "won": True, "forfeit": False, "reason": "x", "spec_hash": f"r{locality}"})
    expected = {(r["adversary"], r["victim"], r["locality"]) for r in rows}
    return rows, expected


def test_tournament_rows_pass_when_every_game_is_won():
    rows, expected = tournament_rows()
    assert checks.check_tournament_rows(rows, expected) == (0, [])


def test_tournament_row_lost_on_the_board_fails_the_check():
    rows, expected = tournament_rows()
    rows[0] = dict(rows[0], won=False, reason="survived")
    failed, problems = checks.check_tournament_rows(rows, expected)
    assert failed == 0 and "not won" in problems[0]


def test_tournament_forfeit_is_a_failed_game():
    rows, expected = tournament_rows()
    rows[1] = dict(rows[1], won=True, forfeit=True, reason="forfeit:timeout")
    assert checks.check_tournament_rows(rows, expected) == (1, [])


def test_tournament_duplicate_or_missing_game_fails_the_check():
    rows, expected = tournament_rows()
    duplicated = rows[:-1] + [dict(rows[-1], spec_hash=rows[0]["spec_hash"])]
    _, problems = checks.check_tournament_rows(duplicated, expected)
    assert any("distinct spec hashes" in p for p in problems)
    _, problems = checks.check_tournament_rows(rows[:-1], expected)
    assert any("1 missing" in p for p in problems)


ROWS = [{"spec_hash": f"h{i}", "won": True, "n": i} for i in range(7)]
CID = "c" * 64


def test_expansion_order_follows_the_spec_not_the_store():
    payload = {"localities": [2, 1], "adversaries": ["b", {"name": "theorem5-reduction"}, "a"],
               "victims": ["y", "x"]}
    rows = [{"adversary": a, "victim": v, "locality": t}
            for t in (1, 2) for a in ("a", "b") for v in ("x", "y")]
    rows += [{"adversary": "theorem5-reduction", "victim": "(fixed)", "locality": t} for t in (1, 2)]
    ordered = checks.expansion_order(payload, list(reversed(rows)))
    assert [(r["locality"], r["adversary"], r["victim"]) for r in ordered][:4] == [
        (2, "b", "y"), (2, "b", "x"), (2, "theorem5-reduction", "(fixed)"), (2, "a", "y"),
    ]
    assert len(ordered) == len(rows)


def test_status_check():
    good = {"id": CID, "state": "stored", "done": 7, "total": 7}
    assert checks.check_status(good, CID, 7) == []
    assert checks.check_status(dict(good, id="d" * 64), CID, 7)
    assert checks.check_status(dict(good, state="running"), CID, 7)
    assert checks.check_status(dict(good, done=6), CID, 7)


def test_page_check():
    good = {"campaign_id": CID, "total": 7, "rows": ROWS[2:5]}
    assert checks.check_page(good, CID, ROWS, 2, 3) == []
    wrong_row = dict(good, rows=[ROWS[2], dict(ROWS[3], won=False), ROWS[4]])
    assert "differ" in checks.check_page(wrong_row, CID, ROWS, 2, 3)[0]
    shifted = dict(good, rows=ROWS[3:6])
    assert checks.check_page(shifted, CID, ROWS, 2, 3)
    assert checks.check_page(dict(good, total=8), CID, ROWS, 2, 3)


def test_lookup_check():
    assert checks.check_lookup(ROWS[3], "h3", ROWS[3]) == []
    assert "returned" in checks.check_lookup(ROWS[4], "h3", ROWS[3])[0]
    assert "differs" in checks.check_lookup(dict(ROWS[3], n=99), "h3", ROWS[3])[0]


def test_ledger_check():
    good = {"campaign": "x", "played": 16, "errors": 0}
    assert checks.check_ledger(good, 16) == []
    assert checks.check_ledger(dict(good, played=15), 16)
    assert checks.check_ledger(dict(good, errors=1), 16)
    assert checks.check_ledger(None, 16)


def test_inputs_depend_only_on_the_seed():
    nodes = [(i, j) for i in range(8) for j in range(8)]
    assert inputs.scattered_order(nodes, 5, "x") == inputs.scattered_order(list(reversed(nodes)), 5, "x")
    assert inputs.scattered_order(nodes, 5, "x") != inputs.scattered_order(nodes, 6, "x")
    assert sorted(inputs.scattered_order(nodes, 5, "x")) == sorted(nodes)
    assert inputs.serve_inputs(3) == inputs.serve_inputs(3)
    plan = inputs.read_plan(3, {CID: 7}, ["h1", "h2"])
    assert plan == inputs.read_plan(3, {CID: 7}, ["h2", "h1"])
    assert len(plan) == inputs.READS


def test_a_metric_whose_functions_are_gone_is_reported_missing():
    import tracing

    assert tracing._resolve("repro.no_such_module:gone") == (None, None, None)
    snapshot = {
        "pid": 1,
        "layers": {name: {"self_s": 0.0, "outer_calls": 0} for name in tracing.LAYERS},
        "calls": {"repro.graphs.graph:Graph.add_edge": 5},
        "fn_self_s": {},
        "extra": {},
        "installed": ["repro.graphs.graph:Graph.add_edge"],
        "installed_layers": ["graphs.build"],
        "missing": ["repro.graphs.traversal:BallCache.ball"],
        "records": [],
    }
    metrics = tracing.layer_metrics(tracing.merge([snapshot]))
    assert metrics["graphs.add_edge_calls"] == (5, "count", False)
    assert metrics["graphs.build_s"][2] is False
    assert metrics["graphs.ball_calls"][2] is True
    assert metrics["graphs.ball_s"][2] is True
    assert set(metrics) == set(tracing.METRICS)
