"""Output checks, computed apart from the program.

Each checker takes plain data (edge lists, colorings, rows, decoded
responses) and returns a list of problems; an empty list means the
output passed.  None of them imports the program.
"""

from __future__ import annotations

import hashlib
import json


def canonical(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=str)


def digest(value):
    return hashlib.sha256(canonical(value).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Colorings
# ----------------------------------------------------------------------


def scan_coloring(nodes, edges, coloring, max_colors):
    """Scan a coloring against the instance's own node and edge lists.

    Returns ``(proper, problems)``: ``proper`` is True when every node
    is colored with a color in ``1..max_colors`` and no edge is
    monochromatic; ``problems`` names the first few violations.
    """
    problems = []
    uncolored = [node for node in nodes if node not in coloring]
    if uncolored:
        problems.append(f"{len(uncolored)} uncolored nodes, e.g. {uncolored[0]!r}")
    bad = sorted({c for c in coloring.values() if not (isinstance(c, int) and 1 <= c <= max_colors)}, key=repr)
    if bad:
        problems.append(f"colors {bad} outside 1..{max_colors}")
    for u, v in edges:
        cu = coloring.get(u)
        if cu is not None and cu == coloring.get(v):
            problems.append(f"monochromatic edge {u!r}~{v!r} (color {cu})")
            break
    return not problems, problems


def check_trial(trial, nodes, edges):
    """Check one survival trial.

    ``trial`` carries ``locality``, ``budget``, ``max_colors``,
    ``coloring`` (possibly partial), ``verdict`` (the program's own
    verdict, False when the run raised) and ``error``.  At or above the
    budget the coloring must pass the scan, else the trial is a failed
    operation.  Below it the program's verdict must match the scan, else
    the check fails.  Returns ``(failed, problems, note)``: ``note`` says
    why a failed trial failed.
    """
    proper, scan_problems = scan_coloring(nodes, edges, trial["coloring"], trial["max_colors"])
    label = f"{trial['case']} T={trial['locality']} order {trial['order']}"
    if trial["locality"] >= trial["budget"]:
        if trial["error"] or not proper:
            reason = trial["error"] or "; ".join(scan_problems)
            return True, [], f"{label}: failed at or above the budget: {reason}"
        if not trial["verdict"]:
            return False, [f"{label}: the program rejects a coloring the scan accepts"], ""
        return False, [], ""
    if bool(trial["verdict"]) != proper:
        return False, [
            f"{label}: program verdict {trial['verdict']} but the scan says {proper}"
            + (f" ({'; '.join(scan_problems)})" if scan_problems else "")
        ], ""
    return False, [], ""


# ----------------------------------------------------------------------
# Tournament rows
# ----------------------------------------------------------------------


def check_tournament_rows(rows, expected_games, fixed_victim_adversaries=("theorem5-reduction",)):
    """Every row of the honest sweep must be won on the board.

    Returns ``(failed, problems)``: ``failed`` counts forfeit rows (a
    failed game); a row the adversary lost without a forfeit, a
    duplicate, or a missing game is a problem.  ``expected_games`` is
    the set of ``(adversary, victim, locality)`` triples the sweep
    covers; fixed-victim adversaries are matched on adversary and
    locality only.
    """
    problems = []
    failed = 0
    hashes = [row.get("spec_hash") for row in rows]
    if len(set(hashes)) != len(hashes) or None in hashes:
        problems.append(f"{len(hashes)} rows but {len(set(hashes) - {None})} distinct spec hashes")
    seen = set()
    for row in rows:
        adversary = row.get("adversary")
        victim = None if adversary in fixed_victim_adversaries else row.get("victim")
        seen.add((adversary, victim, row.get("locality")))
        if row.get("forfeit"):
            failed += 1
        elif row.get("won") is not True:
            problems.append(
                f"{adversary} vs {row.get('victim')} at T={row.get('locality')}: "
                f"not won ({row.get('reason')!r})"
            )
    expected = {
        (a, None if a in fixed_victim_adversaries else v, t) for a, v, t in expected_games
    }
    if seen != expected:
        problems.append(
            f"games differ from the sweep: {len(expected - seen)} missing, "
            f"{len(seen - expected)} unexpected"
        )
    return failed, problems


# ----------------------------------------------------------------------
# Served responses
# ----------------------------------------------------------------------


def expansion_order(payload, rows, fixed_victim_adversaries=("theorem5-reduction",)):
    """``rows`` (one campaign's rows, any order) in the order its spec
    expands: locality, then adversary, then victim, as listed in the
    campaign payload.  A game without a row is skipped."""
    by_game = {}
    for row in rows:
        victim = None if row["adversary"] in fixed_victim_adversaries else row["victim"]
        by_game[(row["locality"], row["adversary"], victim)] = row
    ordered = []
    for locality in payload["localities"]:
        for adversary in payload["adversaries"]:
            name = adversary if isinstance(adversary, str) else adversary["name"]
            if name in fixed_victim_adversaries:
                victims = [None]
            else:
                victims = payload["victims"]
            for victim in victims:
                row = by_game.get((locality, name, victim))
                if row is not None:
                    ordered.append(row)
    return ordered


def check_status(body, campaign_id, rows_total):
    """A status read of a stored or finished campaign."""
    problems = []
    if body.get("id") != campaign_id:
        problems.append(f"status of {campaign_id[:12]} returned id {str(body.get('id'))[:12]}")
    if body.get("state") not in ("stored", "done"):
        problems.append(f"status of {campaign_id[:12]}: state {body.get('state')!r}")
    if body.get("done") != rows_total or body.get("total") != rows_total:
        problems.append(
            f"status of {campaign_id[:12]}: done/total {body.get('done')}/{body.get('total')}, "
            f"expected {rows_total}/{rows_total}"
        )
    return problems


def check_page(body, campaign_id, reference_rows, offset, limit):
    """A row page must equal the reference rows' slice."""
    problems = []
    expected = reference_rows[offset:offset + limit]
    if body.get("campaign_id") != campaign_id or body.get("total") != len(reference_rows):
        problems.append(
            f"page of {campaign_id[:12]}: header {str(body.get('campaign_id'))[:12]}/"
            f"{body.get('total')} expected total {len(reference_rows)}"
        )
    if canonical(body.get("rows")) != canonical(expected):
        problems.append(f"page of {campaign_id[:12]} at {offset}+{limit}: rows differ from the reference")
    return problems


def check_lookup(body, spec_hash, reference_row):
    """A point lookup must return the row for the hash asked for."""
    if body.get("spec_hash") != spec_hash:
        return [f"lookup of {spec_hash[:12]} returned {str(body.get('spec_hash'))[:12]}"]
    if canonical(body) != canonical(reference_row):
        return [f"lookup of {spec_hash[:12]}: row differs from the reference"]
    return []


def check_ledger(entry, expected_games):
    """The run-ledger entry of the timed campaign."""
    if entry is None:
        return ["no run-ledger entry for the timed campaign"]
    problems = []
    if entry.get("played") != expected_games:
        problems.append(f"ledger: played {entry.get('played')}, expansion has {expected_games}")
    if entry.get("errors"):
        problems.append(f"ledger: errors {entry.get('errors')}")
    if entry.get("quarantined"):
        problems.append(f"ledger: quarantined {entry.get('quarantined')}")
    return problems
