"""Workload inputs, generated from the workload seed alone.

Nothing here imports the program: the program receives only what these
functions return (reveal orders, campaign payloads, read lists).  Every
random choice comes from ``random.Random`` seeded with a string, which
is stable across processes and Python hash seeds.
"""

from __future__ import annotations

import math
import random

# ----------------------------------------------------------------------
# tournament
# ----------------------------------------------------------------------

#: The sweep: the default portfolio at these localities (48 games).
#: Locality 4 is left out: ``theorem5-reduction`` forfeits there on its
#: 30 s wall-clock timeout.
TOURNAMENT_LOCALITIES = (1, 2, 3)
TOURNAMENT_GAMES = 48


def rng(seed, label):
    return random.Random(f"perfbench:{seed}:{label}")


def tournament_inputs(seed, default_victims):
    """Campaign payload of the sweep: the default adversaries, the
    default victims in a seeded order, localities 1-3.  The order only
    changes the campaign's expansion order, not its games."""
    victims = list(default_victims)
    rng(seed, "tournament-victims").shuffle(victims)
    return {
        "version": 1,
        "kind": "sweep",
        "name": f"perfbench-tournament-{seed}",
        "victims": victims,
        "localities": list(TOURNAMENT_LOCALITIES),
    }


# ----------------------------------------------------------------------
# survival
# ----------------------------------------------------------------------

#: (grid side, localities, order seed); the first locality of each side
#: is the paper budget 3*ceil(log2 n), the others lie below it.  The
#: orders are drawn from the workload seed, except on the 64x64 grid:
#: Akbari is improper at T=36 there for some scattered orders (2 of the
#: 60 orders of seeds 1-30), so a seeded order would fail on some seeds
#: only.  The 64x64 orders are always seed 3's, whose order 1 is one of
#: those two: one failed trial in every battery, whatever the seed.
SURVIVAL_GRIDS = ((16, (24, 2), None), (32, (30, 4), None), (64, (36,), 3))
ORDERS_PER_CASE = 2
#: Theorem 4 families: (name, family, family args, oracle class, oracle
#: args).  The random k-trees take a seed derived from the workload seed.
UNIFY_FAMILIES = (
    ("triangular-grid", "triangular", (16,), "TriangularOracle", ()),
    ("ktree-k2", "ktree", (2, 120), "KTreeOracle", (2,)),
    ("ktree-k3", "ktree", (3, 90), "KTreeOracle", (3,)),
    ("hierarchy-g3", "hierarchy", (3, 7, 7), "CliqueChainOracle", (3, 3)),
)


def paper_budget(n):
    return 3 * math.ceil(math.log2(max(2, n)))


def scattered_order(nodes, seed, label):
    """A seeded scattered reveal order: shuffle, then interleave the two
    halves so that far-apart nodes come early and gaps are filled late
    (the order battery of the Corollary 1.1 experiment)."""
    order = sorted(nodes, key=repr)
    rng(seed, label).shuffle(order)
    half = len(order) // 2
    first, second = order[:half], order[half:]
    out = []
    for i, node in enumerate(second):
        out.append(node)
        if i < len(first):
            out.append(first[i])
    return out


def ktree_seed(seed, name):
    return rng(seed, f"ktree:{name}").randrange(1 << 30)


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------

ADVERSARIES = (
    "theorem1-grid", "theorem2-torus", "theorem2-cylinder",
    "theorem3-gadget(2k-2)", "corollary13-gadget(k+1)", "theorem5-reduction",
)
GADGETS = ("theorem3-gadget(2k-2)", "corollary13-gadget(k+1)")
GADGETS_K4 = tuple({"name": name, "params": {"k": 4}} for name in GADGETS)
TORI = ("theorem2-torus", "theorem2-cylinder")
VICTIMS = ("greedy", "akbari", "local-canonical")

#: Reads per round, rounds per repetition (the same read list each
#: round), and the share of each kind in the mix.
READS = 300
READ_ROUNDS = 10
READ_MIX = (("status", 0.4), ("page", 0.3), ("lookup", 0.3))
PAGE_LIMITS = (5, 10, 20, 50)


def _campaign(name, adversaries, victims, localities):
    return {
        "version": 1,
        "kind": "sweep",
        "name": name,
        "adversaries": list(adversaries),
        "victims": list(victims),
        "localities": list(localities),
    }


def serve_inputs(seed):
    """The serve workload's campaigns.

    * ``population``: 52 quick games in four campaigns, played into the
      store before the server starts: the default portfolio at locality
      1, the k=4 gadget adversaries at localities 1-2, the torus and
      cylinder adversaries at localities 5-6, and the k=3 gadget
      adversaries at localities 4-5.  No game is in two campaigns.  The seed sets the adversary and
      victim order of every campaign and the names; the games are the
      same for every seed.
    * ``warmup``: 6 games submitted through the server with 2 workers
      before the timed part, so the timed campaign runs on the warm
      workers a long-lived server has.
    * ``fresh``: the timed campaign, the default portfolio at localities
      2-3 (32 games) with 2 workers, in a seeded order.
    """
    r = rng(seed, "serve")

    def shuffled(items):
        items = list(items)
        r.shuffle(items)
        return items

    population = [
        _campaign(f"perfbench-portfolio-T1-{seed}", shuffled(ADVERSARIES), shuffled(VICTIMS), [1]),
        _campaign(f"perfbench-gadgets-k4-{seed}", shuffled(GADGETS_K4), shuffled(VICTIMS), [1, 2]),
        _campaign(f"perfbench-tori-{seed}", shuffled(TORI), shuffled(VICTIMS), [5, 6]),
        _campaign(f"perfbench-gadgets-k3-{seed}", shuffled(GADGETS), shuffled(VICTIMS), [4, 5]),
    ]
    warmup = _campaign(f"perfbench-warmup-{seed}", shuffled(TORI), shuffled(VICTIMS), [4])
    fresh = _campaign(f"perfbench-fresh-{seed}", shuffled(ADVERSARIES), shuffled(VICTIMS), [2, 3])
    return {"population": population, "warmup": warmup, "fresh": fresh}


def read_plan(seed, campaigns, hashes):
    """The seeded read list: ``campaigns`` maps campaign id -> row count
    for the campaigns in the store, ``hashes`` lists the stored row
    hashes.  Returns dicts ``{"kind", "target", "offset", "limit"}``;
    read ``i`` is sent by client ``i % 2``."""
    r = rng(seed, "reads")
    ids = sorted(campaigns)
    hashes = sorted(hashes)
    kinds = [kind for kind, _ in READ_MIX]
    weights = [weight for _, weight in READ_MIX]
    plan = []
    for _ in range(READS):
        kind = r.choices(kinds, weights)[0]
        if kind == "lookup":
            plan.append({"kind": kind, "target": r.choice(hashes)})
            continue
        target = r.choice(ids)
        if kind == "status":
            plan.append({"kind": kind, "target": target})
        else:
            limit = r.choice(PAGE_LIMITS)
            offset = r.randrange(max(1, campaigns[target]))
            plan.append({"kind": kind, "target": target, "offset": offset, "limit": limit})
    return plan
