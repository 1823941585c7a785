"""The set value by its definition, from a game's JSON document alone.

A reference for the exact engines that shares no code with them: it reads the
document (the dict ``gameval.io.dump_game`` writes, or its JSON file loaded)
with ``fractions`` and ``itertools`` only, and computes, for the full variant
at eps 0:

* every pure closed-loop, path-dependent profile below a start prefix: one
  joint action at each prefix where play goes on;
* each profile's cost J, the expectation over paths of the running costs of
  the players' own actions plus the terminal cost where the path ends;
* each player's deviation value, the least J over that player's own
  path-dependent policies with the others' fixed, read off the same table
  (every such deviation is itself a profile of the table);
* the Nash values: the J of every profile where no player gains by deviating.

A game may stop early at given prefixes, each with its terminal vector.
Every profile is listed, so keep the specs small: |joint actions| to the
power of the number of decision prefixes.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


class Game:
    """A game document read into rationals, keyed by prefixes (tuples of
    state labels)."""

    def __init__(self, doc: dict):
        self.horizon = doc["horizon"]
        self.states = doc["states"]
        self.actions = doc["actions"]
        self.markov = doc.get("flags", {}).get("state_dependent", False)
        self.kernel = {}
        for key, vec in doc["transitions"].items():
            t, where, joint = key.split("|")
            labels = tuple(joint.split(","))
            joint = tuple(acts.index(a) for acts, a in zip(self.actions, labels))
            probs = {s: Fraction(p) for s, p in vec.items()}
            self.kernel[(int(t), where, joint)] = probs
        self.running = [
            {tuple(key.split("|")): Fraction(c) for key, c in table.items()}
            for table in doc["running_costs"]
        ]
        self.terminal = [
            {where: Fraction(c) for where, c in table.items()} for table in doc["terminal_costs"]
        ]
        self.joints = list(itertools.product(*(range(len(a)) for a in self.actions)))

    def _where(self, prefix) -> str:
        return prefix[-1] if self.markov else "/".join(prefix)

    def next_states(self, prefix, joint) -> list:
        """(state, probability) of every next state, zeros included."""
        probs = self.kernel[(len(prefix) - 1, self._where(prefix), joint)]
        return [(s, probs.get(s, Fraction(0))) for s in self.states[len(prefix)]]

    def running_cost(self, player: int, prefix, action: int) -> Fraction:
        key = (str(len(prefix) - 1), self._where(prefix), self.actions[player][action])
        return self.running[player][key]

    def terminal_cost(self, player: int, prefix) -> Fraction:
        return self.terminal[player][self._where(prefix)]

    def decision_prefixes(self, start, stops) -> list:
        """The prefixes at and below ``start`` where play goes on."""
        out, level = [], [tuple(start)]
        while level:
            level = [p for p in level if p not in stops and len(p) <= self.horizon]
            out += level
            level = [p + (s,) for p in level for s in self.states[len(p)]]
        return out

    def cost(self, profile: dict, start, stops) -> tuple:
        """J at ``start``: the expectation, over the paths from it to a stop
        or the horizon, of each player's costs along the path."""
        n = len(self.actions)
        total = [Fraction(0)] * n
        paths = [(tuple(start), Fraction(1), [Fraction(0)] * n)]
        while paths:
            prefix, prob, costs = paths.pop()
            if prefix in stops or len(prefix) == self.horizon + 1:
                end = stops.get(prefix) or [self.terminal_cost(i, prefix) for i in range(n)]
                for i in range(n):
                    total[i] += prob * (costs[i] + end[i])
                continue
            joint = profile[prefix]
            paid = [c + self.running_cost(i, prefix, a)
                    for i, (c, a) in enumerate(zip(costs, joint))]
            for s, p in self.next_states(prefix, joint):
                paths.append((prefix + (s,), prob * p, paid))
        return tuple(total)


def nash_values(doc: dict, start=None, stops=None) -> set:
    """The Nash values at ``start`` (default: the root) over pure
    path-dependent profiles, in the game that stops at the prefixes of
    ``stops`` (prefix -> terminal vector) when given."""
    game = Game(doc)
    stops = {tuple(p): tuple(map(Fraction, v)) for p, v in (stops or {}).items()}
    start = tuple(start or (game.states[0][0],))
    nodes = game.decision_prefixes(start, stops)
    table = {}
    for joints in itertools.product(game.joints, repeat=len(nodes)):
        table[joints] = game.cost(dict(zip(nodes, joints)), start, stops)
    deviation = [{} for _ in game.actions]  # per player: the others' parts -> least J
    for joints, value in table.items():
        for i, best in enumerate(deviation):
            key = tuple(j[:i] + j[i + 1 :] for j in joints)
            best[key] = min(best.get(key, value[i]), value[i])
    return {
        value
        for joints, value in table.items()
        if all(
            value[i] <= best[tuple(j[:i] + j[i + 1 :] for j in joints)]
            for i, best in enumerate(deviation)
        )
    }


def profile_count(doc: dict, start=None) -> int:
    """How many profiles :func:`nash_values` lists at ``start``."""
    game = Game(doc)
    start = tuple(start or (game.states[0][0],))
    return len(game.joints) ** len(game.decision_prefixes(start, {}))
