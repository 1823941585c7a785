"""JSON ingestion and export.

Game specs travel as structured JSON with rationals serialized as "p/q"
strings, so a load/dump round trip is bit-exact. Result payloads (value sets,
reports, witness policies) use the same rational encoding.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from fractions import Fraction
from operator import mul
from pathlib import Path
from typing import Any

from .errors import GameValidationError
from .model import GameSpec, PathTree, Policy, Prefix, _over_lcm

KEY_SEP = "|"
PATH_SEP = "/"


def frac_from_str(text: str) -> Fraction:
    return Fraction(*_ratio(text))


def _ratio(text) -> tuple[int, int]:
    """A rational string's (or JSON integer's) numerator and denominator, in lowest terms."""
    if type(text) is str and text.isascii():
        # Plain "-?digits[/digits]" text skips Fraction's regular-expression parse.
        num, slash, den = text.partition("/")
        if num.removeprefix("-").isdigit() and (den.isdigit() or not slash):
            n, d = int(num), int(den) if slash else 1
            if d:
                g = math.gcd(n, d)
                return n // g, d // g
    if _is_int(text):
        return text, 1
    if not isinstance(text, str):
        raise GameValidationError(f"expected rational string, got {text!r}")
    try:
        return Fraction(text.strip()).as_integer_ratio()
    except (ValueError, ZeroDivisionError) as exc:
        raise GameValidationError(f"bad rational {text!r}") from exc


def _is_int(value) -> bool:
    """A JSON integer; a JSON boolean, which Python reads as an int, is not one."""
    return isinstance(value, int) and not isinstance(value, bool)


def _digits(text: str) -> bool:
    return text.isascii() and text.isdigit()


def frac_to_str(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _prefix_to_str(prefix: Prefix) -> str:
    return PATH_SEP.join(prefix)


def _prefix_from_str(text: str) -> Prefix:
    return tuple(text.split(PATH_SEP))


def _typed(value, kind: type, what: str):
    """``value`` when it is a JSON object (dict) or array (list), as ``kind`` asks."""
    if not isinstance(value, kind):
        name = "an object" if kind is dict else "an array"
        raise GameValidationError(f"{what} must be {name}, got {type(value).__name__}")
    return value


def _integer(value, what: str) -> int:
    """An integer given as a JSON number or a string of digits."""
    if _is_int(value) or isinstance(value, str) and _digits(value):
        return int(value)
    raise GameValidationError(f"{what} must be an integer, got {value!r}")


def _label_lists(value, what: str) -> list[list]:
    """A JSON array of string-label arrays (states per time, actions per player)."""
    labels = _typed(value, list, what)
    out = [list(_typed(level, list, f"{what}[{k}]")) for k, level in enumerate(labels)]
    for k, level in enumerate(out):
        for label in level:
            if type(label) is not str:
                raise GameValidationError(f"{what}[{k}] labels must be strings, got {label!r}")
    return out


def read_json(path: str | Path, what: str) -> dict:
    """The JSON object in the file at ``path``; ``what`` names the file in errors."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise GameValidationError(f"{what} {str(path)!r} is not JSON: {exc}") from exc
    return _typed(doc, dict, f"{what} {str(path)!r}")


def load_game(source: str | Path | dict) -> GameSpec:
    """Parse a game spec from a JSON file path or an already-loaded dict."""
    if isinstance(source, (str, Path)):
        raw = read_json(source, "spec file")
    else:
        raw = _typed(source, dict, "game document")
    try:
        horizon = _integer(raw["horizon"], "horizon")
        players = _integer(raw["players"], "players")
        states = _label_lists(raw["states"], "states")
        actions = _label_lists(raw["actions"], "actions")
        flags = _typed(raw.get("flags", {}), dict, "flags")
        state_dependent = flags.get("state_dependent", False)
        if not isinstance(state_dependent, bool):
            raise GameValidationError(
                f"state_dependent must be true or false, got {state_dependent!r}"
            )
        raw_trans = _typed(raw["transitions"], dict, "transitions")
        raw_running = _typed(raw["running_costs"], list, "running_costs")
        raw_terminal = _typed(raw["terminal_costs"], list, "terminal_costs")
    except KeyError as exc:
        raise GameValidationError(f"malformed game document: missing {exc}") from exc
    # A label holding a separator makes keys that do not split back into their parts.
    state_seps = KEY_SEP if state_dependent else KEY_SEP + PATH_SEP
    for what, levels, seps in (("states", states, state_seps), ("actions", actions, KEY_SEP + ",")):
        for (k, level), sep in itertools.product(enumerate(levels), seps):
            for label in level:
                if sep in label:
                    raise GameValidationError(
                        f"{what}[{k}] label {label!r} contains {sep!r}, a key separator"
                    )
    if players != len(actions):
        raise GameValidationError("players count disagrees with actions table")
    if len(raw_running) != players or len(raw_terminal) != players:
        raise GameValidationError(
            f"need one running-cost and one terminal-cost table per player: {players} players, "
            f"{len(raw_running)} running-cost and {len(raw_terminal)} terminal-cost tables"
        )

    spec = GameSpec(horizon, states, actions, state_dependent, len(raw_trans))
    n, final = len(spec.joint_actions), spec.offset[horizon]

    def find_action(i: int, label: str) -> int:
        try:
            return actions[i].index(label)
        except ValueError as exc:
            raise GameValidationError(f"unknown action {label!r} for player {i}") from exc

    # A spec repeats few distinct rationals, probability vectors, action parts
    # and ``t|where`` heads, so this load parses each once; equal data share
    # one object. A miss takes the unmemoized path, so a bad datum raises at
    # its first key, and only then is that key formatted into the message.
    ratios: dict[str, tuple[int, int]] = {}
    by_labels: dict[tuple[str, ...], dict] = {}  # levels with one label list share a memo
    vectors = [by_labels.setdefault(tuple(level), {}) for level in states]
    joints: dict[str, int] = {}
    owns: list[dict[str, int]] = [{} for _ in actions]
    heads: dict[str, tuple[int, Any, int | None]] = {}

    def ratio(value, table: str, key_text: str, player: int | None = None) -> tuple[int, int]:
        try:
            if type(value) is not str:  # a number, a boolean or worse: no memo
                return _ratio(value)
            out = ratios.get(value)
            if out is None:
                out = ratios[value] = _ratio(value)
            return out
        except GameValidationError as exc:
            whose = "" if player is None else f" of player {player}"
            raise GameValidationError(f"{table} {key_text!r}{whose}: {exc}") from exc

    def place(head: str, key_text: str, kind: str) -> tuple[int, Any, int | None]:
        """A ``t|where`` head's time, key and row (None if no row has that key)."""
        digits, sep, where = head.partition(KEY_SEP)
        if not sep or KEY_SEP in where or not _digits(digits):
            raise GameValidationError(f"bad {kind} key {key_text!r}")
        t, key = int(digits), where if state_dependent else _prefix_from_str(where)
        out = heads[head] = (t, key, spec._row(t, key))
        return out

    # Each datum goes straight into its row's slot (see GameSpec._check); a key
    # that fills no slot is noted, and a slot filled twice names both keys.
    kern: dict[int, tuple] = {}
    unread: dict[str, tuple] = {}
    for key_text, vec in raw_trans.items():
        head, _, action_part = key_text.rpartition(KEY_SEP)
        t, key, row = heads.get(head) or place(head, key_text, "transition")
        j = joints.get(action_part)
        if j is None:
            labels = action_part.split(",")
            if len(labels) != players:
                raise GameValidationError(
                    f"transition key {key_text!r} must list one action per player"
                )
            j = joints[action_part] = sum(
                map(mul, map(find_action, range(players), labels), spec.strides)
            )
        if t + 1 > horizon:
            raise GameValidationError(f"transition key {key_text!r} beyond horizon")
        if not isinstance(vec, dict):
            raise GameValidationError(f"transition {key_text!r} must be an object of probabilities")
        memo = vectors[t + 1]
        try:  # the memo holds string values only, which no other JSON value equals
            probs = memo.get(items := tuple(vec.items()))
        except TypeError:  # an array or an object among the values
            probs = None
        if probs is None:
            level = states[t + 1]
            probs = _over_lcm([ratio(vec.get(s, "0"), "transition", key_text) for s in level])
            for s in vec:
                if s not in level:
                    raise GameValidationError(f"unknown successor state {s!r} in {key_text!r}")
            if all(type(p) is str for p in vec.values()):
                memo[items] = probs
        if row is None:
            unread.setdefault("transition", (t, key))
        elif row * n + j in kern:
            raise _named_twice("transition", raw_trans, key_text)
        else:
            kern[row * n + j] = probs

    cost: list[dict[int, tuple[int, int]]] = []
    for i, table in enumerate(raw_running):
        size, slots = len(actions[i]), {}
        table = _typed(table, dict, f"running costs of player {i}")
        for key_text, value in table.items():
            head, _, label = key_text.rpartition(KEY_SEP)
            t, key, row = heads.get(head) or place(head, key_text, "running-cost")
            a = owns[i].get(label)
            if a is None:
                if "," in label:
                    raise GameValidationError(
                        f"running cost {key_text!r} keys a joint action; costs take only "
                        "the player's own action"
                    )
                a = owns[i][label] = find_action(i, label)
            c = ratio(value, "running cost", key_text, i)
            if row is None or t == horizon:
                unread.setdefault(f"running cost of player {i}", (t, key))
            elif row * size + a in slots:
                raise _named_twice("running-cost", table, key_text, f" of player {i}")
            else:
                slots[row * size + a] = c
        cost.append(slots)

    # A terminal key is the final state or path itself, so no two name one
    # datum; each player's table repeats the keys, placed once.
    end: list[dict[int, tuple[int, int]]] = []
    finals: dict[str, tuple] = {}
    for i, table in enumerate(raw_terminal):
        slots = {}
        for key_text, value in _typed(table, dict, f"terminal costs of player {i}").items():
            if key_text not in finals:
                key = key_text if state_dependent else _prefix_from_str(key_text)
                finals[key_text] = key, spec._row(horizon, key)
            key, row = finals[key_text]
            c = ratio(value, "terminal cost", key_text, i)
            if row is None:
                unread.setdefault(f"terminal cost of player {i}", (horizon, key))
            else:
                slots[row - final] = c
        end.append(slots)
    spec._check(kern, cost, end, unread)
    return spec


def _named_twice(what: str, table: dict, key_text: str, whose: str = "") -> GameValidationError:
    """The error for ``key_text``, whose slot an earlier key of ``table`` filled:
    the two differ in their time's digits alone (``0|s0|0`` and ``00|s0|0``)."""
    t, _, rest = key_text.partition(KEY_SEP)
    tail = KEY_SEP + rest
    first = next(k for k in table if k.endswith(tail) and int(k[: -len(tail)]) == int(t))
    return GameValidationError(f"{what} keys {first!r} and {key_text!r}{whose} name one datum")


def dump_game(spec: GameSpec) -> dict:
    """Serialize a spec to a JSON-ready dict; inverse of :func:`load_game`.

    Written from the spec's scaled tables (a weight w at level t stands for
    w·scale[t+1]/scale[t], a cost c for c/scale[t]), each table's keys in row
    order, every rational in lowest terms.
    """
    joints = [",".join(map(tuple.__getitem__, spec.actions, j)) for j in spec.joint_actions]
    scale, horizon = spec.scale, spec.horizon
    trans_out: dict[str, dict[str, str]] = {}
    running_out: list[dict[str, str]] = [{} for _ in spec.actions]
    for t in range(horizon):
        level, ratio = spec.states[t + 1], scale[t] // scale[t + 1]
        texts = functools.cache(lambda vec: [frac_to_str(Fraction(w, ratio)) for w in vec])
        for row, where in enumerate(_wheres(spec, t), spec.offset[t]):
            head = f"{t}{KEY_SEP}{where}{KEY_SEP}"
            for part, vec in zip(joints, spec.kern[row]):
                trans_out[head + part] = dict(zip(level, texts(vec)))
            for acts, entry, own in zip(spec.actions, running_out, spec.cost[row]):
                for label, cost in zip(acts, own):
                    entry[head + label] = frac_to_str(Fraction(cost, scale[t]))
    finals = list(zip(_wheres(spec, horizon), spec.end[spec.offset[horizon] :]))
    terminal_out = [
        {where: frac_to_str(Fraction(end[i], scale[horizon])) for where, end in finals}
        for i in range(spec.n_players)
    ]
    return {
        "horizon": spec.horizon,
        "players": spec.n_players,
        "states": [list(level) for level in spec.states],
        "actions": [list(acts) for acts in spec.actions],
        "flags": {"state_dependent": spec.state_dependent},
        "transitions": trans_out,
        "running_costs": running_out,
        "terminal_costs": terminal_out,
    }


def _wheres(spec: GameSpec, t: int):
    """Level t's keys as the document spells them, in row order."""
    if spec.state_dependent:
        return spec.states[t]
    return map(_prefix_to_str, itertools.product(*spec.states[: t + 1]))


# -- result payloads ---------------------------------------------------------


def vector_to_json(vec) -> list[str]:
    return [frac_to_str(v) if isinstance(v, Fraction) else repr(v) for v in vec]


def value_set_to_json(vs) -> dict:
    return {
        "points": [vector_to_json(p) for p in vs.points],
        "epsilon": frac_to_str(vs.epsilon) if isinstance(vs.epsilon, Fraction) else vs.epsilon,
    }


def policy_to_json(spec: GameSpec, tree: PathTree, policy: Policy) -> dict:
    actions = {}
    for nid in sorted(policy.actions):
        node = tree.node(nid)
        joint = policy.actions[nid]
        key = f"{node.t}{KEY_SEP}{_prefix_to_str(node.prefix)}"
        actions[key] = [spec.actions[i][a] for i, a in enumerate(joint)]
    return {"class": policy.policy_class, "actions": actions}


def record_to_json(spec: GameSpec, tree: PathTree, record) -> dict:
    return {
        "value": vector_to_json(record.value),
        "slack": vector_to_json(record.slack),
        "policy": policy_to_json(spec, tree, record.policy),
    }


def report_to_json(report) -> dict:
    out = {
        "relation": report.relation,
        "lhs": value_set_to_json(report.lhs),
        "rhs": value_set_to_json(report.rhs),
        "lhs_only": [vector_to_json(p) for p in report.lhs_only],
        "rhs_only": [vector_to_json(p) for p in report.rhs_only],
    }
    if report.context:
        out["context"] = report.context
    return out


def write_json(payload: dict, path: str | Path | None) -> str:
    text = json.dumps(payload, indent=1, sort_keys=True)
    if path is not None:
        Path(path).write_text(text + "\n", "utf-8")
    return text
