"""JSON ingestion and export.

Game specs travel as structured JSON with rationals serialized as "p/q"
strings, so a load/dump round trip is bit-exact. Result payloads (value sets,
reports, witness policies) use the same rational encoding.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Any

from .errors import GameValidationError
from .model import GameSpec, PathTree, Policy, Prefix

KEY_SEP = "|"
PATH_SEP = "/"


def frac_from_str(text: str) -> Fraction:
    if _is_int(text):
        return Fraction(text)
    if not isinstance(text, str):
        raise GameValidationError(f"expected rational string, got {text!r}")
    try:
        # Plain "-?digits[/digits]" text skips Fraction's regular-expression parse.
        num, slash, den = text.partition("/")
        if _digits(num.removeprefix("-")) and (not slash or _digits(den)):
            return Fraction(int(num), int(den) if slash else 1)
        return Fraction(text.strip())
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


def _encode_key(t: int, key, action_part: str) -> str:
    where = key if isinstance(key, str) else _prefix_to_str(key)
    return KEY_SEP.join((str(t), where, action_part))


def _split_key(key_text: str, kind: str, state_dependent: bool) -> tuple[int, Any, str]:
    """A ``t|where|action`` key's time, location and action part."""
    parts = key_text.split(KEY_SEP)
    if len(parts) != 3 or not _digits(parts[0]):
        raise GameValidationError(f"bad {kind} key {key_text!r}")
    t, where, action_part = parts
    return int(t), where if state_dependent else _prefix_from_str(where), action_part


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
    if len(states) != horizon + 1:  # checked before a transition reads states[t + 1]
        raise GameValidationError(f"need {horizon + 1} state levels, got {len(states)}")
    if players != len(actions):
        raise GameValidationError("players count disagrees with actions table")
    if len(raw_running) != players or len(raw_terminal) != players:
        raise GameValidationError(
            f"need one running-cost and one terminal-cost table per player: {players} players, "
            f"{len(raw_running)} running-cost and {len(raw_terminal)} terminal-cost tables"
        )

    def find_action(i: int, label: str) -> int:
        try:
            return actions[i].index(label)
        except ValueError as exc:
            raise GameValidationError(f"unknown action {label!r} for player {i}") from exc

    # A spec repeats few distinct rationals, probability vectors and action
    # parts, so this load parses each once; equal data share one object. A
    # miss takes the unmemoized path, so a bad datum raises at its first key,
    # and only then is that key formatted into the message.
    fracs: dict[str, Fraction] = {}
    vectors: dict[tuple[str, ...], tuple[Fraction, ...]] = {}
    joints: dict[str, tuple[int, ...]] = {}

    def frac(value, table: str, key_text: str, player: int | None = None) -> Fraction:
        try:
            if type(value) is not str:  # a number, a boolean or worse: no memo
                return frac_from_str(value)
            out = fracs.get(value)
            if out is None:
                out = fracs[value] = frac_from_str(value)
            return out
        except GameValidationError as exc:
            whose = "" if player is None else f" of player {player}"
            raise GameValidationError(f"{table} {key_text!r}{whose}: {exc}") from exc

    transitions: dict = {}
    for key_text, vec in raw_trans.items():
        t, where, action_part = _split_key(key_text, "transition", state_dependent)
        joint = joints.get(action_part)
        if joint is None:
            labels = action_part.split(",")
            if len(labels) != players:
                raise GameValidationError(
                    f"transition key {key_text!r} must list one action per player"
                )
            joint = joints[action_part] = tuple(
                find_action(i, lab) for i, lab in enumerate(labels)
            )
        if t + 1 > horizon:
            raise GameValidationError(f"transition key {key_text!r} beyond horizon")
        level = states[t + 1]
        if not isinstance(vec, dict):
            raise GameValidationError(f"transition {key_text!r} must be an object of probabilities")
        raw = tuple(vec.get(s, "0") for s in level)
        if all(type(p) is str for p in raw):  # hashable, and True never meets 1
            probs = vectors.get(raw)
            if probs is None:
                probs = vectors[raw] = tuple([frac(p, "transition", key_text) for p in raw])
        else:
            probs = tuple([frac(p, "transition", key_text) for p in raw])
        for s in vec:
            if s not in level:
                raise GameValidationError(f"unknown successor state {s!r} in {key_text!r}")
        transitions[(t, where, joint)] = probs

    running: list[dict] = []
    for i, table in enumerate(raw_running):
        entry: dict = {}
        for key_text, cost in _typed(table, dict, f"running costs of player {i}").items():
            t, where, label = _split_key(key_text, "running-cost", state_dependent)
            if "," in label:
                raise GameValidationError(
                    f"running cost {key_text!r} keys a joint action; costs take only "
                    "the player's own action"
                )
            entry[(t, where, find_action(i, label))] = frac(cost, "running cost", key_text, i)
        running.append(entry)

    terminal: list[dict] = []
    for i, table in enumerate(raw_terminal):
        entry = {}
        for key_text, cost in _typed(table, dict, f"terminal costs of player {i}").items():
            where = key_text if state_dependent else _prefix_from_str(key_text)
            entry[where] = frac(cost, "terminal cost", key_text, i)
        terminal.append(entry)

    return GameSpec(
        horizon=horizon,
        states=states,
        actions=actions,
        transitions=transitions,
        running_costs=running,
        terminal_costs=terminal,
        state_dependent=state_dependent,
    )


def dump_game(spec: GameSpec) -> dict:
    """Serialize a spec to a JSON-ready dict; inverse of :func:`load_game`."""
    trans_out: dict[str, dict[str, str]] = {}
    for (t, where, joint), vec in sorted(
        spec.transitions.items(), key=lambda kv: (kv[0][0], str(kv[0][1]), kv[0][2])
    ):
        labels = ",".join(spec.actions[i][a] for i, a in enumerate(joint))
        trans_out[_encode_key(t, where, labels)] = {
            state: frac_to_str(p) for state, p in zip(spec.states[t + 1], vec)
        }
    running_out = []
    for i, table in enumerate(spec.running_costs):
        entry = {}
        for (t, where, ai), cost in sorted(
            table.items(), key=lambda kv: (kv[0][0], str(kv[0][1]), kv[0][2])
        ):
            entry[_encode_key(t, where, spec.actions[i][ai])] = frac_to_str(cost)
        running_out.append(entry)
    terminal_out = []
    for table in spec.terminal_costs:
        entry = {}
        for where, cost in sorted(table.items(), key=lambda kv: str(kv[0])):
            name = where if isinstance(where, str) else _prefix_to_str(where)
            entry[name] = frac_to_str(cost)
        terminal_out.append(entry)
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
