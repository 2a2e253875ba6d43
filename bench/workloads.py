"""Seeded generators for the benchmark workloads.

Each generator returns the source files of one workload together with
the answers the program must produce on them.  The answers are worked
out here in closed form from how the inputs were built, never by running
the interpreter, so a check against them does not trust the code under
test.  `test_generators.py` confirms the closed forms at tiny sizes
against the brute-force oracles.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class AgentWorkload:
    """One agent run with `run_agent`, plus its snapshot for `inbox`."""

    files: dict[str, str]
    agent_file: str
    query: str | None
    inbox: tuple[str, ...]  # external events delivered at tick 0
    performed: tuple[str, ...]  # expected performed actions, sorted
    pv: frozenset[str]  # expected past events at quiescence
    model: frozenset[str]  # expected least model of P' with init = inbox


@dataclass(frozen=True)
class SystemWorkload:
    """A multi-agent system loaded from a generated config file."""

    files: dict[str, str]
    system_file: str
    init: dict[str, tuple[str, ...]]  # evolve_system initial events
    performed: dict[str, tuple[str, ...]]  # per agent, sorted
    pv: dict[str, frozenset[str]]
    warnings: int  # distinct dropped (producer, action, consumer) triples
    rounds: tuple[dict[str, frozenset[str]], ...]  # evolve_system models
    injected: dict[str, int]  # events delivered to each agent's inbox


def event_chain(seed: int, n: int = 60) -> AgentWorkload:
    """n internal events, each enabled only by the previous one's
    reaction, declared in chain order; the seed picks their names.

    Self-triggered attempts cycle through the internal events in
    declaration order, so the declaration order sets the number of
    steps: a rotation of a 60-event chain took from 2,101 to 2,219
    steps, and five full shuffles of a 128-event chain from 12.2k to
    14.1k.  Picking names instead gives every seed the same steps.
    """
    names = random.Random(seed).sample(range(1, 10 * n + 1), n)
    lines = ["agent Chain."]
    lines += [f"@internal e_{k}." for k in names]
    lines += [f"@action a_{k}." for k in names]
    lines.append(f"e_{names[0]}.")
    for prev, k in zip([None] + names, names):
        if prev is not None:
            lines.append(f"e_{k} :- past(e_{prev}).")
        lines.append(f"e_{k} :> a_{k}.")
    events = {f"e_{k}" for k in names}
    actions = {f"a_{k}" for k in names}
    return AgentWorkload(
        files={"chain.dali": "\n".join(lines) + "\n"},
        agent_file="chain.dali",
        query=None,
        inbox=(),
        performed=tuple(sorted(actions)),
        pv=frozenset(events),
        model=frozenset(events | actions | {f"past_{e}" for e in events}),
    )


def wide_program(
    seed: int,
    externals: int = 500,
    injected: int = 40,
    internals: int = 4,
    heads: int = 100,
    failing: int = 3,
) -> AgentWorkload:
    """A large agent: every external event has a reactive rule that
    proves two ordinary atoms and then performs an action guarded by a
    precondition that holds for half of them; a
    query walks a chain of heads, each of which first tries `failing`
    clauses that cannot succeed.  The seed picks which preconditions
    hold and which events are injected."""
    rng = random.Random(seed)
    ext = range(externals)
    inbox = sorted(rng.sample(ext, injected))
    # The events at even places in the inbox fire their action, and each
    # internal event waits on one of them at a fixed place.  How long the
    # engine retries an internal event depends on where its trigger falls
    # in the inbox, so fixing the places makes every seed take the same
    # number of steps; the seed still picks which events those are.
    fired = inbox[::2]
    triggers = [fired[(2 * j + 1) * len(fired) // (2 * internals)] for j in range(internals)]
    quiet = sorted(set(ext) - set(inbox))
    holds = set(fired) | set(rng.sample(quiet, externals // 2 - len(fired)))

    lines = ["agent Wide."]
    lines += [f"@external x_{i}." for i in ext]
    lines += [f"@internal w_{j}." for j in range(internals)]
    lines += [f"@action act_{i}." for i in ext]
    lines += [f"@action b_{j}." for j in range(internals)]
    for i in ext:
        lines.append(f"x_{i} :> s_{i}, t_{i}, act_{i}.")
        lines.append(f"act_{i} :< ok_{i}.")
        lines.append(f"s_{i}.")
        lines.append(f"t_{i} :- s_{i}.")
        if i in holds:
            lines.append(f"ok_{i}.")
    for j, t in enumerate(triggers):
        lines.append(f"w_{j} :- past(x_{t}).")
        lines.append(f"w_{j} :> b_{j}.")
    # Failing alternatives come before the clause that succeeds, so the
    # proof backtracks through each of them at every head.  They fail in
    # different ways: an undefined atom, a now(..) test on an event that
    # is pending (it succeeds, then the next atom fails) or not pending,
    # and a past(..) test on an event that is never injected.
    for k in range(heads):
        for f in range(failing):
            style = (k + f) % 3
            if style == 0:
                lines.append(f"q_{k} :- miss_{k}_{f}.")
            elif style == 1:
                lines.append(f"q_{k} :- now(x_{inbox[k % injected]}), miss_{k}_{f}.")
            else:
                lines.append(f"q_{k} :- past(x_{quiet[(k * 7) % len(quiet)]}), miss_{k}_{f}.")
        lines.append(f"q_{k} :- q_{k + 1}.")
    lines.append(f"q_{heads}.")

    performed = sorted([f"act_{i}" for i in fired] + [f"b_{j}" for j in range(internals)])
    pv = {f"x_{i}" for i in inbox} | {f"w_{j}" for j in range(internals)}
    model = (
        {f"x_{i}" for i in inbox}
        | {f"now_x_{i}" for i in inbox}
        | {f"s_{i}" for i in ext}
        | {f"t_{i}" for i in ext}
        | {f"ok_{i}" for i in holds}
        | {f"act_{i}" for i in fired}
        | {f"past_x_{i}" for i in fired}
        | {f"w_{j}" for j in range(internals)}
        | {f"b_{j}" for j in range(internals)}
        | {f"past_w_{j}" for j in range(internals)}
        | {f"q_{k}" for k in range(heads + 1)}
    )
    return AgentWorkload(
        files={"wide.dali": "\n".join(lines) + "\n"},
        agent_file="wide.dali",
        query="q_0",
        inbox=tuple(f"x_{i}" for i in inbox),
        performed=tuple(performed),
        pv=frozenset(pv),
        model=frozenset(model),
    )


def broadcast_fanout(
    seed: int,
    consumers: int = 120,
    mapped: int = 24,
    kicks: int = 2,
    span: int = 40,
) -> SystemWorkload:
    """A hub that pings on every scripted `kick`, and `consumers` agents
    that log each ping they hear.  `mapped` of them hear it as `alarm`
    through a `map` entry; the rest declare `ping` itself.  Nobody
    declares `log_it` as an event, so every consumer's log_it is
    dropped at every other agent.  The seed picks the mapped consumers
    and the ticks the kicks fall on."""
    rng = random.Random(seed)
    names = [f"C_{i}" for i in range(consumers)]
    alarm = set(rng.sample(names, mapped))
    ticks = sorted(rng.sample(range(span), kicks))

    files = {"hub.dali": "agent Hub.\n@external kick.\n@action ping.\nkick :> ping.\n"}
    for c in names:
        event = "alarm" if c in alarm else "ping"
        files[f"{c}.dali"] = (
            f"agent {c}.\n@external {event}.\n@action log_it.\n{event} :> log_it.\n"
        )
    files["fanout.events"] = "".join(f"{t} Hub kick\n" for t in ticks)
    config = ["agent hub.dali"] + [f"agent {c}.dali" for c in names]
    config.append("script fanout.events")
    config += [f"map Hub.ping -> {c}.alarm" for c in names if c in alarm]
    config += [f"max_ticks {span + 4}", "budget 50"]
    files["fanout.system"] = "\n".join(config) + "\n"

    def heard(c):
        return "alarm" if c in alarm else "ping"

    performed = {"Hub": ("ping",) * kicks}
    performed.update({c: ("log_it",) * kicks for c in names})
    pv = {"Hub": frozenset({"kick"})}
    pv.update({c: frozenset({heard(c)}) for c in names})
    injected = {"Hub": kicks}
    injected.update({c: kicks for c in names})
    rounds = (
        {"Hub": frozenset({"kick", "now_kick", "ping", "past_kick"}), **{c: frozenset() for c in names}},
        {
            "Hub": frozenset({"past_kick"}),
            **{
                c: frozenset({heard(c), f"now_{heard(c)}", "log_it", f"past_{heard(c)}"})
                for c in names
            },
        },
        {"Hub": frozenset({"past_kick"}), **{c: frozenset({f"past_{heard(c)}"}) for c in names}},
    )
    return SystemWorkload(
        files=files,
        system_file="fanout.system",
        init={"Hub": ("kick",)},
        performed=performed,
        pv=pv,
        warnings=consumers * consumers,
        rounds=rounds,
        injected=injected,
    )


GENERATORS = {
    "event_chain": event_chain,
    "wide_program": wide_program,
    "broadcast_fanout": broadcast_fanout,
}
