"""Checks on the program's answers, written without the program's code.

A compute call is checked against the closed-form cost of the static
convergecast (n - 1 messages of ceil(log3 n) + 2 bits, one more bit per
message for ns, n merge steps), against the values known for its tree, and,
for pn, by replaying the printed strategy under the three process rules.
The three values of one tree are then checked against each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def ceil_log3(n: int) -> int:
    k, power = 0, 1
    while power < n:
        k, power = k + 1, power * 3
    return k


def expected_counters(n: int, param: str) -> tuple[int, int, int]:
    """(messages, bits, steps) of a static known-size run on n vertices."""
    cells = ceil_log3(n) + (1 if param == "ns" else 0)
    return n - 1, (n - 1) * (cells + 2), n


@dataclass
class ComputeOutput:
    value: int | None = None
    messages: int | None = None
    bits: int | None = None
    steps: int | None = None
    peak: int | None = None
    actions: list[tuple[str, int]] = field(default_factory=list)


def parse_output(text: str) -> ComputeOutput:
    out = ComputeOutput()
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] in ("P", "R", "S") and len(parts) == 2:
            out.actions.append((parts[0], int(parts[1])))
        elif parts[0].startswith("param="):
            out.value = int(parts[1].split("=", 1)[1])
        elif parts[0].startswith("messages="):
            fields = dict(p.split("=", 1) for p in parts)
            out.messages = int(fields["messages"])
            out.bits = int(fields["bits"])
            out.steps = int(fields["steps"])
        elif parts[0].startswith("strategy_peak="):
            out.peak = int(parts[0].split("=", 1)[1])
    return out


def adjacency(text: str) -> dict[int, list[int]]:
    lines = text.splitlines()
    n = int(lines[0].split()[1])
    adj: dict[int, list[int]] = {v: [] for v in range(n)}
    for line in lines[1:]:
        u, v = map(int, line.split())
        adj[u].append(v)
        adj[v].append(u)
    return adj


def replay_strategy(adj: dict[int, list[int]], actions) -> int:
    """Peak agent count of a legal process strategy; raises ValueError on
    an illegal step or when a vertex is left unprocessed.  Rules: place an
    agent on an untouched vertex; remove an agent once no neighbour is
    untouched (processing the vertex); process an untouched vertex whose
    neighbours all hold agents."""
    untouched, occupied, processed = 0, 1, 2
    state = dict.fromkeys(adj, untouched)
    live = peak = 0
    for step, (kind, v) in enumerate(actions):
        if v not in state:
            raise ValueError(f"step {step}: unknown vertex {v}")
        if kind == "P" and state[v] == untouched:
            state[v] = occupied
            live += 1
            peak = max(peak, live)
        elif kind == "R" and state[v] == occupied and all(
                state[u] != untouched for u in adj[v]):
            state[v] = processed
            live -= 1
        elif kind == "S" and state[v] == untouched and all(
                state[u] == occupied for u in adj[v]):
            state[v] = processed
        else:
            raise ValueError(f"step {step}: illegal {kind} {v}")
    if any(s != processed for s in state.values()):
        raise ValueError("vertices left unprocessed")
    return peak


def check_call(n: int, param: str, expect: dict[str, int], out: ComputeOutput,
               adj: dict[int, list[int]] | None) -> list[str]:
    """Problems with one compute call's output; [] when it is right.
    `adj` is given for a pn call whose strategy should be replayed."""
    problems = []
    if out.value is None:
        return ["no value printed"]
    if param in expect and out.value != expect[param]:
        problems.append(f"{param}={out.value}, want {expect[param]}")
    want = expected_counters(n, param)
    got = (out.messages, out.bits, out.steps)
    if got != want:
        problems.append(f"messages/bits/steps {got}, want {want}")
    if adj is not None:
        if out.peak != out.value:
            problems.append(f"strategy_peak={out.peak}, want {out.value}")
        try:
            peak = replay_strategy(adj, out.actions)
        except ValueError as exc:
            problems.append(f"strategy is illegal: {exc}")
        else:
            if peak != out.value:
                problems.append(f"strategy replays to {peak} agents, want {out.value}")
    return problems


def check_relations(values: dict[str, int]) -> list[str]:
    """ns - 1 <= pn <= ns and es in {ns - 1, ns} for the values of one tree."""
    pn, ns, es = values["pn"], values["ns"], values["es"]
    problems = []
    if not ns - 1 <= pn <= ns:
        problems.append(f"pn={pn} outside [ns-1, ns] with ns={ns}")
    if es not in (ns - 1, ns):
        problems.append(f"es={es} outside {{ns-1, ns}} with ns={ns}")
    return problems
