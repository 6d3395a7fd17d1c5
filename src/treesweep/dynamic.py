"""Dynamic forest maintenance: change-root, edge addition/deletion, and the
incremental builder that grows a forest edge by edge from isolated vertices.

Each node permanently stores the descriptor received from every neighbour
except its father, which is exactly the state the change-root walk needs:
the old root drops the entry toward the new root, re-merges, and the
corrected descriptors ripple down the path while father pointers flip.
Adjacency lives in `forest` alone.  Edge addition inserts into it first, so
the forest's own cycle check rejects a bad edge before any reroot, message
or counter change.
Edge addition has one path: reroot w1's tree at w1, hang w1 under w2, and
push replacement entries up from w2 until one is unchanged or the root is
reached.  Paper mode also reroots at w2 first and hangs the loser of
`elect_root`, so its push ends at once; `early_stop` keeps w2's root.
Every dynamic message carries the leading flag bit (0 replace-entry,
1 change-root notification), costing one extra bit per frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .codec import REPLACE_FLAG, Scheme, decode, encode, notification
from .forest import ArgumentError, Forest, GraphError
from .hd import HDescriptor, ParamVariant, evaluate, merge
from .protocol import (CostCounters, NodeState, default_scheme, elect_root,
                       run_static)


@dataclass
class DynamicForest:
    forest: Forest
    variant: ParamVariant
    scheme: Scheme
    states: dict[int, NodeState]
    roots: dict[int, int] = field(default_factory=dict)
    counters: CostCounters = field(default_factory=CostCounters)
    early_stop: bool = False

    # -- construction ------------------------------------------------------

    @classmethod
    def isolated(cls, n: int, variant: ParamVariant = ParamVariant.PROCESS_NUMBER,
                 encoding: str = "known", early_stop: bool = False) -> "DynamicForest":
        if n < 1:
            raise ArgumentError("need at least one vertex")
        scheme = default_scheme(n, variant, encoding)
        forest = Forest(range(n))
        states = {v: NodeState() for v in range(n)}
        df = cls(forest, variant, scheme, states, early_stop=early_stop)
        base = evaluate(merge([], variant)).value
        for v in range(n):
            df.roots[v] = base
        return df

    @classmethod
    def from_tree(cls, tree: Forest, variant: ParamVariant = ParamVariant.PROCESS_NUMBER,
                  encoding: str = "known", early_stop: bool = False) -> "DynamicForest":
        """Adopt the per-node state left behind by a static run.

        The set-up run uses the known-size scheme whatever `encoding` asks
        for; `encoding` sets only the scheme of later messages.  This is
        harmless: descriptors, fathers and root do not depend on the scheme,
        so the states equal those of an unknown-size run.  The set-up
        messages are not counted: `counters` start at zero."""
        scheme = default_scheme(tree.n, variant, encoding)
        run = run_static(tree, variant)
        df = cls(tree.copy(), variant, scheme, run.states, early_stop=early_stop)
        df.roots[run.root] = run.value
        return df

    # -- queries -----------------------------------------------------------

    def root_of(self, v: int) -> int:
        if v not in self.states:
            raise ArgumentError(f"vertex {v} not in forest")
        while self.states[v].father is not None:
            v = self.states[v].father
        return v

    def value_of(self, v: int) -> int:
        return self.roots[self.root_of(v)]

    # -- messaging helpers ---------------------------------------------------

    def _notify(self, hops: int) -> None:
        frame = notification(self.scheme)
        for _ in range(hops):
            self.counters.add_message(frame)

    def _send(self, sender: int, receiver: int, hd: HDescriptor) -> None:
        wire = encode(hd, self.scheme, dyn_flag=REPLACE_FLAG)
        self.counters.add_message(wire)
        self.states[receiver].received[sender] = decode(wire)

    def _local_hd(self, v: int) -> HDescriptor:
        hd = merge(list(self.states[v].received.values()), self.variant)
        self.counters.steps += 1
        return hd

    # -- operations ----------------------------------------------------------

    def change_root(self, r2: int) -> None:
        """Move the component root to r2 along the father chain; 2*dist
        messages (the notification walk up, the corrected wave down)."""
        if r2 not in self.states:
            raise ArgumentError(f"vertex {r2} not in forest")
        path = [r2]
        while (father := self.states[path[-1]].father) is not None:
            path.append(father)
        if len(path) == 1:
            return
        self._notify(len(path) - 1)

        for idx in range(len(path) - 1, 0, -1):
            node, new_father = path[idx], path[idx - 1]
            st = self.states[node]
            del st.received[new_father]
            self._send(node, new_father, self._local_hd(node))
            st.father = new_father
        self.states[r2].father = None
        del self.roots[path[-1]]
        self.roots[r2] = evaluate(self._local_hd(r2)).value

    def add_edge(self, w1: int, w2: int) -> None:
        """Hang w1's tree, rerooted at w1, under w2 (see the module notes);
        unless `early_stop`, also reroot at w2 and let `elect_root` pick
        which endpoint hangs."""
        if w1 not in self.states or w2 not in self.states:
            raise ArgumentError(f"unknown vertex in edge ({w1}, {w2})")
        self.forest.add_edge(w1, w2)  # rejects a cycle before any state changes
        self.change_root(w1)
        if not self.early_stop:
            self.change_root(w2)
            if elect_root(w1, w2) == w1:
                w1, w2 = w2, w1
        self._send(w1, w2, self._local_hd(w1))
        self.states[w1].father = w2
        del self.roots[w1]
        node = w2
        while (father := self.states[node].father) is not None:
            hd = self._local_hd(node)
            if self.states[father].received[node] == hd:
                return  # nothing upstream can change
            self._send(node, father, hd)
            node = father
        self.roots[node] = evaluate(self._local_hd(node)).value

    def delete_edge(self, w1: int, w2: int) -> None:
        if not self.forest.has_edge(w1, w2):
            raise ArgumentError(f"edge ({w1}, {w2}) does not exist")
        if self.states[w1].father == w2:
            child, father = w1, w2
        elif self.states[w2].father == w1:
            child, father = w2, w1
        else:
            raise ArgumentError(f"edge ({w1}, {w2}) is not a father link")
        self.forest.remove_edge(child, father)
        del self.states[father].received[child]
        self.states[child].father = None
        self.roots[child] = evaluate(self._local_hd(child)).value

        if self.states[father].father is None:
            self.roots[father] = evaluate(self._local_hd(father)).value
        else:
            self.change_root(father)

    # -- consistency ---------------------------------------------------------

    def check_invariants(self) -> None:
        root_count = 0
        for v, st in self.states.items():
            expect = self.forest.neighbours(v) - {st.father}
            if set(st.received) != expect:
                raise AssertionError(f"received set drift at {v}")
            if st.father is None:
                root_count += 1
                if v not in self.roots:
                    raise AssertionError(f"untracked root {v}")
                fresh = evaluate(merge(list(st.received.values()), self.variant)).value
                if self.roots[v] != fresh:
                    raise AssertionError(f"stale value at root {v}")
        if root_count != len(self.roots):
            raise AssertionError("root bookkeeping drift")


def inc_build(edges: list[tuple[int, int]], n: int,
              variant: ParamVariant = ParamVariant.PROCESS_NUMBER,
              encoding: str = "known", early_stop: bool = False) -> DynamicForest:
    """Insert tree edges one by one starting from n isolated vertices."""
    df = DynamicForest.isolated(n, variant, encoding, early_stop)
    for u, v in edges:
        df.add_edge(u, v)
    return df


def run_script(text: str, n: int,
               variant: ParamVariant = ParamVariant.PROCESS_NUMBER,
               encoding: str = "known") -> tuple[list[str], DynamicForest]:
    """Execute a dynamic script: lines "add u v", "del u v", "query u",
    "reroot u".  Returns the printed query lines and the final forest.
    Every `GraphError` a line raises, from parsing or from the operation
    itself, is re-raised as the same class with its message prefixed by
    "line N: "."""
    df = DynamicForest.isolated(n, variant, encoding)
    out: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "add" and len(parts) == 3:
                df.add_edge(int(parts[1]), int(parts[2]))
            elif parts[0] == "del" and len(parts) == 3:
                df.delete_edge(int(parts[1]), int(parts[2]))
            elif parts[0] == "query" and len(parts) == 2:
                u = int(parts[1])
                out.append(f"query {u} value={df.value_of(u)}")
            elif parts[0] == "reroot" and len(parts) == 2:
                df.change_root(int(parts[1]))
            else:
                raise ArgumentError(f"bad command {raw!r}")
        except ValueError:
            raise ArgumentError(f"line {lineno}: bad integer in {raw!r}") from None
        except GraphError as exc:
            raise type(exc)(f"line {lineno}: {exc}") from None
    return out, df
