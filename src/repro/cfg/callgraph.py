"""The program's one call graph, and analysis-entry discovery.

PATA starts path exploration at *functions without explicit callers*
(Fig. 6, AnalyzeCode): module-interface functions registered through
function-pointer fields (Fig. 1) and any function never called directly.
:class:`CallGraph` computes those entry points, and it is the one answer
to "which functions can an entry's exploration reach": the collector,
the P1.5 event masks, the P1.8 skip sets, the Steensgaard pass's
indirect-call targets and the incremental cache's transitive keys all
read the graph :meth:`repro.core.pata.PATA.analyze` builds once per
run.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set, Tuple, TypeVar

from ..ir import Call, CallIndirect, Function, Program

T = TypeVar("T")


class CallGraph:
    """Name-resolved call graph over one program's defined functions.

    * ``callees[f]``: the defined functions ``f`` calls directly, sorted
      (a self-call included); ``callers[g]`` the inverse;
    * ``indirect``: the functions holding an indirect call site;
    * ``pool``: the registration pool — defined registered functions, in
      registration order, without duplicates: the conservative target
      set of any indirect call (the engine resolves per (struct, field)
      slot, so it can only pick a subset);
    * ``components``: the strongly connected components of the direct
      edges, children first; ``component_of[f]`` is ``f``'s index,
      ``children[i]`` the other components component ``i`` calls into,
      and ``reaches_indirect[i]`` whether an indirect call site lies
      below it over direct edges.

    An exploration of ``f`` can inline exactly :meth:`closure` ``(f)``:
    what the direct edges reach and, with ``resolve_function_pointers``,
    the whole pool's closure behind any indirect call site.  Building
    the graph marks interface functions first, because entry discovery
    and the fingerprints read the flag.
    """

    def __init__(self, program: Program, resolve_function_pointers: bool = False):
        self.program = program
        self.resolve_function_pointers = resolve_function_pointers
        mark_interface_functions(program)
        edges: Dict[str, Set[str]] = {func.name: set() for func in program.functions()}
        indirect: Set[str] = set()
        for func in program.functions():
            out = edges[func.name]
            for inst in func.instructions():
                if isinstance(inst, Call):
                    if inst.callee in edges:
                        out.add(inst.callee)
                elif isinstance(inst, CallIndirect):
                    indirect.add(func.name)
        self.callees: Dict[str, Tuple[str, ...]] = {
            name: tuple(sorted(out)) for name, out in edges.items()
        }
        self.callers: Dict[str, Set[str]] = {}
        for name, out in self.callees.items():
            for callee in out:
                self.callers.setdefault(callee, set()).add(name)
        self.indirect: FrozenSet[str] = frozenset(indirect)
        self.pool: Tuple[str, ...] = tuple(dict.fromkeys(
            reg.function for reg in program.registrations() if reg.function in edges
        ))
        self.components: List[Tuple[str, ...]] = self._condense()
        self.component_of: Dict[str, int] = {
            name: i for i, members in enumerate(self.components) for name in members
        }
        self.children: List[FrozenSet[int]] = []
        self.reaches_indirect: List[bool] = []
        for i, members in enumerate(self.components):
            below = frozenset(
                self.component_of[callee] for name in members for callee in self.callees[name]
            ) - {i}
            self.children.append(below)
            self.reaches_indirect.append(
                any(name in indirect for name in members)
                or any(self.reaches_indirect[j] for j in below)
            )
        self._closures: Dict[str, FrozenSet[str]] = {}

    def _condense(self) -> List[Tuple[str, ...]]:
        """Tarjan's SCCs of the direct edges, emitted children first,
        iteratively: corpus call chains can exceed the interpreter's
        recursion limit."""
        callees = self.callees
        index: Dict[str, int] = {}
        lowlink: Dict[str, int] = {}
        on_stack: Set[str] = set()
        stack: List[str] = []
        components: List[Tuple[str, ...]] = []
        for root in sorted(callees):
            if root in index:
                continue
            index[root] = lowlink[root] = len(index)
            stack.append(root)
            on_stack.add(root)
            work = [(root, iter(callees[root]))]
            while work:
                node, successors = work[-1]
                for succ in successors:
                    if succ not in index:
                        index[succ] = lowlink[succ] = len(index)
                        stack.append(succ)
                        on_stack.add(succ)
                        work.append((succ, iter(callees[succ])))
                        break
                    if succ in on_stack:
                        lowlink[node] = min(lowlink[node], index[succ])
                else:
                    work.pop()
                    if work:
                        parent = work[-1][0]
                        lowlink[parent] = min(lowlink[parent], lowlink[node])
                    if lowlink[node] == index[node]:
                        members: List[str] = []
                        while True:
                            member = stack.pop()
                            on_stack.discard(member)
                            members.append(member)
                            if member == node:
                                break
                        components.append(tuple(members))
        return components

    # -- queries ---------------------------------------------------------------

    def callees_of(self, name: str) -> Tuple[str, ...]:
        return self.callees.get(name, ())

    def callers_of(self, name: str) -> Set[str]:
        return self.callers.get(name, set())

    def entry_functions(self) -> List[Function]:
        """Functions PATA analyzes top-down: interface functions plus any
        defined function with no direct caller in the program."""
        return [
            func for func in self.program.functions()
            if func.is_interface or not self.callers.get(func.name)
        ]

    def closure(self, name: str) -> FrozenSet[str]:
        """``name`` and every defined function its exploration can
        inline: the members of each component below it and, when it
        reaches the pool, of each component below a pool member.
        Memoized per name; a name the program does not define closes
        over itself alone."""
        closure = self._closures.get(name)
        if closure is None:
            start = self.component_of.get(name)
            if start is None:
                closure = frozenset((name,))
            else:
                roots = [start]
                if self.resolve_function_pointers and self.reaches_indirect[start]:
                    roots.extend(self.component_of[target] for target in self.pool)
                seen: Set[int] = set()
                members: List[str] = []
                while roots:
                    i = roots.pop()
                    if i not in seen:
                        seen.add(i)
                        members.extend(self.components[i])
                        roots.extend(self.children[i])
                closure = frozenset(members)
            self._closures[name] = closure
        return closure

    def fold(self, own: Dict[str, T]) -> Dict[str, T]:
        """name -> the ``|`` of ``own`` over :meth:`closure` ``(name)``,
        for every defined function.  ``own`` maps each defined function
        to a value of a join semilattice whose join is ``|`` (int masks,
        frozensets); the fold runs once over the condensation, children
        first, and adds the pool's value behind indirect call sites."""
        values: List[T] = []
        for members, children in zip(self.components, self.children):
            value = own[members[0]]
            for name in members[1:]:
                value = value | own[name]
            for j in children:
                value = value | values[j]
            values.append(value)
        if self.resolve_function_pointers and self.pool:
            pool = values[self.component_of[self.pool[0]]]
            for name in self.pool[1:]:
                pool = pool | values[self.component_of[name]]
            values = [value | pool if self.reaches_indirect[i] else value
                      for i, value in enumerate(values)]
        return {name: values[i] for name, i in self.component_of.items()}


def mark_interface_functions(program: Program) -> int:
    """Resolve registrations across modules: ``.probe = fn`` in one file may
    register a function defined in another.  Returns how many functions are
    marked as interfaces afterwards."""
    count = 0
    for reg in program.registrations():
        func = program.lookup(reg.function)
        if func is not None:
            func.is_interface = True
    for func in program.functions():
        if func.is_interface:
            count += 1
    return count
