"""Basic blocks, functions and modules of the repro IR."""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import IRError
from .instructions import Branch, Instruction, Jump, Ret, Terminator, Unreachable
from .types import FunctionType, StructType, Type, VOID
from .values import SourceLoc, UNKNOWN_LOC, Var

_block_ids = itertools.count(1)


class BasicBlock:
    """A straight-line instruction sequence ending in one terminator."""

    def __init__(self, name: str, parent: Optional["Function"] = None):
        self.name = name
        self.uid = next(_block_ids)
        self.parent = parent
        self.instructions: List[Instruction] = []
        self.terminator: Optional[Terminator] = None

    def append(self, inst: Instruction) -> Instruction:
        if self.terminator is not None:
            raise IRError(f"block {self.name} already terminated")
        inst.parent = self
        self.instructions.append(inst)
        return inst

    def set_terminator(self, term: Terminator) -> Terminator:
        if self.terminator is not None:
            raise IRError(f"block {self.name} already terminated")
        term.parent = self
        self.terminator = term
        return term

    @property
    def is_terminated(self) -> bool:
        return self.terminator is not None

    def successors(self) -> Tuple["BasicBlock", ...]:
        return self.terminator.successors() if self.terminator else ()

    def __getstate__(self):
        # Inside a function the terminator is pickled by the function,
        # after every block (see Function.__getstate__).
        if self.parent is None:
            return self.__dict__
        state = self.__dict__.copy()
        del state["terminator"]
        return state

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __repr__(self) -> str:
        return f"<BasicBlock {self.name} ({len(self.instructions)} insts)>"


class Function:
    """An IR function: parameters, blocks, and source metadata.

    ``is_interface`` marks module-interface functions — functions registered
    through a function-pointer field of a driver/ops struct and therefore
    having no explicit caller in the OS code (§1, D1).  These are PATA's
    analysis entry points alongside truly caller-less functions.
    """

    def __init__(
        self,
        name: str,
        params: Sequence[Var],
        return_type: Type = VOID,
        filename: str = "<ir>",
        line: int = 0,
        is_static: bool = False,
        variadic: bool = False,
    ):
        self.name = name
        self.params: List[Var] = list(params)
        self.return_type = return_type
        self.filename = filename
        self.line = line
        self.is_static = is_static
        self.variadic = variadic
        self.is_interface = False
        self.blocks: List[BasicBlock] = []
        self._block_names: Dict[str, BasicBlock] = {}
        #: base name -> the next ``.N`` suffix :meth:`add_block` tries;
        #: every lower suffix is taken (so it is cleared when blocks go)
        self._block_suffix: Dict[str, int] = {}

    @property
    def type(self) -> FunctionType:
        return FunctionType(self.return_type, tuple(p.type for p in self.params), self.variadic)

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise IRError(f"function {self.name} has no blocks")
        return self.blocks[0]

    @property
    def is_declaration(self) -> bool:
        return not self.blocks

    def add_block(self, name: str) -> BasicBlock:
        """A new block named ``name``, or ``name.N`` for the lowest free
        ``N`` from 2.  Each base name keeps the suffix to try next, so a
        block costs amortized O(1) name probes however many same-named
        blocks precede it."""
        unique, counter = name, self._block_suffix.get(name, 2)
        while unique in self._block_names:
            unique, counter = f"{name}.{counter}", counter + 1
        self._block_suffix[name] = counter
        block = BasicBlock(unique, parent=self)
        self.blocks.append(block)
        self._block_names[unique] = block
        return block

    def instructions(self) -> Iterator[Instruction]:
        for block in self.blocks:
            yield from block.instructions

    def instruction_count(self) -> int:
        return sum(len(b.instructions) for b in self.blocks)

    def __getstate__(self):
        # Each block's terminator goes after all of the blocks, so every
        # successor link is a memo hit and the pickle's depth does not
        # grow with the length of a chain of blocks.  The suffix memo
        # stays behind: an empty one is always correct.
        attrs = self.__dict__.copy()
        del attrs["_block_suffix"]
        return attrs, [block.terminator for block in self.blocks]

    def __setstate__(self, state) -> None:
        attrs, terminators = state
        self.__dict__.update(attrs)
        self._block_suffix = {}
        for block, terminator in zip(self.blocks, terminators):
            block.terminator = terminator

    def __repr__(self) -> str:
        return f"<Function {self.name} ({len(self.blocks)} blocks)>"


class InterfaceRegistration:
    """Records ``.field = function`` inside a static struct initializer —
    the pattern of Fig. 1 (``.probe = s5p_mfc_probe``)."""

    def __init__(self, struct_var: str, struct_type: Optional[StructType], field: str, function: str, loc: SourceLoc = UNKNOWN_LOC):
        self.struct_var = struct_var
        self.struct_type = struct_type
        self.field = field
        self.function = function
        self.loc = loc

    def __repr__(self) -> str:
        return f"<.{self.field} = {self.function} in {self.struct_var}>"


class Module:
    """A translation unit: struct types, globals, functions, registrations."""

    def __init__(self, name: str = "<module>"):
        self.name = name
        self.functions: Dict[str, Function] = {}
        self.globals: Dict[str, Var] = {}
        self.structs: Dict[str, StructType] = {}
        self.registrations: List[InterfaceRegistration] = []
        self.source_lines: int = 0
        #: programs containing this module; adding a function after the
        #: module is linked must drop their name-lookup caches
        self._owners: List["Program"] = []

    def add_function(self, func: Function) -> Function:
        existing = self.functions.get(func.name)
        if existing is not None and not existing.is_declaration and not func.is_declaration:
            raise IRError(f"duplicate definition of function {func.name}")
        if existing is None or existing.is_declaration:
            self.functions[func.name] = func
            for owner in self._owners:
                owner._defined_cache = None
        return self.functions[func.name]

    def add_global(self, var: Var) -> Var:
        self.globals[var.name] = var
        return var

    def get_struct(self, name: str) -> StructType:
        if name not in self.structs:
            self.structs[name] = StructType(name)
        return self.structs[name]

    def add_registration(self, reg: InterfaceRegistration) -> None:
        self.registrations.append(reg)
        func = self.functions.get(reg.function)
        if func is not None:
            func.is_interface = True

    def defined_functions(self) -> Iterator[Function]:
        return (f for f in self.functions.values() if not f.is_declaration)

    def __repr__(self) -> str:
        return f"<Module {self.name} ({len(self.functions)} functions)>"


class Program:
    """A whole analyzed codebase: several modules linked by name.

    This is the unit PATA's information collector (§4, P1) works over: it
    resolves cross-module calls by function name and aggregates interface
    registrations.
    """

    def __init__(self, modules: Optional[Iterable[Module]] = None):
        self.modules: List[Module] = list(modules or [])
        self._defined_cache: Optional[Dict[str, Function]] = None
        for module in self.modules:
            module._owners.append(self)

    def add_module(self, module: Module) -> Module:
        self.modules.append(module)
        module._owners.append(self)
        self._defined_cache = None
        return module

    def functions(self) -> Iterator[Function]:
        """The defined functions :meth:`lookup` resolves: the first
        definition of each name, in module order."""
        return iter(self._defined().values())

    def _defined(self) -> Dict[str, Function]:
        """Name → defined function, built once per module set.  Lookups
        are hot (every inlined call site resolves by name); a linear
        module scan per call dominates large-corpus runs.  First
        definition wins, matching the old first-module-scan order."""
        cache = self._defined_cache
        if cache is None:
            cache = {}
            for module in self.modules:
                for name, func in module.functions.items():
                    if not func.is_declaration and name not in cache:
                        cache[name] = func
            self._defined_cache = cache
        return cache

    def lookup(self, name: str) -> Optional[Function]:
        return self._defined().get(name)

    def registrations(self) -> Iterator[InterfaceRegistration]:
        for module in self.modules:
            yield from module.registrations

    def total_source_lines(self) -> int:
        return sum(m.source_lines for m in self.modules)

    def __repr__(self) -> str:
        return f"<Program ({len(self.modules)} modules)>"
