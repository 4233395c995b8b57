"""Call-graph construction and queries.

The call graph drives the method-cache analyses: function sizes, reachable
sets within loops/scopes and maximum call-chain depth (also used by the
stack-cache analysis).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import WcetError
from .cfg import kahn_order
from .program import Program


@dataclass
class CallGraph:
    """Static call graph of a program (``call`` edges between functions).

    ``calls`` maps every function to its distinct callees.
    """

    program: Program
    calls: dict[str, list[str]] = field(default_factory=dict)

    @classmethod
    def build(cls, program: Program) -> "CallGraph":
        cg = cls(program=program)
        for func in program.functions.values():
            cg.calls[func.name] = []
        for func in program.functions.values():
            # Sub-functions created by the method-cache splitter share their
            # parent's frame and context; their calls are attributed to the
            # parent so that reachability, depth and stack analyses see the
            # logical call structure.
            caller = func.name
            if func.is_subfunction and func.parent in program.functions:
                caller = func.parent
            for callee in func.callees():
                if callee not in program.functions:
                    raise WcetError(
                        f"{func.name} calls unknown function {callee!r}")
                if callee not in cg.calls[caller]:
                    cg.calls[caller].append(callee)
        return cg

    def callees(self, name: str) -> list[str]:
        return list(self.calls[name])

    def callers(self, name: str) -> list[str]:
        return [caller for caller, callees in self.calls.items()
                if name in callees]

    def is_recursive(self) -> bool:
        """True if the call graph contains a cycle (direct or indirect recursion)."""
        return kahn_order(self.calls) is None

    def reachable_from(self, name: str) -> set[str]:
        """Functions reachable from ``name``, including itself."""
        if name not in self.calls:
            return set()
        seen = {name}
        stack = [name]
        while stack:
            for callee in self.calls[stack.pop()]:
                if callee not in seen:
                    seen.add(callee)
                    stack.append(callee)
        return seen

    def topological_order(self, root: str | None = None) -> list[str]:
        """Callees-first order of functions (bottom-up over the call graph)."""
        order = kahn_order(self.calls)
        if order is None:
            raise WcetError("call graph is recursive; no topological order exists")
        order.reverse()
        if root is not None:
            reachable = self.reachable_from(root)
            order = [name for name in order if name in reachable]
        return order

    def max_call_depth(self, root: str | None = None) -> int:
        """Length of the longest call chain starting at ``root`` (default entry).

        A leaf function has depth 1.  Raises :class:`WcetError` for recursive
        programs, where the depth is unbounded without extra annotations.
        """
        if self.is_recursive():
            raise WcetError("recursive call graph: call depth is unbounded")
        root = root or self.program.entry

        depths: dict[str, int] = {}

        def depth(name: str) -> int:
            if name in depths:
                return depths[name]
            callees = self.callees(name)
            value = 1 + (max((depth(c) for c in callees), default=0))
            depths[name] = value
            return value

        return depth(root)

    def call_paths(self, root: str | None = None) -> list[list[str]]:
        """All call chains from ``root`` to leaf functions."""
        if self.is_recursive():
            raise WcetError("recursive call graph: call paths are unbounded")
        root = root or self.program.entry
        paths: list[list[str]] = []

        def walk(name: str, path: list[str]) -> None:
            path = path + [name]
            callees = self.callees(name)
            if not callees:
                paths.append(path)
                return
            for callee in callees:
                walk(callee, path)

        walk(root, [])
        return paths
