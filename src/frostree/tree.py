"""Arena-style rooted tree storage: parallel arrays indexed by vertex."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class Status(Enum):
    ACTIVE = "a"
    FROZEN = "f"


@dataclass(eq=False)
class TreeArena:
    """A rooted labelled tree in creation order.

    Vertex 0 is the root (parent stored as -1, depth 0); every other vertex's
    parent has a smaller index.  ``active_list`` holds exactly the indices with
    ACTIVE status, in no particular order.  Arenas are immutable once built.
    """

    parents: list[int]
    depths: list[int]
    statuses: list[Status]
    birth_steps: list[int]
    height: int
    active_list: list[int]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TreeArena):
            return NotImplemented
        return (
            self.parents == other.parents
            and self.depths == other.depths
            and self.statuses == other.statuses
            and self.birth_steps == other.birth_steps
            and self.height == other.height
            and sorted(self.active_list) == sorted(other.active_list)
        )

    def __len__(self) -> int:
        return len(self.parents)

    def active_count(self) -> int:
        return len(self.active_list)

    def dump(self) -> str:
        """One vertex per line: ``index parent depth status birth_step``
        (parent is -1 for the root, status is ``a`` or ``f``)."""
        lines = [
            f"{i} {self.parents[i]} {self.depths[i]} "
            f"{self.statuses[i].value} {self.birth_steps[i]}"
            for i in range(len(self.parents))
        ]
        return "\n".join(lines)

    @staticmethod
    def from_dump(text: str) -> "TreeArena":
        parents: list[int] = []
        depths: list[int] = []
        statuses: list[Status] = []
        births: list[int] = []
        for line in text.strip().splitlines():
            idx_s, parent_s, depth_s, status_s, birth_s = line.split()
            if int(idx_s) != len(parents):
                raise ValueError("dump lines must be in index order")
            parents.append(int(parent_s))
            depths.append(int(depth_s))
            statuses.append(Status(status_s))
            births.append(int(birth_s))
        height = max(depths) if depths else 0
        active = [i for i, s in enumerate(statuses) if s is Status.ACTIVE]
        return TreeArena(parents, depths, statuses, births, height, active)

    def check_invariants(self) -> None:
        """Raise AssertionError on any structural inconsistency (test hook)."""
        assert self.parents, "arena must contain the root"
        assert self.parents[0] == -1 and self.depths[0] == 0
        for i in range(1, len(self.parents)):
            p = self.parents[i]
            assert 0 <= p < i, f"vertex {i}: parent {p} not earlier"
            assert self.depths[i] == self.depths[p] + 1
        assert self.height == max(self.depths)
        assert sorted(self.active_list) == [
            i for i, s in enumerate(self.statuses) if s is Status.ACTIVE
        ]
