"""Time-reversed construction: grow a forest backwards, coalescing roots.

The sequence is read right to left.  Starting from one singleton per vertex
that ends active, a freeze step (read backwards) appends a frozen singleton in
the last position, and an attach step draws an ordered pair of distinct
positions and grafts the second tree onto the root of the first, removing the
second position.  After processing the suffix from step i on, the forest holds
exactly walk-value-at-i trees; the single tree left at the end has the same
law as the forward construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SelfGraft
from .rng import Driver, RngStream, _as_driver
from .sequences import ChoiceSequence, require_valid
from .tree import Status, TreeArena


@dataclass(frozen=True)
class RootedTreeHandle:
    """A tree in a forest: root vertex index into the shared store plus its
    cached height."""

    root: int
    height: int


class Forest:
    """Ordered list of rooted trees over one shared vertex store.

    Positions are 0-based here (the construction's positional case split is
    stated 1-based elsewhere; subtract one).  Grafting never copies vertices:
    it just reparents the donor's root and replaces two slots with one.
    """

    def __init__(self) -> None:
        self._parents: list[int] = []
        self._statuses: list[Status] = []
        self._births: list[int] = []
        self.slots: list[RootedTreeHandle] = []

    @property
    def tree_count(self) -> int:
        return len(self.slots)

    def add_singleton(self, status: Status, birth_step: int) -> None:
        """Append a one-vertex tree in the last position."""
        v = len(self._parents)
        self._parents.append(-1)
        self._statuses.append(status)
        self._births.append(birth_step)
        self.slots.append(RootedTreeHandle(root=v, height=0))

    def graft_positions(self, target_pos: int, donor_pos: int) -> None:
        """Hang the tree at donor_pos under the root of the one at target_pos
        and drop the donor slot; remaining slots keep their relative order.
        The merged tree's height is max(target height, donor height + 1)."""
        target, donor = self.slots[target_pos], self.slots[donor_pos]
        if target.root == donor.root:
            raise SelfGraft("cannot graft a tree onto itself")
        self._parents[donor.root] = target.root
        merged = RootedTreeHandle(
            root=target.root, height=max(target.height, donor.height + 1)
        )
        self.slots.pop(donor_pos)
        self.slots[target_pos if target_pos < donor_pos else target_pos - 1] = merged

    def to_arena(self) -> TreeArena:
        """Finalize the single remaining tree as an arena.

        Vertices are relabelled root-first so that parents precede children;
        birth steps follow the relabelling.
        """
        if self.tree_count != 1:
            raise ValueError(f"forest still has {self.tree_count} trees")
        root = self.slots[0].root
        children: dict[int, list[int]] = {}
        for v, p in enumerate(self._parents):
            if p >= 0:
                children.setdefault(p, []).append(v)

        order = [root]
        depths = [0]
        parents = [-1]
        new_index = {root: 0}
        cursor = 0
        while cursor < len(order):
            v = order[cursor]
            for child in children.get(v, ()):
                new_index[child] = len(order)
                order.append(child)
                parents.append(new_index[v])
                depths.append(depths[new_index[v]] + 1)
            cursor += 1
        statuses = [self._statuses[v] for v in order]
        return TreeArena(
            parents=parents,
            depths=depths,
            statuses=statuses,
            birth_steps=[self._births[v] for v in order],
            height=max(depths),
            active_list=[i for i, s in enumerate(statuses) if s is Status.ACTIVE],
        )


def build_reverse(seq: ChoiceSequence, rng: RngStream | Driver) -> TreeArena:
    """Run the reversed growth-coalescent construction for one sample.

    Starts from one active singleton per finally-active vertex; sequences that
    end fully frozen simply start from an empty forest and let the trailing
    freeze steps populate it.  Raises InvalidSequence when the walk dies early.
    """
    require_valid(seq)
    driver = _as_driver(rng)
    m = len(seq)

    forest = Forest()
    for _ in range(seq.walk.final):
        forest.add_singleton(Status.ACTIVE, birth_step=m)
    for i in range(m, 0, -1):
        if not seq.attach_flags()[i - 1]:
            forest.add_singleton(Status.FROZEN, birth_step=i)
        else:
            a, b = driver.distinct_pair(forest.tree_count)
            forest.graft_positions(a, b)
    return forest.to_arena()
