"""A from-scratch Guttman R-tree (insert, delete, window query).

This is the "on-the-fly index" of the paper: SGB-All indexes the bounding
rectangles of the *groups* discovered so far (Procedure 5), and SGB-Any
indexes every processed *point* (Procedure 8).  DBSCAN's region queries also
run on this tree (Figure 11 baseline).

The implementation follows Guttman (1984): ChooseLeaf by least enlargement,
quadratic split, AdjustTree upward, and CondenseTree with re-insertion on
deletion.  Entries pair a :class:`~repro.geometry.rectangle.Rect` with an
arbitrary hashable item; items are what queries return.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import InvalidParameterError
from repro.geometry.rectangle import Rect


def _mindist(point: Sequence[float], lo: Sequence[float],
             hi: Sequence[float]) -> float:
    """Euclidean distance from a point to an axis-aligned box (0 inside)."""
    total = 0.0
    for v, l, h in zip(point, lo, hi):
        if v < l:
            d = l - v
        elif v > h:
            d = v - h
        else:
            continue
        total += d * d
    # float() wrapper: typeshed types ``float ** float`` as Any (it may
    # be complex for negative bases), which trips warn_return_any.
    return float(total ** 0.5)


def _intersects(alo: Sequence[float], ahi: Sequence[float],
                blo: Sequence[float], bhi: Sequence[float]) -> bool:
    """Closed-boundary box intersection on raw corner tuples (hot path)."""
    if len(alo) == 2:  # common 2-D case, unrolled
        return (alo[0] <= bhi[0] and blo[0] <= ahi[0]
                and alo[1] <= bhi[1] and blo[1] <= ahi[1])
    return all(
        al <= bh and bl <= ah for al, ah, bl, bh in zip(alo, ahi, blo, bhi)
    )


class _Entry:
    """Either a (rect, item) leaf entry or a (rect, child-node) branch entry."""

    __slots__ = ("rect", "item", "child")

    def __init__(self, rect: Rect, item: Any = None,
                 child: Optional["_Node"] = None) -> None:
        self.rect = rect
        self.item = item
        self.child = child


class _Node:
    __slots__ = ("leaf", "entries", "parent")

    def __init__(self, leaf: bool) -> None:
        self.leaf = leaf
        self.entries: List[_Entry] = []
        self.parent: Optional["_Node"] = None

    def mbr(self) -> Rect:
        rect = self.entries[0].rect
        for e in self.entries[1:]:
            rect = rect.union(e.rect)
        return rect


class RTree:
    """Dynamic R-tree over (Rect, item) entries.

    Parameters
    ----------
    max_entries:
        Node fanout ``M`` (>= 4).  ``min_entries`` defaults to ``M // 2``.
    """

    def __init__(self, max_entries: int = 8,
                 min_entries: Optional[int] = None) -> None:
        if max_entries < 4:
            raise InvalidParameterError("max_entries must be >= 4")
        self._max = max_entries
        self._min = min_entries if min_entries is not None else max_entries // 2
        if not 1 <= self._min <= self._max // 2:
            raise InvalidParameterError(
                f"min_entries must be in [1, max_entries//2], got {self._min}"
            )
        self._root = _Node(leaf=True)
        self._size = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    @classmethod
    def bulk_load(cls, entries: Iterable[Tuple[Rect, Any]],
                  max_entries: int = 8,
                  min_entries: Optional[int] = None) -> "RTree":
        """Build a packed tree from (Rect, item) pairs in one pass.

        Sort-Tile-Recursive packing in 2-D: sort by x-centre, cut into
        vertical slices, sort each slice by y-centre, fill nodes to
        capacity; higher dimensions fall back to a first-dimension sort
        (still a valid tree, just less tightly packed).  Bulk-built trees
        are ~fully packed, so queries touch fewer nodes than after
        one-at-a-time insertion.
        """
        import math

        tree = cls(max_entries=max_entries, min_entries=min_entries)
        leaf_entries = [_Entry(rect, item=item) for rect, item in entries]
        if not leaf_entries:
            return tree

        def pack_level(items: List[_Entry], leaf: bool) -> List[_Node]:
            dim = len(items[0].rect.lo)
            if dim >= 2:
                items = sorted(
                    items, key=lambda e: (e.rect.lo[0] + e.rect.hi[0])
                )
                n_slices = max(1, math.ceil(
                    math.sqrt(math.ceil(len(items) / tree._max))
                ))
                slice_size = math.ceil(len(items) / n_slices)
                ordered: List[_Entry] = []
                for s in range(0, len(items), slice_size):
                    chunk = sorted(
                        items[s:s + slice_size],
                        key=lambda e: (e.rect.lo[1] + e.rect.hi[1]),
                    )
                    ordered.extend(chunk)
                items = ordered
            else:
                items = sorted(items, key=lambda e: e.rect.lo[0])
            chunks = [items[s:s + tree._max]
                      for s in range(0, len(items), tree._max)]
            # the trailing chunk may underfill the min-entries invariant;
            # rebalance it against its predecessor
            if len(chunks) >= 2 and len(chunks[-1]) < tree._min:
                merged = chunks[-2] + chunks[-1]
                half = len(merged) // 2
                chunks[-2:] = [merged[:half], merged[half:]]
            nodes: List[_Node] = []
            for chunk in chunks:
                node = _Node(leaf=leaf)
                node.entries = chunk
                for e in node.entries:
                    if e.child is not None:
                        e.child.parent = node
                nodes.append(node)
            return nodes

        level = pack_level(leaf_entries, leaf=True)
        while len(level) > 1:
            parents = pack_level(
                [_Entry(n.mbr(), child=n) for n in level], leaf=False
            )
            level = parents
        tree._root = level[0]
        tree._root.parent = None
        tree._size = len(leaf_entries)
        return tree

    def nearest(self, point: Sequence[float],
                k: int = 1) -> List[Tuple[float, Any]]:
        """k nearest entries to ``point`` by Euclidean rect distance.

        Branch-and-bound best-first search; returns ``(distance, item)``
        pairs in ascending distance order (distance to the entry's
        rectangle, which equals point distance for point entries).
        """
        import heapq

        if k < 1 or not self._size:
            return []
        counter = 0  # tie-breaker so heap never compares nodes
        heap: List[Tuple[float, int, Optional[_Node], Any]] = [
            (0.0, counter, self._root, None)
        ]
        results: List[Tuple[float, Any]] = []
        while heap and len(results) < k:
            dist, _, node, item = heapq.heappop(heap)
            if node is None:  # a concrete entry surfaced
                results.append((dist, item))
                continue
            for e in node.entries:
                d = _mindist(point, e.rect.lo, e.rect.hi)
                counter += 1
                if node.leaf:
                    heapq.heappush(heap, (d, counter, None, e.item))
                else:
                    heapq.heappush(heap, (d, counter, e.child, None))
        return results

    def insert(self, rect: Rect, item: Any) -> None:
        """Insert an entry; duplicate (rect, item) pairs are allowed."""
        self._insert_entry(_Entry(rect, item=item), target_leaf=True)
        self._size += 1

    def delete(self, rect: Rect, item: Any) -> bool:
        """Remove one entry matching ``item`` whose stored rect equals ``rect``.

        Returns True if an entry was removed.  Deletion uses Guttman's
        CondenseTree: underfull nodes are dissolved and their entries
        re-inserted.
        """
        leaf = self._find_leaf(self._root, rect, item)
        if leaf is None:
            return False
        for i, entry in enumerate(leaf.entries):
            if entry.item == item and entry.rect == rect:
                del leaf.entries[i]
                break
        self._condense(leaf)
        # Shrink the tree if the root became a lone internal node.
        while not self._root.leaf and len(self._root.entries) == 1:
            lone = self._root.entries[0].child
            assert lone is not None
            self._root = lone
            self._root.parent = None
        self._size -= 1
        return True

    def update(self, old_rect: Rect, new_rect: Rect, item: Any) -> None:
        """Move an item to a new rectangle (delete + insert).

        SGB-All calls this whenever a group's rectangle changes as members
        join or leave.
        """
        if old_rect == new_rect:
            return
        if not self.delete(old_rect, item):
            raise KeyError(f"item {item!r} with rect {old_rect!r} not in index")
        self.insert(new_rect, item)

    def search(self, window: Rect) -> List[Any]:
        """Window query: items whose rect intersects ``window``."""
        out: List[Any] = []
        wlo, whi = window.lo, window.hi
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.leaf:
                for e in node.entries:
                    r = e.rect
                    if _intersects(r.lo, r.hi, wlo, whi):
                        out.append(e.item)
            else:
                for e in node.entries:
                    r = e.rect
                    if _intersects(r.lo, r.hi, wlo, whi):
                        assert e.child is not None
                        stack.append(e.child)
        return out

    def items(self) -> Iterator[Tuple[Rect, Any]]:
        """Iterate every (rect, item) entry in the tree."""
        stack = [self._root]
        while stack:
            node = stack.pop()
            for e in node.entries:
                if node.leaf:
                    yield e.rect, e.item
                else:
                    assert e.child is not None
                    stack.append(e.child)

    def height(self) -> int:
        """Tree height (1 for a lone leaf root) — exposed for tests."""
        h = 1
        node = self._root
        while not node.leaf:
            first = node.entries[0].child
            assert first is not None
            node = first
            h += 1
        return h

    def check_invariants(self) -> None:
        """Raise AssertionError if structural invariants are violated.

        Used heavily by the property-based tests: parent rectangles cover
        children, leaves share one depth, and non-root nodes respect the
        min/max entry bounds.
        """
        depths = set()

        def walk(node: _Node, depth: int, is_root: bool) -> None:
            if not is_root:
                assert self._min <= len(node.entries) <= self._max, (
                    f"node has {len(node.entries)} entries"
                )
            else:
                assert len(node.entries) <= self._max
            if node.leaf:
                depths.add(depth)
                return
            for e in node.entries:
                assert e.child is not None
                assert e.child.parent is node
                # Union-on-descent keeps branch rects covering (possibly
                # not tightly) their subtree.
                assert e.rect.contains_rect(e.child.mbr()), (
                    "branch rect does not cover child"
                )
                walk(e.child, depth + 1, is_root=False)

        if self._size:
            walk(self._root, 0, is_root=True)
            assert len(depths) == 1, "leaves at differing depths"

    # ------------------------------------------------------------------
    # insertion internals
    # ------------------------------------------------------------------
    def _insert_entry(self, entry: _Entry, target_leaf: bool) -> None:
        """ChooseLeaf by least enlargement, unioning branch rects on the way
        down (so no upward MBR adjustment is needed unless a node splits)."""
        node = self._root
        rect = entry.rect
        while not node.leaf:
            best = None
            best_key: Tuple[float, float] = (float("inf"), float("inf"))
            for e in node.entries:
                key = (e.rect.enlargement(rect), e.rect.area())
                if key < best_key:
                    best_key = key
                    best = e
            assert best is not None
            best.rect = best.rect.union(rect)
            assert best.child is not None
            node = best.child
        node.entries.append(entry)
        if entry.child is not None:
            entry.child.parent = node
        if len(node.entries) > self._max:
            self._split_and_adjust(node)

    def _split_and_adjust(self, node: _Node) -> None:
        """Quadratic split of an overfull node, propagating upward."""
        while True:
            group_a, group_b = self._quadratic_split(node.entries)
            node.entries = group_a
            for e in group_a:
                if e.child is not None:
                    e.child.parent = node
            sibling = _Node(leaf=node.leaf)
            sibling.entries = group_b
            for e in group_b:
                if e.child is not None:
                    e.child.parent = sibling

            parent = node.parent
            if parent is None:
                new_root = _Node(leaf=False)
                ea = _Entry(node.mbr(), child=node)
                eb = _Entry(sibling.mbr(), child=sibling)
                new_root.entries = [ea, eb]
                node.parent = new_root
                sibling.parent = new_root
                self._root = new_root
                return
            # Refresh this node's branch rect and add the sibling.
            for e in parent.entries:
                if e.child is node:
                    e.rect = node.mbr()
                    break
            parent.entries.append(_Entry(sibling.mbr(), child=sibling))
            sibling.parent = parent
            if len(parent.entries) > self._max:
                node = parent
                continue
            self._adjust_rects_upward(parent)
            return

    def _quadratic_split(
        self, entries: List[_Entry]
    ) -> Tuple[List[_Entry], List[_Entry]]:
        # PickSeeds: the pair wasting the most area together.
        n = len(entries)
        worst = -1.0
        seed_a, seed_b = 0, 1
        for i in range(n):
            for j in range(i + 1, n):
                waste = (
                    entries[i].rect.union(entries[j].rect).area()
                    - entries[i].rect.area()
                    - entries[j].rect.area()
                )
                if waste > worst:
                    worst = waste
                    seed_a, seed_b = i, j
        group_a = [entries[seed_a]]
        group_b = [entries[seed_b]]
        rect_a = entries[seed_a].rect
        rect_b = entries[seed_b].rect
        rest = [e for k, e in enumerate(entries) if k not in (seed_a, seed_b)]

        while rest:
            # Force assignment when one group must absorb the remainder to
            # reach the minimum fill.
            if len(group_a) + len(rest) == self._min:
                group_a.extend(rest)
                break
            if len(group_b) + len(rest) == self._min:
                group_b.extend(rest)
                break
            # PickNext: entry with max preference difference.
            best_idx = 0
            best_diff = -1.0
            for k, e in enumerate(rest):
                d1 = rect_a.enlargement(e.rect)
                d2 = rect_b.enlargement(e.rect)
                diff = abs(d1 - d2)
                if diff > best_diff:
                    best_diff = diff
                    best_idx = k
            e = rest.pop(best_idx)
            d1 = rect_a.enlargement(e.rect)
            d2 = rect_b.enlargement(e.rect)
            if d1 < d2 or (d1 == d2 and rect_a.area() <= rect_b.area()):
                group_a.append(e)
                rect_a = rect_a.union(e.rect)
            else:
                group_b.append(e)
                rect_b = rect_b.union(e.rect)
        return group_a, group_b

    def _adjust_rects_upward(self, node: _Node) -> None:
        while node.parent is not None:
            parent = node.parent
            for e in parent.entries:
                if e.child is node:
                    updated = node.mbr()
                    if e.rect == updated:
                        return  # nothing changed higher up either
                    e.rect = updated
                    break
            node = parent

    # ------------------------------------------------------------------
    # search / deletion internals
    # ------------------------------------------------------------------
    def _find_leaf(self, node: _Node, rect: Rect, item: Any) -> Optional[_Node]:
        if node.leaf:
            for e in node.entries:
                if e.item == item and e.rect == rect:
                    return node
            return None
        for e in node.entries:
            if e.rect.intersects(rect):
                assert e.child is not None
                found = self._find_leaf(e.child, rect, item)
                if found is not None:
                    return found
        return None

    def _condense(self, node: _Node) -> None:
        """Dissolve underfull ancestors, re-inserting their leaf entries.

        Guttman re-inserts orphaned *subtrees* at their original level; we
        take the simpler, equally correct route of re-inserting the leaf
        entries they contain.  Deletions are rare in SGB workloads (only the
        ELIMINATE / FORM-NEW-GROUP semantics and rectangle updates trigger
        them), so the extra constant factor does not show up.
        """
        orphan_leaf_entries: List[_Entry] = []
        while node.parent is not None:
            parent = node.parent
            if len(node.entries) < self._min:
                parent.entries = [e for e in parent.entries if e.child is not node]
                stack = [node]
                while stack:
                    cur = stack.pop()
                    if cur.leaf:
                        orphan_leaf_entries.extend(cur.entries)
                    else:
                        for e in cur.entries:
                            assert e.child is not None
                            stack.append(e.child)
            else:
                for e in parent.entries:
                    if e.child is node:
                        e.rect = node.mbr()
                        break
            node = parent
        for entry in orphan_leaf_entries:
            entry.child = None
            self._insert_entry(entry, target_leaf=True)
