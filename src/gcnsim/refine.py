"""The class-flow root bound, and the move-and-swap descent and transfer
chains that `solve` runs on a walk still unproven after its first dive.

All work in the solver's fixed-point integer watts on plain sequences:
`sets` holds each avatar's feasible cloudlet set, `weights` its placement
weight, `green` each cloudlet's green supply, `capacity` the avatars each
cloudlet hosts, and `reach` maps each feasible set to its cloudlets in
ascending index.
"""

from __future__ import annotations

from bisect import insort
from collections.abc import Mapping, Sequence
from heapq import heapify, heappop, heappush


def flow_bound(sets: Sequence[frozenset[int]], weights: Sequence[int],
               green: Sequence[int],
               reach: Mapping[frozenset[int], tuple[int, ...]]) -> int:
    """The class-flow lower bound on on-grid power.

    Avatars with one feasible set form a class. Route each class's weight
    to the cloudlets it reaches, each cloudlet taking at most its green
    supply: whatever no routing fits must come from the grid, so total
    weight minus the maximum flow is admissible. It is at least the
    aggregate bound, whose routing ignores reach, and equals the maximum
    over class sets S of weight(S) - green(cloudlets S reaches) (Gale's
    supply-demand theorem). Capacities in avatars are ignored.

    The maximum flow is found by shortest augmenting paths: from a class
    with weight left, forward to a cloudlet it reaches, back from a
    cloudlet to a class routing weight to it, and so on until a cloudlet
    with green left.
    """
    weight: dict[frozenset[int], int] = {}
    for fs, w in zip(sets, weights):
        weight[fs] = weight.get(fs, 0) + w
    to = [reach[fs] for fs in weight]  # each class's cloudlets, ascending
    left = list(weight.values())       # class weight not yet routed
    green = list(green)                # cloudlet green supply not yet used
    classes = range(len(left))
    flow = [[0] * len(green) for _ in classes]
    while True:
        # breadth first; from_class[i] is the class a path reached cloudlet
        # i from, from_cloudlet[k] the cloudlet (-1: none) it reached class k
        queue = [k for k in classes if left[k]]
        from_cloudlet = dict.fromkeys(queue, -1)
        from_class: dict[int, int] = {}
        end = -1
        for k in queue:  # grows while it is walked
            for i in to[k]:
                if i in from_class:
                    continue
                from_class[i] = k
                if green[i]:
                    end = i
                    break
                for back in classes:
                    if flow[back][i] and back not in from_cloudlet:
                        from_cloudlet[back] = i
                        queue.append(back)
            if end >= 0:
                break
        if end < 0:
            return sum(left)
        amount, i = green[end], end
        while True:
            k = from_class[i]
            i = from_cloudlet[k]
            if i < 0:
                amount = min(amount, left[k])
                break
            amount = min(amount, flow[k][i])
        green[end] -= amount
        i = end
        while True:
            k = from_class[i]
            flow[k][i] += amount
            i = from_cloudlet[k]
            if i < 0:
                left[k] -= amount
                break
            flow[k][i] -= amount


def _state(place: Sequence[int], weights: Sequence[int],
           green: Sequence[int], capacity: Sequence[int]
           ) -> tuple[list[int], list[int], list[list[int]]]:
    """Per cloudlet of a placement: load - green, room left, and the
    avatars on it in ascending order."""
    ex = [-g for g in green]
    room = list(capacity)
    on: list[list[int]] = [[] for _ in ex]
    for k, i in enumerate(place):
        ex[i] += weights[k]
        room[i] -= 1
        on[i].append(k)
    return ex, room, on


def descent(start: Sequence[int], sets: Sequence[frozenset[int]],
            weights: Sequence[int], green: Sequence[int],
            capacity: Sequence[int],
            reach: Mapping[frozenset[int], tuple[int, ...]]
            ) -> tuple[list[int], int]:
    """First-improvement descent from a complete index-form placement
    that fits `capacity` (avatars per cloudlet): (placement, on-grid
    power), never above the start's.

    Passes over the avatars in order try to move each to the first
    cloudlet, in ascending index, that it reaches, that has room and whose
    move lowers the objective. When a pass moves no avatar, a pass of
    swaps follows: each avatar, against the avatars lighter than it on
    each cloudlet it reaches (cloudlets ascending, avatars in order) whose
    own reach holds its cloudlet. Each improving move or swap is made as
    soon as it is found; the descent stops after a pass of moves and a
    pass of swaps that change nothing.

    Moving weight t > 0 from cloudlet a to cloudlet b, with e = load -
    green, lowers the objective only if e_a > 0 > e_b, and then by
    min(t, e_a) - max(0, e_b + t), which is positive iff t < e_a - e_b.
    """
    place = list(start)
    ex, room, on = _state(place, weights, green, capacity)
    to = list(map(reach.__getitem__, sets))
    moved = True
    while moved:
        moved = False
        for k, a in enumerate(place):
            if ex[a] <= 0:
                continue
            w = weights[k]
            for b in to[k]:
                if ex[b] < 0 and room[b] and 0 < w < ex[a] - ex[b]:
                    ex[a] -= w
                    ex[b] += w
                    room[a] += 1
                    room[b] -= 1
                    place[k] = b
                    on[a].remove(k)
                    insort(on[b], k)
                    moved = True
                    break
        if moved:
            continue
        for k, a in enumerate(place):
            if ex[a] <= 0:
                continue
            w = weights[k]
            for b in to[k]:
                if ex[b] >= 0:
                    continue
                for j in on[b]:
                    t = w - weights[j]
                    if 0 < t < ex[a] - ex[b] and a in sets[j]:
                        ex[a] -= t
                        ex[b] += t
                        place[k], place[j] = b, a
                        on[a].remove(k)
                        insort(on[a], j)
                        on[b].remove(j)
                        insort(on[b], k)
                        moved = True
                        break
                if place[k] != a:
                    break
    return place, sum(e for e in ex if e > 0)


def transfer_chains(start: Sequence[int], sets: Sequence[frozenset[int]],
                    weights: Sequence[int], green: Sequence[int],
                    capacity: Sequence[int],
                    reach: Mapping[frozenset[int], tuple[int, ...]]
                    ) -> tuple[list[int], int]:
    """Transfer chains alternated with `descent` from a complete index-form
    placement that fits `capacity`, until no chain is found: (placement,
    on-grid power), never above the start's.

    With e = load - green per cloudlet, on-grid power is sum(e) plus the
    unused green sum(max(0, -e)), and sum(e) is fixed by the avatars. A
    chain (`_widest_chain`) lowers the unused green of the cloudlet it ends
    on and raises it nowhere, so each one lowers the objective, and the
    alternation stops.
    """
    place = list(start)
    to = list(map(reach.__getitem__, sets))
    while True:
        ex, room, on = _state(place, weights, green, capacity)
        chain = _widest_chain(ex, room, on, weights, to)
        if chain is None:
            return place, sum(e for e in ex if e > 0)
        for k, b in chain:
            place[k] = b
        place, _ = descent(place, sets, weights, green, capacity, reach)


def _widest_chain(ex: Sequence[int], room: Sequence[int],
                  on: Sequence[Sequence[int]], weights: Sequence[int],
                  to: Sequence[tuple[int, ...]]) -> list[tuple[int, int]] | None:
    """A transfer chain as (avatar, cloudlet it moves to) steps in order,
    or None: each step moves one avatar from the cloudlet the step before
    moved one to, along distinct cloudlets c0 -> c1 -> ... -> cL, each
    avatar one that `on` places on the cloudlet it leaves and reaches the
    one it enters. c0 has e > 0 and cL has e < 0 and room for one more
    avatar; every other cloudlet ends at e >= 0, i.e. the avatar leaving
    c_j weighs at most its budget, e(c0) for c0 and e(c_j) plus the weight
    that entered otherwise.

    A widest-path (max-budget Dijkstra) search from every cloudlet with
    e > 0 at once: it settles the cloudlet of largest budget (then lowest
    index), relaxes through each avatar on it of weight in (0, budget], in
    ascending order, to each cloudlet it reaches, in ascending index, and
    returns the first chain that reaches a cloudlet with e < 0 and room.
    """
    budget = [e if e > 0 else 0 for e in ex]
    came: list[tuple[int, int] | None] = [None] * len(ex)  # (from, avatar)
    settled = [False] * len(ex)
    heap = [(-b, i) for i, b in enumerate(budget) if b]
    heapify(heap)
    while heap:
        a = heappop(heap)[1]
        if settled[a]:  # an entry from before its budget rose
            continue
        settled[a] = True
        for k in on[a]:
            w = weights[k]
            if not 0 < w <= budget[a]:
                continue
            for c in to[k]:
                if settled[c]:
                    continue
                if ex[c] < 0 and room[c]:
                    chain = [(k, c)]
                    while came[a] is not None:
                        before, k = came[a]
                        chain.append((k, a))
                        a = before
                    chain.reverse()
                    return chain
                t = ex[c] + w
                if t > budget[c]:
                    budget[c], came[c] = t, (a, k)
                    heappush(heap, (-t, c))
    return None
