"""Unit tests for the LRW list."""

from repro.core.lrw import LRWList


class Item:
    __slots__ = ("tag",)

    def __init__(self, tag):
        self.tag = tag


def tags(nodes):
    return [n.tag for n in nodes]


def test_empty_list():
    lrw = LRWList()
    assert len(lrw) == 0
    assert lrw.lrw_victim() is None
    assert lrw.iter_lrw_order() == []


def test_touch_inserts_in_order():
    lrw = LRWList()
    a, b, c = Item("a"), Item("b"), Item("c")
    for node in (a, b, c):
        lrw.touch(node)
    assert tags(lrw.iter_lrw_order()) == ["a", "b", "c"]
    assert lrw.lrw_victim() is a
    assert len(lrw) == 3


def test_touch_moves_to_mrw():
    lrw = LRWList()
    a, b, c = Item("a"), Item("b"), Item("c")
    for node in (a, b, c):
        lrw.touch(node)
    lrw.touch(a)
    assert tags(lrw.iter_lrw_order()) == ["b", "c", "a"]
    assert lrw.lrw_victim() is b


def test_remove():
    lrw = LRWList()
    a, b = Item("a"), Item("b")
    lrw.touch(a)
    lrw.touch(b)
    lrw.remove(a)
    assert tags(lrw.iter_lrw_order()) == ["b"]
    assert len(lrw) == 1
    assert a not in lrw
    assert b in lrw


def test_remove_absent_is_noop():
    lrw = LRWList()
    a = Item("a")
    lrw.remove(a)
    assert len(lrw) == 0


def test_remove_then_touch_reinserts():
    lrw = LRWList()
    a, b = Item("a"), Item("b")
    lrw.touch(a)
    lrw.touch(b)
    lrw.remove(a)
    lrw.touch(a)
    assert tags(lrw.iter_lrw_order()) == ["b", "a"]


def test_victim_order_is_fifo_for_distinct_writes():
    lrw = LRWList()
    items = [Item(i) for i in range(10)]
    for item in items:
        lrw.touch(item)
    victims = []
    while lrw.lrw_victim() is not None:
        victim = lrw.lrw_victim()
        lrw.remove(victim)
        victims.append(victim.tag)
    assert victims == list(range(10))
