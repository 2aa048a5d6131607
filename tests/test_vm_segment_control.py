"""Tests for the active segment table."""

import pytest

from repro.hw.memory import MemoryHierarchy
from repro.vm.segment_control import ActiveSegment, ActiveSegmentTable


@pytest.fixture
def ast(config):
    return ActiveSegmentTable(MemoryHierarchy(config))


class TestActiveSegment:
    def test_fresh_segment_nothing_resident(self):
        seg = ActiveSegment(uid=1, n_pages=3)
        assert seg.n_pages == 3
        assert seg.resident_pages() == []

    def test_negative_pages_rejected(self):
        with pytest.raises(ValueError):
            ActiveSegment(uid=1, n_pages=-1)


class TestActiveSegmentTable:
    def test_activate_allocates_disk_homes(self, ast):
        seg = ast.activate(uid=7, n_pages=4)
        assert 7 in ast
        assert all(h is not None and h.level == "disk" for h in seg.homes)
        assert ast.hierarchy.disk.used_count == 4

    def test_activate_with_initial_data(self, ast, config):
        data = [[i] * config.page_size for i in range(2)]
        seg = ast.activate(uid=1, n_pages=2, initial_data=data)
        disk = ast.hierarchy.disk
        assert disk.read_page(seg.homes[0].frame) == data[0]
        assert disk.read_page(seg.homes[1].frame) == data[1]

    def test_double_activation_shares(self, ast):
        a = ast.activate(uid=3, n_pages=1)
        b = ast.activate(uid=3, n_pages=1)
        assert a is b
        assert ast.activations == 1

    def test_deactivate_with_resident_pages_refused(self, ast):
        seg = ast.activate(uid=3, n_pages=1)
        seg.ptws[0].place(frame=0)
        with pytest.raises(RuntimeError):
            ast.drop(3)
        assert 3 in ast

    def test_get_unknown_uid(self, ast):
        with pytest.raises(KeyError):
            ast.get(99)

    def test_destroy_frees_homes(self, ast):
        seg = ast.activate(uid=5, n_pages=3)
        before = ast.hierarchy.disk.used_count
        ast.drop(5)
        assert ast.hierarchy.disk.used_count == before - 3
        assert seg.homes == [None] * 3
        assert 5 not in ast

    def test_home_level(self, ast):
        seg = ast.activate(uid=5, n_pages=1)
        assert seg.homes[0].level == "disk"
        assert ast.hierarchy.disk.is_allocated(seg.homes[0].frame)

    def test_len(self, ast):
        ast.activate(uid=1, n_pages=1)
        ast.activate(uid=2, n_pages=1)
        assert len(ast) == 2
