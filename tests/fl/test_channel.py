"""Tests for communication accounting."""

import numpy as np
import pytest

from repro.fl import CommChannel


class TestChannel:
    def test_upload_download_separation(self):
        ch = CommChannel()
        ch.upload(0, np.zeros(10))
        ch.download(0, np.zeros(5))
        snap = ch.snapshot()
        assert snap.uplink == 40
        assert snap.downlink == 20
        assert snap.total == 60

    def test_per_client_accounting(self):
        ch = CommChannel()
        ch.upload(0, np.zeros(10))
        ch.upload(1, np.zeros(20))
        assert ch.client_bytes(0) == 40
        assert ch.client_bytes(1) == 80
        assert ch.client_bytes(99) == 0

    def test_broadcast(self):
        ch = CommChannel()
        total = ch.broadcast([0, 1, 2], np.zeros(10))
        assert total == 120
        assert ch.snapshot().downlink == 120

    def test_mb_conversion(self):
        ch = CommChannel()
        ch.upload(0, np.zeros(1024 * 1024 // 4))
        assert abs(ch.total_mb - 1.0) < 1e-12

    def test_round_marks_are_cumulative(self):
        ch = CommChannel()
        ch.upload(0, np.zeros(10))
        first = ch.mark_round()
        ch.upload(0, np.zeros(10))
        second = ch.mark_round()
        assert first.uplink == 40
        assert second.uplink == 80
        assert len(ch.round_marks) == 2

    def test_nested_payload(self):
        ch = CommChannel()
        ch.upload(0, {"logits": np.zeros((5, 3)), "protos": [np.zeros(4)]})
        assert ch.snapshot().uplink == (15 + 4) * 4

    @pytest.mark.parametrize("direction", ["upload", "download", "broadcast"])
    def test_bytes_do_not_depend_on_dtype(self, direction):
        """Every array meters as float32 elements: a float64 payload costs
        the paper's float32 bytes, not twice them."""
        metered = []
        for dtype in (np.float64, np.float32, np.int64):
            ch = CommChannel()
            payload = {"w": np.ones((6, 7), dtype=dtype)}
            if direction == "broadcast":
                ch.broadcast([0], payload)
            else:
                getattr(ch, direction)(0, payload)
            metered.append(ch.total_bytes)
        assert metered == [6 * 7 * 4] * 3

    def test_reset(self):
        ch = CommChannel()
        ch.upload(0, np.zeros(10))
        ch.mark_round()
        ch.reset()
        assert ch.total_bytes == 0
        assert ch.round_marks == []

    def test_client_bytes_counts_both_directions(self):
        ch = CommChannel()
        ch.upload(2, np.zeros(10))
        ch.download(1, np.zeros(10))
        ch.download(2, np.zeros(5))
        assert ch.client_bytes(1) == 40
        assert ch.client_bytes(2) == 60
