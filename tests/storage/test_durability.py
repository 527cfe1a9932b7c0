"""Journal codec, writer, and torn-tail behaviour."""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reliability import faults
from repro.relational.column import ColumnType
from repro.storage.durability import (
    JournalError,
    JournalWriter,
    decode_record,
    encode_record,
    read_journal,
    table_from_payload,
    table_to_payload,
)

from tests.serving.conftest import append_table


class TestRecordCodec:
    def test_round_trip(self):
        record = {"kind": "append", "seq": 7, "table": {"name": "t", "columns": []}}
        blob = encode_record(record)
        decoded, end = decode_record(blob)
        assert decoded == record
        assert end == len(blob)

    def test_decode_at_offset(self):
        first = encode_record({"kind": "applied", "seqs": [1], "snapshot_version": 1})
        second = encode_record({"kind": "dropped", "seqs": [2]})
        blob = first + second
        record, end = decode_record(blob, len(first))
        assert record["kind"] == "dropped"
        assert end == len(blob)

    def test_truncated_header_rejected(self):
        with pytest.raises(JournalError, match="truncated record header"):
            decode_record(b"\x00\x00")

    def test_truncated_payload_rejected(self):
        blob = encode_record({"kind": "append", "seq": 1})
        with pytest.raises(JournalError, match="truncated record payload"):
            decode_record(blob[:-1])

    def test_crc_mismatch_rejected(self):
        blob = bytearray(encode_record({"kind": "append", "seq": 1}))
        blob[-1] ^= 0xFF
        with pytest.raises(JournalError, match="CRC mismatch"):
            decode_record(bytes(blob))

    def test_implausible_length_rejected(self):
        blob = b"\xff\xff\xff\xff" + b"\x00" * 16
        with pytest.raises(JournalError, match="implausible record length"):
            decode_record(blob)

    def test_unkinded_record_rejected(self):
        payload = json.dumps([1, 2]).encode()
        import struct
        import zlib

        blob = struct.pack(">II", len(payload), zlib.crc32(payload)) + payload
        with pytest.raises(JournalError, match="not a kinded object"):
            decode_record(blob)

    @settings(max_examples=50, deadline=None)
    @given(
        seq=st.integers(min_value=1, max_value=2**31),
        rows=st.lists(
            st.tuples(
                st.sampled_from(["East", "South", "West", "North"]),
                st.sampled_from(["Spring", "Summer", "Fall", "Winter"]),
                st.floats(
                    min_value=-1e6, max_value=1e6, allow_nan=False, width=32
                ),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    def test_append_record_round_trips(self, seq, rows):
        table = append_table([(r, s, float(d)) for r, s, d in rows])
        record = {"kind": "append", "seq": seq, "table": table_to_payload(table)}
        decoded, _ = decode_record(encode_record(record))
        assert decoded["seq"] == seq
        rebuilt = table_from_payload(decoded["table"])
        assert rebuilt.name == table.name
        assert [c.name for c in rebuilt.columns] == [c.name for c in table.columns]
        assert [c.ctype for c in rebuilt.columns] == [c.ctype for c in table.columns]
        assert [c.values for c in rebuilt.columns] == [c.values for c in table.columns]


class TestTableCodec:
    def test_round_trip_preserves_schema_order(self):
        table = append_table([("East", "Winter", 55.0)])
        rebuilt = table_from_payload(table_to_payload(table))
        assert [c.name for c in rebuilt.columns] == ["region", "season", "delay"]
        assert rebuilt.columns[2].ctype is ColumnType.NUMERIC

    def test_malformed_payload_rejected(self):
        with pytest.raises(JournalError, match="malformed table payload"):
            table_from_payload({"name": "t"})
        with pytest.raises(JournalError, match="malformed table payload"):
            table_from_payload({"name": "t", "columns": [{"name": "x"}]})


class TestJournalWriter:
    def test_missing_file_scans_empty(self, tmp_path):
        scan = read_journal(tmp_path / "absent.wal")
        assert scan.records == ()
        assert scan.good_offset == 0
        assert scan.next_seq == 1
        assert scan.truncated_reason is None

    def test_append_marks_and_scan(self, tmp_path):
        path = tmp_path / "journal.wal"
        writer = JournalWriter(path)
        batch = append_table([("East", "Winter", 55.0)])
        assert writer.log_append(batch) == 1
        assert writer.log_append(batch) == 2
        writer.mark_applied([1, 2], snapshot_version=1)
        assert writer.log_append(batch) == 3
        writer.mark_dropped([3])
        writer.close()

        scan = read_journal(path)
        assert [entry.kind for entry in scan.records] == [
            "append", "append", "applied", "append", "dropped",
        ]
        assert scan.next_seq == 4
        assert scan.records[2].record["seqs"] == [1, 2]
        assert scan.dropped_seqs() == frozenset({3})
        assert scan.good_offset == path.stat().st_size
        assert scan.truncated_reason is None

    def test_rebuildable_seq_stops_at_the_first_missing_batch(self, tmp_path):
        path = tmp_path / "journal.wal"
        assert read_journal(path).rebuildable_seq() == 0
        writer = JournalWriter(path)
        batch = append_table([("East", "Winter", 55.0)])
        writer.log_append(batch)
        writer.log_append(batch)
        writer.mark_dropped([3])  # a dropped seq counts without its record
        writer.close()
        writer = JournalWriter(path, next_seq=5)  # seq 4 is missing
        writer.log_append(batch)
        writer.close()
        assert read_journal(path).rebuildable_seq() == 3

    def test_empty_marker_lists_not_written(self, tmp_path):
        writer = JournalWriter(tmp_path / "journal.wal")
        writer.mark_applied([], snapshot_version=1)
        writer.mark_dropped([])
        writer.close()
        assert read_journal(tmp_path / "journal.wal").records == ()

    def test_torn_tail_stops_scan_at_last_good_record(self, tmp_path):
        path = tmp_path / "journal.wal"
        writer = JournalWriter(path)
        batch = append_table([("East", "Winter", 55.0)])
        writer.log_append(batch)
        good = writer.offset
        writer.log_append(batch)
        writer.close()
        # Tear the second record mid-payload, as a crash mid-write would.
        with open(path, "r+b") as handle:
            handle.truncate(good + 10)

        scan = read_journal(path)
        assert len(scan.records) == 1
        assert scan.good_offset == good
        assert scan.truncated_reason is not None
        assert "truncated record payload" in scan.truncated_reason

    def test_corrupt_middle_record_sacrifices_rest(self, tmp_path):
        path = tmp_path / "journal.wal"
        writer = JournalWriter(path)
        batch = append_table([("East", "Winter", 55.0)])
        writer.log_append(batch)
        first_end = writer.offset
        writer.log_append(batch)
        writer.log_append(batch)
        writer.close()
        blob = bytearray(path.read_bytes())
        blob[first_end + 12] ^= 0xFF  # flip a byte inside record 2's payload
        path.write_bytes(bytes(blob))

        scan = read_journal(path)
        assert len(scan.records) == 1
        assert scan.good_offset == first_end
        assert "CRC mismatch" in scan.truncated_reason

    def test_writer_heals_torn_tail_before_appending(self, tmp_path):
        path = tmp_path / "journal.wal"
        writer = JournalWriter(path)
        batch = append_table([("East", "Winter", 55.0)])
        writer.log_append(batch)
        writer.close()
        with open(path, "ab") as handle:
            handle.write(b"\x00\x01garbage")

        scan = read_journal(path)
        assert scan.truncated_reason is not None
        healed = JournalWriter(
            path, next_seq=scan.next_seq, truncate_at=scan.good_offset
        )
        assert healed.log_append(batch) == 2
        healed.close()

        rescanned = read_journal(path)
        assert rescanned.truncated_reason is None
        assert [entry.record["seq"] for entry in rescanned.records] == [1, 2]

    @staticmethod
    def record_fsyncs(monkeypatch) -> list[int]:
        """Inode of every fsync'd descriptor, in call order."""
        synced: list[int] = []
        real_fsync = os.fsync

        def recording(fd: int) -> None:
            synced.append(os.fstat(fd).st_ino)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording)
        return synced

    def test_creating_the_journal_fsyncs_its_directory(self, tmp_path, monkeypatch):
        synced = self.record_fsyncs(monkeypatch)
        directory = tmp_path / "data"
        writer = JournalWriter(directory / "journal.wal", fsync=True)
        assert writer.log_append(append_table([("East", "Winter", 55.0)])) == 1
        # Acked under fsync: the file's directory entry is durable too.
        assert directory.stat().st_ino in synced
        writer.close()

        synced.clear()
        reopened = JournalWriter(directory / "journal.wal", next_seq=2)
        reopened.close()
        assert synced == []  # an existing journal's entry already is

    def test_healing_a_torn_tail_fsyncs_the_truncation(self, tmp_path, monkeypatch):
        path = tmp_path / "journal.wal"
        writer = JournalWriter(path)
        writer.log_append(append_table([("East", "Winter", 55.0)]))
        writer.close()
        good = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(b"\x00\x01garbage")

        synced = self.record_fsyncs(monkeypatch)
        JournalWriter(path, next_seq=2, truncate_at=good).close()
        assert path.stat().st_size == good
        assert synced == [path.stat().st_ino]

    def test_closed_writer_rejects_writes(self, tmp_path):
        writer = JournalWriter(tmp_path / "journal.wal")
        writer.close()
        with pytest.raises(JournalError, match="closed"):
            writer.log_append(append_table([("East", "Winter", 1.0)]))


class TestJournalFailpoints:
    def test_journal_write_fault_persists_nothing(self, tmp_path):
        faults.FAILPOINTS.configure(["journal.write:times=1"])
        writer = JournalWriter(tmp_path / "journal.wal")
        batch = append_table([("East", "Winter", 55.0)])
        with pytest.raises(faults.InjectedFault):
            writer.log_append(batch)
        # Nothing was written and the seq was not consumed.
        assert writer.offset == 0
        assert writer.next_seq == 1
        assert writer.log_append(batch) == 1
        writer.close()
        assert len(read_journal(tmp_path / "journal.wal").records) == 1

    def test_journal_sync_fault_fires_after_record_is_durable(self, tmp_path):
        faults.FAILPOINTS.configure(["journal.sync:times=1"])
        writer = JournalWriter(tmp_path / "journal.wal")
        batch = append_table([("East", "Winter", 55.0)])
        with pytest.raises(faults.InjectedFault):
            writer.log_append(batch)
        writer.close()
        # The torn-ack crash: record durable, caller never acked.
        scan = read_journal(tmp_path / "journal.wal")
        assert [entry.record["seq"] for entry in scan.records] == [1]
