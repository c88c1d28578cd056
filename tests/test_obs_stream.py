"""Streaming telemetry: bounded-memory JSONL export and the flight
recorder (ISSUE 4 tentpole, ``repro.obs.stream``).

The load-bearing properties:

* **byte identity** — the streaming exporter's output is byte-for-byte
  the buffered :class:`JsonlExporter`'s for the same event stream (both
  subscribe to the same bus, so the comparison is exact, not stochastic);
* **bounded memory** — resident record count never exceeds the flush
  threshold (or the ring size for the flight recorder), pinned over a
  ≥100k-event DES run (the ISSUE's acceptance criterion);
* **rotation** — concatenating the generations reproduces the full
  stream, with true global ``seq`` numbers throughout.
"""

import json

import pytest

from repro.obs import (HOOK_EVENTS, FlightRecorder, JsonlExporter,
                       StreamingJsonlExporter)
from repro.obs.hooks import HookBus
from repro.runtime import Program
from repro.sim.des import Simulator

SRC = """
input void A;
internal void e;
int v = 0;
par do
   loop do
      await A;
      v = v + 1;
      emit e;
   end
with
   loop do
      await e;
      v = v + 10;
   end
end
"""


def run_with(subscribers, events=10):
    program = Program(SRC)
    for sub in subscribers:
        program.observe(sub)
    program.start()
    for _ in range(events):
        program.send("A")


# ----------------------------------------------------------- byte identity
class TestByteIdentity:
    def test_streaming_matches_buffered_exactly(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        buffered = JsonlExporter()
        with StreamingJsonlExporter(path, flush_every=7) as streaming:
            run_with([buffered, streaming])
        buf_path = tmp_path / "buffered.jsonl"
        buffered.write(buf_path)
        assert path.read_bytes() == buf_path.read_bytes()
        assert len(path.read_text().splitlines()) == \
            len(buffered.records) > 0

    def test_flight_recorder_lines_match_buffered_tail(self, tmp_path):
        buffered = JsonlExporter()
        recorder = FlightRecorder(maxlen=16)
        run_with([buffered, recorder])
        assert recorder.lines() == buffered.lines()[-16:]

    def test_records_are_valid_taxonomy_jsonl(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        with StreamingJsonlExporter(path, flush_every=3) as streaming:
            run_with([streaming])
        for i, line in enumerate(path.read_text().splitlines()):
            rec = json.loads(line)
            assert rec["seq"] == i
            assert set(rec) - {"ev", "seq"} == set(HOOK_EVENTS[rec["ev"]])


# ---------------------------------------------------------- bounded memory
class TestBoundedMemory:
    def test_resident_never_exceeds_flush_threshold(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        with StreamingJsonlExporter(path, flush_every=5) as streaming:
            run_with([streaming], events=40)
            assert streaming.resident_high <= 5
        assert streaming.resident() == 0    # close() drained the tail

    def test_flush_every_validation(self, tmp_path):
        with pytest.raises(ValueError):
            StreamingJsonlExporter(tmp_path / "x.jsonl", flush_every=0)

    def test_flight_recorder_ring_is_bounded(self):
        recorder = FlightRecorder(maxlen=8)
        run_with([recorder], events=30)
        assert len(recorder.ring) == 8
        assert recorder.seq > 8
        assert recorder.dropped == recorder.seq - 8

    def test_flight_recorder_dump(self, tmp_path):
        recorder = FlightRecorder(maxlen=8)
        run_with([recorder], events=30)
        path = tmp_path / "dump.jsonl"
        assert recorder.dump(path) == 8
        lines = path.read_text().splitlines()
        # true global seq numbers survive ring eviction
        seqs = [json.loads(line)["seq"] for line in lines]
        assert seqs == list(range(recorder.seq - 8, recorder.seq))


# ---------------------------------------------------------------- rotation
class TestRotation:
    def test_generations_concatenate_to_full_stream(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        buffered = JsonlExporter()
        with StreamingJsonlExporter(path, flush_every=4,
                                    rotate_bytes=8192,
                                    keep=12) as streaming:
            run_with([buffered, streaming], events=30)
        assert 2 <= streaming.rotations <= streaming.keep
        pieces = []
        for gen in range(streaming.keep, 0, -1):
            gen_path = tmp_path / f"stream.jsonl.{gen}"
            if gen_path.exists():
                pieces.append(gen_path.read_text())
        pieces.append(path.read_text())
        assert "".join(pieces).splitlines() == buffered.lines()

    def test_rotation_caps_single_file_size(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        with StreamingJsonlExporter(path, flush_every=1,
                                    rotate_bytes=500,
                                    keep=50) as streaming:
            run_with([streaming], events=20)
        line_bytes = 200    # generous bound on one flushed batch
        for gen_path in tmp_path.glob("stream.jsonl.*"):
            assert gen_path.stat().st_size <= 500 + line_bytes

    def test_oldest_generation_is_discarded(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        with StreamingJsonlExporter(path, flush_every=1,
                                    rotate_bytes=300,
                                    keep=2) as streaming:
            run_with([streaming], events=25)
        assert streaming.rotations > 2
        generations = sorted(p.name for p in
                             tmp_path.glob("stream.jsonl.*"))
        assert generations == ["stream.jsonl.1", "stream.jsonl.2"]


# -------------------------------------------------- acceptance: ≥100k DES
class TestAcceptanceScale:
    def test_100k_event_des_run_stays_bounded_and_identical(self, tmp_path):
        """The ISSUE 4 acceptance pin: a ≥100k-event DES run through the
        streaming exporter holds at most ``flush_every`` records in
        memory while producing byte-identical output to the buffered
        exporter subscribed to the same bus."""
        n = 50_000          # schedule+fire = 2 hook events each → 100k
        path = tmp_path / "des.jsonl"
        bus = HookBus()
        buffered = bus.subscribe(JsonlExporter())
        with StreamingJsonlExporter(path, flush_every=1024) as streaming:
            bus.subscribe(streaming)
            sim = Simulator(hooks=bus)

            def tick(i=0):
                if i < n:
                    sim.after(7, lambda: tick(i + 1))

            tick()
            sim.run()
            assert streaming.resident_high <= 1024
        assert streaming.seq >= 100_000
        buf_path = tmp_path / "buffered.jsonl"
        buffered.write(buf_path)
        assert path.read_bytes() == buf_path.read_bytes()

    def test_interleaved_instance_buses_share_one_global_seq(self, tmp_path):
        """The farm pattern: N instances, each with its own hook bus,
        all writing through one streaming exporter via
        :class:`~repro.runtime.farm.InstanceTap`.  The shared sink keeps
        ONE global ``seq`` across every writer, each record carries its
        ``inst`` tag, and the resident bound holds regardless of how the
        writers interleave."""
        from repro.runtime.farm import InstanceTap

        path = tmp_path / "fleet.jsonl"
        with StreamingJsonlExporter(path, flush_every=8) as streaming:
            programs = [Program(SRC) for _ in range(5)]
            for inst, program in enumerate(programs):
                program.observe(InstanceTap([streaming], inst))
                program.start()
            for round_ in range(12):
                # round-robin: consecutive records come from different buses
                for program in programs:
                    program.send("A")
            assert streaming.resident_high <= 8
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert [rec["seq"] for rec in records] == list(range(len(records)))
        assert {rec["inst"] for rec in records} == set(range(5))
        for rec in records:
            assert set(rec) - {"ev", "seq", "inst"} == \
                set(HOOK_EVENTS[rec["ev"]])

    def test_interleaved_writers_rotation_and_resident_accounting(
            self, tmp_path):
        """Rotation driven by interleaved writers: concatenating the
        generations reproduces the full fleet stream with each
        instance's subsequence in its own program order, and ``seq``
        still globally gapless; ``resident()`` drains to zero on close."""
        from repro.runtime.farm import InstanceTap

        path = tmp_path / "fleet.jsonl"
        with StreamingJsonlExporter(path, flush_every=2, rotate_bytes=8192,
                                    keep=30) as streaming:
            programs = [Program(SRC) for _ in range(3)]
            for inst, program in enumerate(programs):
                program.observe(InstanceTap([streaming], inst))
                program.start()
            for _ in range(15):
                for program in programs:
                    program.send("A")
            assert streaming.resident() <= 2
        assert streaming.rotations >= 2
        assert streaming.resident() == 0
        pieces = []
        for gen in range(streaming.keep, 0, -1):
            gen_path = tmp_path / f"fleet.jsonl.{gen}"
            if gen_path.exists():
                pieces.append(gen_path.read_text())
        pieces.append(path.read_text())
        records = [json.loads(line)
                   for line in "".join(pieces).splitlines()]
        assert len(records) == streaming.seq
        assert [rec["seq"] for rec in records] == list(range(len(records)))
        by_inst = {}
        for rec in records:
            by_inst.setdefault(rec["inst"], []).append(rec["ev"])
        # every program ran the same workload, so the per-instance event
        # subsequences recovered from the merged stream are identical
        assert len(set(map(tuple, by_inst.values()))) == 1

    def test_interleaved_writers_fan_out_to_stream_and_recorder(self):
        """One tap, two sinks: the flight recorder and the stream keep
        independent global sequences over the same interleaving."""
        from repro.runtime.farm import InstanceTap

        recorder = FlightRecorder(maxlen=32)
        programs = [Program(SRC) for _ in range(4)]
        for inst, program in enumerate(programs):
            program.observe(InstanceTap([recorder], inst))
            program.start()
        for _ in range(10):
            for program in programs:
                program.send("A")
        assert len(recorder.ring) == 32
        tail = [json.loads(line) for line in recorder.lines()]
        assert [rec["seq"] for rec in tail] == \
            list(range(recorder.seq - 32, recorder.seq))
        assert {rec["inst"] for rec in tail} <= set(range(4))

    def test_100k_event_flight_recorder_resident_bound(self):
        n = 50_000
        bus = HookBus()
        recorder = bus.subscribe(FlightRecorder(maxlen=4096))
        sim = Simulator(hooks=bus)

        def tick(i=0):
            if i < n:
                sim.after(7, lambda: tick(i + 1))

        tick()
        sim.run()
        assert recorder.seq >= 100_000
        assert len(recorder.ring) == 4096   # resident ≤ ring size
        assert recorder.dropped == recorder.seq - 4096


# ----------------------------------------------------- single encoding
#: awkward payloads: quotes and backslashes, non-ASCII text, tuples,
#: ``None``, and an object only ``default=repr`` can render
class _Opaque:
    def __repr__(self) -> str:
        return '<opaque "é">'


AWKWARD = ('say "hi"\\n', "ünïcödé ✓", (1, ("a", None)), None, _Opaque(),
           -7, 2.5)


def _args_for(fields):
    return tuple(AWKWARD[i % len(AWKWARD)] for i in range(len(fields)))


class TestSingleEncoding:
    def test_no_taxonomy_field_collides_with_the_envelope(self):
        # the split encoding splices ``ev``/``seq`` before the payload
        # and the farm appends ``inst``: a field of that name would
        # duplicate a key
        for event, fields in HOOK_EVENTS.items():
            assert not {"ev", "seq", "inst"} & set(fields), event

    def test_instance_tap_sinks_equal_the_reference(self, tmp_path):
        from repro.obs import LineTee
        from repro.obs.export import jsonl_line, jsonl_record
        from repro.runtime.farm import InstanceTap

        path = tmp_path / "tap.jsonl"
        stream = StreamingJsonlExporter(path, flush_every=5)
        recorder = FlightRecorder(maxlen=1024)
        tee = LineTee(maxlen=1024)
        recorder.seq, tee.seq = 3, 11        # independent sequences
        sinks = [stream, recorder, tee]
        tap = InstanceTap(sinks, 42)
        expected = {id(sink): [] for sink in sinks}
        for event, fields in HOOK_EVENTS.items():
            args = _args_for(fields)
            for sink in sinks:
                rec = jsonl_record(event, fields, args, sink.seq)
                expected[id(sink)].append(jsonl_line(rec | {"inst": 42}))
            getattr(tap, f"on_{event}")(*args)
        stream.close()
        assert path.read_text().splitlines() == expected[id(stream)]
        assert recorder.lines() == expected[id(recorder)]
        assert list(tee.ring) == expected[id(tee)]
        assert recorder.seq == 3 + len(HOOK_EVENTS)

    def test_line_sinks_and_buffered_lines_equal_the_reference(self):
        from repro.obs.export import jsonl_line, jsonl_record

        recorder = FlightRecorder(maxlen=1024)
        buffered = JsonlExporter()
        expected = []
        for seq, (event, fields) in enumerate(HOOK_EVENTS.items()):
            args = _args_for(fields)
            expected.append(jsonl_line(jsonl_record(event, fields, args,
                                                    seq)))
            for sink in (recorder, buffered):
                getattr(sink, f"on_{event}")(*args)
        assert recorder.lines() == expected
        assert buffered.lines() == expected
        # records appended by hand (the fuzz runner's) may carry no
        # payload at all
        buffered.records.append({"ev": "bare", "seq": len(expected)})
        assert buffered.lines()[-1] == jsonl_line(buffered.records[-1])
