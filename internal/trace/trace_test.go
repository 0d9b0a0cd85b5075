package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"io"
	"reflect"
	"runtime"
	"testing"

	"faros/internal/record"
	"faros/internal/samples"
)

// testMeta builds a header around a real spec's wire form so round trips
// exercise the embedded-spec path end to end.
func testMeta(t *testing.T) Meta {
	t.Helper()
	spec := samples.ReflectiveDLLInject()
	wire, err := samples.MarshalSpec(spec)
	if err != nil {
		t.Fatalf("MarshalSpec: %v", err)
	}
	return Meta{
		Scenario: spec.Name,
		SpecWire: wire,
		SpecHash: Digest(wire),
		MemImage: samples.MemImageDigest(spec),
	}
}

// testEvents returns a log with varied field shapes: empty data, large
// data (multiple chunks), max-range varints.
func testEvents() []record.Event {
	big := make([]byte, 3*chunkBytes/2)
	for i := range big {
		big[i] = byte(i * 7)
	}
	return []record.Event{
		{At: 0, Kind: record.EvKeyboard, Data: []byte("hi")},
		{At: 1, Kind: record.EvPacketIn, Flow: 3, Seq: 9, Sum: 0xDEADBEEF, Data: []byte{0}},
		{At: 1 << 40, Kind: record.EvAudio, Flow: ^uint32(0), Seq: ^uint32(0), Sum: ^uint32(0), Data: big},
		{At: 5, Kind: record.EvFlowClose, Flow: 3},
		{At: ^uint64(0), Kind: record.EvShutdown},
	}
}

func TestCodecRoundTrip(t *testing.T) {
	meta := testMeta(t)
	meta.FinalInstr = 123456
	events := testEvents()

	var buf bytes.Buffer
	digest, err := Encode(&buf, meta, events)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	data := buf.Bytes()
	if digest != Digest(data) {
		t.Fatalf("writer digest %s != content digest %s", digest, Digest(data))
	}

	got, log, err := DecodeBytes(data)
	if err != nil {
		t.Fatalf("DecodeBytes: %v", err)
	}
	if got.Scenario != meta.Scenario || got.SpecHash != meta.SpecHash ||
		got.MemImage != meta.MemImage || got.FinalInstr != meta.FinalInstr {
		t.Fatalf("meta round trip: got %+v", got)
	}
	if !bytes.Equal(got.SpecWire, meta.SpecWire) {
		t.Fatal("spec wire did not round trip")
	}
	if got.Events != uint64(len(events)) {
		t.Fatalf("event count %d, want %d", got.Events, len(events))
	}
	if len(log.Events) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(log.Events), len(events))
	}
	for i := range events {
		if !reflect.DeepEqual(normalize(events[i]), normalize(log.Events[i])) {
			t.Fatalf("event %d: got %+v want %+v", i, log.Events[i], events[i])
		}
	}
	if log.Scenario != meta.Scenario || log.FinalInstr != meta.FinalInstr {
		t.Fatalf("log header: %q %d", log.Scenario, log.FinalInstr)
	}

	// The streaming reader reports the same content address once drained.
	tr, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := tr.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if tr.Digest() != digest {
		t.Fatalf("reader digest %s, want %s", tr.Digest(), digest)
	}
}

// normalize maps empty and nil data to the same shape for comparison.
func normalize(ev record.Event) record.Event {
	if len(ev.Data) == 0 {
		ev.Data = nil
	}
	return ev
}

func TestCodecEmptyLog(t *testing.T) {
	meta := testMeta(t)
	var buf bytes.Buffer
	if _, err := Encode(&buf, meta, nil); err != nil {
		t.Fatalf("Encode empty: %v", err)
	}
	got, log, err := DecodeBytes(buf.Bytes())
	if err != nil {
		t.Fatalf("DecodeBytes empty: %v", err)
	}
	if got.Events != 0 || len(log.Events) != 0 {
		t.Fatalf("empty log decoded to %d events", len(log.Events))
	}
}

func TestWriterEventCountMismatch(t *testing.T) {
	meta := testMeta(t)
	meta.Events = 2
	var buf bytes.Buffer
	w, err := NewWriter(&buf, meta)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(record.Event{Kind: record.EvShutdown}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close accepted 1 event against a declared count of 2")
	}
}

func TestWriterRejectsBadSpecHash(t *testing.T) {
	meta := testMeta(t)
	meta.SpecHash = Digest([]byte("not the spec"))
	var ce *CorruptError
	if _, err := NewWriter(io.Discard, meta); !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CorruptError", err)
	}
}

// TestTruncationAlwaysDetected: every proper prefix of a valid trace must
// fail to decode — no truncation point yields a silently shorter log.
func TestTruncationAlwaysDetected(t *testing.T) {
	meta := testMeta(t)
	var buf bytes.Buffer
	if _, err := Encode(&buf, meta, testEvents()); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	step := 1
	if len(data) > 4096 {
		step = len(data) / 4096 // sample large traces; always include 0
	}
	for n := 0; n < len(data); n += step {
		if _, _, err := DecodeBytes(data[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded cleanly", n, len(data))
		}
	}
}

// TestBitFlipAlwaysDetected: flipping any single bit must surface as an
// error (typed *CorruptError unless the flip lands in the uncompressed
// header copy of the spec wire, where validation rejects it either way).
// Positions are drawn from the same seeded generator the chaos package
// uses, so failures reproduce from the seed.
func TestBitFlipAlwaysDetected(t *testing.T) {
	meta := testMeta(t)
	var buf bytes.Buffer
	if _, err := Encode(&buf, meta, testEvents()); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	state := uint64(0xFA205_7)
	next := func() uint64 {
		state += 0x9E3779B97F4A7C15
		z := state
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	for i := 0; i < 256; i++ {
		pos := int(next() % uint64(len(data)))
		bit := byte(1) << (next() % 8)
		bad := append([]byte(nil), data...)
		bad[pos] ^= bit
		if _, _, err := DecodeBytes(bad); err == nil {
			t.Fatalf("bit flip at byte %d (mask %#x) decoded cleanly", pos, bit)
		}
	}
}

func TestLegacyGobRecognized(t *testing.T) {
	// The retired encoding: gob over the old record.Log shape.
	old := struct {
		Scenario   string
		Events     []record.Event
		FinalInstr uint64
	}{Scenario: "ancient", Events: testEvents(), FinalInstr: 42}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(old); err != nil {
		t.Fatal(err)
	}
	var le *LegacyFormatError
	if _, _, err := DecodeBytes(buf.Bytes()); !errors.As(err, &le) {
		t.Fatalf("err = %v, want *LegacyFormatError", err)
	}
	// Arbitrary garbage is corruption, not a legacy blob.
	var ce *CorruptError
	if _, _, err := DecodeBytes([]byte("certainly not a trace")); !errors.As(err, &ce) {
		t.Fatalf("garbage err = %v, want *CorruptError", err)
	}
}

func TestReadMetaHeaderOnly(t *testing.T) {
	meta := testMeta(t)
	meta.FinalInstr = 7
	var buf bytes.Buffer
	if _, err := Encode(&buf, meta, testEvents()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMeta(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Scenario != meta.Scenario || got.FinalInstr != 7 || got.Events != uint64(len(testEvents())) {
		t.Fatalf("ReadMeta: %+v", got)
	}
}

// oversizeHeaders returns bodies whose header declares far more than the
// body carries: a 64 MiB spec wire in 10 bytes, 2^40 events behind a
// complete 87-byte header, and that header followed by a 64 MiB chunk
// length.
func oversizeHeaders() map[string][]byte {
	specWire := []byte{'F', 'T', 'R', 'C', version, 0, 0x80, 0x80, 0x80, 0x20}
	var hdr bytes.Buffer
	hdr.WriteString(magic)
	hdr.WriteByte(version)
	hdr.Write([]byte{0, 0}) // empty scenario name and spec wire
	empty := sha256.Sum256(nil)
	hdr.Write(empty[:])
	hdr.Write(make([]byte, sha256.Size+8)) // memory image, final instr
	var count [8]byte
	binary.BigEndian.PutUint64(count[:], 1<<40)
	hdr.Write(count[:])
	events := hdr.Bytes()
	chunk := append(append([]byte(nil), events...), 0x80, 0x80, 0x80, 0x20)
	return map[string][]byte{"spec wire": specWire, "events": events, "chunk": chunk}
}

// TestDecodeBoundsAllocations: lengths a header declares reserve no
// memory the body does not back. Each crafted body fails as corrupt
// having allocated well under 1 MiB.
func TestDecodeBoundsAllocations(t *testing.T) {
	for name, body := range oversizeHeaders() {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, _, err := DecodeBytes(body)
		runtime.ReadMemStats(&after)
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Errorf("%s (%d bytes): err = %v, want *CorruptError", name, len(body), err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("%s (%d bytes): decode allocated %d bytes, want < 1 MiB", name, len(body), got)
		}
	}
}

// FuzzDecodeBytes: the decoder never panics, fails only with its typed
// errors, and whatever it accepts re-encodes to a trace that decodes to
// the same header and log.
func FuzzDecodeBytes(f *testing.F) {
	// Small seeds keep the fuzzer's mutations and minimization cheap; a
	// real spec's wire form is kilobytes of JSON the decoder only hashes.
	small := Meta{Scenario: "s", SpecWire: []byte(`{"name":"s"}`)}
	var events []record.Event
	for _, ev := range testEvents() {
		if len(ev.Data) < 16 {
			events = append(events, ev)
		}
	}
	for _, seed := range []struct {
		meta   Meta
		events []record.Event
	}{{small, nil}, {small, events}} {
		var buf bytes.Buffer
		if _, err := Encode(&buf, seed.meta, seed.events); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, body := range oversizeHeaders() {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		meta, log, err := DecodeBytes(data)
		if err != nil {
			var ce *CorruptError
			var le *LegacyFormatError
			if !errors.As(err, &ce) && !errors.As(err, &le) {
				t.Fatalf("untyped decode error %T: %v", err, err)
			}
			return
		}
		var buf bytes.Buffer
		if _, err := Encode(&buf, meta, log.Events); err != nil {
			t.Fatalf("re-encode accepted trace: %v", err)
		}
		meta2, log2, err := DecodeBytes(buf.Bytes())
		if err != nil {
			t.Fatalf("decode re-encoded trace: %v", err)
		}
		if !reflect.DeepEqual(meta, meta2) || !reflect.DeepEqual(log, log2) {
			t.Fatalf("round trip changed the trace:\n got %+v %+v\nwant %+v %+v", meta2, log2, meta, log)
		}
	})
}
