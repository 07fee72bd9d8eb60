package jobs

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"darwin/internal/core"
	"darwin/internal/dna"
)

func testCheckpoint() core.OverlapCheckpoint {
	return core.OverlapCheckpoint{
		NextRead: 7,
		Overlaps: []core.Overlap{
			{Target: 0, Query: 3, TargetStart: 100, TargetEnd: 900, QueryStart: 0, QueryEnd: 800, Score: 750},
			{Target: 1, Query: 2, QueryRev: true, TargetStart: 5, TargetEnd: 505, QueryStart: 10, QueryEnd: 510, Score: 480},
		},
	}
}

// testReadLens is a read set testCheckpoint fits: 8 reads of 1000
// bases.
var testReadLens = []int{1000, 1000, 1000, 1000, 1000, 1000, 1000, 1000}

func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "checkpoint.dwc")
	want := testCheckpoint()
	const fp = 0xDEADBEEFCAFE
	if err := WriteCheckpoint(path, fp, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(path, fp, testReadLens)
	if err != nil {
		t.Fatal(err)
	}
	if got.NextRead != want.NextRead || len(got.Overlaps) != len(want.Overlaps) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	for i := range want.Overlaps {
		if got.Overlaps[i] != want.Overlaps[i] {
			t.Errorf("overlap %d: got %+v, want %+v", i, got.Overlaps[i], want.Overlaps[i])
		}
	}
}

func TestCheckpointEmptyOverlaps(t *testing.T) {
	path := filepath.Join(t.TempDir(), "checkpoint.dwc")
	if err := WriteCheckpoint(path, 1, core.OverlapCheckpoint{NextRead: 3}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(path, 1, testReadLens)
	if err != nil {
		t.Fatal(err)
	}
	if got.NextRead != 3 || len(got.Overlaps) != 0 {
		t.Fatalf("got %+v", got)
	}
}

// TestCheckpointCorruption: every corruption class must surface as a
// CheckpointError with its stable code — the contract the recovery
// path and the HTTP error envelope depend on.
func TestCheckpointCorruption(t *testing.T) {
	write := func(t *testing.T) (string, []byte) {
		t.Helper()
		path := filepath.Join(t.TempDir(), "checkpoint.dwc")
		if err := WriteCheckpoint(path, 42, testCheckpoint()); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return path, data
	}

	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		fp      uint64
		wantErr string
	}{
		{"bad magic", func(d []byte) []byte { d[0] ^= 0xFF; return d }, 42, CodeBadMagic},
		{"bad version", func(d []byte) []byte { d[4] = 99; return d }, 42, CodeBadVersion},
		// Version 1 records were extended from both reads of a pair; a
		// resume would mix them with pair-once extensions.
		{"version 1", func(d []byte) []byte { d[4] = 1; return d }, 42, CodeBadVersion},
		{"truncated header", func(d []byte) []byte { return d[:10] }, 42, CodeTruncated},
		{"truncated records", func(d []byte) []byte { return d[:len(d)-20] }, 42, CodeTruncated},
		{"payload bit flip", func(d []byte) []byte { d[40] ^= 0x01; return d }, 42, CodeChecksumMismatch},
		{"wrong fingerprint", func(d []byte) []byte { return d }, 43, CodePayloadMismatch},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path, data := write(t)
			if err := os.WriteFile(path, tc.mutate(data), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := ReadCheckpoint(path, tc.fp, testReadLens)
			if err == nil {
				t.Fatal("corrupt checkpoint read back clean")
			}
			if !IsCheckpointError(err) {
				t.Fatalf("error %v is not a CheckpointError", err)
			}
			var ce *CheckpointError
			if !errors.As(err, &ce) || ce.Code != tc.wantErr {
				t.Errorf("code = %v, want %s", err, tc.wantErr)
			}
		})
	}
}

// TestCheckpointCraftedCount: a header whose overlap count makes
// ckptRecLen × count wrap to zero must be rejected as truncated, not
// allocated. The file is 36 bytes (header + CRC, no records) with
// count = 2^58 and a CRC recomputed over the crafted header, so only
// the count bound stands between it and a huge allocation.
func TestCheckpointCraftedCount(t *testing.T) {
	const fp = 42
	le := binary.LittleEndian
	buf := make([]byte, ckptHdrLen+4)
	copy(buf[0:4], ckptMagic)
	le.PutUint32(buf[4:8], ckptVersion)
	le.PutUint64(buf[8:16], fp)
	le.PutUint64(buf[16:24], 0)
	le.PutUint64(buf[24:32], 1<<58)
	le.PutUint32(buf[32:36], crc32.Checksum(buf[4:32], castagnoli))
	path := filepath.Join(t.TempDir(), "checkpoint.dwc")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := ReadCheckpoint(path, fp, testReadLens)
	var ce *CheckpointError
	if !errors.As(err, &ce) || ce.Code != CodeTruncated {
		t.Fatalf("ReadCheckpoint = %v, want code %s", err, CodeTruncated)
	}
}

// TestCheckpointInvalidStructure: a checkpoint whose CRC and
// fingerprint verify but whose records do not fit the read set is
// rejected as invalid_structure.
func TestCheckpointInvalidStructure(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(c *core.OverlapCheckpoint)
	}{
		{"next read past the reads", func(c *core.OverlapCheckpoint) { c.NextRead = 9 }},
		{"negative next read", func(c *core.OverlapCheckpoint) { c.NextRead = -1 }},
		{"target out of range", func(c *core.OverlapCheckpoint) { c.Overlaps[0].Target = 8 }},
		{"negative query", func(c *core.OverlapCheckpoint) { c.Overlaps[1].Query = -3 }},
		{"self overlap", func(c *core.OverlapCheckpoint) { c.Overlaps[0].Query = c.Overlaps[0].Target }},
		{"target end past read", func(c *core.OverlapCheckpoint) { c.Overlaps[0].TargetEnd = 1001 }},
		{"target start after end", func(c *core.OverlapCheckpoint) { c.Overlaps[0].TargetStart = 901 }},
		{"negative query start", func(c *core.OverlapCheckpoint) { c.Overlaps[1].QueryStart = -1 }},
		{"query end past read", func(c *core.OverlapCheckpoint) { c.Overlaps[1].QueryEnd = 1 << 40 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := testCheckpoint()
			tc.mutate(&c)
			path := filepath.Join(t.TempDir(), "checkpoint.dwc")
			if err := WriteCheckpoint(path, 42, c); err != nil {
				t.Fatal(err)
			}
			_, err := ReadCheckpoint(path, 42, testReadLens)
			var ce *CheckpointError
			if !errors.As(err, &ce) || ce.Code != CodeInvalidStructure {
				t.Fatalf("ReadCheckpoint = %v, want code %s", err, CodeInvalidStructure)
			}
		})
	}
	// The bounds are inclusive where they should be: a span covering a
	// whole read and a pass that has finished every read both load.
	c := testCheckpoint()
	c.NextRead = len(testReadLens)
	c.Overlaps[0].TargetStart, c.Overlaps[0].TargetEnd = 0, 1000
	path := filepath.Join(t.TempDir(), "checkpoint.dwc")
	if err := WriteCheckpoint(path, 42, c); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCheckpoint(path, 42, testReadLens); err != nil {
		t.Fatalf("boundary checkpoint rejected: %v", err)
	}
}

func TestReadsFingerprintSensitivity(t *testing.T) {
	a := []dna.Seq{dna.Seq("ACGTACGT"), dna.Seq("TTTT")}
	b := []dna.Seq{dna.Seq("ACGTACGT"), dna.Seq("TTTA")}
	c := []dna.Seq{dna.Seq("ACGTACG"), dna.Seq("TTTTT")} // same concatenation length
	if ReadsFingerprint(a) == ReadsFingerprint(b) {
		t.Error("fingerprint blind to base change")
	}
	if ReadsFingerprint(a) == ReadsFingerprint(c) {
		t.Error("fingerprint blind to read boundaries")
	}
	if ReadsFingerprint(a) != ReadsFingerprint(a) {
		t.Error("fingerprint not deterministic")
	}
}
