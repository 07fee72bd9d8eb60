package jobs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"os"
	"path/filepath"

	"darwin/internal/core"
	"darwin/internal/dna"
)

// Checkpoint file format (little-endian, CRC-32C protected, written
// atomically via temp-file + rename — the indexfile idiom):
//
//	[0:4)   magic "DWCP"
//	[4:8)   version u32 (currently 2)
//	[8:16)  reads fingerprint u64 — FNV-64a over the length-prefixed
//	        read set, so a checkpoint can never resume a different
//	        payload
//	[16:24) next read u64
//	[24:32) overlap count u64
//	then count records of 8 u64/i64 fields each
//	        (target, query, rev, tStart, tEnd, qStart, qEnd, score)
//	last 4  CRC-32C (Castagnoli) over bytes [4 : len−4)
//
// The layout has not changed since version 1; the version bump records
// a change in what the records mean. Version 1 overlaps were extended
// from both reads of a pair, version 2 from the one read that owns
// the pair (core.Overlapper.Run). A resume mixes the checkpoint's
// overlaps with newly extended ones, so a version 1 file resumed by
// this code would match neither version's uninterrupted run; it is
// refused as bad_version instead.
const (
	ckptMagic   = "DWCP"
	ckptVersion = 2
	ckptHdrLen  = 32
	ckptRecLen  = 64
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Stable structured error codes for rejected checkpoint files. The
// server maps any of them to the wire code "checkpoint_corrupt".
const (
	CodeBadMagic         = "bad_magic"
	CodeBadVersion       = "bad_version"
	CodeTruncated        = "truncated"
	CodeChecksumMismatch = "checksum_mismatch"
	CodePayloadMismatch  = "payload_mismatch"
	CodeInvalidStructure = "invalid_structure"
)

// CheckpointError is a structured checkpoint rejection: a stable Code
// (one of the Code* constants), the offending path, and human detail.
type CheckpointError struct {
	Code   string
	Path   string
	Detail string
}

func (e *CheckpointError) Error() string {
	return fmt.Sprintf("jobs: checkpoint %s: %s (%s)", e.Path, e.Detail, e.Code)
}

// IsCheckpointError reports whether err (or anything it wraps) is a
// structured checkpoint rejection.
func IsCheckpointError(err error) bool {
	var ce *CheckpointError
	return errors.As(err, &ce)
}

func ckptErr(code, path, format string, args ...any) *CheckpointError {
	return &CheckpointError{Code: code, Path: path, Detail: fmt.Sprintf(format, args...)}
}

// ReadsFingerprint hashes a read set (FNV-64a over length-prefixed
// bases) for checkpoint↔payload binding.
func ReadsFingerprint(reads []dna.Seq) uint64 {
	h := fnv.New64a()
	var lenBuf [4]byte
	for _, r := range reads {
		binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(r)))
		h.Write(lenBuf[:])
		h.Write(r)
	}
	return h.Sum64()
}

// WriteCheckpoint atomically persists an overlap checkpoint bound to
// the given read fingerprint.
func WriteCheckpoint(path string, fingerprint uint64, c core.OverlapCheckpoint) error {
	buf := encodeCheckpoint(fingerprint, c)
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if _, err = tmp.Write(buf); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// encodeCheckpoint lays out a checkpoint file's bytes.
func encodeCheckpoint(fingerprint uint64, c core.OverlapCheckpoint) []byte {
	buf := make([]byte, ckptHdrLen+ckptRecLen*len(c.Overlaps)+4)
	copy(buf[0:4], ckptMagic)
	le := binary.LittleEndian
	le.PutUint32(buf[4:8], ckptVersion)
	le.PutUint64(buf[8:16], fingerprint)
	le.PutUint64(buf[16:24], uint64(c.NextRead))
	le.PutUint64(buf[24:32], uint64(len(c.Overlaps)))
	off := ckptHdrLen
	for i := range c.Overlaps {
		ov := &c.Overlaps[i]
		rev := uint64(0)
		if ov.QueryRev {
			rev = 1
		}
		for _, v := range [8]uint64{
			uint64(ov.Target), uint64(ov.Query), rev,
			uint64(int64(ov.TargetStart)), uint64(int64(ov.TargetEnd)),
			uint64(int64(ov.QueryStart)), uint64(int64(ov.QueryEnd)),
			uint64(int64(ov.Score)),
		} {
			le.PutUint64(buf[off:off+8], v)
			off += 8
		}
	}
	le.PutUint32(buf[off:off+4], crc32.Checksum(buf[4:off], castagnoli))
	return buf
}

// ReadCheckpoint loads and verifies a checkpoint: magic, version,
// CRC-32C, the binding to the caller's read fingerprint, and then its
// structure against readLens, the lengths of the reads it resumes (see
// checkStructure). Failures are structured CheckpointErrors.
func ReadCheckpoint(path string, fingerprint uint64, readLens []int) (*core.OverlapCheckpoint, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeCheckpoint(path, buf, fingerprint, readLens)
}

// decodeCheckpoint is ReadCheckpoint over the file's bytes; path only
// labels errors.
func decodeCheckpoint(path string, buf []byte, fingerprint uint64, readLens []int) (*core.OverlapCheckpoint, error) {
	if len(buf) < 4 || string(buf[0:4]) != ckptMagic {
		return nil, ckptErr(CodeBadMagic, path, "not a checkpoint file")
	}
	if len(buf) < ckptHdrLen+4 {
		return nil, ckptErr(CodeTruncated, path, "%d bytes, want at least %d", len(buf), ckptHdrLen+4)
	}
	le := binary.LittleEndian
	if v := le.Uint32(buf[4:8]); v != ckptVersion {
		return nil, ckptErr(CodeBadVersion, path, "version %d, want %d", v, ckptVersion)
	}
	count := le.Uint64(buf[24:32])
	// Bound count by the file size before multiplying: a crafted count
	// would otherwise wrap the expected length back onto len(buf).
	if maxCount := uint64((len(buf) - ckptHdrLen - 4) / ckptRecLen); count > maxCount {
		return nil, ckptErr(CodeTruncated, path, "%d bytes hold at most %d overlaps, header claims %d", len(buf), maxCount, count)
	}
	want := ckptHdrLen + ckptRecLen*int(count) + 4
	if len(buf) != want {
		return nil, ckptErr(CodeTruncated, path, "%d bytes, want %d for %d overlaps", len(buf), want, count)
	}
	stored := le.Uint32(buf[len(buf)-4:])
	if got := crc32.Checksum(buf[4:len(buf)-4], castagnoli); got != stored {
		return nil, ckptErr(CodeChecksumMismatch, path, "crc32c %08x, stored %08x", got, stored)
	}
	if fp := le.Uint64(buf[8:16]); fp != fingerprint {
		return nil, ckptErr(CodePayloadMismatch, path, "reads fingerprint %016x, want %016x", fp, fingerprint)
	}
	c := &core.OverlapCheckpoint{
		NextRead: int(le.Uint64(buf[16:24])),
		Overlaps: make([]core.Overlap, count),
	}
	off := ckptHdrLen
	for i := range c.Overlaps {
		f := func() int64 {
			v := int64(le.Uint64(buf[off : off+8]))
			off += 8
			return v
		}
		ov := &c.Overlaps[i]
		ov.Target = int(f())
		ov.Query = int(f())
		ov.QueryRev = f() != 0
		ov.TargetStart = int(f())
		ov.TargetEnd = int(f())
		ov.QueryStart = int(f())
		ov.QueryEnd = int(f())
		ov.Score = int(f())
	}
	if detail := checkStructure(c, readLens); detail != "" {
		return nil, ckptErr(CodeInvalidStructure, path, "%s", detail)
	}
	return c, nil
}

// checkStructure range-checks a decoded checkpoint against the read
// lengths it resumes, returning what is wrong or "". A CRC only proves
// the bytes are the ones written; these checks keep a file written for
// another read set, or crafted, from indexing past the read arrays the
// resumed pass and layout use.
func checkStructure(c *core.OverlapCheckpoint, readLens []int) string {
	n := len(readLens)
	if c.NextRead < 0 || c.NextRead > n {
		return fmt.Sprintf("next read %d outside [0, %d]", c.NextRead, n)
	}
	span := func(read, start, end int) bool {
		return 0 <= start && start <= end && end <= readLens[read]
	}
	for i := range c.Overlaps {
		ov := &c.Overlaps[i]
		switch {
		case ov.Target < 0 || ov.Target >= n || ov.Query < 0 || ov.Query >= n:
			return fmt.Sprintf("overlap %d: reads (%d, %d) outside [0, %d)", i, ov.Target, ov.Query, n)
		case ov.Target == ov.Query:
			return fmt.Sprintf("overlap %d: read %d overlaps itself", i, ov.Target)
		case !span(ov.Target, ov.TargetStart, ov.TargetEnd):
			return fmt.Sprintf("overlap %d: target span [%d, %d) outside read %d of %d bases", i, ov.TargetStart, ov.TargetEnd, ov.Target, readLens[ov.Target])
		case !span(ov.Query, ov.QueryStart, ov.QueryEnd):
			return fmt.Sprintf("overlap %d: query span [%d, %d) outside read %d of %d bases", i, ov.QueryStart, ov.QueryEnd, ov.Query, readLens[ov.Query])
		}
	}
	return ""
}
