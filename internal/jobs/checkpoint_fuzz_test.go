package jobs

import (
	"context"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"testing"

	"darwin/internal/olc"
)

// FuzzReadCheckpoint feeds arbitrary bytes to the checkpoint decoder.
// The harness stamps the expected fingerprint and recomputes the CRC,
// so mutated records get past the integrity checks and reach the
// structural validation. The decoder must reject input with a
// CheckpointError or return a checkpoint that re-encodes to itself and
// that layout — the consumer a resumed job feeds it to — accepts
// without panicking.
func FuzzReadCheckpoint(f *testing.F) {
	readLens := []int{1000, 1200, 800, 1500, 900, 1100}
	const fp = 0x5EED
	f.Fuzz(func(t *testing.T, data []byte) {
		buf := append([]byte(nil), data...)
		if len(buf) >= ckptHdrLen+4 {
			le := binary.LittleEndian
			le.PutUint64(buf[8:16], fp)
			le.PutUint32(buf[len(buf)-4:], crc32.Checksum(buf[4:len(buf)-4], castagnoli))
		}
		c, err := decodeCheckpoint("fuzz", buf, fp, readLens)
		if err != nil {
			if !IsCheckpointError(err) {
				t.Fatalf("unstructured rejection: %v", err)
			}
			return
		}
		again, err := decodeCheckpoint("fuzz", encodeCheckpoint(fp, *c), fp, readLens)
		if err != nil || !reflect.DeepEqual(again, c) {
			t.Fatalf("accepted checkpoint does not round-trip: %v", err)
		}
		if _, err := olc.BuildLayoutContext(context.Background(), readLens, c.Overlaps); err != nil {
			t.Fatalf("layout of an accepted checkpoint: %v", err)
		}
	})
}
