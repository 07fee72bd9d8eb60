package indexio

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"

	"darwin/internal/core"
)

// TestDenseBuildBytesPinned pins the .dwi bytes of dense-table builds —
// local-count masking, minimizer sampling, and per-shard builds under a
// global mask — to the sha256s the two-array counting sort produced
// before the dense build filled its pointer array in place. Any change
// to table contents or layout changes these bytes.
func TestDenseBuildBytesPinned(t *testing.T) {
	for _, c := range []struct {
		name   string
		k, win int
		shards int
		want   string
	}{
		{"k8", 8, 0, 0, "0ad1e355d774a93525e30e03d31386b6e8cbcc0b27e9aad55b5d1ad7f3972b2e"},
		{"k11", 11, 0, 0, "6389efa48454043efcce191609ba370c4df953f41c0bb1d7a68474f31025f4f6"},
		{"k11-minimizer", 11, 3, 0, "b4b1361a73c462386a3533817a1d7460e04f871c38fcf2d460aca32c203d70a4"},
		{"k11-3shards", 11, 0, 3, "57c3e7385dbb186c216ff06d9f350d440a1e2c05c970d40da49a24f47a0e3db1"},
	} {
		cfg := testConfig(c.k)
		cfg.TableOptions.MinimizerWindow = c.win
		path := writeIndex(t, testRecords(57, 60_000), cfg, core.ShardSpec{Shards: c.shards})
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: .dwi sha256 %s, want %s", c.name, got, c.want)
		}
	}
}
