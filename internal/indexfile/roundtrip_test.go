package indexfile

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"darwin/internal/dna"
	"darwin/internal/seedtable"
)

// buildIndex builds one monolithic in-memory index over ref: global
// mask, then a table under that mask, the way internal/indexio does.
// A spaced pattern (pat != "") builds unmasked — the contiguous-k-mer
// global mask does not apply to spaced-seed codes — and the seed size
// is the pattern's weight, matching BuildSpaced.
func buildIndex(t *testing.T, ref dna.Seq, k int, opts seedtable.Options, pat string) *Index {
	t.Helper()
	var tab *seedtable.Table
	var maskCodes []uint32
	maskThreshold := 0
	var err error
	if pat == "" {
		var mask *seedtable.MaskSet
		mask, err = seedtable.ComputeMask(ref, k, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Mask = mask
		maskCodes = mask.Codes()
		maskThreshold = mask.Threshold()
		tab, err = seedtable.Build(ref, k, opts)
	} else {
		var sp *seedtable.SpacedPattern
		sp, err = seedtable.ParsePattern(pat)
		if err != nil {
			t.Fatal(err)
		}
		opts.NoMask = true
		k = sp.Weight()
		tab, err = seedtable.BuildSpaced(ref, sp, opts)
	}
	if err != nil {
		t.Fatal(err)
	}
	return &Index{
		Params: Params{
			SeedK:           k,
			MaskMultiplier:  32,
			MaskFloor:       8,
			NoMask:          opts.NoMask,
			MinimizerWindow: opts.MinimizerWindow,
			Pattern:         pat,
			BinSize:         128,
			MaskThreshold:   maskThreshold,
		},
		Ref:       []byte(ref),
		Seqs:      []SeqMeta{{Name: "chr1", Offset: 0, Length: len(ref)}},
		MaskCodes: maskCodes,
		Tables:    []TableMeta{{ExtentStart: 0, ExtentEnd: len(ref), CoreStart: 0, CoreEnd: len(ref)}},
		Parts:     []seedtable.Parts{tab.Parts()},
	}
}

// repetitiveRef returns a reference with a heavily repeated segment so
// the high-frequency mask is non-empty (a uniform random sequence
// rarely crosses the masking threshold).
func repetitiveRef(seed int64, n int) dna.Seq {
	rng := rand.New(rand.NewSource(seed))
	seg := dna.Random(rng, 200, 0.5)
	out := make(dna.Seq, 0, n)
	for len(out) < n/2 {
		out = append(out, seg...)
	}
	out = append(out, dna.Random(rng, n-len(out), 0.45)...)
	return out
}

// equalU32 treats nil and empty as equal — a zero-length section reads
// back nil.
func equalU32(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRoundTrip is the format-level half of the bit-identity
// invariant: every table variant (dense, sparse k>12, minimizer
// -sampled, spaced) written and mapped back must reproduce the exact
// in-memory arrays of the freshly built table.
func TestRoundTrip(t *testing.T) {
	ref := repetitiveRef(41, 60000)
	cases := []struct {
		name string
		k    int
		opts seedtable.Options
		pat  string
	}{
		{name: "dense_k8", k: 8},
		{name: "dense_k11", k: 11},
		{name: "sparse_k13", k: 13},
		{name: "minimizer_w3", k: 11, opts: seedtable.Options{MinimizerWindow: 3}},
		{name: "spaced", k: 6, pat: "1101011"},
		{name: "nomask", k: 11, opts: seedtable.Options{NoMask: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			idx := buildIndex(t, ref, tc.k, tc.opts, tc.pat)
			path := filepath.Join(t.TempDir(), "x.dwi")
			if err := Write(path, idx); err != nil {
				t.Fatal(err)
			}
			f, err := Open(path, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()

			if got := f.Info().Params; got != idx.Params {
				t.Errorf("params drift: wrote %+v read %+v", idx.Params, got)
			}
			seq, err := f.Ref()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual([]byte(seq), idx.Ref) {
				t.Error("reference bytes differ after roundtrip")
			}
			if !equalU32(f.MaskCodes(), idx.MaskCodes) {
				t.Errorf("mask codes differ: wrote %d read %d", len(idx.MaskCodes), len(f.MaskCodes()))
			}
			if tc.name == "dense_k8" && len(idx.MaskCodes) == 0 {
				t.Error("test reference produced an empty mask; the mask roundtrip is untested")
			}
			tab, err := f.Table(0)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(tab.Parts(), idx.Parts[0]) {
				t.Error("table parts differ after roundtrip (bit-identity violated)")
			}
			// The loaded table must answer lookups, not just deep-equal.
			orig, err := seedtable.FromParts(idx.Parts[0])
			if err != nil {
				t.Fatal(err)
			}
			for code := uint32(0); code < 64; code++ {
				if !reflect.DeepEqual(tab.Lookup(code), orig.Lookup(code)) {
					t.Fatalf("lookup(%d) differs", code)
				}
			}
		})
	}
}

// TestFingerprint pins the cache-invalidation contract: identical
// content fingerprints identically across writes, different content
// differs, and ReadFingerprint agrees with the full Open.
func TestFingerprint(t *testing.T) {
	ref := dna.Random(rand.New(rand.NewSource(42)), 20000, 0.5)
	idx := buildIndex(t, ref, 11, seedtable.Options{}, "")
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.dwi"), filepath.Join(dir, "b.dwi")
	if err := Write(a, idx); err != nil {
		t.Fatal(err)
	}
	if err := Write(b, idx); err != nil {
		t.Fatal(err)
	}
	fpA, err := ReadFingerprint(a)
	if err != nil {
		t.Fatal(err)
	}
	fpB, err := ReadFingerprint(b)
	if err != nil {
		t.Fatal(err)
	}
	if fpA != fpB {
		t.Errorf("identical content, different fingerprints: %016x vs %016x", fpA, fpB)
	}
	info, err := Verify(a)
	if err != nil {
		t.Fatal(err)
	}
	if info.Fingerprint != fpA {
		t.Errorf("ReadFingerprint %016x != Verify fingerprint %016x", fpA, info.Fingerprint)
	}

	idx2 := buildIndex(t, ref[:10000], 11, seedtable.Options{}, "")
	c := filepath.Join(dir, "c.dwi")
	if err := Write(c, idx2); err != nil {
		t.Fatal(err)
	}
	fpC, err := ReadFingerprint(c)
	if err != nil {
		t.Fatal(err)
	}
	if fpC == fpA {
		t.Error("different content produced the same fingerprint")
	}
}

// corrupt writes a mutated copy of the file and returns its path.
func corrupt(t *testing.T, path string, mutate func([]byte) []byte) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "corrupt.dwi")
	if err := os.WriteFile(out, mutate(append([]byte(nil), data...)), 0o644); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCorruptionCodes drives every rejection path and asserts the
// stable structured code — the contract scripts and operators match
// on.
func TestCorruptionCodes(t *testing.T) {
	ref := dna.Random(rand.New(rand.NewSource(43)), 30000, 0.5)
	idx := buildIndex(t, ref, 11, seedtable.Options{}, "")
	path := filepath.Join(t.TempDir(), "x.dwi")
	if err := Write(path, idx); err != nil {
		t.Fatal(err)
	}
	info, err := Verify(path)
	if err != nil {
		t.Fatalf("pristine file failed verify: %v", err)
	}
	// Payload byte to flip: inside the last section, well clear of the
	// header (whose own CRC is a different code).
	last := info.Sections[len(info.Sections)-1]

	cases := []struct {
		name   string
		mutate func([]byte) []byte
		code   string
	}{
		{"bad_magic", func(b []byte) []byte { b[0] ^= 0xff; return b }, CodeBadMagic},
		{"bad_version", func(b []byte) []byte { b[8] ^= 0xff; return b }, CodeBadVersion},
		{"truncated_preamble", func(b []byte) []byte { return b[:8] }, CodeTruncated},
		{"truncated_payload", func(b []byte) []byte { return b[:last.Offset+1] }, CodeTruncated},
		{"payload_bit_flip", func(b []byte) []byte { b[last.Offset] ^= 0x01; return b }, CodeChecksumMismatch},
		{"header_bit_flip", func(b []byte) []byte { b[preambleLen] ^= 0x01; return b }, CodeChecksumMismatch},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := corrupt(t, path, tc.mutate)
			if _, err := Verify(p); ErrCode(err) != tc.code {
				t.Errorf("Verify: code %q (err %v), want %q", ErrCode(err), err, tc.code)
			}
			if _, err := Open(p, Options{}); ErrCode(err) != tc.code {
				t.Errorf("Open: code %q (err %v), want %q", ErrCode(err), err, tc.code)
			}
		})
	}

	// Inspect skips payload checksums by design: a payload bit flip
	// passes Inspect (headers intact) but never a full Verify.
	flipped := corrupt(t, path, func(b []byte) []byte { b[last.Offset] ^= 0x01; return b })
	if _, err := Inspect(flipped); err != nil {
		t.Errorf("Inspect rejected a payload flip it is documented to skip: %v", err)
	}
}

// TestSectionBoundsOverflow patches the last section entry of a valid
// file with placements whose end overflows int64, recomputes the header
// CRC so the header is accepted, and checks the bounds pass rejects
// them as truncated instead of slicing out of range.
func TestSectionBoundsOverflow(t *testing.T) {
	ref := dna.Random(rand.New(rand.NewSource(45)), 20000, 0.5)
	idx := buildIndex(t, ref, 11, seedtable.Options{}, "")
	path := filepath.Join(t.TempDir(), "x.dwi")
	if err := Write(path, idx); err != nil {
		t.Fatal(err)
	}
	// A section entry is kind u32, table u32, offset u64, length u64,
	// crc u32; the entries end the header.
	const entryLen = 28
	patch := func(offset, length uint64) func([]byte) []byte {
		return func(b []byte) []byte {
			le := binary.LittleEndian
			hdrEnd := preambleLen + int(le.Uint32(b[12:]))
			entry := b[hdrEnd-entryLen : hdrEnd]
			if offset != 0 {
				le.PutUint64(entry[8:], offset)
			}
			le.PutUint64(entry[16:], length)
			le.PutUint32(b[hdrEnd:], crc32.Checksum(b[preambleLen:hdrEnd], castagnoli))
			return b
		}
	}
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"offset_and_length_2^62", patch(1<<62, 1<<62)},
		{"length_2^63", patch(0, 1<<63)},
		{"length_max_u64", patch(0, ^uint64(0))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := corrupt(t, path, tc.mutate)
			if _, err := Verify(p); ErrCode(err) != CodeTruncated {
				t.Errorf("Verify: code %q (err %v), want %q", ErrCode(err), err, CodeTruncated)
			}
			if _, err := Open(p, Options{}); ErrCode(err) != CodeTruncated {
				t.Errorf("Open: code %q (err %v), want %q", ErrCode(err), err, CodeTruncated)
			}
		})
	}
}

// TestLoadErrorsCounted asserts the error counter moves on a rejected
// load — the signal chaos probes watch.
func TestLoadErrorsCounted(t *testing.T) {
	ref := dna.Random(rand.New(rand.NewSource(44)), 20000, 0.5)
	idx := buildIndex(t, ref, 11, seedtable.Options{}, "")
	path := filepath.Join(t.TempDir(), "x.dwi")
	if err := Write(path, idx); err != nil {
		t.Fatal(err)
	}
	bad := corrupt(t, path, func(b []byte) []byte { return b[:12] })
	before := cLoadErrors.Value()
	if _, err := Open(bad, Options{}); err == nil {
		t.Fatal("truncated file opened cleanly")
	}
	if cLoadErrors.Value() != before+1 {
		t.Errorf("index/load_errors did not increment (was %d, now %d)", before, cLoadErrors.Value())
	}
}
