// Package seedtable implements the seed position table of Section 3
// (Figure 3): for each of the 4^k possible seeds, a pointer table gives
// the span of a position table holding every occurrence of that seed in
// the reference, stored sequentially. Sequential hit storage is the
// property Darwin's D-SOFT accelerator exploits for long DRAM bursts
// (versus suffix trees / BWT-FM indexes, whose lookups are pointer
// chases); the companion fmindex package implements that alternative
// for comparison.
//
// Darwin masks high-frequency seeds — those occurring more than
// 32·|R|/4^k times (Section 5) — to bound worst-case hit lists from
// repeat regions.
package seedtable

import (
	"fmt"
	"sort"

	"darwin/internal/dna"
)

// directLimit is the largest k for which a dense 4^k-entry pointer table
// is allocated (4^12 entries ≈ 67 MB of uint32). Larger k fall back to a
// sorted sparse representation; lookups behave identically.
const directLimit = 12

// Options configures table construction.
type Options struct {
	// MaskMultiplier is the high-frequency masking factor: seeds with
	// more than MaskMultiplier·|R|/4^k occurrences are masked (their
	// hit lists emptied). Darwin uses 32. Zero applies the default.
	MaskMultiplier int
	// MaskFloor is the minimum mask threshold, needed when |R| ≪ 4^k
	// (scaled-down genomes) where the raw formula would mask every seed.
	// Zero applies a default of 8.
	MaskFloor int
	// NoMask disables masking entirely.
	NoMask bool
	// MinimizerWindow, when ≥ 2, stores only minimizer positions: the
	// lowest-hashed seed of every window of that many consecutive
	// seeds (Roberts et al., cited in Section 10 as the standard way
	// to shrink seed storage). Every window of MinimizerWindow
	// consecutive seed positions retains at least one entry. Zero or
	// one stores every position.
	MinimizerWindow int
	// Mask, when non-nil, replaces local frequency thresholding with a
	// precomputed masked-seed set (ComputeMask). Sharded builds use
	// this so every shard masks exactly the seeds a whole-reference
	// table would mask — a shard-local count can never cross the
	// global threshold on its own, and Darwin's ASIC likewise applies
	// one reference-wide mask across all four DRAM-channel partitions.
	Mask *MaskSet
}

// MaskSet is a precomputed set of high-frequency seed codes to mask,
// derived from whole-reference occurrence counts by ComputeMask and
// shared across per-shard tables.
type MaskSet struct {
	threshold int
	codes     map[uint32]struct{}
}

// Masked reports whether code is in the set.
func (m *MaskSet) Masked(code uint32) bool {
	_, ok := m.codes[code]
	return ok
}

// Len returns the number of masked seed codes.
func (m *MaskSet) Len() int { return len(m.codes) }

// Threshold returns the occurrence count above which seeds were masked
// (0 when masking was disabled).
func (m *MaskSet) Threshold() int { return m.threshold }

// Codes returns the masked seed codes in ascending order — the
// serializable form of the set (a persistent index stores these so
// inspection tools can report exactly which seeds the index masked).
func (m *MaskSet) Codes() []uint32 {
	out := make([]uint32, 0, len(m.codes))
	for c := range m.codes {
		out = append(out, c)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// maskThreshold computes the occurrence cutoff Build applies for a
// reference of the given length (0 = masking disabled).
func (opts Options) maskThreshold(refLen int, k int) int {
	if opts.NoMask {
		return 0
	}
	mm := opts.MaskMultiplier
	if mm == 0 {
		mm = 32
	}
	floor := opts.MaskFloor
	if floor == 0 {
		floor = 8
	}
	max := mm * refLen / dna.NumSeeds(k)
	if max < floor {
		max = floor
	}
	return max
}

// ComputeMask counts stored seed occurrences over the whole reference
// (after minimizer sampling, exactly as Build would store them) and
// returns the set of codes Build would mask. The result is passed to
// per-shard BuildRange calls via Options.Mask.
func ComputeMask(ref dna.Seq, k int, opts Options) (*MaskSet, error) {
	if k < 1 || k > dna.MaxSeedSize {
		return nil, fmt.Errorf("seedtable: seed size %d out of range [1,%d]", k, dna.MaxSeedSize)
	}
	if len(ref) < k {
		return nil, fmt.Errorf("seedtable: reference length %d shorter than seed size %d", len(ref), k)
	}
	m := &MaskSet{threshold: opts.maskThreshold(len(ref), k), codes: map[uint32]struct{}{}}
	if m.threshold == 0 {
		return m, nil
	}
	scan := func(fn func(code uint32, pos int)) {
		if s := minimizerSampler(opts.MinimizerWindow); s != nil {
			fn = s(fn)
		}
		forEachSeed(ref, k, fn)
	}
	if k <= directLimit {
		counts := make([]uint32, dna.NumSeeds(k))
		scan(func(code uint32, _ int) { counts[code]++ })
		for c, n := range counts {
			if int(n) > m.threshold {
				m.codes[uint32(c)] = struct{}{}
			}
		}
		return m, nil
	}
	// Sparse k: sort the code stream and run-length count, the same
	// O(occurrences) strategy buildSparse uses.
	codes := make([]uint32, 0, len(ref))
	scan(func(code uint32, _ int) { codes = append(codes, code) })
	sort.Slice(codes, func(a, b int) bool { return codes[a] < codes[b] })
	for i := 0; i < len(codes); {
		j := i
		for j < len(codes) && codes[j] == codes[i] {
			j++
		}
		if j-i > m.threshold {
			m.codes[codes[i]] = struct{}{}
		}
		i = j
	}
	return m, nil
}

// DefaultOptions returns the paper's masking configuration.
func DefaultOptions() Options { return Options{MaskMultiplier: 32, MaskFloor: 8} }

// Table is a seed position table over one reference sequence.
type Table struct {
	k       int
	refLen  int
	maskMax int
	mask    *MaskSet // non-nil: precomputed global mask instead of local counts
	drop    int      // range builds: scan warm-up positions to discard/shift
	sample  func(emit func(code uint32, pos int)) func(code uint32, pos int)
	pattern *SpacedPattern // non-nil for spaced-seed tables

	// Dense mode (k ≤ directLimit): ptr has 4^k+1 entries; the hits for
	// seed code c occupy pos[ptr[c]:ptr[c+1]].
	ptr []uint32

	// Sparse mode (k > directLimit): codes lists the distinct seed codes
	// in ascending order and spans[i] delimits pos for codes[i].
	codes []uint32
	spans [][2]uint32

	// pos is the position table: reference offsets grouped by seed code,
	// ascending within each group.
	pos []uint32

	maskedSeeds int
	maskedHits  int
}

// Build constructs the table for all k-mers of ref.
func Build(ref dna.Seq, k int, opts Options) (*Table, error) {
	if k < 1 || k > dna.MaxSeedSize {
		return nil, fmt.Errorf("seedtable: seed size %d out of range [1,%d]", k, dna.MaxSeedSize)
	}
	if len(ref) < k {
		return nil, fmt.Errorf("seedtable: reference length %d shorter than seed size %d", len(ref), k)
	}
	t := &Table{k: k, refLen: len(ref)}
	if opts.Mask != nil {
		t.mask = opts.Mask
		t.maskMax = opts.Mask.Threshold()
	} else {
		t.maskMax = opts.maskThreshold(len(ref), k)
	}
	t.sample = minimizerSampler(opts.MinimizerWindow)
	if k <= directLimit {
		t.buildDense(ref)
	} else {
		t.buildSparse(ref)
	}
	return t, nil
}

// minimizerSampler returns a filter over (code, pos) seed streams that
// keeps only per-window minimizers, or nil when sampling is disabled.
// It is stateful and must be consumed in position order, which the
// build passes guarantee.
func minimizerSampler(w int) func(emit func(code uint32, pos int)) func(code uint32, pos int) {
	if w < 2 {
		return nil
	}
	return func(emit func(code uint32, pos int)) func(code uint32, pos int) {
		type entry struct {
			code uint32
			pos  int
			h    uint32
		}
		var window []entry // monotone deque of window minima candidates
		lastEmitted := -1
		expect := -1 // next contiguous position (N gaps reset the window)
		fill := 0    // consecutive seeds since the last reset
		return func(code uint32, pos int) {
			if pos != expect {
				window = window[:0]
				fill = 0
			}
			expect = pos + 1
			fill++
			h := hashSeed(code)
			for len(window) > 0 && window[len(window)-1].h >= h {
				window = window[:len(window)-1]
			}
			window = append(window, entry{code, pos, h})
			if window[0].pos <= pos-w {
				window = window[1:]
			}
			if fill >= w && window[0].pos != lastEmitted {
				emit(window[0].code, window[0].pos)
				lastEmitted = window[0].pos
			}
		}
	}
}

// hashSeed mixes a seed code so minimizer selection is not biased
// toward poly-A (the lexicographically smallest seeds).
func hashSeed(code uint32) uint32 {
	x := code
	x ^= x >> 16
	x *= 0x7feb352d
	x ^= x >> 15
	x *= 0x846ca68b
	x ^= x >> 16
	return x
}

// forEachStored visits every seed occurrence the table stores —
// all positions, or only minimizers when sampling is enabled. Range
// builds scan t.drop warm-up positions ahead of the window so the
// minimizer deque reaches steady state before the first stored
// position; warm-up emissions are discarded and survivors shifted to
// window-local coordinates.
func (t *Table) forEachStored(ref dna.Seq, fn func(code uint32, pos int)) {
	if t.drop > 0 {
		inner := fn
		drop := t.drop
		fn = func(code uint32, pos int) {
			if pos < drop {
				return
			}
			inner(code, pos-drop)
		}
	}
	if t.sample != nil {
		fn = t.sample(fn)
	}
	if t.pattern != nil {
		forEachSeedSpaced(ref, t.pattern, fn)
		return
	}
	forEachSeed(ref, t.k, fn)
}

// buildDense uses a two-pass counting sort into a 4^k+1 pointer table.
// The pointer array doubles as the fill cursor: after the prefix sum
// counts[c] is code c's start, the fill pass advances it to c's end
// (= c+1's start), and one shift by a slot restores the starts. Masked
// seeds are remembered in a 4^k-bit set, so the build's only 4^k-sized
// allocation is the pointer array it returns.
func (t *Table) buildDense(ref dna.Seq) {
	n := dna.NumSeeds(t.k)
	counts := make([]uint32, n+1)
	t.forEachStored(ref, func(code uint32, _ int) {
		counts[code+1]++
	})
	// Mask high-frequency seeds by zeroing their counts: seeds in the
	// precomputed global set when one was supplied, else seeds whose
	// local count crosses the threshold.
	masked := make([]uint64, (n+63)/64)
	maskCode := func(code int) {
		t.maskedSeeds++
		t.maskedHits += int(counts[code+1])
		counts[code+1] = 0
		masked[code/64] |= 1 << (code % 64)
	}
	switch {
	case t.mask != nil:
		for code := range t.mask.codes {
			if int(code)+1 <= n && counts[code+1] > 0 {
				maskCode(int(code))
			}
		}
	case t.maskMax > 0:
		for c := 1; c <= n; c++ {
			if int(counts[c]) > t.maskMax {
				maskCode(c - 1)
			}
		}
	}
	for c := 1; c <= n; c++ {
		counts[c] += counts[c-1]
	}
	t.pos = make([]uint32, counts[n])
	t.forEachStored(ref, func(code uint32, i int) {
		if masked[code/64]&(1<<(code%64)) != 0 {
			return // masked seed
		}
		t.pos[counts[code]] = uint32(i)
		counts[code]++
	})
	copy(counts[1:], counts[:n])
	counts[0] = 0
	t.ptr = counts
}

// buildSparse sorts (code, position) pairs packed into uint64s and
// derives per-code spans; memory is O(occurrences) instead of O(4^k).
func (t *Table) buildSparse(ref dna.Seq) {
	pairs := make([]uint64, 0, len(ref))
	t.forEachStored(ref, func(code uint32, i int) {
		pairs = append(pairs, uint64(code)<<32|uint64(uint32(i)))
	})
	sort.Slice(pairs, func(a, b int) bool { return pairs[a] < pairs[b] })
	t.pos = make([]uint32, 0, len(pairs))
	for i := 0; i < len(pairs); {
		code := uint32(pairs[i] >> 32)
		j := i
		for j < len(pairs) && uint32(pairs[j]>>32) == code {
			j++
		}
		masked := (t.mask != nil && t.mask.Masked(code)) ||
			(t.mask == nil && t.maskMax > 0 && j-i > t.maskMax)
		if masked {
			t.maskedSeeds++
			t.maskedHits += j - i
			i = j
			continue
		}
		start := uint32(len(t.pos))
		for ; i < j; i++ {
			t.pos = append(t.pos, uint32(pairs[i]))
		}
		t.codes = append(t.codes, code)
		t.spans = append(t.spans, [2]uint32{start, uint32(len(t.pos))})
	}
}

func forEachSeed(ref dna.Seq, k int, fn func(code uint32, pos int)) {
	// Incremental rolling pack: maintain the 2k-bit window, resetting
	// after an N. This is O(|ref|) rather than O(|ref|·k).
	mask := uint32(dna.NumSeeds(k) - 1)
	var code uint32
	valid := 0
	for i := 0; i < len(ref); i++ {
		c := dna.Code(ref[i])
		if c == dna.CodeN {
			valid = 0
			code = 0
			continue
		}
		code = (code<<2 | uint32(c)) & mask
		valid++
		if valid >= k {
			fn(code, i-k+1)
		}
	}
}

// K returns the seed size.
func (t *Table) K() int { return t.k }

// RefLen returns the indexed reference length.
func (t *Table) RefLen() int { return t.refLen }

// MaskThreshold returns the occurrence count above which seeds were
// masked (0 if masking was disabled).
func (t *Table) MaskThreshold() int { return t.maskMax }

// MaskedSeeds returns how many distinct seeds were masked.
func (t *Table) MaskedSeeds() int { return t.maskedSeeds }

// MaskedHits returns how many reference positions the masked seeds had.
func (t *Table) MaskedHits() int { return t.maskedHits }

// Positions returns the total number of stored (unmasked) positions.
func (t *Table) Positions() int { return len(t.pos) }

// Bytes returns the table's retained heap footprint (pointer table or
// sparse code/span index plus the position table) — the quantity a
// byte-budgeted shard set accounts against its MaxResidentBytes.
func (t *Table) Bytes() int64 {
	return int64(len(t.ptr))*4 + int64(len(t.pos))*4 +
		int64(len(t.codes))*4 + int64(len(t.spans))*8
}

// Lookup returns the reference positions of the seed with the given
// packed code, in ascending order. The returned slice aliases internal
// storage and must not be modified. Masked and absent seeds return nil.
func (t *Table) Lookup(code uint32) []uint32 {
	if t.ptr != nil {
		if int(code) >= len(t.ptr)-1 {
			return nil
		}
		s, e := t.ptr[code], t.ptr[code+1]
		if s == e {
			return nil
		}
		return t.pos[s:e]
	}
	i := sort.Search(len(t.codes), func(i int) bool { return t.codes[i] >= code })
	if i == len(t.codes) || t.codes[i] != code {
		return nil
	}
	sp := t.spans[i]
	return t.pos[sp[0]:sp[1]]
}

// LookupSeq packs the seed of q starting at pos (contiguous k bases,
// or the table's spaced pattern) and looks it up. Seeds with N in a
// care position return nil (they are skipped, as in hardware).
func (t *Table) LookupSeq(q dna.Seq, pos int) []uint32 {
	var code uint32
	var ok bool
	if t.pattern != nil {
		code, ok = t.pattern.Pack(q, pos)
	} else {
		code, ok = dna.PackSeed(q, pos, t.k)
	}
	if !ok {
		return nil
	}
	return t.Lookup(code)
}

// PackQuery extracts the seed code at q[pos] using the table's scheme
// (contiguous k-mer or spaced pattern) — the packing D-SOFT must use
// when drawing query seeds against this table.
func (t *Table) PackQuery(q dna.Seq, pos int) (uint32, bool) {
	if t.pattern != nil {
		return t.pattern.Pack(q, pos)
	}
	return dna.PackSeed(q, pos, t.k)
}

// Stats summarizes the table for reporting and for the DRAM model.
type Stats struct {
	K            int
	RefLen       int
	Positions    int
	MaskedSeeds  int
	MaskedHits   int
	HitsPerSeed  float64 // mean hits per possible seed value (paper Table 3 column)
	PointerBytes int64
	PositionByte int64
}

// Stats computes summary statistics. HitsPerSeed is the expected hit
// count for a uniformly random seed drawn from the reference itself,
// i.e. Σ count(s)² / Σ count(s), matching how "hits/seed" behaves for
// query seeds that come from the same genome (Table 3).
func (t *Table) Stats() Stats {
	st := Stats{
		K:           t.k,
		RefLen:      t.refLen,
		Positions:   len(t.pos),
		MaskedSeeds: t.maskedSeeds,
		MaskedHits:  t.maskedHits,
	}
	if t.ptr != nil {
		st.PointerBytes = int64(len(t.ptr)) * 4
		var sumSq, sum float64
		for c := 0; c+1 < len(t.ptr); c++ {
			n := float64(t.ptr[c+1] - t.ptr[c])
			sumSq += n * n
			sum += n
		}
		if sum > 0 {
			st.HitsPerSeed = sumSq / sum
		}
	} else {
		st.PointerBytes = int64(len(t.codes)) * 12 // code + span
		var sumSq, sum float64
		for _, sp := range t.spans {
			n := float64(sp[1] - sp[0])
			sumSq += n * n
			sum += n
		}
		if sum > 0 {
			st.HitsPerSeed = sumSq / sum
		}
	}
	st.PositionByte = int64(len(t.pos)) * 4
	return st
}
