package indexfile

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"

	"darwin/internal/dna"
	"darwin/internal/seedtable"
)

// Options tune Open.
type Options struct {
	// SkipChecksums skips the per-section CRC pass. The default Open
	// verifies every section, which touches (pages in) the whole file —
	// still far cheaper than a rebuild, and it is what lets the loader
	// promise that a bit-flipped file is rejected, never served.
	SkipChecksums bool
}

// File is an open index file: the raw bytes (mmap'd on Linux, read
// into the heap elsewhere) plus the decoded header. Table and Ref
// return views backed directly by the file bytes; they remain valid
// until Close, and Close must not be called while any view is in use.
type File struct {
	path   string
	info   Info
	secs   []section
	data   []byte
	mapped bool
	closed bool
}

// Open maps (or reads) an index file and validates it: magic, version,
// header CRC, header structure, section bounds, and — unless
// opts.SkipChecksums — every section's CRC-32C. Rejections are
// FormatErrors with stable codes.
func Open(path string, opts Options) (*File, error) {
	if err := fpLoad.Fire(); err != nil {
		cLoadErrors.Inc()
		return nil, fmt.Errorf("indexfile: opening %s: %w", path, err)
	}
	stop := tLoad.Time()
	defer stop()
	f, err := open(path, opts)
	if err != nil {
		cLoadErrors.Inc()
		return nil, err
	}
	cLoads.Inc()
	if f.mapped {
		gMappedBytes.Add(int64(len(f.data)))
	}
	return f, nil
}

func open(path string, opts Options) (*File, error) {
	osf, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer osf.Close()
	st, err := osf.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < preambleLen {
		return nil, formatErr(CodeTruncated, path, "file is %d bytes, shorter than the %d-byte preamble", size, preambleLen)
	}
	data, mapped, err := mapFile(osf, size)
	if err != nil {
		return nil, err
	}
	f := &File{path: path, data: data, mapped: mapped}
	if err := f.parse(opts); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// parse validates the preamble, header, and sections of f.data.
func (f *File) parse(opts Options) error {
	data, path := f.data, f.path
	if string(data[:8]) != Magic {
		return formatErr(CodeBadMagic, path, "not an index file (magic %q)", data[:8])
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != Version {
		return formatErr(CodeBadVersion, path, "format version %d, this build reads %d", v, Version)
	}
	headerLen := int64(binary.LittleEndian.Uint32(data[12:]))
	hdrEnd := preambleLen + headerLen
	if hdrEnd+4 > int64(len(data)) {
		return formatErr(CodeTruncated, path, "header claims %d bytes but the file holds %d", headerLen, len(data))
	}
	blob := data[preambleLen:hdrEnd]
	wantCRC := binary.LittleEndian.Uint32(data[hdrEnd:])
	if got := crc32.Checksum(blob, castagnoli); got != wantCRC {
		return formatErr(CodeChecksumMismatch, path, "header CRC %08x != stored %08x", got, wantCRC)
	}
	info, secs, err := decodeHeader(path, blob)
	if err != nil {
		return err
	}
	info.Fingerprint = fingerprint(blob)
	info.FileSize = int64(len(data))
	// Overflow-safe bounds: a u64 length of 2^63 or more decodes
	// negative, and offset+length can wrap, so compare against the room
	// left after offset instead of summing.
	size := int64(len(data))
	for i, s := range secs {
		if s.offset < hdrEnd+4 || s.length < 0 || s.offset > size || s.length > size-s.offset {
			return formatErr(CodeTruncated, path, "section %d (%d bytes at offset %d) outside file of %d bytes",
				i, s.length, s.offset, size)
		}
	}
	if !opts.SkipChecksums {
		stop := tLoadVerify.Time()
		for i, s := range secs {
			if got := crc32.Checksum(f.sectionBytes(s), castagnoli); got != s.crc {
				stop()
				return formatErr(CodeChecksumMismatch, path, "section %d (%s) CRC %08x != stored %08x",
					i, sectionKindNames[s.kind], got, s.crc)
			}
		}
		stop()
	}
	f.info, f.secs = *info, secs
	return nil
}

func (f *File) sectionBytes(s section) []byte {
	return f.data[s.offset : s.offset+s.length]
}

// findSection returns the section of the given kind owned by table
// (noTable for file-level sections), or nil.
func (f *File) findSection(kind, table uint32) []byte {
	for _, s := range f.secs {
		if s.kind == kind && s.table == table {
			return f.sectionBytes(s)
		}
	}
	return nil
}

// Info returns the decoded header.
func (f *File) Info() Info { return f.info }

// Path returns the file path.
func (f *File) Path() string { return f.path }

// Mapped reports whether the file bytes are mmap'd (vs heap-read).
func (f *File) Mapped() bool { return f.mapped }

// MappedBytes returns the mapped (or resident heap) byte count.
func (f *File) MappedBytes() int64 { return int64(len(f.data)) }

// NumTables returns how many seed tables the file holds (1 for a
// monolithic index, the shard count for a sharded one).
func (f *File) NumTables() int { return len(f.info.Tables) }

// Ref returns the concatenated reference as a view over the file
// bytes. The view is read-only when the file is mapped — writing
// through it faults.
func (f *File) Ref() (dna.Seq, error) {
	b := f.findSection(secRef, noTable)
	if b == nil {
		return nil, formatErr(CodeBadHeader, f.path, "no reference section")
	}
	if len(b) != f.info.RefLen {
		return nil, formatErr(CodeBadHeader, f.path, "reference section holds %d bytes, header says %d", len(b), f.info.RefLen)
	}
	return dna.Seq(b), nil
}

// MaskCodes returns the globally masked seed codes (ascending), viewed
// over the file bytes.
func (f *File) MaskCodes() []uint32 {
	return viewU32(f.findSection(secMask, noTable))
}

// Table reconstructs seed table i from its sections. On little-endian
// hosts the table's pointer, code, span, and position slices are
// zero-copy views over the file bytes — a mapped table costs page-ins,
// not a build.
func (f *File) Table(i int) (*seedtable.Table, error) {
	if i < 0 || i >= len(f.info.Tables) {
		return nil, fmt.Errorf("indexfile: table %d out of range [0,%d)", i, len(f.info.Tables))
	}
	meta := f.info.Tables[i]
	ti := uint32(i)
	parts := seedtable.Parts{
		K:             f.info.Params.SeedK,
		RefLen:        meta.ExtentEnd - meta.ExtentStart,
		MaskThreshold: f.info.Params.MaskThreshold,
		MaskedSeeds:   meta.MaskedSeeds,
		MaskedHits:    meta.MaskedHits,
		Pattern:       f.info.Params.Pattern,
		Ptr:           viewU32(f.findSection(secPtr, ti)),
		Codes:         viewU32(f.findSection(secCodes, ti)),
		Spans:         viewPairs(f.findSection(secSpans, ti)),
		Pos:           viewU32(f.findSection(secPos, ti)),
	}
	if parts.Pos == nil {
		// Build always materializes the position array, even when every
		// seed was masked; match it so a loaded table is deep-equal to a
		// freshly built one.
		parts.Pos = []uint32{}
	}
	t, err := seedtable.FromParts(parts)
	if err != nil {
		return nil, formatErr(CodeBadHeader, f.path, "table %d: %v", i, err)
	}
	return t, nil
}

// Close releases the mapping (or lets the heap copy go). Any views
// handed out by Ref/Table/MaskCodes become invalid; on Linux, touching
// one after Close faults. Safe to call twice.
func (f *File) Close() error {
	if f.closed {
		return nil
	}
	f.closed = true
	if f.mapped {
		gMappedBytes.Add(-int64(len(f.data)))
		return unmapFile(f.data)
	}
	f.data = nil
	return nil
}

// Inspect opens the file, decodes its header without the section CRC
// pass, and closes it — the cheap metadata read behind `darwin-index
// inspect` and sidecar probing.
func Inspect(path string) (Info, error) {
	f, err := open(path, Options{SkipChecksums: true})
	if err != nil {
		return Info{}, err
	}
	info := f.info
	f.Close()
	return info, nil
}

// Verify opens the file with the full per-section CRC pass and closes
// it, returning the decoded header. This is `darwin-index verify`.
func Verify(path string) (Info, error) {
	f, err := open(path, Options{})
	if err != nil {
		return Info{}, err
	}
	info := f.info
	f.Close()
	return info, nil
}

// ReadFingerprint returns the file's content fingerprint from the
// preamble and header alone — no payload I/O — after verifying magic,
// version, and header CRC. The serving layer folds it into cache keys
// so a rebuilt index file is a different cache entry.
func ReadFingerprint(path string) (uint64, error) {
	osf, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer osf.Close()
	var pre [preambleLen]byte
	if _, err := osf.ReadAt(pre[:], 0); err != nil {
		return 0, formatErr(CodeTruncated, path, "file shorter than the %d-byte preamble", preambleLen)
	}
	if string(pre[:8]) != Magic {
		return 0, formatErr(CodeBadMagic, path, "not an index file (magic %q)", pre[:8])
	}
	if v := binary.LittleEndian.Uint32(pre[8:]); v != Version {
		return 0, formatErr(CodeBadVersion, path, "format version %d, this build reads %d", v, Version)
	}
	headerLen := int(binary.LittleEndian.Uint32(pre[12:]))
	buf := make([]byte, headerLen+4)
	if _, err := osf.ReadAt(buf, preambleLen); err != nil {
		return 0, formatErr(CodeTruncated, path, "header claims %d bytes past a %d-byte file", headerLen, fileSize(osf))
	}
	blob := buf[:headerLen]
	wantCRC := binary.LittleEndian.Uint32(buf[headerLen:])
	if got := crc32.Checksum(blob, castagnoli); got != wantCRC {
		return 0, formatErr(CodeChecksumMismatch, path, "header CRC %08x != stored %08x", got, wantCRC)
	}
	return fingerprint(blob), nil
}

func fileSize(f *os.File) int64 {
	st, err := f.Stat()
	if err != nil {
		return -1
	}
	return st.Size()
}
