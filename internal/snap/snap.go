// Package snap persists fully built index.Store values: a versioned,
// checksummed, section-table snapshot format written once offline (kgsnap,
// or a live compaction) and loaded at serving time either
// by a portable copy load or by an mmap zero-copy load whose slices alias
// the mapping directly. The paper's engine assumes the four trie orders are
// resident before the first Audit Join walk; snapshots make that residency
// page-cache-bounded instead of sort-bounded, so a kgserver restart or a
// live dataset hot-swap needs no warm-up window.
//
// # Layout
//
// All integers are little-endian regardless of the writer's platform; the
// element encodings are chosen to coincide with Go's in-memory layout on
// 64-bit little-endian machines, which is what makes the mmap load a
// pointer-cast rather than a decode:
//
//	offset 0:   header (16 bytes)
//	              [8]byte magic "KGSNAP1\n"
//	              u16 format version (currently 2; 1 still loads)
//	              u8 triple size (12), u8 span size (16), u8 predstat size (24)
//	              [3]byte zero
//	offset 64:  sections, each aligned to a 64-byte boundary
//	end-32:     footer (32 bytes)
//	              u64 section-table offset
//	              u32 section count, u32 CRC-32C of the table bytes
//	              u64 total file size
//	              [8]byte magic "KGSNAPE\n"
//
// The section table (32 bytes per entry: u32 kind, u32 CRC-32C of the
// payload, u64 offset, u64 byte length, u64 element count) sits between the
// last section and the footer, so the writer streams strictly forward and
// never seeks. Section kinds cover the meta JSON, the dictionary, and per
// order the sorted triples, the dense level-1 spans and the packed level-2
// key/span arrays, plus the per-predicate statistics and the numeric-literal
// cache. Format version 2 adds one optional section: the typed graph summary
// behind the "summary" cardinality estimator (index.Summary, encoded as u64
// words), so the estimator's build cost is paid at snapshot time rather than
// on the serving path. Version-1 files carry no summary and still load; the
// restored store rebuilds it lazily on first use.
//
// Copy loads verify every section checksum and re-encode into private
// memory; mmap loads verify the header, footer and table, alias everything
// else, and leave payload checksums to an explicit Options.Verify, keeping
// the load O(touched pages). See DESIGN.md for the trust model.
package snap

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"kgexplore/internal/index"
	"kgexplore/internal/rdf"
)

// FormatVersion is the current snapshot format version, written into every
// header and required on load.
const FormatVersion = formatVersion

const (
	headerMagic   = "KGSNAP1\n"
	footerMagic   = "KGSNAPE\n"
	formatVersion = 2
	// minFormatVersion is the oldest version Load still accepts. Version 1
	// predates the graph-summary section and differs in nothing else.
	minFormatVersion = 1

	headerSize = 16
	footerSize = 32
	entrySize  = 32

	// sectionAlign is the section alignment. 64 bytes satisfies every
	// element type we alias (max alignment 8) with room to spare, and keeps
	// aliased arrays cache-line aligned.
	sectionAlign = 64

	// On-disk element sizes. Fixed by the format, not by the writer's
	// platform; they equal unsafe.Sizeof on 64-bit machines.
	diskTripleSize   = 12
	diskSpanSize     = 16
	diskPredStatSize = 24
)

// Section kinds. Per-order kinds add the index.Order value.
const (
	secMeta      = 1
	secDict      = 2
	secTriples   = 10 // 10..13: spo, ops, pso, pos
	secL1        = 20 // 20..23
	secL2Keys    = 30 // 32, 33: pso, pos only
	secL2Spans   = 40 // 42, 43
	secPredStats = 50
	secNumeric   = 51
	secSummary   = 60 // v2+: typed graph summary, u64 words (index.Summary)
)

// crcTable is the Castagnoli polynomial, hardware-accelerated on amd64 and
// arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Meta is the snapshot's JSON meta section: provenance plus the counts that
// are cheaper to read back than to re-derive.
type Meta struct {
	// Source describes where the data came from (a file path, a generator
	// spec); surfaced by `kgsnap info` and the server's /healthz.
	Source string `json:"source,omitempty"`
	// CreatedUnix is the write time in Unix seconds.
	CreatedUnix int64 `json:"created_unix,omitempty"`
	// Triples and DictLen size the store; NDV1 carries the per-order
	// distinct level-0 counts (spo, ops, pso, pos).
	Triples int    `json:"triples"`
	DictLen int    `json:"dict_len"`
	NDV1    [4]int `json:"ndv1"`
}

// sectionEntry is one row of the section table.
type sectionEntry struct {
	kind  uint32
	crc   uint32
	off   uint64
	size  uint64
	count uint64
}

// countingWriter tracks the logical offset and the running CRC of the
// section being written.
type countingWriter struct {
	bw  *bufio.Writer
	off uint64
	crc uint32
	err error
}

func (cw *countingWriter) write(p []byte) {
	if cw.err != nil {
		return
	}
	if _, err := cw.bw.Write(p); err != nil {
		cw.err = err
		return
	}
	cw.off += uint64(len(p))
	cw.crc = crc32.Update(cw.crc, crcTable, p)
}

func (cw *countingWriter) u16(v uint16) {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	cw.write(b[:])
}

func (cw *countingWriter) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	cw.write(b[:])
}

func (cw *countingWriter) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	cw.write(b[:])
}

var zeros [sectionAlign]byte

// pad advances the offset to the next section boundary.
func (cw *countingWriter) pad() {
	if rem := cw.off % sectionAlign; rem != 0 {
		cw.write(zeros[:sectionAlign-rem])
	}
}

// WriteOptions configure Write.
type WriteOptions struct {
	// OmitSummary drops the graph-summary section and stamps the file as
	// format version 1 — byte-compatible with pre-v2 writers. It exists for
	// backward-compatibility tests and for callers that will never use the
	// summary estimator and want neither the build time nor the bytes.
	OmitSummary bool
}

// Write serializes the store as a snapshot. meta may be nil; counts are
// filled in either way. The writer streams strictly forward (no seeking), so
// w can be a pipe or a compressing writer as well as a file.
func Write(w io.Writer, st *index.Store, meta *Meta) error {
	return WriteOpts(w, st, meta, WriteOptions{})
}

// WriteOpts is Write with explicit options.
func WriteOpts(w io.Writer, st *index.Store, meta *Meta, wo WriteOptions) error {
	version := uint16(formatVersion)
	if wo.OmitSummary {
		version = 1
	} else {
		// Force the summary build before Parts() snapshots the field, so v2
		// files always carry it (lazy rebuild is the v1-load path only).
		st.Summary()
	}
	parts := st.Parts()
	m := Meta{}
	if meta != nil {
		m = *meta
	}
	m.Triples = len(parts.Orders[index.SPO].Triples)
	m.DictLen = parts.Dict.Len()
	for o := 0; o < 4; o++ {
		m.NDV1[o] = parts.Orders[o].NDV1
	}
	metaJSON, err := json.Marshal(m)
	if err != nil {
		return err
	}

	cw := &countingWriter{bw: bufio.NewWriterSize(w, 1<<20)}
	cw.write([]byte(headerMagic))
	cw.u16(version)
	cw.write([]byte{diskTripleSize, diskSpanSize, diskPredStatSize, 0, 0, 0})

	var table []sectionEntry
	section := func(kind uint32, count int, emit func()) {
		cw.pad()
		e := sectionEntry{kind: kind, off: cw.off, count: uint64(count)}
		cw.crc = 0
		emit()
		e.size = cw.off - e.off
		e.crc = cw.crc
		table = append(table, e)
	}

	section(secMeta, 1, func() { cw.write(metaJSON) })
	section(secDict, m.DictLen, func() { writeDict(cw, parts.Dict) })
	for o := index.Order(0); o < 4; o++ {
		op := parts.Orders[o]
		section(secTriples+uint32(o), len(op.Triples), func() { writeTriples(cw, op.Triples) })
		section(secL1+uint32(o), len(op.L1), func() { writeSpans(cw, op.L1) })
		if op.L2Keys != nil {
			section(secL2Keys+uint32(o), len(op.L2Keys), func() { writeU64s(cw, op.L2Keys) })
			section(secL2Spans+uint32(o), len(op.L2Spans), func() { writeSpans(cw, op.L2Spans) })
		}
	}
	section(secPredStats, len(parts.PredStats), func() { writePredStats(cw, parts.PredStats) })
	section(secNumeric, len(parts.Numeric), func() { writeFloats(cw, parts.Numeric) })
	if !wo.OmitSummary {
		img := parts.Summary.EncodeU64()
		section(secSummary, len(img), func() { writeU64s(cw, img) })
	}

	cw.pad()
	tableOff := cw.off
	cw.crc = 0
	for _, e := range table {
		cw.u32(e.kind)
		cw.u32(e.crc)
		cw.u64(e.off)
		cw.u64(e.size)
		cw.u64(e.count)
	}
	tableCRC := cw.crc
	cw.u64(tableOff)
	cw.u32(uint32(len(table)))
	cw.u32(tableCRC)
	cw.u64(cw.off + 16) // total size: current offset + the rest of the footer
	cw.write([]byte(footerMagic))
	if cw.err != nil {
		return cw.err
	}
	return cw.bw.Flush()
}

// WriteFile writes the snapshot atomically: to a temp file in the target
// directory, synced, then renamed over path.
func WriteFile(path string, st *index.Store, meta *Meta) error {
	return WriteFileOpts(path, st, meta, WriteOptions{})
}

// WriteFileOpts is WriteFile with explicit WriteOptions (kgsnap build
// -nosummary stamps version-1 snapshots for pre-v2 readers).
func WriteFileOpts(path string, st *index.Store, meta *Meta, wo WriteOptions) error {
	f, err := os.CreateTemp(dirOf(path), ".snap-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer os.Remove(tmp) // no-op after the rename succeeds
	if err := WriteOpts(f, st, meta, wo); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func dirOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[:i+1]
		}
	}
	return "."
}

func writeDict(cw *countingWriter, d *rdf.Dict) {
	str := func(s string) {
		cw.u32(uint32(len(s)))
		cw.write([]byte(s))
	}
	for i := 0; i < d.Len(); i++ {
		t := d.Term(rdf.ID(i))
		cw.write([]byte{byte(t.Kind)})
		str(t.Value)
		str(t.Datatype)
		str(t.Lang)
	}
}

func writeTriples(cw *countingWriter, ts []rdf.Triple) {
	if nativeAliasOK {
		cw.write(rawBytes(ts, diskTripleSize))
		return
	}
	for _, t := range ts {
		cw.u32(uint32(t.S))
		cw.u32(uint32(t.P))
		cw.u32(uint32(t.O))
	}
}

func writeSpans(cw *countingWriter, sp []index.Span) {
	if nativeAliasOK {
		cw.write(rawBytes(sp, diskSpanSize))
		return
	}
	for _, s := range sp {
		cw.u64(uint64(int64(s.Lo)))
		cw.u64(uint64(int64(s.Hi)))
	}
}

func writeU64s(cw *countingWriter, ks []uint64) {
	if nativeAliasOK {
		cw.write(rawBytes(ks, 8))
		return
	}
	for _, k := range ks {
		cw.u64(k)
	}
}

func writePredStats(cw *countingWriter, ps []index.PredStat) {
	if nativeAliasOK {
		cw.write(rawBytes(ps, diskPredStatSize))
		return
	}
	for _, p := range ps {
		cw.u64(uint64(int64(p.Count)))
		cw.u64(uint64(int64(p.NdvS)))
		cw.u64(uint64(int64(p.NdvO)))
	}
}

func writeFloats(cw *countingWriter, fs []float64) {
	if nativeAliasOK {
		cw.write(rawBytes(fs, 8))
		return
	}
	for _, f := range fs {
		cw.u64(math.Float64bits(f))
	}
}

func fmtKind(kind uint32) string {
	name := func(base uint32, what string) string {
		return fmt.Sprintf("%s[%v]", what, index.Order(kind-base))
	}
	switch {
	case kind == secMeta:
		return "meta"
	case kind == secDict:
		return "dict"
	case kind >= secTriples && kind < secTriples+4:
		return name(secTriples, "triples")
	case kind >= secL1 && kind < secL1+4:
		return name(secL1, "l1")
	case kind >= secL2Keys && kind < secL2Keys+4:
		return name(secL2Keys, "l2keys")
	case kind >= secL2Spans && kind < secL2Spans+4:
		return name(secL2Spans, "l2spans")
	case kind == secPredStats:
		return "predstats"
	case kind == secNumeric:
		return "numeric"
	case kind == secSummary:
		return "summary"
	default:
		return fmt.Sprintf("kind(%d)", kind)
	}
}
