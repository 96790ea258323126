// Disk tier of the world store: spilled label and edge-bitmap blocks.
//
// A Store with an attached cache directory (AttachCache) gains a tier
// between residency and recompute: blocks dropped by the evictor are
// appended to per-family segment files instead of being forgotten, and a
// later miss tries RAM → disk → recompute. Because blocks are pure
// functions of (graph, seed, world index), a spilled block re-validated by
// checksum is bit-identical to a recomputed one — the disk tier changes
// only the price of a miss, never an estimate.
//
// On-disk layout (one directory per store):
//
//	labels.seg   label block payloads (labels, then the block's
//	             largest-component index), append-only
//	bits.seg     edge-bitmap block payloads, append-only
//	cache.dir    directory log: one header + fixed-size entry records
//
// The directory log starts with a header binding the cache to its store —
// graph digest, seed, node count, bitmap words per world, worlds per block,
// format version, native byte order — so a warm restart re-attaches an
// existing directory only when every parameter matches, and a cache from a
// different graph, seed or architecture is rejected instead of silently
// corrupting estimates. Each entry record names a (family, block index)
// pair, the number of worlds persisted, the payload offset in the family's
// segment and a CRC32-C of the payload seeded with that (family, block
// index, worlds) triple, so a record that names one block but points at
// another block's payload fails verification; records carry their own CRC
// so a torn tail from a crash is detected and discarded on replay. Blocks
// are whole and immutable, so a block spills once: every record persists
// all BlockWorlds worlds of its block, an evicted block already in the
// directory is not written again, and replay drops a record of any other
// world count. When a block's load fails and it spills again, the later
// record wins. Payload checksums are verified on every load: a truncated
// or bit-flipped payload is dropped (Stats.CorruptDropped) and the block
// is recomputed, never served wrong.
//
// A label block's payload is its labels followed by its largest-component
// index, both under the one payload CRC, so a reload needs no index
// rebuild. That is format version 4. A directory of an older version is
// refused at attach like any other header mismatch — a version-3
// directory holds label records without the index, a version-2 one may
// hold partial-prefix records, a version-1 one unseeded payload CRCs — so
// delete it before starting a binary that writes version 4.
//
// Segment reads go through a lazily grown read-only mmap of the segment
// file where the platform supports it (falling back to pread elsewhere), so
// a warm-restarted store faults spilled blocks straight from the page cache
// without a read syscall per block. A load copies the payload out of the
// mapping in chunks and checksums each chunk from the private copy while
// it is still in cache, so the mapping is read once and the bytes served
// are exactly the bytes verified. The copy lands in the block's buffers,
// which may be those of an evicted block of the same family (see
// Store.materialize); a load that fails its checksum leaves them to the
// recompute, which overwrites every entry.
package worldstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"unsafe"
)

const (
	spillMagic   = "UCWSPILL"
	spillVersion = 4

	spillHeaderSize = 64
	spillRecordSize = 32

	spillDirName    = "cache.dir"
	spillLabelsName = "labels.seg"
	spillBitsName   = "bits.seg"
)

// crcTable is the CRC32-C (Castagnoli) table shared by header, record and
// payload checksums; hardware-accelerated on amd64/arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// nativeEndianProbe returns the native byte encoding of a fixed probe
// value. Payloads are written in host byte order (zero-copy views over
// []int32 / []uint64), so a cache is only portable between hosts of equal
// endianness; the probe in the header turns a mismatch into a clean
// rejection.
func nativeEndianProbe() [4]byte {
	probe := uint32(0x01020304)
	return *(*[4]byte)(unsafe.Pointer(&probe))
}

// int32Bytes returns the raw bytes of s, zero-copy, in host byte order.
func int32Bytes(s []int32) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*4)
}

// uint64Bytes returns the raw bytes of s, zero-copy, in host byte order.
func uint64Bytes(s []uint64) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*8)
}

// spillEntry is the in-memory directory entry of one spilled block.
type spillEntry struct {
	off int64  // payload offset in the family segment
	crc uint32 // payloadCRC of the payload bytes
}

// payloadCRC is the CRC32-C of a block payload, the concatenation of
// parts, seeded with the block's identity, so a payload verifies only as
// the (family, block index, worlds) it was spilled as. With no parts it
// is the seed a chunked checksum continues from.
func payloadCRC(fam family, idx, worlds int, parts ...[]byte) uint32 {
	var id [12]byte
	binary.LittleEndian.PutUint32(id[0:4], uint32(fam))
	binary.LittleEndian.PutUint32(id[4:8], uint32(idx))
	binary.LittleEndian.PutUint32(id[8:12], uint32(worlds))
	crc := crc32.Checksum(id[:], crcTable)
	for _, p := range parts {
		crc = crc32.Update(crc, crcTable, p)
	}
	return crc
}

// payload returns the byte views of block b's record payload, in record
// order: the labels and then the largest-component index of a label
// block, the bitmaps of a bitmap block.
func (b *block) payload() [][]byte {
	if b.fam == famLabels {
		return [][]byte{int32Bytes(b.labels), uint64Bytes(b.index)}
	}
	return [][]byte{uint64Bytes(b.bits)}
}

// loadChunk is how much of a payload a load copies out of the segment
// before it checksums the copy: small enough to still be in cache when
// the CRC reads it.
const loadChunk = 64 << 10

// segment is one append-only payload file plus its lazily grown read mmap.
type segment struct {
	f      *os.File
	size   int64    // append offset == file size
	mapped mmapView // read view of [0, len(mapped.data)); grown on demand
}

// append writes parts one after another at the segment tail, returning
// the offset of the first.
func (sg *segment) append(parts ...[]byte) (int64, error) {
	off := sg.size
	for _, p := range parts {
		if _, err := sg.f.WriteAt(p, sg.size); err != nil {
			return 0, err
		}
		sg.size += int64(len(p))
	}
	return off, nil
}

// read returns the payload bytes at [off, off+length), served from the
// mmap view when available (remapping once when the segment has grown past
// the view) and falling back to pread. The returned slice is only valid
// until the next remap; callers copy out of it under the cache mutex, and
// checksum the copy.
func (sg *segment) read(off, length int64) ([]byte, error) {
	// off+length would wrap for an offset near MaxInt64, so compare
	// without summing.
	if off < 0 || length < 0 || length > sg.size || off > sg.size-length {
		return nil, fmt.Errorf("worldstore: spill payload [%d,+%d) beyond segment size %d", off, length, sg.size)
	}
	if length == 0 {
		return nil, nil
	}
	if int64(len(sg.mapped.data)) < off+length {
		sg.mapped.close()
		sg.mapped = mmapFile(sg.f, sg.size)
	}
	if int64(len(sg.mapped.data)) >= off+length {
		return sg.mapped.data[off : off+length], nil
	}
	buf := make([]byte, length)
	if _, err := sg.f.ReadAt(buf, off); err != nil {
		return nil, err
	}
	return buf, nil
}

func (sg *segment) close() {
	sg.mapped.close()
	_ = sg.f.Close()
}

// spillCache is the disk tier of one store. All fields are guarded by mu;
// disk IO happens under mu but never under the store's block or map locks,
// so spilling and loading serialize with each other without stalling
// readers of resident blocks.
type spillCache struct {
	mu         sync.Mutex
	dir        string
	dirf       *os.File
	dirSize    int64
	bw         int // worlds per block, the worlds field of every record
	segs       [numFamilies]*segment
	entries    [numFamilies]map[int]spillEntry
	blockBytes [numFamilies]int64 // payload bytes per block
	liveBytes  int64              // payload bytes referenced by current entries
	broken     bool               // a write failed (e.g. disk full); stop spilling
}

// header is the directory-log header binding a cache to its store.
type spillHeader struct {
	digest uint64
	seed   uint64
	n      int
	wpw    int
	bw     int
}

func encodeHeader(h spillHeader) []byte {
	buf := make([]byte, spillHeaderSize)
	copy(buf[0:8], spillMagic)
	binary.LittleEndian.PutUint32(buf[8:12], spillVersion)
	probe := nativeEndianProbe()
	copy(buf[12:16], probe[:])
	binary.LittleEndian.PutUint64(buf[16:24], h.digest)
	binary.LittleEndian.PutUint64(buf[24:32], h.seed)
	binary.LittleEndian.PutUint32(buf[32:36], uint32(h.n))
	binary.LittleEndian.PutUint32(buf[36:40], uint32(h.wpw))
	binary.LittleEndian.PutUint32(buf[40:44], uint32(h.bw))
	binary.LittleEndian.PutUint32(buf[48:52], crc32.Checksum(buf[:48], crcTable))
	return buf
}

// errCorruptHeader marks an unreadable header (as opposed to a valid
// header for a different store, which is a hard mismatch error).
var errCorruptHeader = errors.New("worldstore: corrupt spill-cache header")

func decodeHeader(buf []byte) (spillHeader, error) {
	var h spillHeader
	if len(buf) < spillHeaderSize || string(buf[0:8]) != spillMagic {
		return h, errCorruptHeader
	}
	if crc32.Checksum(buf[:48], crcTable) != binary.LittleEndian.Uint32(buf[48:52]) {
		return h, errCorruptHeader
	}
	if v := binary.LittleEndian.Uint32(buf[8:12]); v != spillVersion {
		return h, fmt.Errorf("worldstore: spill-cache format version %d, want %d", v, spillVersion)
	}
	probe := nativeEndianProbe()
	if *(*[4]byte)(unsafe.Pointer(&buf[12])) != probe {
		return h, errors.New("worldstore: spill cache written with different byte order")
	}
	h.digest = binary.LittleEndian.Uint64(buf[16:24])
	h.seed = binary.LittleEndian.Uint64(buf[24:32])
	h.n = int(binary.LittleEndian.Uint32(buf[32:36]))
	h.wpw = int(binary.LittleEndian.Uint32(buf[36:40]))
	h.bw = int(binary.LittleEndian.Uint32(buf[40:44]))
	return h, nil
}

func encodeRecord(fam family, idx, worlds int, off int64, payloadCRC uint32) []byte {
	buf := make([]byte, spillRecordSize)
	buf[0] = byte(fam)
	binary.LittleEndian.PutUint32(buf[4:8], uint32(idx))
	binary.LittleEndian.PutUint32(buf[8:12], uint32(worlds))
	binary.LittleEndian.PutUint32(buf[12:16], payloadCRC)
	binary.LittleEndian.PutUint64(buf[16:24], uint64(off))
	binary.LittleEndian.PutUint32(buf[28:32], crc32.Checksum(buf[:28], crcTable))
	return buf
}

// decodeRecord parses one directory record, reporting ok=false for a torn
// or corrupt record (replay stops there).
func decodeRecord(buf []byte) (fam family, idx, worlds int, off int64, payloadCRC uint32, ok bool) {
	if len(buf) < spillRecordSize {
		return 0, 0, 0, 0, 0, false
	}
	if crc32.Checksum(buf[:28], crcTable) != binary.LittleEndian.Uint32(buf[28:32]) {
		return 0, 0, 0, 0, 0, false
	}
	fam = family(buf[0])
	idx = int(binary.LittleEndian.Uint32(buf[4:8]))
	worlds = int(binary.LittleEndian.Uint32(buf[8:12]))
	payloadCRC = binary.LittleEndian.Uint32(buf[12:16])
	off = int64(binary.LittleEndian.Uint64(buf[16:24]))
	return fam, idx, worlds, off, payloadCRC, true
}

// openSpillCache opens (or initializes) the cache directory for a store
// with the given identity and per-family block payload sizes, replaying
// the directory log. dropped reports records discarded during replay
// because they name no whole block or their payload extents outrun a
// (truncated) segment file.
func openSpillCache(dir string, h spillHeader, blockBytes [numFamilies]int64) (c *spillCache, dropped int, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	c = &spillCache{dir: dir, bw: h.bw, blockBytes: blockBytes}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	for f, name := range map[family]string{famLabels: spillLabelsName, famBits: spillBitsName} {
		fh, ferr := os.OpenFile(filepath.Join(dir, name), os.O_RDWR|os.O_CREATE, 0o644)
		if ferr != nil {
			return nil, 0, ferr
		}
		st, ferr := fh.Stat()
		if ferr != nil {
			fh.Close()
			return nil, 0, ferr
		}
		c.segs[f] = &segment{f: fh, size: st.Size()}
		c.entries[f] = make(map[int]spillEntry)
	}
	c.dirf, err = os.OpenFile(filepath.Join(dir, spillDirName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, 0, err
	}
	raw, err := os.ReadFile(filepath.Join(dir, spillDirName))
	if err != nil {
		return nil, 0, err
	}
	if len(raw) == 0 {
		// Fresh cache: write the binding header.
		hdr := encodeHeader(h)
		if _, err := c.dirf.WriteAt(hdr, 0); err != nil {
			return nil, 0, err
		}
		c.dirSize = spillHeaderSize
		return c, 0, nil
	}
	got, herr := decodeHeader(raw)
	if herr != nil {
		return nil, 0, fmt.Errorf("%s: %w", dir, herr)
	}
	if got != h {
		return nil, 0, fmt.Errorf("worldstore: spill cache %s belongs to a different store (digest/seed/shape mismatch)", dir)
	}
	// Replay entry records; a torn or corrupt record ends the valid log and
	// the tail after it is truncated away.
	pos := spillHeaderSize
	for pos+spillRecordSize <= len(raw) {
		fam, idx, worlds, off, crc, ok := decodeRecord(raw[pos : pos+spillRecordSize])
		if !ok {
			break
		}
		pos += spillRecordSize
		if fam < 0 || fam >= numFamilies || idx < 0 || worlds != h.bw {
			dropped++
			continue
		}
		length, size := blockBytes[fam], c.segs[fam].size
		if off < 0 || length > size || off > size-length {
			// Segment truncated behind the directory's back: drop this
			// record. An earlier entry for the same block (whose extent was
			// validated when replayed) stays usable.
			dropped++
			continue
		}
		if _, exists := c.entries[fam][idx]; !exists {
			c.liveBytes += length
		}
		c.entries[fam][idx] = spillEntry{off: off, crc: crc}
	}
	c.dirSize = int64(pos)
	if pos < len(raw) {
		if err := c.dirf.Truncate(c.dirSize); err != nil {
			return nil, 0, err
		}
	}
	return c, dropped, nil
}

func (c *spillCache) close() {
	if c == nil {
		return
	}
	for _, sg := range c.segs {
		if sg != nil {
			sg.close()
		}
	}
	if c.dirf != nil {
		_ = c.dirf.Close()
	}
}

// store persists evicted block b unless the directory already holds it
// (blocks never change, so one record serves until a load drops it) or a
// previous IO failure stopped spilling. It reports whether a write
// happened. The caller guarantees b is unreachable by readers (evicted,
// zero pins), so its payload is stable without holding block locks.
func (c *spillCache) store(b *block) bool {
	parts := b.payload()
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[b.fam][b.idx]; ok || c.broken {
		return false
	}
	off, err := c.segs[b.fam].append(parts...)
	if err != nil {
		c.broken = true
		return false
	}
	crc := payloadCRC(b.fam, b.idx, c.bw, parts...)
	rec := encodeRecord(b.fam, b.idx, c.bw, off, crc)
	if _, err := c.dirf.WriteAt(rec, c.dirSize); err != nil {
		c.broken = true
		return false
	}
	c.dirSize += spillRecordSize
	c.entries[b.fam][b.idx] = spillEntry{off: off, crc: crc}
	c.liveBytes += c.blockBytes[b.fam]
	return true
}

// load tries to fill block b's payload buffers, which the caller has
// sized, from the disk tier. It copies the record out of the segment
// loadChunk bytes at a time and checksums each chunk of the copy, so it
// verifies exactly the bytes it serves. It returns loaded=true when b now
// holds the spilled block, and hadEntry=true when a directory entry
// existed at all — a failed load (truncated or corrupt payload) drops the
// entry, leaves b's buffers to be overwritten by a recompute, and the
// caller counts it. Called under b's block mutex.
func (c *spillCache) load(b *block) (loaded, hadEntry bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[b.fam][b.idx]
	if !ok {
		return false, false
	}
	length := c.blockBytes[b.fam]
	data, err := c.segs[b.fam].read(e.off, length)
	if err == nil {
		crc := payloadCRC(b.fam, b.idx, c.bw)
		for _, dst := range b.payload() {
			for i := 0; i < len(dst); i += loadChunk {
				chunk := dst[i:min(i+loadChunk, len(dst))]
				copy(chunk, data[i:])
				crc = crc32.Update(crc, crcTable, chunk)
			}
			data = data[len(dst):]
		}
		if crc != e.crc {
			err = errors.New("worldstore: spill payload checksum mismatch")
		}
	}
	if err != nil {
		delete(c.entries[b.fam], b.idx)
		c.liveBytes -= length
		return false, true
	}
	return true, true
}

// has reports whether the directory holds block idx of family fam.
func (c *spillCache) has(fam family, idx int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[fam][idx]
	return ok
}

// bytes returns the live payload bytes referenced by the directory.
func (c *spillCache) bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.liveBytes
}
