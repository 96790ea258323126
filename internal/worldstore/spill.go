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
//	labels.seg   label block payloads, append-only
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
// so a torn tail from a crash is detected and discarded on replay.
// Re-spilling a block with more worlds appends a superseding record — last
// record wins — and payload checksums are verified on every load: a
// truncated or bit-flipped payload is dropped (Stats.CorruptDropped) and
// the block is recomputed, never served wrong.
//
// The seeded payload CRC is format version 2. A version-1 directory (an
// unseeded payload CRC) is refused at attach like any other header
// mismatch, so delete it before starting a binary that writes version 2.
//
// Segment reads go through a lazily grown read-only mmap of the segment
// file where the platform supports it (falling back to pread elsewhere), so
// a warm-restarted store faults spilled blocks straight from the page cache
// without a read syscall per block.
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
	spillVersion = 2

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

// spillEntry is the in-memory directory entry of one spilled block: the
// latest persisted prefix of (family, block index).
type spillEntry struct {
	done int    // worlds of the block persisted
	off  int64  // payload offset in the family segment
	crc  uint32 // payloadCRC of the payload bytes
}

// payloadCRC is the CRC32-C of a block payload seeded with the block's
// identity, so a payload verifies only as the (family, block index,
// worlds) it was spilled as.
func payloadCRC(fam family, idx, done int, data []byte) uint32 {
	var id [12]byte
	binary.LittleEndian.PutUint32(id[0:4], uint32(fam))
	binary.LittleEndian.PutUint32(id[4:8], uint32(idx))
	binary.LittleEndian.PutUint32(id[8:12], uint32(done))
	return crc32.Update(crc32.Checksum(id[:], crcTable), crcTable, data)
}

// segment is one append-only payload file plus its lazily grown read mmap.
type segment struct {
	f      *os.File
	size   int64    // append offset == file size
	mapped mmapView // read view of [0, len(mapped.data)); grown on demand
}

// append writes data at the segment tail, returning its offset.
func (sg *segment) append(data []byte) (int64, error) {
	off := sg.size
	if _, err := sg.f.WriteAt(data, off); err != nil {
		return 0, err
	}
	sg.size += int64(len(data))
	return off, nil
}

// read returns the payload bytes at [off, off+length), served from the
// mmap view when available (remapping once when the segment has grown past
// the view) and falling back to pread. The returned slice is only valid
// until the next remap; callers copy out of it under the cache mutex.
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
	mu        sync.Mutex
	dir       string
	dirf      *os.File
	dirSize   int64
	segs      [numFamilies]*segment
	entries   [numFamilies]map[int]spillEntry
	rowBytes  [numFamilies]int64 // payload bytes per world
	liveBytes int64              // payload bytes referenced by current entries
	broken    bool               // a write failed (e.g. disk full); stop spilling
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

func encodeRecord(fam family, idx, done int, off int64, payloadCRC uint32) []byte {
	buf := make([]byte, spillRecordSize)
	buf[0] = byte(fam)
	binary.LittleEndian.PutUint32(buf[4:8], uint32(idx))
	binary.LittleEndian.PutUint32(buf[8:12], uint32(done))
	binary.LittleEndian.PutUint32(buf[12:16], payloadCRC)
	binary.LittleEndian.PutUint64(buf[16:24], uint64(off))
	binary.LittleEndian.PutUint32(buf[28:32], crc32.Checksum(buf[:28], crcTable))
	return buf
}

// decodeRecord parses one directory record, reporting ok=false for a torn
// or corrupt record (replay stops there).
func decodeRecord(buf []byte) (fam family, idx, done int, off int64, payloadCRC uint32, ok bool) {
	if len(buf) < spillRecordSize {
		return 0, 0, 0, 0, 0, false
	}
	if crc32.Checksum(buf[:28], crcTable) != binary.LittleEndian.Uint32(buf[28:32]) {
		return 0, 0, 0, 0, 0, false
	}
	fam = family(buf[0])
	idx = int(binary.LittleEndian.Uint32(buf[4:8]))
	done = int(binary.LittleEndian.Uint32(buf[8:12]))
	payloadCRC = binary.LittleEndian.Uint32(buf[12:16])
	off = int64(binary.LittleEndian.Uint64(buf[16:24]))
	return fam, idx, done, off, payloadCRC, true
}

// openSpillCache opens (or initializes) the cache directory for a store
// with the given identity, replaying the directory log. dropped reports
// entries discarded during replay because their payload extents outrun a
// (truncated) segment file.
func openSpillCache(dir string, h spillHeader, rowBytes [numFamilies]int64, bw int) (c *spillCache, dropped int, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	c = &spillCache{dir: dir, rowBytes: rowBytes}
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
		fam, idx, done, off, crc, ok := decodeRecord(raw[pos : pos+spillRecordSize])
		if !ok {
			break
		}
		pos += spillRecordSize
		if fam < 0 || fam >= numFamilies || idx < 0 || done <= 0 || done > bw {
			dropped++
			continue
		}
		length, size := int64(done)*rowBytes[fam], c.segs[fam].size
		if off < 0 || length > size || off > size-length {
			// Segment truncated behind the directory's back: drop this
			// record. An earlier, shorter entry for the same block (whose
			// extent was validated when replayed) stays usable — spilled
			// prefixes are pure functions of the stream, so serving the
			// older prefix is still exact.
			dropped++
			continue
		}
		if old, exists := c.entries[fam][idx]; exists {
			c.liveBytes -= int64(old.done) * rowBytes[fam]
		}
		c.entries[fam][idx] = spillEntry{done: done, off: off, crc: crc}
		c.liveBytes += length
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

// store persists block b's materialized prefix, superseding any shorter
// entry for the same (family, index). It reports whether a write happened;
// an entry already covering b.done worlds (or a previous IO failure) skips
// the write. The caller guarantees b is unreachable by readers (evicted,
// zero pins), so its payload is stable without holding block locks.
func (c *spillCache) store(b *block) bool {
	var data []byte
	switch b.fam {
	case famLabels:
		data = int32Bytes(b.labels[:b.done*int(c.rowBytes[famLabels]/4)])
	case famBits:
		data = uint64Bytes(b.bits[:b.done*int(c.rowBytes[famBits]/8)])
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.broken {
		return false
	}
	if e, ok := c.entries[b.fam][b.idx]; ok && e.done >= b.done {
		return false
	}
	off, err := c.segs[b.fam].append(data)
	if err != nil {
		c.broken = true
		return false
	}
	crc := payloadCRC(b.fam, b.idx, b.done, data)
	rec := encodeRecord(b.fam, b.idx, b.done, off, crc)
	if _, err := c.dirf.WriteAt(rec, c.dirSize); err != nil {
		c.broken = true
		return false
	}
	c.dirSize += spillRecordSize
	if old, ok := c.entries[b.fam][b.idx]; ok {
		c.liveBytes -= int64(old.done) * c.rowBytes[b.fam]
	}
	c.entries[b.fam][b.idx] = spillEntry{done: b.done, off: off, crc: crc}
	c.liveBytes += int64(len(data))
	return true
}

// load tries to fill block b's payload from the disk tier, verifying the
// payload checksum. It returns loaded=true when b now holds the spilled
// prefix, and hadEntry=true when a directory entry existed at all — a
// failed load (truncated or corrupt payload) drops the entry so the block
// is recomputed, and the caller counts it. Called under b's block mutex.
func (c *spillCache) load(b *block) (loaded, hadEntry bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[b.fam][b.idx]
	if !ok {
		return false, false
	}
	length := int64(e.done) * c.rowBytes[b.fam]
	data, err := c.segs[b.fam].read(e.off, length)
	if err == nil && payloadCRC(b.fam, b.idx, e.done, data) != e.crc {
		err = errors.New("worldstore: spill payload checksum mismatch")
	}
	if err != nil {
		delete(c.entries[b.fam], b.idx)
		c.liveBytes -= length
		return false, true
	}
	switch b.fam {
	case famLabels:
		b.labels = make([]int32, int(length)/4)
		copy(int32Bytes(b.labels), data)
	case famBits:
		b.bits = make([]uint64, int(length)/8)
		copy(uint64Bytes(b.bits), data)
	}
	b.done = e.done
	if b.fam == famBits {
		b.ready.Store(int32(e.done))
	}
	return true, true
}

// entryDone returns the persisted world count of (fam, idx), 0 if absent.
func (c *spillCache) entryDone(fam family, idx int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries[fam][idx].done
}

// bytes returns the live payload bytes referenced by the directory.
func (c *spillCache) bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.liveBytes
}
