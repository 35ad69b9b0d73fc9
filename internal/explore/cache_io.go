package explore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/astream"
	"repro/internal/faultio"
	"repro/internal/memsim"
	"repro/internal/profiler"
)

// Sectioned cache format (version 4).
//
// The file opens with an 8-byte magic and a little-endian uint32
// version, followed by a sequence of independently framed sections and
// a zero-length end marker:
//
//	"DDTCACHE" | version u32
//	[id u8 | len u64 | hcrc u32] payload [pcrc u32]   ... per section
//	[0xFF     | 0       | hcrc]          [pcrc]            end marker
//
// hcrc is CRC32C over the 9 header bytes (id, len), so a corrupted
// length can never drive a bogus allocation or mis-align the frame
// scan; pcrc is CRC32C over the payload, verified before any byte of
// it is decoded. Each payload decodes on its own, so a section that
// fails its checksum or decode is dropped with a warning while every
// other section still loads — sound, because every store is
// independently rederivable (results re-simulate, lanes re-capture,
// profiles re-derive from their lanes or one profiling run). A file
// that ends before the end marker is a torn write: everything up to the
// last complete frame loads, the tail is reported as truncation.
//
// Most payloads are one self-contained gob stream. The two stream
// sections (lanes, schedules) carry megabytes of already-encoded event
// chunks that gob would only copy, so their payload (ids 12 and 13) is
//
//	indexLen u64 | indexCRC u32 | gob index | raw chunk bytes
//
// where the index lists, per entry, the key, every field but the chunk
// bytes, the chunk lengths and the CRC32C of the entry's chunk bytes;
// indexCRC is CRC32C over indexLen and the index. The chunks follow the
// index in entry order, back to back, and entries go in key order. A
// save streams the chunks straight from the cache into the frame.
//
// The index and entry CRCs let a file load lazily: LoadFile reads and
// verifies only the index of each stream section and keeps the file
// open; an entry's chunks are read, checked against the entry CRC and
// kept the first time something looks the entry up (an eviction drops
// an unread entry without reading it). A bad index CRC drops the
// section at load, a bad entry CRC or a short read drops that entry at
// first use. A load from a plain reader (LoadReported) reads every
// payload and verifies its frame CRC instead, so each byte is checked
// exactly once either way; its loaded chunks alias the section's read
// buffer (capped at their own length).
//
// Ids 9 and 10 hold the same stores in the layout without index and
// entry CRCs (indexLen u64 | gob index | raw chunk bytes). They are
// still read, always eagerly, but never written.
//
// Input without the magic is not a cache file and fails to load; the
// pre-v4 gob layouts are no longer read.
const (
	cacheMagic   = "DDTCACHE"
	cacheVersion = 4
)

// Section identifiers of the v4 format. Values are part of the on-disk
// format: never renumber, only append.
//   - Id 2 held whole-run streams before they became one-lane composed
//     captures (kept in the schedules section); ids 3 and 4 held lanes
//     and schedules as plain gob maps. All three are retired: files
//     that still carry them load with those sections skipped.
//   - Ids 9 and 10 hold lanes and schedules without index and entry
//     CRCs: read, never written (see above).
const (
	secResults    byte = 1
	secRProfiles  byte = 5
	secLProfiles  byte = 6
	secCheckpoint byte = 7
	secRuns       byte = 8
	secLanesRaw   byte = 9
	secSchedsRaw  byte = 10
	secProfiles   byte = 11
	secLanes      byte = 12
	secScheds     byte = 13
	secEnd        byte = 0xFF
)

// maxSectionBytes is the sanity cap on a framed section length. The
// header CRC already rejects corrupted lengths; this bounds the damage
// of a valid-looking frame from a hostile or scrambled file.
const maxSectionBytes = int64(1) << 40

// firstReadBuffer is the initial payload buffer when the input's size
// is unknown; it doubles as bytes arrive (see readPayload).
const firstReadBuffer = 1 << 20

// crcTable is the Castagnoli (CRC32C) polynomial table, the checksum
// of the sectioned format.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// sectionName renders a section id for reports and warnings. Both
// layouts of a stream store report under the store's name.
func sectionName(id byte) string {
	switch id {
	case secResults:
		return "results"
	case secLanes, secLanesRaw:
		return "lanes"
	case secScheds, secSchedsRaw:
		return "schedules"
	case secRProfiles:
		return "reuse-profiles"
	case secLProfiles:
		return "lane-profiles"
	case secCheckpoint:
		return "checkpoint"
	case secRuns:
		return "run-identities"
	case secProfiles:
		return "profiles"
	default:
		return fmt.Sprintf("section-%d", id)
	}
}

// frameHeaderLen is the framed section header size: id, length, and
// the CRC32C that guards them.
const frameHeaderLen = 1 + 8 + 4

// crcWriter forwards writes while accumulating their CRC32C and count.
type crcWriter struct {
	w   io.Writer
	crc uint32
	n   int64
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.crc = crc32.Update(cw.crc, crcTable, p[:n])
	cw.n += int64(n)
	return n, err
}

// writeFrameFunc writes one framed section whose payload length n is
// known up front: the header, then fill's payload streamed through the
// CRC, then the payload CRC. fill must write exactly n bytes.
func writeFrameFunc(w io.Writer, id byte, n int64, fill func(io.Writer) error) error {
	var hdr [frameHeaderLen]byte
	hdr[0] = id
	binary.LittleEndian.PutUint64(hdr[1:9], uint64(n))
	binary.LittleEndian.PutUint32(hdr[9:13], crc32.Checksum(hdr[:9], crcTable))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	cw := &crcWriter{w: w}
	if err := fill(cw); err != nil {
		return err
	}
	if cw.n != n {
		return fmt.Errorf("explore: cache %s wrote %d payload bytes, framed %d", sectionName(id), cw.n, n)
	}
	var tr [4]byte
	binary.LittleEndian.PutUint32(tr[:], cw.crc)
	_, err := w.Write(tr[:])
	return err
}

// writeFrame writes one framed section from an in-memory payload.
func writeFrame(w io.Writer, id byte, payload []byte) error {
	return writeFrameFunc(w, id, int64(len(payload)), func(w io.Writer) error {
		_, err := w.Write(payload)
		return err
	})
}

// plannedSections lists, in file order, the sections a save with
// these options writes: the store sections always (empty or not), the
// checkpoint only once one was recorded.
func (c *Cache) plannedSections(withStreams bool) []byte {
	ids := []byte{secResults}
	if withStreams {
		ids = append(ids, secLanes, secScheds, secRuns, secRProfiles, secLProfiles)
	}
	ids = append(ids, secProfiles)
	c.ckMu.Lock()
	if c.ckpt != nil {
		ids = append(ids, secCheckpoint)
	}
	c.ckMu.Unlock()
	return ids
}

// save serializes the cache to w in the sectioned v4 format and
// returns the section ids it wrote. Each store snapshots under its own
// lock and encodes outside it, one section at a time, so a save never
// holds any cache lock across serialization work.
func (c *Cache) save(w io.Writer, withStreams bool) ([]byte, error) {
	if _, err := io.WriteString(w, cacheMagic); err != nil {
		return nil, err
	}
	var ver [4]byte
	binary.LittleEndian.PutUint32(ver[:], cacheVersion)
	if _, err := w.Write(ver[:]); err != nil {
		return nil, err
	}
	ids := c.plannedSections(withStreams)
	var buf bytes.Buffer
	for _, id := range ids {
		var err error
		switch id {
		case secLanes, secScheds:
			err = c.writeStreamSection(w, id, &buf)
		default:
			buf.Reset()
			if err = gob.NewEncoder(&buf).Encode(c.sectionValue(id)); err != nil {
				err = fmt.Errorf("explore: encoding cache %s: %w", sectionName(id), err)
				break
			}
			err = writeFrame(w, id, buf.Bytes())
		}
		if err != nil {
			return nil, err
		}
	}
	return ids, writeFrame(w, secEnd, nil)
}

// sectionValue snapshots the store a gob section persists.
func (c *Cache) sectionValue(id byte) any {
	switch id {
	case secResults:
		c.mu.RLock()
		defer c.mu.RUnlock()
		return maps.Clone(c.m)
	case secRuns:
		c.sm.RLock()
		defer c.sm.RUnlock()
		return maps.Clone(c.runs)
	case secRProfiles:
		c.sm.RLock()
		defer c.sm.RUnlock()
		return maps.Clone(c.rprofiles)
	case secLProfiles:
		c.sm.RLock()
		defer c.sm.RUnlock()
		return maps.Clone(c.lprofiles)
	case secProfiles:
		c.pm.Lock()
		defer c.pm.Unlock()
		m := make(map[string][]profiler.Probe, len(c.profiles))
		for k, s := range c.profiles {
			m[k] = s.Probes()
		}
		return m
	case secCheckpoint:
		ck, _ := c.Checkpoint()
		return ck
	}
	panic(fmt.Sprintf("explore: no gob section %d", id))
}

// streamRec is one index row of a stream section: an entry's key and
// every field but its chunk bytes, which follow the index raw, in row
// order. CRC is the CRC32C of the entry's chunk bytes (zero in the
// ids-9/10 layout). Sched and Summary are set only in the schedules
// section.
type streamRec struct {
	Key       string
	Role      string
	Lane      int
	Segments  uint64
	NumEvents uint64
	Accesses  uint64
	Peak      uint64
	Partial   bool
	ChunkLens []uint32
	CRC       uint32
	Sched     *astream.Schedule
	Summary   apps.Summary
}

// size is the byte length of the entry's chunks.
func (r *streamRec) size() int64 {
	var n int64
	for _, ln := range r.ChunkLens {
		n += int64(ln)
	}
	return n
}

// subStream rebuilds the entry's sub-stream over its chunk bytes; a nil
// buf leaves the chunks unset (an unread entry's stand-in). Chunks are
// capped at their own length, so no append through one can reach its
// neighbour.
func (r *streamRec) subStream(buf []byte) *astream.SubStream {
	s := &astream.SubStream{Role: r.Role, Lane: r.Lane, Segments: r.Segments}
	s.NumEvents, s.Accesses, s.Peak, s.Partial = r.NumEvents, r.Accesses, r.Peak, r.Partial
	if buf != nil {
		s.Chunks = make([][]byte, len(r.ChunkLens))
		var off uint32
		for k, ln := range r.ChunkLens {
			s.Chunks[k] = buf[off : off+ln : off+ln]
			off += ln
		}
	}
	return s
}

// writeStreamSection writes the lanes or schedules section: the gob
// index (encoded into buf), then every chunk straight from the cache.
// Entries go in key order, so equal lane stores encode to equal bytes
// (a schedule row's summary holds a map, which gob writes in map
// order). An entry not read since its load is copied from its cache
// file, verified against its CRC on the way; one that fails is dropped
// from the cache and the save fails with errEntryDropped (SaveFile
// then writes again without it).
func (c *Cache) writeStreamSection(w io.Writer, id byte, buf *bytes.Buffer) error {
	type entry struct {
		rec    streamRec
		sub    *astream.SubStream
		unread *unreadEntry
	}
	var es []entry
	c.sm.RLock()
	if id == secLanes {
		for k, s := range c.lanes {
			es = append(es, entry{streamRec{Key: k}, s, c.unreadLanes[k]})
		}
	} else {
		for k, e := range c.scheds {
			es = append(es, entry{streamRec{Key: k, Sched: e.Sched, Summary: e.Summary}, e.Ambient, c.unreadScheds[k]})
		}
	}
	c.sm.RUnlock()
	slices.SortFunc(es, func(a, b entry) int { return strings.Compare(a.rec.Key, b.rec.Key) })
	index := make([]streamRec, len(es))
	var raw, largest int64
	for i, e := range es {
		r, s := e.rec, e.sub
		r.Role, r.Lane, r.Segments = s.Role, s.Lane, s.Segments
		r.NumEvents, r.Accesses, r.Peak, r.Partial = s.NumEvents, s.Accesses, s.Peak, s.Partial
		if u := e.unread; u != nil {
			r.ChunkLens, r.CRC = u.rec.ChunkLens, u.rec.CRC
			largest = max(largest, u.size)
		} else {
			r.ChunkLens = make([]uint32, len(s.Chunks))
			for k, ch := range s.Chunks {
				r.ChunkLens[k] = uint32(len(ch))
				r.CRC = crc32.Update(r.CRC, crcTable, ch)
			}
		}
		raw += r.size()
		index[i] = r
	}
	buf.Reset()
	buf.Write(make([]byte, 12))
	if err := gob.NewEncoder(buf).Encode(index); err != nil {
		return fmt.Errorf("explore: encoding cache %s: %w", sectionName(id), err)
	}
	head := buf.Bytes()
	binary.LittleEndian.PutUint64(head[:8], uint64(len(head)-12))
	binary.LittleEndian.PutUint32(head[8:12], indexCRC(head[:8], head[12:]))
	var copyBuf []byte
	if largest > 0 {
		copyBuf = make([]byte, largest)
	}
	return writeFrameFunc(w, id, int64(len(head))+raw, func(w io.Writer) error {
		if _, err := w.Write(head); err != nil {
			return err
		}
		for _, e := range es {
			if u := e.unread; u != nil {
				b, err := u.readChunks(copyBuf)
				if err != nil {
					c.dropUnread(id, e.rec.Key, u, err)
					return fmt.Errorf("explore: cache %s entry %q: %w", sectionName(id), e.rec.Key, errEntryDropped)
				}
				if _, err := w.Write(b); err != nil {
					return err
				}
				continue
			}
			for _, ch := range e.sub.Chunks {
				if _, err := w.Write(ch); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// indexCRC is the CRC32C a stream section keeps over its index length
// and index bytes.
func indexCRC(lenBytes, index []byte) uint32 {
	return crc32.Update(crc32.Checksum(lenBytes, crcTable), crcTable, index)
}

// errEntryDropped reports a save that met an unread stream entry whose
// bytes failed their CRC or could not be read; the entry has been
// dropped from the cache, so saving again succeeds without it.
var errEntryDropped = errors.New("unread stream entry failed its checksum and was dropped")

// errStreamRead marks a stream section whose index could not be read
// from its file (a torn or failing medium), as opposed to one that was
// read and failed its checksum or decode.
var errStreamRead = errors.New("explore: reading stream section index")

// payloadAt is a frame-verified section payload held in memory. Entries
// decoded from one alias it instead of copying.
type payloadAt []byte

func (p payloadAt) ReadAt(b []byte, off int64) (int, error) {
	if off < 0 || off > int64(len(p)) {
		return 0, io.EOF
	}
	n := copy(b, p[off:])
	if n < len(b) {
		return n, io.EOF
	}
	return n, nil
}

// readAt returns the n bytes at off in src: a capped sub-slice of an
// in-memory payload, or a fresh buffer read from a file.
func readAt(src io.ReaderAt, off, n int64) ([]byte, error) {
	if p, ok := src.(payloadAt); ok {
		if off < 0 || n < 0 || off+n > int64(len(p)) {
			return nil, io.ErrUnexpectedEOF
		}
		return p[off : off+n : off+n], nil
	}
	return readFull(src, make([]byte, n), off)
}

// readFull fills buf from src at off; reaching the end of src exactly
// at the end of buf is no error.
func readFull(src io.ReaderAt, buf []byte, off int64) ([]byte, error) {
	n, err := src.ReadAt(buf, off)
	if n == len(buf) {
		return buf, nil
	}
	if err == nil || errors.Is(err, io.EOF) {
		err = io.ErrUnexpectedEOF
	}
	return nil, err
}

// loadedStream is one entry of a decoded stream section, as the merge
// takes it: its key, sub-stream (a chunkless stand-in while unread),
// the schedule fields, and for an unread entry where its chunks lie.
type loadedStream struct {
	key     string
	sub     *astream.SubStream
	sched   *astream.Schedule
	summary apps.Summary
	unread  *unreadEntry
}

// decodeStreamSection decodes the stream section whose payload runs ln
// bytes from base in src: the index, then the entries it lists, in
// index (key) order. With file nil, src is the frame-verified payload
// itself: the index CRC is not checked again and every entry aliases
// src. Otherwise src is that open cache file, not verified by anything
// yet: the index is checked against its own CRC before it is decoded,
// and every entry is left unread, to be read and checked against its
// entry CRC on first use. Ids 9 and 10 carry no CRCs and decode from a
// verified payload only. An index that cannot be read from the file
// fails with errStreamRead.
func decodeStreamSection(src io.ReaderAt, base, ln int64, id byte, file *cacheFile) ([]loadedStream, error) {
	withCRC := id == secLanes || id == secScheds
	hdrLen := int64(8)
	if withCRC {
		hdrLen += 4
	}
	if ln < hdrLen {
		return nil, errors.New("explore: stream section shorter than its index header")
	}
	hdr, err := readAt(src, base, hdrLen)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errStreamRead, err)
	}
	n := binary.LittleEndian.Uint64(hdr[:8])
	if n > uint64(ln-hdrLen) {
		return nil, fmt.Errorf("explore: stream section index of %d bytes overruns the %d-byte payload", n, ln)
	}
	index, err := readAt(src, base+hdrLen, int64(n))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errStreamRead, err)
	}
	if file != nil && (!withCRC || indexCRC(hdr[:8], index) != binary.LittleEndian.Uint32(hdr[8:12])) {
		return nil, fmt.Errorf("explore: stream section index fails its checksum")
	}
	var recs []streamRec
	if err := safeDecode(bytes.NewReader(index), &recs); err != nil {
		return nil, err
	}
	off, end := base+hdrLen+int64(n), base+ln
	es := make([]loadedStream, len(recs))
	for i := range recs {
		r := &recs[i]
		size := r.size()
		if size > end-off {
			return nil, fmt.Errorf("explore: stream section chunks overrun the %d-byte payload", ln)
		}
		e := loadedStream{key: r.Key, sched: r.Sched, summary: r.Summary}
		if file != nil {
			e.sub = r.subStream(nil)
			e.unread = &unreadEntry{file: file, off: off, size: size, rec: r}
		} else {
			buf, err := readAt(src, off, size)
			if err != nil {
				return nil, err
			}
			e.sub = r.subStream(buf)
		}
		es[i] = e
		off += size
	}
	if off != end {
		return nil, fmt.Errorf("explore: stream section holds %d bytes past its last chunk", end-off)
	}
	return es, nil
}

// LoadReport describes what a load actually recovered: the detected
// format, the sections that merged, the sections dropped to checksum or
// decode failure, and whether the file ended before its end marker (a
// torn write — everything before the tear still loaded).
type LoadReport struct {
	Format    string
	Sections  []string
	Dropped   []string
	Truncated bool
}

// complete reports whether the load merged every section the input
// held.
func (r LoadReport) complete() bool { return !r.Truncated && len(r.Dropped) == 0 }

// Load merges previously saved cache contents from r, overwriting
// results with equal keys (stream stores keep their first complete
// entry, as their store functions do). It is how repeated CLI runs skip
// simulations earlier runs already paid for. Salvageable damage (a
// corrupt section, a truncated tail) is absorbed silently here; use
// LoadReported to observe it.
func (c *Cache) Load(r io.Reader) error {
	_, err := c.LoadReported(r)
	return err
}

// LoadFile loads a cache file from path, reporting salvage. A missing
// file is an error here (callers that treat absence as a cold start
// check os.IsNotExist themselves). A complete load into an empty cache
// also remembers the file, so a later SaveFile to the same path with
// nothing changed leaves the file alone (see SaveFileReported).
//
// The stream sections load as their verified indexes only: the file
// stays open and each lane's or schedule's chunks are read on first
// use (see the format comment). The cache closes the file once every
// such entry has been read, dropped or evicted; Release closes it
// sooner.
func (c *Cache) LoadFile(path string) (LoadReport, error) {
	return c.LoadFileFS(faultio.OS{}, path)
}

// LoadFileFS is LoadFile over an injectable filesystem — the read-side
// seam the salvage tests drive torn reads and transient EIO through.
// Mirroring loadSectioned's contract, a read fault mid-file degrades to
// a prefix load reported as Truncated, never a hard error. The file is
// only remembered as clean when fs can stat it (faultio.StatFS) and it
// did not change while it loaded. Only a regular file of known size
// that can read at an offset (io.ReaderAt) loads lazily; any other
// loads whole, as LoadReported does.
func (c *Cache) LoadFileFS(fs faultio.ReadFS, path string) (LoadReport, error) {
	before := statFile(fs, path)
	f, err := fs.Open(path)
	if err != nil {
		return LoadReport{}, err
	}
	pristine := c.gen.Load() == 0
	drops := c.drops.Load()
	var rep LoadReport
	var ids []byte
	avail := inputSize(f)
	if avail < 0 && before != nil && before.Mode().IsRegular() {
		avail = before.Size()
	}
	if ra, ok := f.(io.ReaderAt); ok && avail >= 0 {
		file := &cacheFile{f: f, ra: ra, refs: 1} // the load's own hold
		rep, ids, err = c.loadReported(io.NewSectionReader(ra, 0, avail), avail, file)
		c.sm.Lock()
		file.unref()
		c.sm.Unlock()
	} else {
		rep, ids, err = c.loadReported(f, avail, nil)
		f.Close()
	}
	if err != nil || !rep.complete() || !pristine || c.drops.Load() != drops {
		return rep, err
	}
	if after := statFile(fs, path); before != nil && sameFileState(before, after) {
		c.setClean(path, c.gen.Load(), after, ids)
	}
	return rep, nil
}

// ErrNotCache marks input a load rejects as a whole: it is not a
// sectioned cache file, or one of an unsupported version. A read error
// is not wrapped with it — the file may be intact.
var ErrNotCache = errors.New("not a sectioned cache file")

// LoadReported is Load with salvage reporting. The error is reserved
// for unusable input — an unreadable reader (the read error itself),
// an unsupported version or a file that is not a cache at all
// (ErrNotCache); checksum-dropped sections and torn tails load what
// they can and report it instead. It reads and verifies every section
// whole, so the caller may close r as soon as it returns.
func (c *Cache) LoadReported(r io.Reader) (LoadReport, error) {
	rep, _, err := c.loadReported(r, inputSize(r), nil)
	return rep, err
}

// loadReported is LoadReported that also returns the ids of the
// sections it merged, in file order. avail is the number of bytes left
// in r, or -1 when unknown. With file set, r reads that file from its
// start, and its stream sections load lazily.
func (c *Cache) loadReported(r io.Reader, avail int64, file *cacheFile) (LoadReport, []byte, error) {
	s := &frameScanner{br: bufio.NewReaderSize(r, 64<<10)}
	if file != nil {
		s.seeker, _ = r.(io.ReadSeeker)
	}
	head, perr := s.br.Peek(len(cacheMagic) + 4)
	if len(head) < len(cacheMagic)+4 && perr != nil && !errors.Is(perr, io.EOF) {
		return LoadReport{}, nil, fmt.Errorf("explore: loading simulation cache: %w", perr)
	}
	if len(head) < len(cacheMagic)+4 || string(head[:len(cacheMagic)]) != cacheMagic {
		return LoadReport{}, nil, fmt.Errorf("explore: loading simulation cache: %w", ErrNotCache)
	}
	version := binary.LittleEndian.Uint32(head[len(cacheMagic):])
	if version != cacheVersion {
		return LoadReport{}, nil, fmt.Errorf("explore: loading simulation cache: %w (unsupported format version %d)", ErrNotCache, version)
	}
	if err := s.skip(int64(len(cacheMagic) + 4)); err != nil {
		return LoadReport{}, nil, fmt.Errorf("explore: loading simulation cache: %w", err)
	}
	if avail >= 0 {
		avail -= int64(len(cacheMagic) + 4)
	}
	rep, ids := c.loadSectioned(s, avail, file)
	return rep, ids, nil
}

// inputSize returns the bytes left in r when r is a regular file (it
// can say its size and offset), or -1.
func inputSize(r io.Reader) int64 {
	f, ok := r.(interface {
		io.Seeker
		Stat() (os.FileInfo, error)
	})
	if !ok {
		return -1
	}
	fi, err := f.Stat()
	if err != nil || !fi.Mode().IsRegular() {
		return -1
	}
	off, err := f.Seek(0, io.SeekCurrent)
	if err != nil || off > fi.Size() {
		return -1
	}
	return fi.Size() - off
}

// frameScanner is the frame scan's input: buffered sequential reads
// that count their offset in the input. Over a seekable input it skips
// bytes without reading them.
type frameScanner struct {
	br     *bufio.Reader
	seeker io.ReadSeeker // nil: skipping reads through
	pos    int64
}

func (s *frameScanner) Read(p []byte) (int, error) {
	n, err := s.br.Read(p)
	s.pos += int64(n)
	return n, err
}

// skip moves the scan n bytes on.
func (s *frameScanner) skip(n int64) error {
	if s.seeker == nil || n <= int64(s.br.Buffered()) {
		m, err := s.br.Discard(int(n))
		s.pos += int64(m)
		return err
	}
	if _, err := s.seeker.Seek(s.pos+n, io.SeekStart); err != nil {
		return err
	}
	s.br.Reset(s.seeker)
	s.pos += n
	return nil
}

// loadSectioned scans the v4 frame sequence, merging every section
// whose header and payload checksums hold and whose payload decodes.
// avail is the number of bytes left in the input, or -1 when unknown.
// With file set, the stream sections load as their indexes (see
// loadStreamIndex).
func (c *Cache) loadSectioned(s *frameScanner, avail int64, file *cacheFile) (LoadReport, []byte) {
	rep := LoadReport{Format: "sectioned-v4"}
	var ids []byte
	for {
		var hdr [frameHeaderLen]byte
		if _, err := io.ReadFull(s, hdr[:]); err != nil {
			rep.Truncated = true // mid-header tear, or missing end marker
			return rep, ids
		}
		if crc32.Checksum(hdr[:9], crcTable) != binary.LittleEndian.Uint32(hdr[9:13]) {
			// The length cannot be trusted, so the scan cannot realign:
			// everything before this frame is loaded, the rest is lost.
			rep.Truncated = true
			return rep, ids
		}
		id := hdr[0]
		ln := int64(binary.LittleEndian.Uint64(hdr[1:9]))
		if id == secEnd && ln == 0 {
			var tr [4]byte
			if _, err := io.ReadFull(s, tr[:]); err != nil {
				rep.Truncated = true
			}
			return rep, ids
		}
		if ln < 0 || ln > maxSectionBytes || ln > math.MaxInt {
			rep.Truncated = true
			return rep, ids
		}
		if avail >= 0 {
			if avail -= frameHeaderLen + ln + 4; avail < 0 {
				rep.Truncated = true // the frame runs past the end of the input
				return rep, ids
			}
		}
		var (
			merge    func()
			ok, torn bool
		)
		if file != nil && (id == secLanes || id == secScheds) {
			merge, ok, torn = c.loadStreamIndex(s, file, id, ln)
		} else {
			merge, ok, torn = c.readSectionPayload(s, id, ln, avail >= 0)
		}
		if torn {
			rep.Truncated = true
			return rep, ids
		}
		if !ok {
			rep.Dropped = append(rep.Dropped, sectionName(id))
			continue
		}
		merge()
		rep.Sections = append(rep.Sections, sectionName(id))
		ids = append(ids, id)
	}
}

// readSectionPayload consumes one frame's payload and trailing CRC,
// returning the staged merge to apply. ok is false (with the frame
// fully consumed, so the scan stays aligned) when the payload fails
// its checksum or decode; torn reports the reader ran out mid-frame.
// The payload is checksum-verified before any decoder sees a byte.
// sized says the input is known to hold the whole payload.
func (c *Cache) readSectionPayload(r io.Reader, id byte, ln int64, sized bool) (merge func(), ok, torn bool) {
	payload, err := readPayload(r, int(ln), sized)
	if err != nil {
		return nil, false, true
	}
	var tr [4]byte
	if _, err := io.ReadFull(r, tr[:]); err != nil {
		return nil, false, true
	}
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(tr[:]) {
		return nil, false, false
	}
	merge, err = c.stageSection(id, payload)
	if err != nil {
		return nil, false, false
	}
	return merge, true, false
}

// loadStreamIndex loads one stream section of an open cache file as
// its index: the index is read and checked against its CRC, the chunks
// and the frame CRC are skipped unread, and every entry merges unread.
// ok and torn are as for readSectionPayload.
func (c *Cache) loadStreamIndex(s *frameScanner, file *cacheFile, id byte, ln int64) (merge func(), ok, torn bool) {
	es, err := decodeStreamSection(file.ra, s.pos, ln, id, file)
	if errors.Is(err, errStreamRead) {
		return nil, false, true
	}
	if err := s.skip(ln + 4); err != nil {
		return nil, false, true
	}
	if err != nil {
		return nil, false, false
	}
	return c.streamMerge(id, es), true, false
}

// readPayload reads exactly n bytes. When the input is known to hold
// them the buffer is allocated once; otherwise it starts small and
// doubles only as bytes actually arrive, so a hostile length on a short
// input can never force a huge allocation.
func readPayload(r io.Reader, n int, sized bool) ([]byte, error) {
	if sized {
		buf := make([]byte, n)
		_, err := io.ReadFull(r, buf)
		return buf, err
	}
	buf := make([]byte, 0, min(n, firstReadBuffer))
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(n, 2*cap(buf))-len(buf))
		}
		m, err := r.Read(buf[len(buf):min(n, cap(buf))])
		buf = buf[:len(buf)+m]
		if err != nil && len(buf) < n {
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return buf, nil
}

// stageSection decodes one verified section payload into staging
// structures and returns the closure that merges them into the cache.
// Unknown section ids — including the retired ones — decode to a no-op
// merge (a reader may skip what it does not understand).
func (c *Cache) stageSection(id byte, payload []byte) (func(), error) {
	r := bytes.NewReader(payload)
	switch id {
	case secResults:
		var m map[string]cacheEntry
		if err := safeDecode(r, &m); err != nil {
			return nil, err
		}
		return func() { c.mergeEntries(m) }, nil
	case secLanes, secScheds, secLanesRaw, secSchedsRaw:
		es, err := decodeStreamSection(payloadAt(payload), 0, int64(len(payload)), id, nil)
		if err != nil {
			return nil, err
		}
		return c.streamMerge(id, es), nil
	case secRProfiles:
		var m map[string]*memsim.ReuseProfile
		if err := safeDecode(r, &m); err != nil {
			return nil, err
		}
		return func() { c.mergeRProfiles(m) }, nil
	case secLProfiles:
		var m map[string]*memsim.ReuseProfile
		if err := safeDecode(r, &m); err != nil {
			return nil, err
		}
		return func() { c.mergeLProfiles(m) }, nil
	case secCheckpoint:
		var ck Checkpoint
		if err := safeDecode(r, &ck); err != nil {
			return nil, err
		}
		return func() { c.SetCheckpoint(ck) }, nil
	case secRuns:
		var m map[string]streamEntry
		if err := safeDecode(r, &m); err != nil {
			return nil, err
		}
		return func() { c.mergeRuns(m) }, nil
	case secProfiles:
		var m map[string][]profiler.Probe
		if err := safeDecode(r, &m); err != nil {
			return nil, err
		}
		return func() { c.mergeProfiles(m) }, nil
	default:
		return func() {}, nil
	}
}

// streamMerge returns the merge of a decoded lanes or schedules section.
func (c *Cache) streamMerge(id byte, es []loadedStream) func() {
	if id == secLanes || id == secLanesRaw {
		return func() { c.mergeLanes(es) }
	}
	return func() { c.mergeScheds(es) }
}

// safeDecode gob-decodes one value with panics converted to errors:
// corrupt bytes that slip past a checksum must surface as a clean load
// failure, never a crash.
func safeDecode(r io.Reader, v any) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("explore: cache decode panic: %v", p)
		}
	}()
	return gob.NewDecoder(r).Decode(v)
}

// Every merge below counts as a change to persisted state (it bumps
// the generation) and counts each loaded item it refuses to keep as a
// drop, so a load that discarded anything never marks the file clean.
// Merges that feed an eviction order go in key order (the stream
// sections' index order), so which entries a later eviction drops does
// not depend on map iteration.

// mergeEntries merges loaded results, overwriting equal keys.
func (c *Cache) mergeEntries(m map[string]cacheEntry) {
	if len(m) == 0 {
		return
	}
	c.mu.Lock()
	for k, v := range m {
		c.m[k] = v
	}
	c.mu.Unlock()
	c.gen.Add(1)
}

// mergeLanes merges loaded lane sub-streams, dropping partial lanes as
// storeLane does. An unread lane keeps its index row and is charged its
// on-disk size.
func (c *Cache) mergeLanes(es []loadedStream) {
	if len(es) == 0 {
		return
	}
	c.sm.Lock()
	defer c.sm.Unlock()
	defer c.gen.Add(1)
	for _, e := range es {
		k := e.key
		if e.sub.Partial {
			c.drops.Add(1)
			continue
		}
		if old, ok := c.lanes[k]; ok {
			c.streamBytes -= c.laneBytes(k, old)
			c.forgetUnread(c.unreadLanes, k)
		} else {
			c.laneOrder = append(c.laneOrder, k)
		}
		c.lanes[k] = e.sub
		c.keepUnread(c.unreadLanes, k, e.unread)
		c.streamBytes += c.laneBytes(k, e.sub)
	}
	c.evictLocked()
}

// mergeScheds merges loaded schedule entries — composition schedules
// and whole-run captures alike; the first complete entry for a key
// wins, as storeSchedule and storeRun.
func (c *Cache) mergeScheds(es []loadedStream) {
	if len(es) == 0 {
		return
	}
	c.sm.Lock()
	defer c.sm.Unlock()
	defer c.gen.Add(1)
	for _, e := range es {
		k := e.key
		if e.sched == nil || e.sub.Partial {
			c.drops.Add(1)
			continue
		}
		if _, ok := c.scheds[k]; ok {
			c.drops.Add(1)
			continue
		}
		v := schedEntry{Sched: e.sched, Ambient: e.sub, Summary: e.summary}
		c.scheds[k] = v
		c.keepUnread(c.unreadScheds, k, e.unread)
		if v.wholeRun() {
			c.runOrder = append(c.runOrder, k)
		}
		c.streamBytes += c.schedBytes(k, v)
	}
	c.evictLocked()
}

// mergeRuns merges loaded whole-run capture identities.
func (c *Cache) mergeRuns(m map[string]streamEntry) {
	if len(m) == 0 {
		return
	}
	c.sm.Lock()
	defer c.sm.Unlock()
	defer c.gen.Add(1)
	for k, v := range m {
		if _, ok := c.runs[k]; !ok {
			c.runs[k] = v
		}
	}
}

// mergeRProfiles merges loaded reuse profiles into accumulated
// coverage, as storeReuseProfile.
func (c *Cache) mergeRProfiles(m map[string]*memsim.ReuseProfile) {
	if len(m) == 0 {
		return
	}
	c.sm.Lock()
	defer c.sm.Unlock()
	defer c.gen.Add(1)
	for _, k := range slices.Sorted(maps.Keys(m)) {
		v := m[k]
		if v == nil {
			c.drops.Add(1)
			continue
		}
		if old, ok := c.rprofiles[k]; ok {
			c.streamBytes -= int64(old.SizeBytes())
			v = v.Merge(old) // loading can only grow coverage
		} else {
			c.rprofOrder = append(c.rprofOrder, k)
		}
		c.rprofiles[k] = v
		c.streamBytes += int64(v.SizeBytes())
	}
	c.evictLocked()
}

// mergeLProfiles merges loaded lane profiles, as storeLaneProfile.
func (c *Cache) mergeLProfiles(m map[string]*memsim.ReuseProfile) {
	if len(m) == 0 {
		return
	}
	c.sm.Lock()
	defer c.sm.Unlock()
	defer c.gen.Add(1)
	for _, k := range slices.Sorted(maps.Keys(m)) {
		v := m[k]
		if v == nil {
			c.drops.Add(1)
			continue
		}
		if old, ok := c.lprofiles[k]; ok {
			c.streamBytes -= int64(old.SizeBytes())
			v = v.Merge(old)
		} else {
			c.lprofOrder = append(c.lprofOrder, k)
		}
		c.lprofiles[k] = v
		c.streamBytes += int64(v.SizeBytes())
	}
	c.evictLocked()
}

// mergeProfiles merges loaded dominance profiles; a profile already
// held in memory wins, as the engine's memo would.
func (c *Cache) mergeProfiles(m map[string][]profiler.Probe) {
	if len(m) == 0 {
		return
	}
	c.pm.Lock()
	defer c.pm.Unlock()
	defer c.gen.Add(1)
	if c.profiles == nil {
		c.profiles = make(map[string]*profiler.Set, len(m))
	}
	for k, probes := range m {
		if _, ok := c.profiles[k]; ok {
			c.drops.Add(1)
			continue
		}
		c.profiles[k] = profiler.FromProbes(probes)
	}
}

// cacheFile is a cache file LoadFile left open because unread stream
// entries still point into it. refs counts those entries plus, while
// it runs, the load itself; the file closes when refs reaches zero.
// refs is guarded by the loading cache's sm.
type cacheFile struct {
	f    faultio.ReadFile
	ra   io.ReaderAt
	refs int
}

// unref drops one reference, closing the file with the last. Called
// with the cache's sm held.
func (f *cacheFile) unref() {
	if f.refs--; f.refs == 0 {
		f.f.Close()
	}
}

// unreadEntry is a lane or schedule loaded as its index row: its chunk
// bytes (size bytes at off in file, CRC32C rec.CRC) have not been read.
// The first lookup reads them once (sub or err) and the cache keeps the
// result.
type unreadEntry struct {
	file *cacheFile
	off  int64
	size int64
	rec  *streamRec

	once sync.Once
	sub  *astream.SubStream
	err  error
}

// readChunks reads the entry's chunk bytes into buf (a fresh buffer
// when buf is too small) and verifies them against the entry CRC.
func (u *unreadEntry) readChunks(buf []byte) ([]byte, error) {
	if int64(cap(buf)) < u.size {
		buf = make([]byte, u.size)
	}
	buf, err := readFull(u.file.ra, buf[:u.size], u.off)
	if err != nil {
		return nil, err
	}
	if crc32.Checksum(buf, crcTable) != u.rec.CRC {
		return nil, errors.New("chunk bytes fail their checksum")
	}
	return buf, nil
}

// read returns the entry's verified sub-stream, reading it on the first
// call.
func (u *unreadEntry) read() (*astream.SubStream, error) {
	u.once.Do(func() {
		var buf []byte
		if buf, u.err = u.readChunks(nil); u.err == nil {
			u.sub = u.rec.subStream(buf)
		}
	})
	return u.sub, u.err
}

// keepUnread records u (if any) as the unread state of key in m,
// holding its file. Called with sm held.
func (c *Cache) keepUnread(m map[string]*unreadEntry, key string, u *unreadEntry) {
	if u != nil {
		m[key] = u
		u.file.refs++
	}
}

// forgetUnread clears key's unread state in m, if any, releasing its
// file: the entry was read, replaced, dropped or evicted. Called with
// sm held.
func (c *Cache) forgetUnread(m map[string]*unreadEntry, key string) {
	if u := m[key]; u != nil {
		delete(m, key)
		u.file.unref()
	}
}

// readUnread reads the unread entry u stored under key in the lanes
// or schedules section id. If u is still the entry's unread state, the
// verified sub-stream replaces the chunkless stand-in; chunks that
// cannot be read or fail their checksum drop the entry instead, and
// readUnread reports false. Called without sm held.
func (c *Cache) readUnread(id byte, key string, u *unreadEntry) bool {
	sub, err := u.read()
	if err != nil {
		c.dropUnread(id, key, u, err)
		return false
	}
	c.sm.Lock()
	defer c.sm.Unlock()
	if id == secLanes && c.unreadLanes[key] == u {
		c.forgetUnread(c.unreadLanes, key)
		c.lanes[key] = sub
	} else if id == secScheds && c.unreadScheds[key] == u {
		c.forgetUnread(c.unreadScheds, key)
		e := c.scheds[key]
		e.Ambient = sub
		c.scheds[key] = e
	}
	return true
}

// dropUnread drops the entry stored under key in the lanes or
// schedules section id whose unread chunks could not be read or failed
// their CRC (err), if u is still its unread state, and warns. Like an
// eviction it changes what a save writes. Called without sm held.
func (c *Cache) dropUnread(id byte, key string, u *unreadEntry, err error) {
	c.sm.Lock()
	dropped := c.dropUnreadLocked(id, key, u)
	c.sm.Unlock()
	if dropped {
		c.warnf("cache %s entry %q could not be used (%v) and was dropped; its work will be recomputed", sectionName(id), key, err)
	}
}

// dropUnreadLocked is dropUnread's store update, reporting whether it
// dropped anything. Called with sm held.
func (c *Cache) dropUnreadLocked(id byte, key string, u *unreadEntry) bool {
	if id == secLanes {
		if c.unreadLanes[key] != u {
			return false
		}
		c.forgetUnread(c.unreadLanes, key)
		delete(c.lanes, key)
	} else {
		if c.unreadScheds[key] != u {
			return false
		}
		c.forgetUnread(c.unreadScheds, key)
		e := c.scheds[key]
		if e.wholeRun() {
			c.runOrder = slices.DeleteFunc(c.runOrder, func(k string) bool { return k == key })
		}
		c.streamBytes -= int64(e.Sched.SizeBytes())
		delete(c.scheds, key)
		delete(c.runs, key)
	}
	c.streamBytes -= u.size
	c.gen.Add(1)
	c.drops.Add(1)
	return true
}

// Release closes the cache files LoadFile left open for stream entries
// not read yet. Those entries are dropped, as an eviction would drop
// them: a later save writes the cache without them. Call it when the
// cache will not look up stream entries again, or before the file is
// removed on systems that cannot remove open files.
func (c *Cache) Release() {
	c.sm.Lock()
	defer c.sm.Unlock()
	for k, u := range c.unreadLanes {
		c.dropUnreadLocked(secLanes, k, u)
	}
	for k, u := range c.unreadScheds {
		c.dropUnreadLocked(secScheds, k, u)
	}
}

// SetWarn routes the cache's warnings — an unread stream entry dropped
// at first use or at a save because its bytes could not be read or
// failed their checksum — to warn. Call it before the cache is shared.
func (c *Cache) SetWarn(warn func(msg string)) { c.warn = warn }

func (c *Cache) warnf(format string, args ...any) {
	if c.warn != nil {
		c.warn(fmt.Sprintf(format, args...))
	}
}

// saveFileAttempts bounds SaveFile's retry loop; saveFileBackoff is
// the base delay, doubled per attempt.
const (
	saveFileAttempts = 3
	saveFileBackoff  = 10 * time.Millisecond
)

// SaveFile atomically persists the cache to path: the sectioned format
// is written to a temp file in the destination directory, fsynced,
// closed, renamed over path, and the directory fsynced — so a reader
// (or a crash) at any instant sees either the complete old file or the
// complete new one, never a partial write. Transient errors are
// retried with bounded backoff. A file that already holds exactly this
// cache is left alone (see SaveFileReported).
func (c *Cache) SaveFile(path string, withStreams bool) error {
	_, err := c.saveFile(faultio.OS{}, path, withStreams)
	return err
}

// SaveFileReported is SaveFile reporting whether it wrote. It writes
// nothing, and reports false, when the file at path is the one this
// cache last loaded completely (LoadFile) or saved, the file is
// unchanged on disk since (same file, size and modification time),
// nothing persisted changed in the cache since, and the save would
// write the same sections — so a results-only save after a load with
// streams still rewrites.
func (c *Cache) SaveFileReported(path string, withStreams bool) (bool, error) {
	return c.saveFile(faultio.OS{}, path, withStreams)
}

// SaveFileFS is SaveFile over an injectable filesystem — the seam the
// crash-recovery tests drive torn writes, ENOSPC and crash-points
// through.
func (c *Cache) SaveFileFS(fs faultio.FS, path string, withStreams bool) error {
	_, err := c.saveFile(fs, path, withStreams)
	return err
}

func (c *Cache) saveFile(fs faultio.FS, path string, withStreams bool) (bool, error) {
	if c.isClean(fs, path, c.gen.Load(), c.plannedSections(withStreams)) {
		return false, nil
	}
	var lastErr error
	for attempt := 0; attempt < saveFileAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(saveFileBackoff << (attempt - 1))
		}
		gen := c.gen.Load()
		ids, err := c.saveFileOnce(fs, path, withStreams)
		if lastErr = err; err == nil {
			c.setClean(path, gen, statFile(fs, path), ids)
			return true, nil
		}
		if errors.Is(err, errEntryDropped) {
			attempt-- // the entry is gone: write again, at no cost in attempts
		}
	}
	return false, fmt.Errorf("explore: saving simulation cache: %w", lastErr)
}

// saveFileOnce is one atomic write attempt, returning the section ids
// written. On any failure the temp file is removed and the destination
// is untouched.
func (c *Cache) saveFileOnce(fs faultio.FS, path string, withStreams bool) ([]byte, error) {
	dir := filepath.Dir(path)
	f, err := fs.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return nil, err
	}
	name := f.Name()
	bw := bufio.NewWriterSize(f, 1<<20)
	ids, err := c.save(bw, withStreams)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fs.Rename(name, path)
	}
	if err != nil {
		_ = fs.Remove(name)
		return nil, err
	}
	_ = fs.SyncDir(dir)
	return ids, nil
}

// cleanFile remembers the cache file whose contents equal the cache:
// its path, the cache generation it holds, its on-disk identity, and
// the sections it carries.
type cleanFile struct {
	path     string
	gen      uint64
	info     os.FileInfo
	sections []byte
}

// setClean records path as holding the cache at generation gen; a nil
// info (the filesystem cannot stat) forgets any earlier mark instead.
func (c *Cache) setClean(path string, gen uint64, info os.FileInfo, sections []byte) {
	c.fileMu.Lock()
	defer c.fileMu.Unlock()
	if info == nil {
		c.clean = nil
		return
	}
	c.clean = &cleanFile{path: path, gen: gen, info: info, sections: sections}
}

// isClean reports whether saving at generation gen with the given
// sections would rewrite path with the bytes it already holds.
func (c *Cache) isClean(fs faultio.FS, path string, gen uint64, sections []byte) bool {
	c.fileMu.Lock()
	m := c.clean
	c.fileMu.Unlock()
	if m == nil || m.path != path || m.gen != gen || !bytes.Equal(m.sections, sections) {
		return false
	}
	return sameFileState(m.info, statFile(fs, path))
}

// statFile stats path through fs, or returns nil when fs cannot stat
// or the stat fails.
func statFile(fs any, path string) os.FileInfo {
	sfs, ok := fs.(faultio.StatFS)
	if !ok {
		return nil
	}
	fi, err := sfs.Stat(path)
	if err != nil {
		return nil
	}
	return fi
}

// sameFileState reports whether two stats show the same file with the
// same size and modification time: nothing was written to it between
// them, and it was not replaced.
func sameFileState(a, b os.FileInfo) bool {
	return a != nil && b != nil && os.SameFile(a, b) && a.Size() == b.Size() && a.ModTime().Equal(b.ModTime())
}
