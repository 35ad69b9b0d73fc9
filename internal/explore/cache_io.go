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
// chunks that gob would only copy, so their payload is
//
//	indexLen u64 | gob index | raw chunk bytes
//
// where the index lists, per entry, the key, every field but the chunk
// bytes, and the chunk lengths; the chunks follow the index in entry
// order, back to back. A loaded chunk aliases the section's read buffer
// (capped at its own length), and a save streams the chunks straight
// from the cache into the frame.
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
//     captures (kept in the schedules section); it is retired, and
//     files that still carry it load with the section skipped.
//   - Ids 3 and 4 held lanes and schedules as plain gob maps. They are
//     still read, so older files load, but never written: ids 9 and 10
//     hold the same stores in the index-plus-raw-chunks layout.
const (
	secResults    byte = 1
	secLanesGob   byte = 3
	secSchedsGob  byte = 4
	secRProfiles  byte = 5
	secLProfiles  byte = 6
	secCheckpoint byte = 7
	secRuns       byte = 8
	secLanes      byte = 9
	secScheds     byte = 10
	secProfiles   byte = 11
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
	case secLanes, secLanesGob:
		return "lanes"
	case secScheds, secSchedsGob:
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
// order. Sched and Summary are set only in the schedules section.
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
	Sched     *astream.Schedule
	Summary   apps.Summary
}

// writeStreamSection writes the lanes or schedules section: the gob
// index (encoded into buf), then every chunk straight from the cache.
// Entries go in key order, so equal stores encode to equal bytes.
func (c *Cache) writeStreamSection(w io.Writer, id byte, buf *bytes.Buffer) error {
	type entry struct {
		rec streamRec
		sub *astream.SubStream
	}
	var es []entry
	c.sm.RLock()
	if id == secLanes {
		for k, s := range c.lanes {
			es = append(es, entry{streamRec{Key: k}, s})
		}
	} else {
		for k, e := range c.scheds {
			es = append(es, entry{streamRec{Key: k, Sched: e.Sched, Summary: e.Summary}, e.Ambient})
		}
	}
	c.sm.RUnlock()
	slices.SortFunc(es, func(a, b entry) int { return strings.Compare(a.rec.Key, b.rec.Key) })
	index := make([]streamRec, len(es))
	var raw int64
	for i, e := range es {
		r, s := e.rec, e.sub
		r.Role, r.Lane, r.Segments = s.Role, s.Lane, s.Segments
		r.NumEvents, r.Accesses, r.Peak, r.Partial = s.NumEvents, s.Accesses, s.Peak, s.Partial
		r.ChunkLens = make([]uint32, len(s.Chunks))
		for k, ch := range s.Chunks {
			r.ChunkLens[k] = uint32(len(ch))
			raw += int64(len(ch))
		}
		index[i] = r
	}
	buf.Reset()
	buf.Write(make([]byte, 8))
	if err := gob.NewEncoder(buf).Encode(index); err != nil {
		return fmt.Errorf("explore: encoding cache %s: %w", sectionName(id), err)
	}
	head := buf.Bytes()
	binary.LittleEndian.PutUint64(head[:8], uint64(len(head)-8))
	return writeFrameFunc(w, id, int64(len(head))+raw, func(w io.Writer) error {
		if _, err := w.Write(head); err != nil {
			return err
		}
		for _, e := range es {
			for _, ch := range e.sub.Chunks {
				if _, err := w.Write(ch); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// decodeStreamSection splits a checksum-verified stream section into
// its index rows and their sub-streams. Chunks alias payload with
// cap == len, so no append through a loaded chunk can reach its
// neighbour.
func decodeStreamSection(payload []byte) ([]streamRec, []*astream.SubStream, error) {
	if len(payload) < 8 {
		return nil, nil, errors.New("explore: stream section shorter than its index length")
	}
	n := binary.LittleEndian.Uint64(payload[:8])
	if n > uint64(len(payload)-8) {
		return nil, nil, fmt.Errorf("explore: stream section index of %d bytes overruns the %d-byte payload", n, len(payload))
	}
	var recs []streamRec
	if err := safeDecode(bytes.NewReader(payload[8:8+n]), &recs); err != nil {
		return nil, nil, err
	}
	off := 8 + n
	subs := make([]*astream.SubStream, len(recs))
	for i, r := range recs {
		s := &astream.SubStream{Role: r.Role, Lane: r.Lane, Segments: r.Segments}
		s.NumEvents, s.Accesses, s.Peak, s.Partial = r.NumEvents, r.Accesses, r.Peak, r.Partial
		s.Chunks = make([][]byte, len(r.ChunkLens))
		for k, ln := range r.ChunkLens {
			end := off + uint64(ln)
			if end > uint64(len(payload)) {
				return nil, nil, fmt.Errorf("explore: stream section chunks overrun the %d-byte payload", len(payload))
			}
			s.Chunks[k] = payload[off:end:end]
			off = end
		}
		subs[i] = s
	}
	if off != uint64(len(payload)) {
		return nil, nil, fmt.Errorf("explore: stream section holds %d bytes past its last chunk", uint64(len(payload))-off)
	}
	return recs, subs, nil
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
func (c *Cache) LoadFile(path string) (LoadReport, error) {
	return c.LoadFileFS(faultio.OS{}, path)
}

// LoadFileFS is LoadFile over an injectable filesystem — the read-side
// seam the salvage tests drive torn reads and transient EIO through.
// Mirroring loadSectioned's contract, a read fault mid-file degrades to
// a prefix load reported as Truncated, never a hard error. The file is
// only remembered as clean when fs can stat it (faultio.StatFS) and it
// did not change while it loaded.
func (c *Cache) LoadFileFS(fs faultio.ReadFS, path string) (LoadReport, error) {
	before := statFile(fs, path)
	f, err := fs.Open(path)
	if err != nil {
		return LoadReport{}, err
	}
	defer f.Close()
	pristine := c.gen.Load() == 0
	drops := c.drops.Load()
	rep, ids, err := c.loadReported(f)
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
// they can and report it instead.
func (c *Cache) LoadReported(r io.Reader) (LoadReport, error) {
	rep, _, err := c.loadReported(r)
	return rep, err
}

// loadReported is LoadReported that also returns the ids of the
// sections it merged, in file order.
func (c *Cache) loadReported(r io.Reader) (LoadReport, []byte, error) {
	avail := inputSize(r)
	br := bufio.NewReaderSize(r, 64<<10)
	head, perr := br.Peek(len(cacheMagic) + 4)
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
	if _, err := br.Discard(len(cacheMagic) + 4); err != nil {
		return LoadReport{}, nil, fmt.Errorf("explore: loading simulation cache: %w", err)
	}
	if avail >= 0 {
		avail -= int64(len(cacheMagic) + 4)
	}
	rep, ids := c.loadSectioned(br, avail)
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

// loadSectioned scans the v4 frame sequence, merging every section
// whose header and payload checksums hold and whose payload decodes.
// avail is the number of bytes left in the input, or -1 when unknown.
func (c *Cache) loadSectioned(br *bufio.Reader, avail int64) (LoadReport, []byte) {
	rep := LoadReport{Format: "sectioned-v4"}
	var ids []byte
	for {
		var hdr [frameHeaderLen]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
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
			if _, err := io.ReadFull(br, tr[:]); err != nil {
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
		merge, ok, torn := c.readSectionPayload(br, id, ln, avail >= 0)
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
func (c *Cache) readSectionPayload(br *bufio.Reader, id byte, ln int64, sized bool) (merge func(), ok, torn bool) {
	payload, err := readPayload(br, int(ln), sized)
	if err != nil {
		return nil, false, true
	}
	var tr [4]byte
	if _, err := io.ReadFull(br, tr[:]); err != nil {
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
// Unknown section ids — including the retired streams section — decode
// to a no-op merge (a reader may skip what it does not understand).
func (c *Cache) stageSection(id byte, payload []byte) (func(), error) {
	r := bytes.NewReader(payload)
	switch id {
	case secResults:
		var m map[string]cacheEntry
		if err := safeDecode(r, &m); err != nil {
			return nil, err
		}
		return func() { c.mergeEntries(m) }, nil
	case secLanes:
		recs, subs, err := decodeStreamSection(payload)
		if err != nil {
			return nil, err
		}
		m := make(map[string]*astream.SubStream, len(recs))
		for i, r := range recs {
			m[r.Key] = subs[i]
		}
		return func() { c.mergeLanes(m) }, nil
	case secScheds:
		recs, subs, err := decodeStreamSection(payload)
		if err != nil {
			return nil, err
		}
		m := make(map[string]schedEntry, len(recs))
		for i, r := range recs {
			m[r.Key] = schedEntry{Sched: r.Sched, Ambient: subs[i], Summary: r.Summary}
		}
		return func() { c.mergeScheds(m) }, nil
	case secLanesGob:
		var m map[string]*astream.SubStream
		if err := safeDecode(r, &m); err != nil {
			return nil, err
		}
		return func() { c.mergeLanes(m) }, nil
	case secSchedsGob:
		var m map[string]schedEntry
		if err := safeDecode(r, &m); err != nil {
			return nil, err
		}
		return func() { c.mergeScheds(m) }, nil
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
// storeLane does.
func (c *Cache) mergeLanes(m map[string]*astream.SubStream) {
	if len(m) == 0 {
		return
	}
	c.sm.Lock()
	defer c.sm.Unlock()
	defer c.gen.Add(1)
	for k, v := range m {
		if v == nil || v.Partial {
			c.drops.Add(1)
			continue
		}
		if old, ok := c.lanes[k]; ok {
			c.streamBytes -= int64(old.SizeBytes())
		} else {
			c.laneOrder = append(c.laneOrder, k)
		}
		c.lanes[k] = v
		c.streamBytes += int64(v.SizeBytes())
	}
	c.evictLocked()
}

// mergeScheds merges loaded schedule entries — composition schedules
// and whole-run captures alike; the first complete entry for a key
// wins, as storeSchedule and storeRun.
func (c *Cache) mergeScheds(m map[string]schedEntry) {
	if len(m) == 0 {
		return
	}
	c.sm.Lock()
	defer c.sm.Unlock()
	defer c.gen.Add(1)
	for k, v := range m {
		if v.Sched == nil || v.Ambient == nil || v.Ambient.Partial {
			c.drops.Add(1)
			continue
		}
		if _, ok := c.scheds[k]; ok {
			c.drops.Add(1)
			continue
		}
		c.scheds[k] = v
		if v.wholeRun() {
			c.runOrder = append(c.runOrder, k)
		}
		c.streamBytes += v.sizeBytes()
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
	for k, v := range m {
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
	for k, v := range m {
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
	gen := c.gen.Load()
	if c.isClean(fs, path, gen, c.plannedSections(withStreams)) {
		return false, nil
	}
	var lastErr error
	for attempt := 0; attempt < saveFileAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(saveFileBackoff << (attempt - 1))
		}
		ids, err := c.saveFileOnce(fs, path, withStreams)
		if lastErr = err; err == nil {
			c.setClean(path, gen, statFile(fs, path), ids)
			return true, nil
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
