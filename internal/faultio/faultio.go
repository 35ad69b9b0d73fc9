// Package faultio provides an injectable filesystem seam plus scripted
// fault wrappers for crash-recovery testing of persistence code.
//
// Production code writes through the FS interface (the OS
// implementation is a thin veneer over package os); tests substitute an
// InjectFS that tears writes at a chosen byte offset, fails the Nth
// operation of a given kind with a chosen error, or crashes between
// section writes. The wrappers simulate the failure modes durable
// storage actually exhibits — torn writes where a prefix lands and the
// tail is lost, transient EIO, ENOSPC, a process killed between
// rename and directory sync — so recovery paths can be exercised
// deterministically at every boundary instead of hoping a real crash
// lands somewhere interesting.
package faultio

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// ErrCrash is the sentinel returned by crash-point injections: the
// simulated process death. Persistence code under test must treat it
// like any other write error (abort, leave the destination intact);
// tests assert on it to distinguish an injected crash from a genuine
// failure.
var ErrCrash = errors.New("faultio: injected crash")

// File is the subset of *os.File persistence code needs for an
// atomic-rename write: write, flush to stable storage, close, and the
// name for the subsequent rename.
type File interface {
	io.Writer
	Sync() error
	Close() error
	Name() string
}

// FS abstracts the filesystem operations of an atomic save: create a
// temp file, rename it over the destination, remove it on failure, and
// sync the containing directory so the rename itself is durable.
type FS interface {
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	SyncDir(dir string) error
}

// ReadFile is the subset of *os.File load code needs: sequential
// reads, close, and the name for error messages. Load code that can
// leave parts of a file unread until first use also asks for
// io.ReaderAt (*os.File and the InjectFS wrapper implement it) and
// reads the whole file up front when it is missing.
type ReadFile interface {
	io.Reader
	Close() error
	Name() string
}

// ReadFS is the optional read side of an FS: implementations that can
// open files for loading. OS and InjectFS implement it; load paths
// that accept an FS type-assert for it.
type ReadFS interface {
	Open(name string) (ReadFile, error)
}

// StatFS is the optional stat side of an FS. Persistence code uses it
// to tell whether a file changed since it was last read or written; an
// FS without it is assumed to have changed.
type StatFS interface {
	Stat(name string) (os.FileInfo, error)
}

// OS is the real filesystem.
type OS struct{}

// CreateTemp implements FS via os.CreateTemp.
func (OS) CreateTemp(dir, pattern string) (File, error) {
	return os.CreateTemp(dir, pattern)
}

// Rename implements FS via os.Rename.
func (OS) Rename(oldpath, newpath string) error {
	return os.Rename(oldpath, newpath)
}

// Remove implements FS via os.Remove.
func (OS) Remove(name string) error {
	return os.Remove(name)
}

// Open implements ReadFS via os.Open.
func (OS) Open(name string) (ReadFile, error) {
	return os.Open(name)
}

// Stat implements StatFS via os.Stat.
func (OS) Stat(name string) (os.FileInfo, error) {
	return os.Stat(name)
}

// SyncDir fsyncs a directory so a completed rename survives power loss.
// Some filesystems refuse to sync directories; those errors are
// swallowed — the rename already happened, durability is best-effort.
func (OS) SyncDir(dir string) error {
	d, err := os.Open(filepath.Clean(dir))
	if err != nil {
		return nil
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}

// TornWriter passes through the first Limit bytes and fails every
// write after that with Err (ErrCrash if nil), keeping the prefix that
// already landed — the classic torn write. A write straddling the
// limit lands its in-budget prefix and reports the failure, exactly
// like a disk filling mid-write.
type TornWriter struct {
	W     io.Writer
	Limit int64
	Err   error

	written int64
}

// Write implements io.Writer with the torn-write semantics above.
func (t *TornWriter) Write(p []byte) (int, error) {
	fail := t.Err
	if fail == nil {
		fail = ErrCrash
	}
	remain := t.Limit - t.written
	if remain <= 0 {
		return 0, fail
	}
	if int64(len(p)) <= remain {
		n, err := t.W.Write(p)
		t.written += int64(n)
		return n, err
	}
	n, err := t.W.Write(p[:remain])
	t.written += int64(n)
	if err != nil {
		return n, err
	}
	return n, fail
}

// Written reports how many bytes reached the underlying writer.
func (t *TornWriter) Written() int64 { return t.written }

// FlakyWriter fails its first Failures writes with Err (transient EIO
// by default: syscall-free, just an error value) and passes every
// write after that through unchanged. It models a transient error a
// bounded retry should ride out.
type FlakyWriter struct {
	W        io.Writer
	Failures int
	Err      error

	calls int
}

// Write implements io.Writer with the transient-failure semantics.
func (f *FlakyWriter) Write(p []byte) (int, error) {
	f.calls++
	if f.calls <= f.Failures {
		err := f.Err
		if err == nil {
			err = errors.New("faultio: transient write error")
		}
		return 0, err
	}
	return f.W.Write(p)
}

// Op names one filesystem operation class for scripted injection.
type Op int

// Operation classes an InjectFS can target.
const (
	OpCreateTemp Op = iota
	OpWrite
	OpSync
	OpClose
	OpRename
	OpRemove
	OpSyncDir
	OpOpen
	OpRead
)

// String returns the operation name for error messages.
func (o Op) String() string {
	switch o {
	case OpCreateTemp:
		return "createtemp"
	case OpWrite:
		return "write"
	case OpSync:
		return "sync"
	case OpClose:
		return "close"
	case OpRename:
		return "rename"
	case OpRemove:
		return "remove"
	case OpSyncDir:
		return "syncdir"
	case OpOpen:
		return "open"
	case OpRead:
		return "read"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// InjectFS wraps an FS with scripted faults: tear the byte stream of
// every created file at a global offset, or fail the Nth call of a
// given operation class. The zero value (wrapping some FS) injects
// nothing. InjectFS is safe for concurrent use.
type InjectFS struct {
	FS FS

	mu       sync.Mutex
	tearAt   int64 // <0: no tear
	tearErr  error
	written  int64 // bytes accepted across all files
	rTearAt  int64 // <0: no read tear
	rTearErr error
	failAt   map[Op]int // fail when the op's 1-based call counter equals this
	failErr  map[Op]error
	calls    map[Op]int
	injected int
}

// NewInjectFS wraps fs with no faults armed.
func NewInjectFS(fs FS) *InjectFS {
	return &InjectFS{FS: fs, tearAt: -1, rTearAt: -1}
}

// TearAfter arms a torn write: across all files created through this
// FS, the first n bytes land and every byte after that fails with err
// (ErrCrash if nil). Returns the receiver for chaining.
func (ifs *InjectFS) TearAfter(n int64, err error) *InjectFS {
	ifs.mu.Lock()
	defer ifs.mu.Unlock()
	ifs.tearAt = n
	ifs.tearErr = err
	ifs.written = 0
	return ifs
}

// TearReadAfter arms a torn read: in every file opened through this FS
// the bytes before offset n are served and every read of a byte at
// offset n or past it fails with err (ErrCrash if nil), whether the
// read is sequential (Read) or positioned (ReadAt). A read straddling
// offset n returns the prefix before it as a short read alongside the
// failure — the shape a disk developing a bad sector mid-file
// presents. Returns the receiver for chaining.
func (ifs *InjectFS) TearReadAfter(n int64, err error) *InjectFS {
	ifs.mu.Lock()
	defer ifs.mu.Unlock()
	ifs.rTearAt = n
	ifs.rTearErr = err
	return ifs
}

// FailN arms a one-shot fault: the nth (1-based) call of op fails with
// err (ErrCrash if nil). Returns the receiver for chaining.
func (ifs *InjectFS) FailN(op Op, n int, err error) *InjectFS {
	ifs.mu.Lock()
	defer ifs.mu.Unlock()
	if ifs.failAt == nil {
		ifs.failAt = make(map[Op]int)
		ifs.failErr = make(map[Op]error)
	}
	ifs.failAt[op] = n
	ifs.failErr[op] = err
	return ifs
}

// Injected reports how many faults actually fired.
func (ifs *InjectFS) Injected() int {
	ifs.mu.Lock()
	defer ifs.mu.Unlock()
	return ifs.injected
}

// check counts one call of op and returns the armed error if this call
// is the scripted one.
func (ifs *InjectFS) check(op Op) error {
	ifs.mu.Lock()
	defer ifs.mu.Unlock()
	if ifs.calls == nil {
		ifs.calls = make(map[Op]int)
	}
	ifs.calls[op]++
	if n, ok := ifs.failAt[op]; ok && ifs.calls[op] == n {
		ifs.injected++
		if err := ifs.failErr[op]; err != nil {
			return err
		}
		return ErrCrash
	}
	return nil
}

// tearBudget returns how many more bytes may land before the armed
// tear fires, or a negative value when no tear is armed.
func (ifs *InjectFS) tearBudget() int64 {
	ifs.mu.Lock()
	defer ifs.mu.Unlock()
	if ifs.tearAt < 0 {
		return -1
	}
	return ifs.tearAt - ifs.written
}

// tearConsume records n bytes landed and returns the tear error to
// report, if the tear fires within this write.
func (ifs *InjectFS) tearConsume(n int64, tore bool) error {
	ifs.mu.Lock()
	defer ifs.mu.Unlock()
	ifs.written += n
	if !tore {
		return nil
	}
	ifs.injected++
	if ifs.tearErr != nil {
		return ifs.tearErr
	}
	return ErrCrash
}

// readTearBudget returns how many bytes from file offset off on may be
// served before the armed read tear, or a negative value when none is
// armed.
func (ifs *InjectFS) readTearBudget(off int64) int64 {
	ifs.mu.Lock()
	defer ifs.mu.Unlock()
	if ifs.rTearAt < 0 {
		return -1
	}
	return max(ifs.rTearAt-off, 0)
}

// readTearFire records a fired read tear and returns its error.
func (ifs *InjectFS) readTearFire() error {
	ifs.mu.Lock()
	defer ifs.mu.Unlock()
	ifs.injected++
	if ifs.rTearErr != nil {
		return ifs.rTearErr
	}
	return ErrCrash
}

// Open implements ReadFS, wrapping the opened file with the armed
// read faults. The wrapped FS must itself implement ReadFS (OS does).
func (ifs *InjectFS) Open(name string) (ReadFile, error) {
	if err := ifs.check(OpOpen); err != nil {
		return nil, err
	}
	rfs, ok := ifs.FS.(ReadFS)
	if !ok {
		return nil, fmt.Errorf("faultio: wrapped FS %T cannot open files", ifs.FS)
	}
	f, err := rfs.Open(name)
	if err != nil {
		return nil, err
	}
	return &injectReadFile{f: f, ifs: ifs}, nil
}

// Stat implements StatFS by passing through to the wrapped FS; no fault
// is injected into stats.
func (ifs *InjectFS) Stat(name string) (os.FileInfo, error) {
	sfs, ok := ifs.FS.(StatFS)
	if !ok {
		return nil, fmt.Errorf("faultio: wrapped FS %T cannot stat files", ifs.FS)
	}
	return sfs.Stat(name)
}

// CreateTemp implements FS, wrapping the created file with the armed
// faults.
func (ifs *InjectFS) CreateTemp(dir, pattern string) (File, error) {
	if err := ifs.check(OpCreateTemp); err != nil {
		return nil, err
	}
	f, err := ifs.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &injectFile{f: f, ifs: ifs}, nil
}

// Rename implements FS with scripted faults.
func (ifs *InjectFS) Rename(oldpath, newpath string) error {
	if err := ifs.check(OpRename); err != nil {
		return err
	}
	return ifs.FS.Rename(oldpath, newpath)
}

// Remove implements FS with scripted faults.
func (ifs *InjectFS) Remove(name string) error {
	if err := ifs.check(OpRemove); err != nil {
		return err
	}
	return ifs.FS.Remove(name)
}

// SyncDir implements FS with scripted faults.
func (ifs *InjectFS) SyncDir(dir string) error {
	if err := ifs.check(OpSyncDir); err != nil {
		return err
	}
	return ifs.FS.SyncDir(dir)
}

// injectFile routes a File's operations through its InjectFS's armed
// faults.
type injectFile struct {
	f   File
	ifs *InjectFS
}

func (jf *injectFile) Write(p []byte) (int, error) {
	if err := jf.ifs.check(OpWrite); err != nil {
		return 0, err
	}
	budget := jf.ifs.tearBudget()
	if budget < 0 {
		return jf.f.Write(p)
	}
	if budget == 0 {
		return 0, jf.ifs.tearConsume(0, true)
	}
	if int64(len(p)) <= budget {
		n, err := jf.f.Write(p)
		if terr := jf.ifs.tearConsume(int64(n), false); terr != nil && err == nil {
			err = terr
		}
		return n, err
	}
	n, err := jf.f.Write(p[:budget])
	terr := jf.ifs.tearConsume(int64(n), err == nil)
	if err == nil {
		err = terr
	}
	return n, err
}

func (jf *injectFile) Sync() error {
	if err := jf.ifs.check(OpSync); err != nil {
		return err
	}
	return jf.f.Sync()
}

func (jf *injectFile) Close() error {
	if err := jf.ifs.check(OpClose); err != nil {
		return err
	}
	return jf.f.Close()
}

func (jf *injectFile) Name() string { return jf.f.Name() }

// injectReadFile routes a ReadFile's reads through its InjectFS's
// armed read faults. off is the file offset of the next sequential
// read.
type injectReadFile struct {
	f   ReadFile
	ifs *InjectFS
	off int64
}

func (jf *injectReadFile) Read(p []byte) (int, error) {
	if err := jf.ifs.check(OpRead); err != nil {
		return 0, err
	}
	n, err := jf.tornRead(p, jf.off, jf.f.Read)
	jf.off += int64(n)
	return n, err
}

// ReadAt implements io.ReaderAt with the same faults as Read: each call
// counts as one read, and bytes at or past the tear fail.
func (jf *injectReadFile) ReadAt(p []byte, off int64) (int, error) {
	if err := jf.ifs.check(OpRead); err != nil {
		return 0, err
	}
	ra, ok := jf.f.(io.ReaderAt)
	if !ok {
		return 0, fmt.Errorf("faultio: file %s cannot read at an offset", jf.f.Name())
	}
	return jf.tornRead(p, off, func(p []byte) (int, error) { return ra.ReadAt(p, off) })
}

// tornRead serves a read of p at file offset off through read, cut
// short at the armed tear.
func (jf *injectReadFile) tornRead(p []byte, off int64, read func([]byte) (int, error)) (int, error) {
	budget := jf.ifs.readTearBudget(off)
	if budget < 0 || int64(len(p)) <= budget {
		return read(p)
	}
	if budget == 0 {
		return 0, jf.ifs.readTearFire()
	}
	n, err := read(p[:budget])
	if err == nil {
		err = jf.ifs.readTearFire()
	}
	return n, err
}

func (jf *injectReadFile) Close() error {
	if err := jf.ifs.check(OpClose); err != nil {
		return err
	}
	return jf.f.Close()
}

func (jf *injectReadFile) Name() string { return jf.f.Name() }
