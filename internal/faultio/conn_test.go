package faultio

import (
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestInjectFSTearReadAfter(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data")
	if err := os.WriteFile(path, []byte("hello world"), 0o644); err != nil {
		t.Fatal(err)
	}
	ifs := NewInjectFS(OS{}).TearReadAfter(5, nil)
	f, err := ifs.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 64)
	n, err := f.Read(buf)
	if n != 5 || !errors.Is(err, ErrCrash) {
		t.Fatalf("straddling read: n=%d err=%v, want 5, ErrCrash", n, err)
	}
	if got := string(buf[:n]); got != "hello" {
		t.Fatalf("prefix = %q, want %q", got, "hello")
	}
	if n, err := f.Read(buf); n != 0 || !errors.Is(err, ErrCrash) {
		t.Fatalf("post-tear read: n=%d err=%v, want 0, ErrCrash", n, err)
	}
	if ifs.Injected() == 0 {
		t.Fatal("tear never recorded as injected")
	}
}

func TestInjectFSTearReadWithinBudget(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data")
	if err := os.WriteFile(path, []byte("abcdef"), 0o644); err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("eio")
	ifs := NewInjectFS(OS{}).TearReadAfter(6, sentinel)
	f, err := ifs.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// The whole file fits the budget exactly: served clean; the tear
	// fires on the first read past the budget.
	buf := make([]byte, 6)
	n, err := f.Read(buf)
	if n != 6 || err != nil {
		t.Fatalf("exact-budget read: n=%d err=%v, want 6, nil", n, err)
	}
	if string(buf) != "abcdef" {
		t.Fatalf("content = %q", buf)
	}
	if n, err := f.Read(buf); n != 0 || !errors.Is(err, sentinel) {
		t.Fatalf("past-budget read: n=%d err=%v, want 0, sentinel", n, err)
	}
}

func TestInjectFSFailOpen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data")
	if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("eacces")
	ifs := NewInjectFS(OS{}).FailN(OpOpen, 1, sentinel)
	if _, err := ifs.Open(path); !errors.Is(err, sentinel) {
		t.Fatalf("first open: err=%v, want sentinel", err)
	}
	f, err := ifs.Open(path)
	if err != nil {
		t.Fatalf("second open: %v", err)
	}
	f.Close()
}

func TestInjectFSFailNthRead(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data")
	if err := os.WriteFile(path, []byte("abcdef"), 0o644); err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("eio")
	ifs := NewInjectFS(OS{}).FailN(OpRead, 2, sentinel)
	f, err := ifs.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 3)
	if n, err := f.Read(buf); n != 3 || err != nil {
		t.Fatalf("first read: n=%d err=%v", n, err)
	}
	if _, err := f.Read(buf); !errors.Is(err, sentinel) {
		t.Fatalf("second read: err=%v, want sentinel", err)
	}
	// One-shot: the third read proceeds.
	if n, err := f.Read(buf); n != 3 || err != nil {
		t.Fatalf("third read: n=%d err=%v", n, err)
	}
}

// pipe returns a scripted wrapper around one end of an in-memory
// connection plus the raw peer end.
func pipe(t *testing.T) (*Conn, net.Conn) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	return NewConn(a), b
}

func TestConnTearWriteCloses(t *testing.T) {
	c, peer := pipe(t)
	c.TearWriteAfter(4, nil)
	read := make(chan []byte, 1)
	go func() {
		buf := make([]byte, 16)
		n, _ := peer.Read(buf)
		read <- buf[:n]
	}()
	n, err := c.Write([]byte("hello world"))
	if n != 4 || !errors.Is(err, ErrCrash) {
		t.Fatalf("straddling write: n=%d err=%v, want 4, ErrCrash", n, err)
	}
	if got := string(<-read); got != "hell" {
		t.Fatalf("peer saw %q, want %q", got, "hell")
	}
	// The transport is down for the peer too, not just this side.
	if _, err := peer.Read(make([]byte, 1)); err == nil {
		t.Fatal("peer read succeeded after the tear closed the conn")
	}
	if c.Injected() != 1 {
		t.Fatalf("Injected = %d, want 1", c.Injected())
	}
}

func TestConnTearReadCloses(t *testing.T) {
	c, peer := pipe(t)
	c.TearReadAfter(5, nil)
	go peer.Write([]byte("hello world"))
	buf := make([]byte, 16)
	n, err := c.Read(buf)
	if err != nil && n == 0 {
		t.Fatalf("in-budget read failed: %v", err)
	}
	total := n
	for total < 5 {
		n, err = c.Read(buf[total:])
		total += n
		if err != nil {
			break
		}
	}
	if total != 5 {
		t.Fatalf("served %d bytes before tear, want 5", total)
	}
	if string(buf[:5]) != "hello" {
		t.Fatalf("prefix = %q", buf[:5])
	}
	if _, err := c.Read(buf); !errors.Is(err, ErrCrash) {
		t.Fatalf("post-tear read: err=%v, want ErrCrash", err)
	}
}

func TestConnFailNClosesTransport(t *testing.T) {
	c, peer := pipe(t)
	sentinel := errors.New("econnreset")
	c.FailN(ConnWrite, 2, sentinel)
	go io.Copy(io.Discard, peer)
	if _, err := c.Write([]byte("ok")); err != nil {
		t.Fatalf("first write: %v", err)
	}
	if _, err := c.Write([]byte("boom")); !errors.Is(err, sentinel) {
		t.Fatalf("second write: err=%v, want sentinel", err)
	}
	if _, err := peer.Read(make([]byte, 1)); err == nil {
		t.Fatal("peer still connected after injected failure")
	}
}

func TestConnHangAndRelease(t *testing.T) {
	c, peer := pipe(t)
	c.HangN(ConnRead, 1)
	go peer.Write([]byte("late"))
	got := make(chan error, 1)
	go func() {
		buf := make([]byte, 4)
		_, err := io.ReadFull(c, buf)
		got <- err
	}()
	select {
	case err := <-got:
		t.Fatalf("read completed while hung (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	c.ReleaseHang()
	c.ReleaseHang() // idempotent
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("read after release: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("read still blocked after ReleaseHang")
	}
}

func TestConnHangWriteWhenMatchesContent(t *testing.T) {
	c, peer := pipe(t)
	c.HangWriteWhen(func(p []byte) bool { return len(p) > 0 && p[0] == 'R' })
	got := make(chan string, 4)
	go func() {
		buf := make([]byte, 16)
		for {
			n, err := peer.Read(buf)
			if err != nil {
				return
			}
			got <- string(buf[:n])
		}
	}()
	for _, msg := range []string{"hello", "lease"} {
		if _, err := c.Write([]byte(msg)); err != nil {
			t.Fatal(err)
		}
		if s := <-got; s != msg {
			t.Fatalf("peer read %q, want %q", s, msg)
		}
	}
	wrote := make(chan error, 1)
	go func() {
		_, err := c.Write([]byte("Results"))
		wrote <- err
	}()
	select {
	case err := <-wrote:
		t.Fatalf("matching write completed while hung (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	c.ReleaseHang()
	if err := <-wrote; err != nil {
		t.Fatalf("write after release: %v", err)
	}
	if s := <-got; s != "Results" {
		t.Fatalf("peer read %q after release", s)
	}
	// The hang is one-shot: a second matching write passes.
	go c.Write([]byte("Results again"))
	select {
	case <-got:
	case <-time.After(2 * time.Second):
		t.Fatal("second matching write hung")
	}
	if c.Injected() != 1 {
		t.Fatalf("Injected = %d, want 1", c.Injected())
	}
}

func TestConnListenerWraps(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	var wrapped *Conn
	ln := &Listener{Listener: inner, Wrap: func(c net.Conn) net.Conn {
		wrapped = NewConn(c).TearReadAfter(0, nil)
		return wrapped
	}}
	done := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		_, err = conn.Read(make([]byte, 1))
		done <- err
	}()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := <-done; !errors.Is(err, ErrCrash) {
		t.Fatalf("accepted conn read: err=%v, want ErrCrash (wrap applied)", err)
	}
	if wrapped == nil || wrapped.Injected() != 1 {
		t.Fatal("listener did not route the connection through Wrap")
	}
}
