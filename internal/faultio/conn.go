package faultio

// Network fault injection: the net.Conn analog of InjectFS. Tests wrap
// the connections of a distributed campaign with scripted faults —
// tear the byte stream after N bytes in either direction, fail the Nth
// read or write, hang an operation until released, add latency — and
// recovery code (frame CRCs, lease expiry, reconnect with backoff)
// must ride them out. A fired tear or fault also closes the underlying
// connection, because that is what the failure models: a broken
// transport, where the peer observes the break too and a mid-frame
// byte stream is unrecoverable either way.

import (
	"net"
	"sync"
	"time"
)

// ConnOp names one connection operation class for scripted injection.
type ConnOp int

// Operation classes a Conn can target.
const (
	ConnRead ConnOp = iota
	ConnWrite
	ConnClose
)

// String returns the operation name for error messages.
func (o ConnOp) String() string {
	switch o {
	case ConnRead:
		return "read"
	case ConnWrite:
		return "write"
	case ConnClose:
		return "close"
	default:
		return "connop(?)"
	}
}

// Conn wraps a net.Conn with scripted faults. The zero-fault wrapper
// passes everything through. Conn is safe for concurrent use.
type Conn struct {
	net.Conn

	mu       sync.Mutex
	wTearAt  int64 // <0: no write tear
	wTearErr error
	written  int64
	rTearAt  int64 // <0: no read tear
	rTearErr error
	read     int64
	failAt   map[ConnOp]int
	failErr  map[ConnOp]error
	calls    map[ConnOp]int
	delay    time.Duration
	hangOp   ConnOp
	hangN    int // 0: no hang armed
	hangCh   chan struct{}
	hangW    func(p []byte) bool // nil: no write-matching hang armed
	injected int
}

// NewConn wraps c with no faults armed.
func NewConn(c net.Conn) *Conn {
	return &Conn{Conn: c, wTearAt: -1, rTearAt: -1}
}

// TearWriteAfter arms a write tear: the first n bytes land, then every
// write fails with err (ErrCrash if nil) and the connection closes.
func (c *Conn) TearWriteAfter(n int64, err error) *Conn {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.wTearAt, c.wTearErr, c.written = n, err, 0
	return c
}

// TearReadAfter arms a read tear: the first n bytes are served, then
// every read fails with err (ErrCrash if nil) and the connection
// closes.
func (c *Conn) TearReadAfter(n int64, err error) *Conn {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rTearAt, c.rTearErr, c.read = n, err, 0
	return c
}

// FailN arms a one-shot fault: the nth (1-based) call of op fails with
// err (ErrCrash if nil); read and write faults also close the
// connection.
func (c *Conn) FailN(op ConnOp, n int, err error) *Conn {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failAt == nil {
		c.failAt = make(map[ConnOp]int)
		c.failErr = make(map[ConnOp]error)
	}
	c.failAt[op] = n
	c.failErr[op] = err
	return c
}

// Delay makes every read and write sleep d first — injected latency.
func (c *Conn) Delay(d time.Duration) *Conn {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.delay = d
	return c
}

// HangN arms a hang: the nth (1-based) call of op blocks until
// ReleaseHang, then proceeds normally. Models a partitioned or frozen
// peer that a lease deadline must ride out. Tests must release the
// hang (typically in cleanup) or the blocked goroutine leaks.
func (c *Conn) HangN(op ConnOp, n int) *Conn {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hangOp, c.hangN = op, n
	c.hangCh = make(chan struct{})
	return c
}

// HangWriteWhen arms a hang on content rather than call count: the
// first Write whose buffer satisfies match blocks until ReleaseHang,
// then proceeds normally. A protocol that writes each frame header in
// one call can so hang a chosen frame — say, the first of a given
// message type — however the frames before it were split into calls.
func (c *Conn) HangWriteWhen(match func(p []byte) bool) *Conn {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hangW = match
	c.hangCh = make(chan struct{})
	return c
}

// ReleaseHang unblocks a fired (or future) hang. Safe to call more
// than once.
func (c *Conn) ReleaseHang() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.hangCh != nil {
		select {
		case <-c.hangCh:
		default:
			close(c.hangCh)
		}
	}
}

// Injected reports how many faults actually fired.
func (c *Conn) Injected() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.injected
}

// enter counts one call of op, applies latency and hang scripts, and
// returns the armed failure if this call is the scripted one.
func (c *Conn) enter(op ConnOp) error {
	c.mu.Lock()
	if c.calls == nil {
		c.calls = make(map[ConnOp]int)
	}
	c.calls[op]++
	delay := c.delay
	var hang chan struct{}
	if c.hangN > 0 && c.hangOp == op && c.calls[op] == c.hangN {
		hang = c.hangCh
		c.injected++
	}
	var fail error
	if n, ok := c.failAt[op]; ok && c.calls[op] == n {
		c.injected++
		fail = c.failErr[op]
		if fail == nil {
			fail = ErrCrash
		}
	}
	c.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	if hang != nil {
		<-hang
	}
	if fail != nil && op != ConnClose {
		c.Conn.Close()
	}
	return fail
}

// Read implements net.Conn with the armed faults.
func (c *Conn) Read(p []byte) (int, error) {
	if err := c.enter(ConnRead); err != nil {
		return 0, err
	}
	c.mu.Lock()
	budget := int64(-1)
	if c.rTearAt >= 0 {
		budget = c.rTearAt - c.read
	}
	c.mu.Unlock()
	if budget < 0 {
		return c.Conn.Read(p)
	}
	if budget == 0 {
		return 0, c.fireTear(true, 0)
	}
	if int64(len(p)) > budget {
		p = p[:budget]
	}
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.read += int64(n)
	tore := c.rTearAt >= 0 && c.read >= c.rTearAt
	c.mu.Unlock()
	if err == nil && tore {
		err = c.fireTear(true, 0)
		return n, err
	}
	return n, err
}

// Write implements net.Conn with the armed faults.
func (c *Conn) Write(p []byte) (int, error) {
	c.mu.Lock()
	var hang chan struct{}
	if c.hangW != nil && c.hangW(p) {
		c.hangW = nil
		hang = c.hangCh
		c.injected++
	}
	c.mu.Unlock()
	if hang != nil {
		<-hang
	}
	if err := c.enter(ConnWrite); err != nil {
		return 0, err
	}
	c.mu.Lock()
	budget := int64(-1)
	if c.wTearAt >= 0 {
		budget = c.wTearAt - c.written
	}
	c.mu.Unlock()
	if budget < 0 {
		return c.Conn.Write(p)
	}
	if budget == 0 {
		return 0, c.fireTear(false, 0)
	}
	if int64(len(p)) <= budget {
		n, err := c.Conn.Write(p)
		c.mu.Lock()
		c.written += int64(n)
		c.mu.Unlock()
		return n, err
	}
	n, err := c.Conn.Write(p[:budget])
	c.mu.Lock()
	c.written += int64(n)
	c.mu.Unlock()
	if err == nil {
		err = c.fireTear(false, 0)
	}
	return n, err
}

// fireTear records a fired tear, closes the transport, and returns the
// armed error.
func (c *Conn) fireTear(read bool, _ int64) error {
	c.mu.Lock()
	c.injected++
	err := c.wTearErr
	if read {
		err = c.rTearErr
	}
	c.mu.Unlock()
	c.Conn.Close()
	if err != nil {
		return err
	}
	return ErrCrash
}

// Close implements net.Conn with the armed faults.
func (c *Conn) Close() error {
	if err := c.enter(ConnClose); err != nil {
		return err
	}
	return c.Conn.Close()
}

// Listener wraps a net.Listener so every accepted connection passes
// through Wrap — the seam a coordinator test uses to hand scripted
// Conns to specific workers. A nil Wrap accepts connections unchanged.
type Listener struct {
	net.Listener
	Wrap func(net.Conn) net.Conn
}

// Accept implements net.Listener.
func (l *Listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil || l.Wrap == nil {
		return c, err
	}
	return l.Wrap(c), nil
}
