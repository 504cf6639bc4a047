package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"

	"dfdbg/internal/obs"
)

// Conn is the server side of one wire-protocol connection, shared by
// dfserve and dfrouter: a reader handing requests to the server's
// handler in order, and a writer goroutine draining the outbound queue.
// Responses are never dropped; asynchronous events are queued with a
// bounded drop-oldest policy so one slow reader cannot stall a session
// or the server (the drop count is surfaced to the client in a
// "dropped" event and to the operator in the counter given to NewConn).
type Conn struct {
	conn     net.Conn
	queueLen int
	lost     *obs.Counter

	mu      sync.Mutex
	cond    *sync.Cond
	resp    [][]byte // responses, unbounded, never dropped
	events  [][]byte // async events, bounded, drop-oldest
	dropped uint64   // drops since the last "dropped" notice
	closed  bool
}

// NewConn wraps an accepted connection. At most queueLen events wait
// for a slow reader; each one dropped beyond that increments lost.
func NewConn(conn net.Conn, queueLen int, lost *obs.Counter) *Conn {
	c := &Conn{conn: conn, queueLen: queueLen, lost: lost}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Serve runs the connection to completion: it greets the peer with a
// hello event naming the protocol, hands every request to handle, and
// once the peer hangs up calls detach, stops the queue and waits for the
// writer to flush.
func (c *Conn) Serve(hello string, handle func(Request), detach func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.writer()
	}()
	c.Deliver(Event{Event: "hello", Reason: hello})
	ReadLines(c.conn, func(line []byte) {
		var req Request
		if err := json.Unmarshal(line, &req); err != nil {
			c.Respond(Response{ID: req.ID, Error: fmt.Sprintf("bad request: %v", err)})
			return
		}
		handle(req)
	})
	detach()
	c.shutdown()
	<-done
}

// Close severs the network connection; Serve then winds down.
func (c *Conn) Close() error { return c.conn.Close() }

// shutdown wakes the writer to flush and exit.
func (c *Conn) shutdown() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.cond.Broadcast()
}

// writer drains the outbound queues onto the connection.
func (c *Conn) writer() {
	defer c.conn.Close()
	for {
		c.mu.Lock()
		for !c.closed && len(c.resp) == 0 && len(c.events) == 0 && c.dropped == 0 {
			c.cond.Wait()
		}
		batch := c.resp
		c.resp = nil
		if c.dropped > 0 {
			if b, err := json.Marshal(Event{Event: "dropped", Dropped: c.dropped}); err == nil {
				batch = append(batch, b)
			}
			c.dropped = 0
		}
		batch = append(batch, c.events...)
		c.events = nil
		closed := c.closed
		c.mu.Unlock()
		for _, b := range batch {
			if _, err := c.conn.Write(append(b, '\n')); err != nil {
				c.mu.Lock()
				c.closed = true
				c.mu.Unlock()
				return
			}
		}
		if closed {
			return
		}
	}
}

// Respond queues a response (never dropped).
func (c *Conn) Respond(r Response) {
	b, err := json.Marshal(r)
	if err != nil {
		b, _ = json.Marshal(Response{ID: r.ID, Error: fmt.Sprintf("marshal: %v", err)})
	}
	c.mu.Lock()
	if !c.closed {
		c.resp = append(c.resp, b)
	}
	c.mu.Unlock()
	c.cond.Broadcast()
}

// Deliver queues an async event with drop-oldest backpressure. It never
// blocks, so session goroutines and event pumps may call it directly.
func (c *Conn) Deliver(ev Event) {
	b, err := json.Marshal(ev)
	if err != nil {
		return
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	if len(c.events) >= c.queueLen {
		c.events = c.events[1:]
		c.dropped++
		c.lost.Inc()
	}
	c.events = append(c.events, b)
	c.mu.Unlock()
	c.cond.Broadcast()
}

// ReadLines calls fn with every non-empty line read from r until r ends,
// and returns the read error, if any. A line may be up to 64 MiB: an
// "import" request or an "export" response carries a base64 DFCK
// migration container (hundreds of KB for the case-study decoder).
func ReadLines(r io.Reader, fn func(line []byte)) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<26)
	for sc.Scan() {
		if line := sc.Bytes(); len(line) > 0 {
			fn(line)
		}
	}
	return sc.Err()
}
