// Package client is dfbench's side of the dfserve/dfrouter wire
// protocol: a synchronous closed-loop connection that sends one request,
// reads until its response, and renders exec responses into the
// canonical transcript form the correctness gates compare.
//
// Everything the load generator does on the client side of the wire
// lives here, so a CPU profile can charge it to the generator rather
// than to a program layer.
package client

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"time"

	"dfdbg/internal/serve"
)

// Conn is one wire-protocol connection. It is not safe for concurrent
// use: a Conn is one closed-loop client.
type Conn struct {
	conn net.Conn
	rd   *bufio.Reader
	enc  *json.Encoder
	id   int64

	// Lost lists the sessions a session-closed event reported closed for
	// any reason other than the client's own kill or a migration.
	Lost []string
}

// Dial connects to a dfserve worker or a dfrouter.
func Dial(addr string) (*Conn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	return &Conn{conn: c, rd: bufio.NewReaderSize(c, 64<<10), enc: json.NewEncoder(c)}, nil
}

// Close closes the connection.
func (c *Conn) Close() error { return c.conn.Close() }

// LastID is the id of the most recent request.
func (c *Conn) LastID() int64 { return c.id }

// RoundTrip sends req and returns its response. Asynchronous events
// that arrive first are read past; a session-closed event that is not
// the client's own kill or a migration is kept in Lost.
func (c *Conn) RoundTrip(req serve.Request) (serve.Response, error) {
	c.id++
	req.ID = c.id
	if err := c.conn.SetDeadline(time.Now().Add(2 * time.Minute)); err != nil {
		return serve.Response{}, err
	}
	if err := c.enc.Encode(req); err != nil {
		return serve.Response{}, fmt.Errorf("client: send %s: %w", req.Op, err)
	}
	for {
		line, err := c.rd.ReadBytes('\n')
		if err != nil {
			return serve.Response{}, fmt.Errorf("client: read %s reply: %w", req.Op, err)
		}
		var msg struct {
			serve.Response
			Event  string `json:"event"`
			Reason string `json:"reason"`
		}
		if err := json.Unmarshal(line, &msg); err != nil {
			return serve.Response{}, fmt.Errorf("client: decode %s reply: %w", req.Op, err)
		}
		if msg.Event != "" {
			if msg.Event == "session-closed" && msg.Reason != "migrated" && msg.Reason != "killed" {
				c.Lost = append(c.Lost, msg.Session+" ("+msg.Reason+")")
			}
			continue
		}
		if msg.ID != req.ID {
			return serve.Response{}, fmt.Errorf("client: reply id %d for request %d", msg.ID, req.ID)
		}
		return msg.Response, nil
	}
}

// Exec runs one debugger command line on a session.
func (c *Conn) Exec(session, line string) (serve.Response, error) {
	return c.RoundTrip(serve.Request{Op: "exec", Session: session, Line: line})
}

// Render is one exec response in canonical transcript form: the command
// line, its output, its error and its stop point.
func Render(line, output, errText string, stop *StopPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, ">>> %s\n%s", line, output)
	if errText != "" {
		fmt.Fprintf(&b, "error: %v\n", errText)
	}
	if stop != nil {
		fmt.Fprintf(&b, "[stop %s @%d]\n", stop.Reason, stop.TimeNS)
	}
	return b.String()
}

// StopPoint is the part of a stop report a transcript records.
type StopPoint struct {
	Reason string
	TimeNS uint64
}

// RenderResponse renders a wire exec response.
func RenderResponse(line string, r serve.Response) string {
	var sp *StopPoint
	if r.Stop != nil {
		sp = &StopPoint{Reason: r.Stop.Reason, TimeNS: r.Stop.TimeNS}
	}
	return Render(line, r.Output, r.Error, sp)
}
