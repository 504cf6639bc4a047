package web_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dfdbg/internal/serve"
	"dfdbg/internal/web"
)

var update = flag.Bool("update", false, "rewrite golden files")

// newWebServer stands up a session manager with the web layer over it.
func newWebServer(t *testing.T) *httptest.Server {
	t.Helper()
	mgr := serve.NewManager(4, 0)
	t.Cleanup(mgr.CloseAll)
	ts := httptest.NewServer(web.NewServer(mgr.WebBackend()).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func httpDo(t *testing.T, method, url, body string) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatalf("new request %s: %v", url, err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, b
}

// newSession creates one deterministic 16x16 session and returns its id.
func newSession(t *testing.T, base string) string {
	t.Helper()
	code, b := httpDo(t, "POST", base+"/api/sessions",
		`{"w":16,"h":16,"qp":8,"seed":7,"bug":"none"}`)
	if code != http.StatusCreated {
		t.Fatalf("create session: status %d: %s", code, b)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(b, &out); err != nil || out.ID == "" {
		t.Fatalf("create session: bad body %s (%v)", b, err)
	}
	return out.ID
}

func execLine(t *testing.T, base, id, line string) []byte {
	t.Helper()
	code, b := httpDo(t, "POST", base+"/api/sessions/"+id+"/exec",
		fmt.Sprintf(`{"line":%q}`, line))
	if code != http.StatusOK {
		t.Fatalf("exec %q: status %d: %s", line, code, b)
	}
	return b
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatalf("update %s: %v", path, err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s (run with -update to create): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s mismatch:\n got: %s\nwant: %s", name, got, want)
	}
}

// TestEndpointGoldens drives the scripted end-to-end flow the issue
// pins: create a deterministic decoder session, run it, and byte-pin
// the events window, the graph rollup, the profile, and the provenance
// of a discovered token. Simulated time makes every field stable.
func TestEndpointGoldens(t *testing.T) {
	ts := newWebServer(t)
	id := newSession(t, ts.URL)
	if id != "s1" {
		t.Fatalf("session id = %q, want s1", id)
	}
	execLine(t, ts.URL, id, "continue")

	sess := ts.URL + "/api/sessions/" + id

	// The window is filtered to the dataflow kinds: bphit events carry
	// host wall-clock durations in Arg, which would break byte-stable
	// goldens (everything else is simulated time).
	code, b := httpDo(t, "GET",
		sess+"/events?since=0&limit=300&kind=push,pop,work%2B,work-", "")
	if code != http.StatusOK {
		t.Fatalf("events: status %d: %s", code, b)
	}
	checkGolden(t, "events_window.golden", b)

	code, b = httpDo(t, "GET", sess+"/graph", "")
	if code != http.StatusOK {
		t.Fatalf("graph: status %d: %s", code, b)
	}
	checkGolden(t, "graph.golden", b)

	code, b = httpDo(t, "GET", sess+"/profile", "")
	if code != http.StatusOK {
		t.Fatalf("profile: status %d: %s", code, b)
	}
	checkGolden(t, "profile.golden", b)

	// Discover a token to trace: the last push in the first page of
	// push events (deterministic under simulated time).
	code, b = httpDo(t, "GET", sess+"/events?since=0&limit=5000&kind=push", "")
	if code != http.StatusOK {
		t.Fatalf("push events: status %d: %s", code, b)
	}
	var evs struct {
		Events []struct {
			Link int32 `json:"link"`
			Arg2 int64 `json:"arg2"`
		} `json:"events"`
	}
	if err := json.Unmarshal(b, &evs); err != nil {
		t.Fatalf("decode events: %v", err)
	}
	if len(evs.Events) == 0 {
		t.Fatal("no push events retained")
	}
	last := evs.Events[len(evs.Events)-1]
	code, b = httpDo(t, "GET",
		fmt.Sprintf("%s/provenance?token=%d:%d", sess, last.Link, last.Arg2), "")
	if code != http.StatusOK {
		t.Fatalf("provenance: status %d: %s", code, b)
	}
	checkGolden(t, "provenance.golden", b)
}

// TestBackpressureRollup checks the graph endpoint's per-link rollups
// against the link counters: every link's pushes/pops must match what
// the runtime accounted, and at least one link must have seen traffic.
func TestBackpressureRollup(t *testing.T) {
	ts := newWebServer(t)
	id := newSession(t, ts.URL)
	execLine(t, ts.URL, id, "continue")

	code, b := httpDo(t, "GET", ts.URL+"/api/sessions/"+id+"/graph", "")
	if code != http.StatusOK {
		t.Fatalf("graph: status %d: %s", code, b)
	}
	var g struct {
		Nodes []struct {
			Name string `json:"name"`
			Col  int    `json:"col"`
		} `json:"nodes"`
		Links []struct {
			Label   string `json:"label"`
			Occ     int    `json:"occupancy"`
			Cap     int    `json:"cap"`
			PeakOcc int64  `json:"peak_occupancy"`
			Pushes  uint64 `json:"pushes"`
			Pops    uint64 `json:"pops"`
		} `json:"links"`
	}
	if err := json.Unmarshal(b, &g); err != nil {
		t.Fatalf("decode graph: %v", err)
	}
	if len(g.Nodes) == 0 || len(g.Links) == 0 {
		t.Fatalf("empty graph: %d nodes, %d links", len(g.Nodes), len(g.Links))
	}
	var traffic bool
	for _, l := range g.Links {
		if l.Pushes > 0 {
			traffic = true
		}
		if l.PeakOcc > int64(l.Cap) {
			t.Errorf("link %s: peak occupancy %d exceeds cap %d", l.Label, l.PeakOcc, l.Cap)
		}
		if l.Occ < 0 || l.Occ > l.Cap {
			t.Errorf("link %s: occupancy %d outside [0,%d]", l.Label, l.Occ, l.Cap)
		}
	}
	if !traffic {
		t.Error("no link saw any pushes after a full decode")
	}
	var spread bool
	for _, n := range g.Nodes {
		if n.Col > 0 {
			spread = true
		}
	}
	if !spread {
		t.Error("topological layering put every node in column 0")
	}
}

// TestEventPaging follows the since=next cursor across pages and checks
// the pages tile the window without gaps or overlaps.
func TestEventPaging(t *testing.T) {
	ts := newWebServer(t)
	id := newSession(t, ts.URL)
	execLine(t, ts.URL, id, "continue")

	sess := ts.URL + "/api/sessions/" + id
	var since uint64
	var pages, total int
	var lastSeq uint64
	for {
		code, b := httpDo(t, "GET",
			fmt.Sprintf("%s/events?since=%d&limit=1000", sess, since), "")
		if code != http.StatusOK {
			t.Fatalf("events: status %d: %s", code, b)
		}
		var page struct {
			First  uint64 `json:"first"`
			Next   uint64 `json:"next"`
			Events []struct {
				Seq uint64 `json:"seq"`
			} `json:"events"`
		}
		if err := json.Unmarshal(b, &page); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(page.Events) == 0 {
			break
		}
		if pages > 0 && page.First != since {
			t.Fatalf("page %d: first %d, want %d (gap or overlap)", pages, page.First, since)
		}
		for _, e := range page.Events {
			if total > 0 && e.Seq != lastSeq+1 {
				t.Fatalf("seq jump %d -> %d", lastSeq, e.Seq)
			}
			lastSeq = e.Seq
			total++
		}
		since = page.Next
		pages++
		if pages > 200 {
			t.Fatal("paging did not terminate")
		}
	}
	if pages < 2 {
		t.Fatalf("decode produced only %d page(s) of events", pages)
	}
}

// TestIndexServed checks the embedded SPA comes back at the root.
func TestIndexServed(t *testing.T) {
	ts := newWebServer(t)
	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/html") {
		t.Fatalf("GET /: content-type %q", ct)
	}
	if !bytes.Contains(b, []byte("dfdbg")) {
		t.Error("index.html does not mention dfdbg")
	}
}

// TestExecErrors checks the mutation path's error envelope: an unknown
// command is a 200 with the error in the result (the command ran, it
// failed), an unknown session a 404.
func TestExecErrors(t *testing.T) {
	ts := newWebServer(t)
	id := newSession(t, ts.URL)
	b := execLine(t, ts.URL, id, "definitely-not-a-command")
	var res struct {
		Err string `json:"error"`
	}
	if err := json.Unmarshal(b, &res); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !strings.Contains(res.Err, "unknown command") {
		t.Errorf("error = %q, want unknown command", res.Err)
	}
	code, _ := httpDo(t, "POST", ts.URL+"/api/sessions/nope/exec", `{"line":"help"}`)
	if code != http.StatusNotFound {
		t.Errorf("exec on missing session: status %d, want 404", code)
	}
}

// TestStreamDelivers attaches an NDJSON stream, drives the session, and
// checks live events arrive.
func TestStreamDelivers(t *testing.T) {
	ts := newWebServer(t)
	id := newSession(t, ts.URL)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET",
		ts.URL+"/api/sessions/"+id+"/stream?fmt=ndjson", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: status %d", resp.StatusCode)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		execLine(t, ts.URL, id, "continue")
	}()

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var sawEvent bool
	for sc.Scan() {
		var line struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		if line.Type == "event" {
			sawEvent = true
			break
		}
	}
	if !sawEvent {
		t.Fatalf("no event arrived on the stream (scan err: %v, ctx: %v)", sc.Err(), ctx.Err())
	}
	cancel()
	<-done
}

// TestPollerDuringContinue is the browser-shaped race test: pollers
// hammer every read endpoint and a streamer drains the live feed while
// the session runs a full decode. Run under -race this pins the
// tap/fan-out and atomic-snapshot paths.
func TestPollerDuringContinue(t *testing.T) {
	ts := newWebServer(t)
	id := newSession(t, ts.URL)
	sess := ts.URL + "/api/sessions/" + id

	stop := make(chan struct{})
	var wg sync.WaitGroup
	endpoints := []string{
		"/events?since=0&limit=200", "/graph", "/lanes", "/profile",
		"/stall", "/metrics", "/provenance?token=1:1",
	}
	for _, ep := range endpoints {
		wg.Add(1)
		go func(url string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(url)
				if err != nil {
					return // server shut down under us; fine
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(sess + ep)
	}
	ctx, cancel := context.WithCancel(context.Background())
	wg.Add(1)
	go func() {
		defer wg.Done()
		req, err := http.NewRequestWithContext(ctx, "GET", sess+"/stream", nil)
		if err != nil {
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()

	execLine(t, ts.URL, id, "continue")
	execLine(t, ts.URL, id, "profile")
	close(stop)
	cancel()
	wg.Wait()
}

// TestBatchEndpoint follows GET /batch as the armed state changes: a
// fresh session runs its region batched, a stopping catchpoint demotes
// it with its reason, deleting it promotes it back, and the response
// has no hold field.
func TestBatchEndpoint(t *testing.T) {
	ts := newWebServer(t)
	id := newSession(t, ts.URL)
	check := func(after string, batched bool, reason string) {
		t.Helper()
		code, b := httpDo(t, "GET", ts.URL+"/api/sessions/"+id+"/batch", "")
		if code != http.StatusOK {
			t.Fatalf("after %q: status %d: %s", after, code, b)
		}
		var raw map[string]json.RawMessage
		if err := json.Unmarshal(b, &raw); err != nil {
			t.Fatalf("after %q: bad body %s (%v)", after, b, err)
		}
		if _, ok := raw["hold"]; ok || len(raw) != 1 {
			t.Fatalf("after %q: want only a regions field, got %s", after, b)
		}
		var out struct {
			Regions []struct {
				Region  int      `json:"region"`
				Actors  []string `json:"actors"`
				Batched bool     `json:"batched"`
				Reason  string   `json:"reason"`
			} `json:"regions"`
		}
		if err := json.Unmarshal(b, &out); err != nil || len(out.Regions) == 0 {
			t.Fatalf("after %q: no regions in %s (%v)", after, b, err)
		}
		for _, r := range out.Regions {
			if r.Batched != batched || r.Reason != reason || len(r.Actors) == 0 {
				t.Fatalf("after %q: region %+v, want batched=%v reason=%q",
					after, r, batched, reason)
			}
		}
	}
	check("open", true, "")
	execLine(t, ts.URL, id, "filter mb catch scheduled")
	check("filter mb catch scheduled", false, "catchpoint #1 on mb (scheduled)")
	execLine(t, ts.URL, id, "continue")
	check("continue", false, "catchpoint #1 on mb (scheduled)")
	execLine(t, ts.URL, id, "delete catch 1")
	check("delete catch 1", true, "")
	execLine(t, ts.URL, id, "watch MbFilter_data_izz_total")
	check("watch", false, "watchpoint on MbFilter_data_izz_total")
}
