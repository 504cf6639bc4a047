package sim

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dfdbg/internal/ckpt/wire"
	"dfdbg/internal/fault"
)

var updateGolden = flag.Bool("update", false, "rewrite the scheduler-order golden file")

// schedMixes is the number of seeded process mixes in the golden file.
const schedMixes = 24

// TestSchedulerOrderGolden pins the kernel's scheduling order. Seeded
// random process mixes exercise every scheduler input (Sleep with and
// without the inline fast path, Wait, WaitTimeout, Notify, NotifyAfter,
// YieldNow, Spawn from a running process, Pause/Resume, RunUntil
// horizons, Freeze/Thaw from a process and from the driver, a freeze
// fault at dispatch, the progress watchdog, a panicking process and a
// Shutdown with parked processes). Every action is logged as
// (time, process, action) together with each RunUntil's status,
// scheduler counters and a hash of the checkpoint encoding. Any change
// to who runs when shows up as a diff against the committed golden.
//
// Regenerate with `go test -run TestSchedulerOrderGolden -update
// ./internal/sim/` only when a scheduling change is intended.
func TestSchedulerOrderGolden(t *testing.T) {
	var b strings.Builder
	for seed := int64(1); seed <= schedMixes; seed++ {
		runSchedMix(&b, seed)
	}
	got := b.String()
	path := filepath.Join("testdata", "sched_order.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	want := string(raw)
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("schedule diverges from %s at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
		}
	}
}

// TestSchedulerOrderDeterministic runs every mix twice in one process:
// the golden comparison is only meaningful if a mix is reproducible.
func TestSchedulerOrderDeterministic(t *testing.T) {
	for seed := int64(1); seed <= schedMixes; seed++ {
		var a, b strings.Builder
		runSchedMix(&a, seed)
		runSchedMix(&b, seed)
		if a.String() != b.String() {
			t.Fatalf("mix %d is not reproducible", seed)
		}
	}
}

// schedMix is one seeded process mix. Only one process runs at a time,
// so the log and the spawn counter need no locking.
type schedMix struct {
	k        *Kernel
	log      *strings.Builder
	evs      []*Event
	procs    []*Proc
	maxProcs int
	panicked bool
}

func (m *schedMix) logf(p *Proc, format string, args ...any) {
	fmt.Fprintf(m.log, "  t=%d %s %s\n", m.k.Now(), p.Name(), fmt.Sprintf(format, args...))
}

func (m *schedMix) spawn(name string, seed int64, steps int) {
	r := rand.New(rand.NewSource(seed))
	m.procs = append(m.procs, m.k.Spawn(name, func(p *Proc) { m.body(p, r, steps) }))
}

// body runs steps random scheduler actions.
func (m *schedMix) body(p *Proc, r *rand.Rand, steps int) {
	defer func() {
		if p.Poisoned() {
			m.logf(p, "unwind")
		}
	}()
	m.logf(p, "start")
	for i := 0; i < steps; i++ {
		ev := m.evs[r.Intn(len(m.evs))]
		other := m.procs[r.Intn(len(m.procs))]
		switch op := r.Intn(100); {
		case op < 18:
			d := Duration(r.Intn(6))
			m.logf(p, "sleep %d", d)
			p.Sleep(d)
			m.logf(p, "slept")
		case op < 26:
			m.logf(p, "wait %s", ev.Name())
			p.Wait(ev)
			m.logf(p, "woke")
		case op < 38:
			d := Duration(1 + r.Intn(8))
			m.logf(p, "waittimeout %s %d", ev.Name(), d)
			fired := p.WaitTimeout(ev, d)
			m.logf(p, "woke fired=%v", fired)
		case op < 52:
			m.logf(p, "notify %s waiters=%d", ev.Name(), ev.Waiters())
			ev.Notify()
		case op < 59:
			d := Duration(r.Intn(10))
			m.logf(p, "notifyafter %s %d", ev.Name(), d)
			ev.NotifyAfter(d)
		case op < 65:
			if len(m.procs) < m.maxProcs {
				name := fmt.Sprintf("%s.%d", p.Name(), i)
				m.logf(p, "spawn %s", name)
				m.spawn(name, r.Int63(), steps/2)
			}
		case op < 69:
			m.logf(p, "pause")
			m.k.Pause()
		case op < 74:
			m.logf(p, "freeze %s", other.Name())
			other.Freeze()
		case op < 80:
			m.logf(p, "thaw %s", other.Name())
			other.Thaw()
		case op < 85:
			m.logf(p, "yield")
			p.YieldNow()
			m.logf(p, "resumed")
		case op < 89:
			m.logf(p, "progress")
			m.k.NoteProgress()
		case op < 90 && !m.panicked:
			m.panicked = true
			m.logf(p, "panic")
			panic(fmt.Sprintf("%s: injected panic", p.Name()))
		default:
			m.logf(p, "compute")
		}
	}
	m.logf(p, "done")
}

// runSchedMix runs one mix and appends its log to b.
func runSchedMix(b *strings.Builder, seed int64) {
	r := rand.New(rand.NewSource(seed))
	k := NewKernel()
	m := &schedMix{k: k, log: b, maxProcs: 8 + r.Intn(6)}
	fmt.Fprintf(b, "mix %d\n", seed)
	for i := 0; i < 2+r.Intn(3); i++ {
		m.evs = append(m.evs, k.NewEvent(fmt.Sprintf("e%d", i)))
	}
	if seed%3 == 0 {
		k.SetWatchdog(Duration(15 + r.Intn(30)))
	}
	if seed%4 == 1 {
		k.SetFaults(fault.NewInjector(fault.Plan{Faults: []fault.Fault{
			{Kind: fault.KFreeze, Target: "p1", N: uint64(1 + r.Intn(4))},
		}}))
	}
	for i := 0; i < 3+r.Intn(4); i++ {
		m.spawn(fmt.Sprintf("p%d", i), r.Int63(), 8+r.Intn(16))
	}
	runs := 4 + r.Intn(12)
	var horizon Time
	for run := 0; run < runs; run++ {
		horizon += Time(r.Intn(20))
		st, err := k.RunUntil(horizon)
		fmt.Fprintf(b, "run %d until=%d -> %s t=%d disp=%d adv=%d fires=%d deltas=%d state=%x",
			run, horizon, st, k.Now(), k.dispatches, k.advances, k.eventFires, k.deltaWakes, stateHash(k))
		if err != nil {
			fmt.Fprintf(b, " err=%q", err)
		}
		if d := k.Blocked(); st == RunIdle && d != nil {
			fmt.Fprintf(b, " blocked=%d", len(d.Procs))
		}
		b.WriteString("\n")
		if st == RunStalled {
			fmt.Fprintf(b, "  stall %s\n", strings.ReplaceAll(k.LastStall().String(), "\n", ";"))
		}
		if st == RunPaused {
			k.Resume()
		}
		if r.Intn(3) == 0 {
			p := m.procs[r.Intn(len(m.procs))]
			if r.Intn(2) == 0 {
				fmt.Fprintf(b, "  driver freeze %s\n", p.Name())
				p.Freeze()
			} else {
				fmt.Fprintf(b, "  driver thaw %s\n", p.Name())
				p.Thaw()
			}
		}
	}
	if err := k.Shutdown(); err != nil {
		fmt.Fprintf(b, "shutdown err=%v\n", err)
	}
	fmt.Fprintf(b, "shutdown t=%d state=%x\n", k.Now(), stateHash(k))
}

// stateHash digests the kernel's checkpoint encoding: clock, counters,
// per-process states, the runnable FIFO and the pending note times.
func stateHash(k *Kernel) uint32 {
	w := wire.NewWriter()
	k.EncodeState(w)
	h := fnv.New32a()
	h.Write(w.Data())
	return h.Sum32()
}
