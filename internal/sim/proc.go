package sim

import (
	"fmt"

	"dfdbg/internal/obs"
)

// Proc is a simulation process: a goroutine that runs only while it holds
// the kernel's baton, and yields by blocking on an Event or on time. A
// yielding process picks its successor itself (Kernel.handOff).
type Proc struct {
	id     int
	name   string
	k      *Kernel
	state  ProcState
	queued bool // true while sitting in the kernel's runnable queue
	resume chan struct{}

	waitEvent    *Event // set while state == ProcWaitEvent
	wokenByEvent bool   // set by Event.fire before making the proc runnable
	wakeAt       Time

	// sleepNote and sleepFn are the reusable timed-note storage for
	// Sleep's slow path: a process sleeps at most once concurrently, so
	// one note per process suffices and the per-sleep heap allocation
	// (note + closure) disappears.
	sleepNote timedNote
	sleepFn   func()

	// Tag is an arbitrary user annotation (the platform layer stores the
	// processing element a process is mapped to; the debugger uses it to
	// present execution contexts).
	Tag any

	// Daemon marks service processes (environment sinks) that are
	// expected to block forever; Kernel.Blocked ignores them when
	// deciding whether an idle kernel is deadlocked.
	Daemon bool

	// frozen processes are withheld from dispatch (a debugger freezing
	// one execution path while investigating another); thawPending
	// remembers a wakeup that arrived while frozen.
	frozen      bool
	thawPending bool

	// poisoned marks a process being torn down by Kernel.Shutdown: the
	// next time it receives the baton it unwinds with a sentinel panic
	// instead of resuming its body.
	poisoned bool
}

// Freeze withholds the process from dispatch until Thaw. A process that
// becomes runnable while frozen is dispatched on Thaw. Freezing the
// currently running process takes effect at its next yield.
func (p *Proc) Freeze() { p.frozen = true }

// Frozen reports whether the process is withheld from dispatch.
func (p *Proc) Frozen() bool { return p.frozen }

// Thaw releases a frozen process, re-queueing it if a wakeup arrived
// while it was frozen.
func (p *Proc) Thaw() {
	if !p.frozen {
		return
	}
	p.frozen = false
	if p.thawPending {
		p.thawPending = false
		p.k.makeRunnable(p)
	}
}

// ID returns the process's spawn-order identifier.
func (p *Proc) ID() int { return p.id }

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// State returns the current lifecycle state.
func (p *Proc) State() ProcState { return p.state }

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// WaitingOn returns the event this process is blocked on, or nil.
func (p *Proc) WaitingOn() *Event {
	if p.state == ProcWaitEvent {
		return p.waitEvent
	}
	return nil
}

func (p *Proc) String() string {
	return fmt.Sprintf("proc#%d(%s,%s)", p.id, p.name, p.state)
}

// errProcShutdown is the sentinel a poisoned process panics with to
// unwind its stack during Kernel.Shutdown. Runtime layers may wrap the
// panic (crash containment); run ignores any recovered value while the
// process is poisoned, so wrapping is harmless.
var errProcShutdown = fmt.Errorf("sim: process torn down by Kernel.Shutdown")

// run is the goroutine body installed by Kernel.Spawn.
func (p *Proc) run(fn func(*Proc)) {
	<-p.resume
	defer func() {
		if r := recover(); r != nil && !p.poisoned {
			p.k.err = &PanicError{Proc: p.name, Value: r}
		}
		p.state = ProcDone
		p.waitEvent = nil
		if p.poisoned {
			p.k.yield <- struct{}{} // back to Shutdown
			return
		}
		p.k.handOff(p)
	}()
	if p.poisoned {
		panic(errProcShutdown)
	}
	fn(p)
}

// Poisoned reports whether the process is being torn down by
// Kernel.Shutdown. Deferred cleanup on the process stack must not issue
// blocking operations (Sleep, Wait) once this is set.
func (p *Proc) Poisoned() bool { return p.poisoned }

// checkCurrent panics if p is not the process holding the baton; blocking
// operations are only legal on the running process.
func (p *Proc) checkCurrent(op string) {
	if p.k.current != p {
		panic(fmt.Sprintf("sim: %s called on %s which is not the running process", op, p))
	}
}

// yieldAndWait runs the scheduler step for the blocked process and
// waits until the kernel dispatches it again. When the step picks p
// itself, p continues at once without parking its goroutine.
func (p *Proc) yieldAndWait() {
	if p.k.handOff(p) {
		return
	}
	<-p.resume
	if p.poisoned {
		panic(errProcShutdown)
	}
}

// Wait blocks the process until ev is notified.
func (p *Proc) Wait(ev *Event) {
	p.checkCurrent("Wait")
	p.state = ProcWaitEvent
	p.waitEvent = ev
	ev.addWaiter(p)
	p.yieldAndWait()
	p.waitEvent = nil
	p.wokenByEvent = false
}

// WaitTimeout blocks until ev is notified or d elapses, whichever comes
// first. It reports whether the event fired (false means the timeout won).
func (p *Proc) WaitTimeout(ev *Event, d Duration) bool {
	p.checkCurrent("WaitTimeout")
	p.state = ProcWaitEvent
	p.waitEvent = ev
	ev.addWaiter(p)
	note := p.k.scheduleNote(p.k.now+d, func() {
		// Timeout fired first: withdraw from the event and wake up.
		if p.state == ProcWaitEvent && p.waitEvent == ev {
			ev.removeWaiter(p)
			p.wokenByEvent = false
			p.k.makeRunnable(p)
		}
	})
	p.yieldAndWait()
	p.k.notes.remove(note) // harmless if the note already fired
	p.waitEvent = nil
	woke := p.wokenByEvent
	p.wokenByEvent = false
	return woke
}

// Sleep blocks the process for d units of simulated time.
//
// Fast path (DESIGN §12): when this process is provably the next — and
// only — thing the kernel could run at the wakeup instant, the clock is
// advanced inline without yielding the baton. The resulting schedule is
// identical to the yield-and-redispatch path: no other process is
// runnable, no notification fires in (now, wake], the horizon is not
// crossed, and neither the watchdog nor an armed fault plan could
// intervene. Every 4096 consecutive inline advances one full scheduler
// pass is forced so the wall-clock budget check stays live.
func (p *Proc) Sleep(d Duration) {
	p.checkCurrent("Sleep")
	if d == 0 {
		p.YieldNow()
		return
	}
	k := p.k
	wake := k.now + d
	if k.runHead == len(k.runnable) && !k.paused && k.flt == nil &&
		k.err == nil && !p.frozen && !p.poisoned &&
		wake <= k.until &&
		(k.notes.Len() == 0 || k.notes.peek().at > wake) &&
		(k.watchLimit == 0 || wake <= k.progressAt+k.watchLimit) &&
		k.fastSleeps < 4096 {
		k.fastSleeps++
		k.advances++
		if k.obs.Wants(obs.KTimeAdvance) {
			k.obs.Record(obs.Event{
				At: uint64(wake), Kind: obs.KTimeAdvance,
				PE: -1, Arg: int64(d),
			})
		}
		k.now = wake
		return
	}
	p.state = ProcWaitTime
	p.wakeAt = wake
	k.scheduleNoteIn(&p.sleepNote, wake, p.sleepFn)
	p.yieldAndWait()
}

// YieldNow relinquishes the baton but stays runnable at the current time
// (a "delta cycle" yield). Other ready processes run before this one
// resumes.
func (p *Proc) YieldNow() {
	p.checkCurrent("YieldNow")
	p.k.makeRunnable(p)
	p.yieldAndWait()
}

// Now returns the current simulation time.
func (p *Proc) Now() Time { return p.k.now }
