package sim

import (
	"fmt"

	"dfdbg/internal/obs"
)

// Event is a SystemC-style notification channel. Processes block on an
// Event with Proc.Wait; Notify wakes every waiter. Events have no payload;
// data travels through the structures the event guards (e.g. a FIFO link).
type Event struct {
	k       *Kernel
	name    string
	waiters []*Proc
	// notifies counts Notify calls; useful in tests and for the
	// debugger's "how often did this fire" introspection.
	notifies uint64
}

// NewEvent creates a named event on the kernel.
func (k *Kernel) NewEvent(name string) *Event {
	return &Event{k: k, name: name}
}

// Name returns the event name given at creation.
func (e *Event) Name() string { return e.name }

// Notifies returns how many times the event has been notified.
func (e *Event) Notifies() uint64 { return e.notifies }

// Waiters returns the number of processes currently blocked on the event.
func (e *Event) Waiters() int { return len(e.waiters) }

func (e *Event) String() string {
	return fmt.Sprintf("event(%s,%d waiting)", e.name, len(e.waiters))
}

// Notify wakes every process currently waiting on the event. Woken
// processes become runnable at the current time and are dispatched after
// the currently running process yields (delta-cycle semantics).
func (e *Event) Notify() {
	e.notifies++
	if len(e.waiters) > 0 {
		e.k.deltaWakes++
	}
	e.fire()
}

// NotifyAfter schedules a notification d time units in the future.
func (e *Event) NotifyAfter(d Duration) {
	e.notifies++
	e.k.scheduleNote(e.k.now+d, e.fire)
}

// fire wakes all waiters without bumping the notify counter (used by both
// immediate and timed notification paths).
func (e *Event) fire() {
	if len(e.waiters) == 0 {
		return
	}
	// The wake loop runs no process code, so the waiter list can be
	// truncated in place and its backing array reused by the next Wait.
	woken := e.waiters
	e.waiters = woken[:0]
	for _, p := range woken {
		p.wokenByEvent = true
		e.k.makeRunnable(p)
	}
	e.k.eventFires++
	if e.k.obs.Wants(obs.KEventFire) {
		e.k.obs.Record(obs.Event{
			At: uint64(e.k.now), Kind: obs.KEventFire,
			PE: -1, Arg: int64(len(woken)), Actor: e.name,
		})
	}
}

// addWaiter registers p; called by the blocking process itself.
func (e *Event) addWaiter(p *Proc) {
	e.waiters = append(e.waiters, p)
}

// removeWaiter withdraws p (timeout path). It preserves waiter order.
func (e *Event) removeWaiter(p *Proc) {
	for i, w := range e.waiters {
		if w == p {
			e.waiters = append(e.waiters[:i], e.waiters[i+1:]...)
			return
		}
	}
}
