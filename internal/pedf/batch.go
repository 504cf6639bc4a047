package pedf

import (
	"fmt"
	"strings"

	"dfdbg/internal/obs"
)

// This file implements the batched execution engine of DESIGN §12: when
// the static analyzer proves a subgraph is consistent SDF (repetition
// vector, single-appearance schedule, buffer bounds), its actors can
// run "lazily" — statement costs accumulate on the actor instead of
// paying one kernel round-trip each, and are flushed as a single sleep
// before every externally observable action (token push/pop, occupancy
// read, firing end). Together with the kernel's inline-sleep fast path
// this fires whole schedule periods within one dispatch while keeping
// every recorded timestamp identical to the per-token engine.
//
// One rule decides the mode: every planned region runs batched exactly
// while no fault plan is armed (trigger indices count per-token
// actions) and nothing armed in the debugger can stop the world
// (lowdbg.Debugger.StopReason). The rule is global: a stop anywhere
// exposes every actor's position, and a lazy actor may have run ahead
// of where the per-token engine would have parked it. Observer
// breakpoints that only update a model never demote — every function
// hook site is a flush point, so they see identical times either way.

// BatchRing sizes one intra-region link ring from its proven bound.
type BatchRing struct {
	Link  int // runtime link ID
	Slots int // proven worst-case occupancy over a schedule period
}

// BatchPlan is one proven-SDF region rendered executable: which actors
// may run lazily and how to pre-size their links. Plans are produced
// from analysis.ExecPlan by the pedfgraph glue so this package keeps no
// dependency on the analyzer.
type BatchPlan struct {
	Region   int
	Actors   []string
	Schedule []string // single-appearance schedule, display form
	Rings    []BatchRing
}

// RegionMode reports the current execution mode of one planned region.
type RegionMode struct {
	Region   int      `json:"region"`
	Actors   []string `json:"actors"`
	Schedule []string `json:"schedule,omitempty"`
	Batched  bool     `json:"batched"`
	Reason   string   `json:"reason,omitempty"` // demotion reason when not batched
}

// EnableBatch installs batch plans and arms the batched engine. Plans
// whose actors cannot run lazily (native work functions, controllers,
// unknown names) are skipped — those regions simply stay on the
// per-token path. Call after Start; demotion/promotion tracking is
// wired into the debugger's arm watcher and the kernel's fault watcher,
// so mode changes are automatic from here on. Not calling it is the
// per-token reference.
func (rt *Runtime) EnableBatch(plans []BatchPlan) error {
	if !rt.started {
		return fmt.Errorf("pedf: EnableBatch before Start")
	}
	for _, plan := range plans {
		eligible := len(plan.Actors) > 0
		for _, name := range plan.Actors {
			f := rt.actors[name]
			if f == nil || f.Role != RoleFilter || f.Prog == nil {
				eligible = false
				break
			}
		}
		if !eligible {
			continue
		}
		for _, r := range plan.Rings {
			for _, l := range rt.links {
				if l.ID == r.Link {
					l.prealloc(r.Slots)
					break
				}
			}
		}
		rt.batchPlans = append(rt.batchPlans, plan)
	}
	if len(rt.batchPlans) > 0 && !rt.batchWired {
		rt.batchWired = true
		if rt.Dbg != nil {
			rt.Dbg.OnArmChange(rt.recomputeBatch)
		}
		rt.K.OnFaultsChange(rt.recomputeBatch)
	}
	rt.recomputeBatch()
	return nil
}

// RegionModes reports the execution mode of every planned region (empty
// when EnableBatch was never called or installed nothing).
func (rt *Runtime) RegionModes() []RegionMode {
	return append([]RegionMode(nil), rt.batchModes...)
}

// recomputeBatch re-derives the mode every region shares from the fault
// and debugger state and, when it changed, applies it to the actors and
// emits one KBatchMode event per region. Arming and fault changes
// happen between dispatches or inside a hook of the one running
// process, so flag flips are race-free; parked lazy actors provably
// hold no unflushed time (they only yield at flush points).
func (rt *Runtime) recomputeBatch() {
	if len(rt.batchPlans) == 0 {
		return
	}
	reason := ""
	if rt.K.Faults() != nil {
		reason = "fault plan armed"
	} else if rt.Dbg != nil {
		reason = rt.Dbg.StopReason()
	}
	if len(rt.batchModes) == len(rt.batchPlans) && rt.batchModes[0].Reason == reason {
		return
	}
	rt.batchModes = rt.batchModes[:0]
	for _, plan := range rt.batchPlans {
		rt.batchModes = append(rt.batchModes, RegionMode{
			Region:   plan.Region,
			Actors:   plan.Actors,
			Schedule: plan.Schedule,
			Batched:  reason == "",
			Reason:   reason,
		})
		for _, name := range plan.Actors {
			rt.actors[name].lazy = reason == ""
		}
	}
	if rec := rt.K.Observer(); rec.Wants(obs.KBatchMode) {
		// Every region flips at once; compose the burst in the
		// recorder's arena and commit it in one call.
		evs := rec.Scratch(len(rt.batchModes))
		for i, c := range rt.batchModes {
			b := int64(0)
			if c.Batched {
				b = 1
			}
			evs[i] = obs.Event{
				At: uint64(rt.K.Now()), Kind: obs.KBatchMode, PE: -1,
				Arg: int64(c.Region), Arg2: b,
				Actor: strings.Join(c.Actors, ","), Other: c.Reason,
			}
		}
		rec.RecordBatch(evs)
	}
}
